import os
import sys

# The library is imported from the source tree next to this package, so
# `python -m perfbench` works with or without PYTHONPATH=src.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from .cli import main  # noqa: E402

sys.exit(main())
