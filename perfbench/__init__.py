"""perfbench — the reference performance benchmark for this repository.

Four Monte-Carlo workloads, five end-to-end metrics and a per-layer
budget, all timed from outside the library through its public API.  See
``perfbench/README.md`` for the metric tables, the run protocol and the
layer → end-to-end interaction map.

Importing this package has no side effects; ``perfbench/run.py`` (one
workload, one result line) and ``python -m perfbench`` (``run`` /
``trace`` / ``compare``) are the entry points.
"""

#: Bumped whenever a workload, metric definition or the run protocol
#: changes — numbers from different versions are not comparable, and
#: ``perfbench compare`` refuses to compare them.
VERSION = "1"
