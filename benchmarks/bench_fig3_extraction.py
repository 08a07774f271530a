"""FIG3 — the paper's Fig. 3: the extraction function as a cut.

Regenerates the outcome matrix for ``Prox_10`` (the figure's example) and
asserts the three facts the figure conveys: the cut is monotone over slot
positions, extremal slots are coin-independent (validity), and each
adjacent slot pair is split by exactly one of the ``s - 1`` coin values
(Theorem 1's ``1/(s-1)``).
"""

from __future__ import annotations

from repro.analysis.tables import fig3_extraction_matrix, render_fig3
from repro.core.extraction import extract, splitting_coin
from repro.proxcensus.base import slot_label

SLOTS = 10


def test_fig3_matrix(report_sink):
    matrix = fig3_extraction_matrix(SLOTS)
    # Monotone step per coin column; extremal rows constant.
    assert matrix[0] == [0] * (SLOTS - 1)
    assert matrix[-1] == [1] * (SLOTS - 1)
    for coin in range(1, SLOTS):
        column = [row[coin - 1] for row in matrix]
        assert column == sorted(column)
    report_sink.append("\nFIG3  extraction cut for Prox_10\n" + render_fig3(SLOTS))


def test_each_boundary_has_exactly_one_splitting_coin(report_sink):
    boundaries = 0
    for slots in range(2, 34):
        for left in range(slots - 1):
            lv, lg = slot_label(left, slots)
            rv, rg = slot_label(left + 1, slots)
            lv, lg = (0, 0) if lv is None else (lv, lg)
            rv, rg = (0, 0) if rv is None else (rv, rg)
            splitters = [
                c
                for c in range(1, slots)
                if extract(lv, lg, c, slots) != extract(rv, rg, c, slots)
            ]
            assert splitters == [splitting_coin(left, slots)]
            boundaries += 1
    report_sink.append(
        f"FIG3  checked {boundaries} adjacent slot pairs across s=2..33: "
        "exactly one splitting coin each -> failure 1/(s-1)"
    )
