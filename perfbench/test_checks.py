"""Each output check accepts a correct output and rejects a doctored one.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import checks

GRID = checks.PAPER_FLOW_GRID


def _rows(table):
    return [[label] + cells for label, cells in table.items()]


def test_table1():
    rows = _rows(checks.PAPER_TABLE1)
    assert checks.check_table1(rows) == []
    rows[2][8] = "Yes"
    assert checks.check_table1(rows)
    assert checks.check_table1(_rows(checks.PAPER_TABLE1)[:2])


def test_table2():
    rows = _rows(checks.PAPER_TABLE2)
    assert checks.check_table2(rows) == []
    rows[1][2] = "249"
    assert checks.check_table2(rows)
    rows = _rows(checks.PAPER_TABLE2)
    rows[0][1] = "memory"
    assert checks.check_table2(rows)


def _switch_series():
    def curve(base):
        return [base + 0.001 * i for i in range(len(GRID))]
    return {"process": curve(3.0), "pthread": curve(2.0), "cth": curve(0.4),
            "ampi": curve(0.8)}


def test_switch_figure():
    series = _switch_series()
    assert checks.check_switch_figure(4, GRID, series) == []
    series["pthread"][5:] = [None] * (len(GRID) - 5)
    assert checks.check_switch_figure(4, GRID, series) == []
    doctored = _switch_series()
    doctored["cth"][3] = 2.5
    assert checks.check_switch_figure(5, GRID, doctored)
    doctored = _switch_series()
    doctored["process"][0] = 1.0
    assert checks.check_switch_figure(6, GRID, doctored)
    # Figures 7-8: the sched_yield quirk makes the ordering meaningless...
    assert checks.check_switch_figure(7, GRID, doctored) == []
    # ...but the axis and the four series are still checked.
    assert checks.check_switch_figure(7, GRID[:-1], doctored)
    del doctored["ampi"]
    assert checks.check_switch_figure(8, GRID, doctored)


def _fig9():
    sizes = [8 * 1024 << i for i in range(11)]
    series = {"stack_copy": [0.38 + s / 1024 for s in sizes],
              "isomalloc": [0.38] * 11,
              "memory_alias": [3.9 + s / (1024 * 512) for s in sizes]}
    return sizes, series


def test_fig9():
    sizes, series = _fig9()
    assert checks.check_fig9(sizes, series) == []
    for name, i, value in (("isomalloc", 4, 0.39),      # not flat
                           ("stack_copy", 6, 400.0),    # not linear
                           ("memory_alias", 0, 9.0),    # too slow at 8 KB
                           ("memory_alias", 10, 60.0)):  # grows > 10x
        doctored = copy.deepcopy(series)
        doctored[name][i] = value
        assert checks.check_fig9(sizes, doctored), (name, i)
    slow = copy.deepcopy(series)
    slow["stack_copy"] = [v / 4 for v in slow["stack_copy"]]
    assert checks.check_fig9(sizes, slow)               # < 10 us at 20 KB


def test_fig10():
    rows = [["swap32", 13, 13, "32.5", "14.8"],
            ["swap64", 17, 17, "42.5", "19.3"]]
    assert checks.check_fig10(rows, 350.0) == []
    assert checks.check_fig10(rows, 90.0)
    doctored = copy.deepcopy(rows)
    doctored[1][1] = 16
    assert checks.check_fig10(doctored, 350.0)


def test_fig11():
    procs = [4, 8, 16, 32, 64]
    assert checks.check_fig11(procs, [22.3, 11.9, 6.0, 3.0, 1.5]) == []
    assert checks.check_fig11(procs, [22.3, 11.9, 6.0, 6.1, 1.5])


def test_fig12():
    rows = [("A.8,4PE", 27.9, 18.1), ("B.16,8PE", 54.9, 36.6),
            ("B.32,8PE", 77.4, 40.3), ("B.64,8PE", 94.5, 43.2)]
    assert checks.check_fig12(rows) == []
    assert checks.check_fig12(rows[:1] + [("B.16,8PE", 36.0, 36.6)]
                              + rows[2:])
    assert checks.check_fig12(rows[:2] + [("B.32,8PE", 77.4, 20.0)]
                              + rows[3:])


def test_spin():
    assert checks.check_spin({r: 2 for r in range(10)}, 30, 10, 2) == []
    assert checks.check_spin({r: 2 for r in range(9)}, 27, 10, 2)
    bad = {r: 2 for r in range(10)}
    bad[3] = 1
    assert checks.check_spin(bad, 30, 10, 2)
    assert checks.check_spin({r: 2 for r in range(10)}, 31, 10, 2)


def test_ring():
    payloads = checks.ring_payloads(16, 4, seed=7)
    sums = {r: sum(payloads[(r - 1) % 16]) for r in range(16)}
    assert checks.check_ring(sums, 16, 4, seed=7) == []
    assert checks.check_ring(sums, 16, 4, seed=8)
    doctored = dict(sums)
    doctored[5] += 1
    assert checks.check_ring(doctored, 16, 4, seed=7)
    del doctored[5]
    assert checks.check_ring(doctored, 16, 4, seed=7)


def test_stencil():
    want = checks.jacobi_reference(4, 8, 3, seed=2)
    results = {r: list(want[r]) for r in range(4)}
    assert checks.check_stencil(results, 4, 8, 3, seed=2) == []
    doctored = copy.deepcopy(results)
    doctored[2][3] = np.nextafter(doctored[2][3], 0.0)
    assert checks.check_stencil(doctored, 4, 8, 3, seed=2)
    assert checks.check_stencil(results, 4, 8, 4, seed=2)
    del doctored[0]
    assert checks.check_stencil(doctored, 4, 8, 3, seed=2)


def test_jacobi_reference_matches_a_plain_loop():
    rng_field = checks.jacobi_reference(3, 5, 0, seed=4).ravel().tolist()
    x = list(rng_field)
    for _ in range(6):
        x = [((x[max(i - 1, 0)] + x[i]) + x[min(i + 1, len(x) - 1)]) / 3.0
             for i in range(len(x))]
    assert checks.jacobi_reference(3, 5, 6, seed=4).ravel().tolist() == x


def test_busy():
    entries = [{"busy": {"0": 5.0}}, {"busy": {"0": 2.0, "1": 4.0}},
               {"ev": "send"}]
    assert checks.check_busy(entries, [10.0, 4.0], [3.0, 0.0]) == []
    assert checks.check_busy(entries, [10.0, 4.0], [0.0, 0.0])
    assert checks.check_busy(entries + [{"busy": {"7": 1.0}}],
                             [10.0, 4.0], [3.0, 0.0])


def test_migrations():
    assert checks.check_migrations(240, 240, 240) == []
    assert checks.check_migrations(239, 240, 240)
    assert checks.check_migrations(240, 241, 240)
    assert checks.check_migrations(0, 0, 0)


def test_imbalance():
    assert checks.check_imbalance([(0, 2.9, 1.0), (1, 1.0, 1.0)]) == []
    assert checks.check_imbalance([(0, 2.9, 1.0), (1, 1.0, 1.2)])
    assert checks.check_imbalance([])


def test_categories():
    assert checks.check_categories({"a": 3, "b": 1}, {"a": 3, "b": 1}) == []
    assert checks.check_categories({"a": 3, "b": 1}, {"a": 3, "b": 2})
    assert checks.check_categories({}, {})


def test_timeline():
    assert checks.check_timeline([2, 3], [10.0, 5.0], 5, 15.0) == []
    assert checks.check_timeline([2, 2], [10.0, 5.0], 5, 15.0)
    assert checks.check_timeline([2, 3], [10.0, 4.0], 5, 15.0)


@pytest.mark.parametrize("outcome,ok", [("pass", True), ("detected", True),
                                        ("violation", False),
                                        ("error", False)])
def test_chaos(outcome, ok):
    assert (checks.check_chaos(outcome, "x") == []) is ok
