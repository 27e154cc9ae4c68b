"""Output checks for the benchmark's workloads.

Every check takes plain data (rows, series, counters) and returns a list
of problems; an empty list means the output passed.  The expected values
are written here from the paper and from first principles, not read
from the program, so a change that breaks the program's output cannot
also move the bar it is measured against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

Problems = List[str]

#: The paper's Table 1, cell for cell (X86, IA64, Opteron, Mac OS X,
#: IBM SP, SUN, Alpha, BG/L, Windows).
PAPER_TABLE1 = {
    "Stack Copy": ["Yes", "Maybe", "Yes", "Maybe", "Yes", "Yes", "Yes",
                   "Maybe", "Yes"],
    "Isomalloc": ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                  "No", "Maybe"],
    "Memory Alias": ["Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes",
                     "Maybe", "Maybe"],
}

#: The paper's Table 2: limiting factor, then Linux, Sun, IBM SP, Alpha,
#: Mac OS, IA-64.
PAPER_TABLE2 = {
    "Process": ["ulimit/kernel", "8000", "25000", "100", "1000", "500",
                "50000+"],
    "Kernel Threads": ["kernel", "250", "3000", "2000", "90000+", "7000",
                       "30000+"],
    "User-level Threads": ["memory", "90000+", "90000+", "15000", "90000+",
                           "90000+", "50000+"],
}

#: The flow counts on the x axis of the paper's Figures 4-8.
PAPER_FLOW_GRID = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 2000, 5000,
                   10_000, 20_000, 50_000]

#: Figures whose platform honours repeated ``sched_yield``; on IBM SP and
#: Alpha (Figures 7-8) the kernel ignores it and the curves say nothing
#: about the real switch cost.
FIGURES_WITHOUT_YIELD_QUIRK = (4, 5, 6)


def _table(rows: Sequence[Sequence], expected: Dict[str, List[str]],
           name: str) -> Problems:
    got = {row[0]: [str(c) for c in row[1:]] for row in rows}
    problems = []
    if sorted(got) != sorted(expected):
        problems.append(f"{name}: rows {sorted(got)} != "
                        f"{sorted(expected)}")
    for label, cells in expected.items():
        if label in got and got[label] != cells:
            problems.append(f"{name} row {label!r}: {got[label]} != "
                            f"{cells}")
    return problems


def check_table1(rows) -> Problems:
    """Every Table 1 cell equals the paper's."""
    return _table(rows, PAPER_TABLE1, "Table 1")


def check_table2(rows) -> Problems:
    """Every Table 2 cell (limiting factor and limits) equals the paper's."""
    return _table(rows, PAPER_TABLE2, "Table 2")


def check_switch_figure(fig: int, xs, series) -> Problems:
    """Figures 4-8: the paper's x axis, four series; where the platform
    honours ``sched_yield``, Cth < pthread < process at every n where
    both curves exist."""
    problems = []
    if list(xs) != PAPER_FLOW_GRID:
        problems.append(f"fig{fig}: x axis {list(xs)} != paper grid")
    for mech in ("process", "pthread", "cth", "ampi"):
        ys = series.get(mech)
        if ys is None or len(ys) != len(PAPER_FLOW_GRID):
            problems.append(f"fig{fig}: series {mech!r} missing or short")
        elif ys[0] is None:
            problems.append(f"fig{fig}: {mech} refused 2 flows")
    if problems or fig not in FIGURES_WITHOUT_YIELD_QUIRK:
        return problems
    for i, n in enumerate(xs):
        for fast, slow in (("cth", "pthread"), ("pthread", "process")):
            a, b = series[fast][i], series[slow][i]
            if a is not None and b is not None and not a < b:
                problems.append(f"fig{fig} n={n}: {fast} {a} us is not "
                                f"faster than {slow} {b} us")
    return problems


def check_fig9(sizes, series) -> Problems:
    """Figure 9: isomalloc flat; stack copy > 10 us at 20 KB and linear;
    memory alias 2-8 us at 8 KB and < 10x growth by 8 MB."""
    problems = []
    copy = series["stack_copy"]
    iso = series["isomalloc"]
    alias = series["memory_alias"]
    if sizes[0] != 8 * 1024 or sizes[-1] != 8 * 1024 * 1024:
        problems.append(f"fig9: sizes span {sizes[0]}..{sizes[-1]}, "
                        f"not 8 KB..8 MB")
        return problems
    if max(iso) != min(iso):
        problems.append(f"fig9: isomalloc not flat ({min(iso)}.."
                        f"{max(iso)} us)")
    at20k = float(np.interp(20 * 1024, sizes, copy))
    if not at20k > 10.0:
        problems.append(f"fig9: stack copy {at20k:.3f} us at 20 KB "
                        f"(want > 10 us)")
    slopes = [(copy[i + 1] - copy[i]) / (sizes[i + 1] - sizes[i])
              for i in range(len(sizes) - 1)]
    mid = float(np.median(slopes))
    if mid <= 0 or any(abs(s - mid) > 0.05 * mid for s in slopes):
        problems.append("fig9: stack copy does not grow linearly "
                        "with stack size")
    if not 2.0 < alias[0] < 8.0:
        problems.append(f"fig9: memory alias {alias[0]} us at 8 KB "
                        f"(want 2-8 us)")
    if not alias[-1] < 10 * alias[0]:
        problems.append(f"fig9: memory alias grows {alias[-1] / alias[0]:.1f}"
                        f"x by 8 MB (want < 10x)")
    return problems


def check_fig10(rows, syscall_ns: float) -> Problems:
    """Figure 10: 13 and 17 instructions; a system call costs far more
    than either swap (> 5x)."""
    problems = []
    counts = [int(row[1]) for row in rows]
    if counts != [13, 17]:
        problems.append(f"fig10: instruction counts {counts} != [13, 17]")
    for row in rows:
        if not syscall_ns > 5 * float(row[4]):
            problems.append(f"fig10: syscall {syscall_ns} ns is not much "
                            f"more than {row[0]} at {row[4]} ns")
    return problems


def check_fig11(procs, times) -> Problems:
    """Figure 11: time per step falls at every step from 4 to 64 procs."""
    problems = []
    if list(procs) != [4, 8, 16, 32, 64]:
        problems.append(f"fig11: host procs {list(procs)}")
    if not all(a > b for a, b in zip(times, times[1:])):
        problems.append(f"fig11: time per step does not fall: {times}")
    return problems


def check_fig12(rows) -> Problems:
    """Figure 12: LB speedup > 1 for every config; class B's makespan
    spread is smaller with LB than without.

    ``rows`` are ``(label, no_lb_ns, with_lb_ns)``.
    """
    problems = []
    for label, no_lb, with_lb in rows:
        if not no_lb / with_lb > 1.0:
            problems.append(f"fig12 {label}: LB speedup "
                            f"{no_lb / with_lb:.3f} <= 1")
    b_no = [no for label, no, _ in rows if label.startswith("B.")]
    b_lb = [lb for label, _, lb in rows if label.startswith("B.")]
    if len(b_no) < 2:
        problems.append("fig12: fewer than two class-B configs")
    elif not max(b_lb) / min(b_lb) < max(b_no) / min(b_no):
        problems.append("fig12: class-B spread is not smaller with LB")
    return problems


# -- compiled flows ----------------------------------------------------------

def check_spin(results: Dict[int, int], kernel_events: int, flows: int,
               rounds: int) -> Problems:
    """Every spin flow completed with result ``rounds``; the kernel ran
    one event per yield plus one start per flow."""
    problems = []
    if len(results) != flows:
        problems.append(f"spin: {len(results)} of {flows} flows completed")
    bad = sum(1 for v in results.values() if v != rounds)
    if bad:
        problems.append(f"spin: {bad} flows returned a result != {rounds}")
    if kernel_events != flows * (rounds + 1):
        problems.append(f"spin: {kernel_events} kernel events != "
                        f"{flows} x ({rounds} + 1)")
    return problems


def ring_payloads(ranks: int, laps: int, seed: int) -> List[List[int]]:
    """The ring program's seeded payload plan, derived from the seed the
    same documented way (one ``randrange(1000)`` per rank and lap)."""
    rng = random.Random(seed)
    return [[rng.randrange(1000) for _ in range(laps)]
            for _ in range(ranks)]


def check_ring(results: Dict[int, int], ranks: int, laps: int,
               seed: int) -> Problems:
    """Each rank's sum equals its left neighbour's payload sum."""
    payloads = ring_payloads(ranks, laps, seed)
    if len(results) != ranks:
        return [f"ring: {len(results)} of {ranks} ranks completed"]
    wrong = [r for r in range(ranks)
             if results.get(r) != sum(payloads[(r - 1) % ranks])]
    if wrong:
        return [f"ring: {len(wrong)} ranks hold a wrong sum "
                f"(first: rank {wrong[0]})"]
    return []


def jacobi_reference(ranks: int, cells: int, steps: int,
                     seed: int) -> np.ndarray:
    """The stencil's answer by NumPy: a 1-D Jacobi sweep over the whole
    field, each end reflecting its own value, from the seeded field."""
    rng = random.Random(seed)
    x = np.array([rng.uniform(0.0, 100.0) for _ in range(ranks * cells)])
    for _ in range(steps):
        padded = np.concatenate(([x[0]], x, [x[-1]]))
        x = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    return x.reshape(ranks, cells)


def check_stencil(results: Dict[int, List[float]], ranks: int, cells: int,
                  steps: int, seed: int) -> Problems:
    """The compiled stencil equals the NumPy Jacobi iteration."""
    if sorted(results) != list(range(ranks)):
        return [f"stencil: {len(results)} of {ranks} ranks completed"]
    got = np.array([results[r] for r in range(ranks)], dtype=float)
    want = jacobi_reference(ranks, cells, steps, seed)
    if not np.array_equal(got, want):
        worst = (float(np.max(np.abs(got - want)))
                 if got.shape == want.shape else float("nan"))
        return [f"stencil: differs from the NumPy Jacobi reference "
                f"(max |diff| {worst})"]
    return []


# -- observed migration ------------------------------------------------------

def check_busy(entries, busy_ns: Sequence[float],
               busy_at_attach: Sequence[float]) -> Problems:
    """Per-PE busy time in the trace sums to each processor's busy time
    minus what it had when the observer attached."""
    attributed: Dict[str, float] = {}
    for e in entries:
        for pe, ns in e.get("busy", {}).items():
            attributed[pe] = attributed.get(pe, 0.0) + ns
    problems = []
    for pe, (now, then) in enumerate(zip(busy_ns, busy_at_attach)):
        want = now - then
        got = attributed.get(str(pe), 0.0)
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            problems.append(f"busy pe{pe}: trace {got} ns != "
                            f"processor {want} ns")
    extra = set(attributed) - {str(i) for i in range(len(busy_ns))}
    if extra:
        problems.append(f"busy: trace names unknown PEs {sorted(extra)}")
    return problems


def check_migrations(report_completed: int, lb_total: int,
                     migrator_completed: int) -> Problems:
    """Migrations agree three ways: trace report, LB reports, migrator."""
    if report_completed == lb_total == migrator_completed > 0:
        return []
    return [f"migrations disagree: report {report_completed}, LB reports "
            f"{lb_total}, migrator {migrator_completed}"]


def check_imbalance(reports: Sequence[tuple]) -> Problems:
    """Imbalance after each rebalance is at most the imbalance before.
    ``reports`` are ``(epoch, before, after)``."""
    if not reports:
        return ["imbalance: no rebalance happened"]
    return [f"imbalance epoch {epoch}: {after:.4f} after > {before:.4f} "
            f"before" for epoch, before, after in reports
            if after > before + 1e-12]


def check_categories(query_counts: Dict[str, int],
                     tracer_counts: Dict[str, int]) -> Problems:
    """``count() by category`` over dispatch ends equals the tracer's own
    per-category tally."""
    if query_counts == tracer_counts and query_counts:
        return []
    return [f"categories: query {query_counts} != tracer {tracer_counts}"]


def check_timeline(window_counts: Sequence[int],
                   window_sums: Sequence[float], total_count: int,
                   total_sum: float) -> Problems:
    """Timeline windows sum to the trace totals."""
    problems = []
    if sum(window_counts) != total_count:
        problems.append(f"timeline: windows count {sum(window_counts)} != "
                        f"{total_count}")
    if abs(sum(window_sums) - total_sum) > 1e-9 * max(1.0, total_sum):
        problems.append(f"timeline: windows sum {sum(window_sums)} != "
                        f"{total_sum}")
    return problems


def check_chaos(outcome: str, detail: Optional[str] = None) -> Problems:
    """A chaos run passes or detects its faults; never a violation or an
    error."""
    if outcome in ("pass", "detected"):
        return []
    return [f"chaos outcome {outcome}: {detail}"]
