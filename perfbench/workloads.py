"""The benchmark's three workloads.

Each workload is built once from the seed (the set-up) and then run in
whole rounds.  A round is a fixed list of operations; every operation's
output goes through the checks in :mod:`checks`, and a check that fails
(or an operation that raises) counts the operation as failed.

The ``repro`` modules are imported inside the workload constructors, so
that the imports fall in the measured set-up time and so that a
directory without the program fails at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

import checks


class Recorder:
    """Counts operations and failures; collects the outputs' digest."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.op_s: Dict[str, List[float]] = {}
        self._digest: List[str] = []

    def op(self, name: str, produce: Callable[[], Any],
           check: Optional[Callable[[Any], List[str]]] = None) -> Any:
        """Run one operation and its check; returns the output, or None
        if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = produce()
        except Exception:  # the benchmark must finish the round
            self.op_s.setdefault(name, []).append(time.perf_counter() - t0)
            self._fail(name, [traceback.format_exc(limit=4)])
            return None
        self.op_s.setdefault(name, []).append(time.perf_counter() - t0)
        if check is not None:
            try:
                problems = check(out)
            except Exception:  # a check that crashes is a failed check
                problems = [traceback.format_exc(limit=4)]
            if problems:
                self._fail(name, problems)
        return out

    def counts(self) -> Dict[str, float]:
        """The wrappers' counters now (empty when not traced)."""
        return dict(self.tracer.counts) if self.tracer is not None else {}

    def _fail(self, name: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{name}: {p}" for p in problems)

    def digest(self, name: str, value: Any) -> None:
        """Add a simulated output to the run's digest."""
        self._digest.append(name + "=" + json.dumps(value, sort_keys=True,
                                                    default=repr))

    def take_digest(self) -> str:
        """Digest of everything added since the last call."""
        h = hashlib.sha256("\n".join(self._digest).encode()).hexdigest()
        self._digest = []
        return h


# ---------------------------------------------------------------------------
# paper_figures
# ---------------------------------------------------------------------------

class PaperFigures:
    """Tables 1-2 and Figures 4-12 at default scale, rendered into the
    benchmark's own output directory (never into ``results/``).

    The inputs are the paper's fixed grids; the seed does not change
    them."""

    name = "paper_figures"

    def __init__(self, seed: int, out_dir: str) -> None:
        from repro.bench import figures, report, tables
        from repro.sim import get_platform
        self.figures, self.report, self.tables = figures, report, tables
        self.get_platform = get_platform
        self.out_dir = out_dir
        self.texts: Dict[str, str] = {}
        self.experiments = (
            [("table1", self._table1), ("table2", self._table2)]
            + [(f"fig{n}", self._switch_figure(n)) for n in (4, 5, 6, 7, 8)]
            + [("fig9", self._fig9), ("fig10", self._fig10),
               ("fig11", self._fig11), ("fig12", self._fig12)])

    def round(self, rec: Recorder) -> None:
        self.texts = {}
        for name, run in self.experiments:
            rec.op(name, run, lambda out: out[1])

    def _emit(self, name: str, text: str) -> None:
        self.texts[name] = text
        with open(os.path.join(self.out_dir, name + ".txt"), "w") as f:
            f.write(text + "\n")

    def _table1(self):
        t = self.tables
        rows = t.table1_rows()
        text = self.report.render_table(
            ["Thread"] + [n for n, _ in t.TABLE1_COLUMNS], rows,
            "Table 1: portability of migratable thread implementations")
        self._emit("table1", text)
        return text, checks.check_table1(rows)

    def _table2(self):
        t = self.tables
        rows = t.table2_rows()
        text = self.report.render_table(
            ["Flow of control", "Limiting Factor"]
            + [n for n, _ in t.TABLE2_COLUMNS], rows,
            "Table 2: approximate practical limits")
        self._emit("table2", text)
        return text, checks.check_table2(rows)

    def _switch_figure(self, fig: int):
        def run():
            platform = self.figures.FIGURE_PLATFORMS[fig]
            xs, series = self.figures.context_switch_series(platform)
            text = self.report.render_series(
                "n_flows", xs, series,
                f"Figure {fig}: context switch time (us) vs number of "
                f"flows - {platform}")
            self._emit(f"fig{fig}", text)
            return text, checks.check_switch_figure(fig, xs, series)
        return run

    def _fig9(self):
        sizes, series = self.figures.stack_size_series()
        text = self.report.render_series(
            "stack_bytes", sizes, series,
            "Figure 9: context switch time (us) vs stack size")
        self._emit("fig9", text)
        return text, checks.check_fig9(sizes, series)

    def _fig10(self):
        rows = self.figures.minimal_swap_rows()
        text = self.report.render_table(
            ["routine", "instructions", "memory ops", "modeled cycles",
             "modeled ns @2.2GHz"], rows,
            "Figure 10: minimal context switching routines")
        self._emit("fig10", text)
        syscall_ns = self.get_platform("opteron").syscall_ns
        return text, checks.check_fig10(rows, syscall_ns)

    def _fig11(self):
        procs, series, targets = self.figures.bigsim_series()
        text = self.report.render_series(
            "host procs", procs, series,
            f"Figure 11: simulation time per MD step (ms), {targets} "
            f"target processors")
        self._emit("fig11", text)
        return text, checks.check_fig11(procs, series["time_per_step_ms"])

    def _fig12(self):
        results = self.figures.btmz_series()
        rows = [[label, f"{no.makespan_ns / 1e6:.1f}",
                 f"{lb.makespan_ns / 1e6:.1f}",
                 f"{no.makespan_ns / lb.makespan_ns:.2f}x",
                 f"{no.imbalance_before:.2f} -> {lb.imbalance_after:.2f}",
                 lb.migrations] for label, no, lb in results]
        text = self.report.render_table(
            ["config", "no LB (ms)", "with LB (ms)", "speedup",
             "max/avg load", "migrations"], rows,
            "Figure 12: BT-MZ with vs without load balancing")
        self._emit("fig12", text)
        return text, checks.check_fig12(
            [(label, no.makespan_ns, lb.makespan_ns)
             for label, no, lb in results])

    def digest(self, rec: Recorder) -> None:
        for name, _ in self.experiments:
            rec.digest(name, self.texts.get(name))

    def cross_checks(self) -> List[str]:
        return []

    def layer_counts(self) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# compiled_flows
# ---------------------------------------------------------------------------

class CompiledFlows:
    """Compiled-continuation flows on one PE: a spin population of a few
    x10^5 (the kernel's cold batched drain), a ring population (messages,
    ``recv`` matching, barriers) and a small stencil checked against
    NumPy."""

    name = "compiled_flows"
    SPIN_FLOWS = 200_000
    SPIN_YIELDS = 2
    RING_FLOWS = 20_000
    RING_LAPS = 8
    STENCIL = dict(ranks=64, cells=16, steps=8)

    def __init__(self, seed: int, out_dir: str) -> None:
        from repro.flows import CompiledContinuationFlow, compile_flow
        from repro.flows.programs import ring_program, spin_program
        from repro.flows.stencil import stencil_program
        from repro.sim import Processor, get_platform

        self.seed = seed
        self.programs = {
            "spin": spin_program(self.SPIN_FLOWS, self.SPIN_YIELDS),
            "ring": ring_program(self.RING_FLOWS, self.RING_LAPS,
                                 seed=seed),
            "stencil": stencil_program(seed=seed, **self.STENCIL),
        }
        compiled = {name: compile_flow(p.body)
                    for name, p in self.programs.items()}

        class Precompiled(CompiledContinuationFlow):
            """Spawns the flows compiled at set-up, so the timed part
            does not compile again."""

            def _spawn(self, world, program):
                world.spawn_compiled(compiled[program.name])

        self.mech = Precompiled(Processor(0, get_platform("linux_x86")))
        self.runs: Dict[str, Any] = {}

    def _run(self, name: str):
        run = self.mech.run_workload(self.programs[name])
        self.runs[name] = run
        return run

    def round(self, rec: Recorder) -> None:
        self.runs = {}
        st = self.STENCIL
        self.counts = [rec.counts()]
        rec.op("spin", lambda: self._run("spin"),
               lambda run: checks.check_spin(run.results, run.kernel_events,
                                             self.SPIN_FLOWS,
                                             self.SPIN_YIELDS))
        rec.op("ring", lambda: self._run("ring"),
               lambda run: checks.check_ring(run.results, self.RING_FLOWS,
                                             self.RING_LAPS, self.seed))
        rec.op("stencil", lambda: self._run("stencil"),
               lambda run: checks.check_stencil(
                   run.results, st["ranks"], st["cells"], st["steps"],
                   self.seed))
        self.counts.append(rec.counts())

    def digest(self, rec: Recorder) -> None:
        for name, run in sorted(self.runs.items()):
            rec.digest(name, {"kernel_events": run.kernel_events,
                              "dispatches": run.dispatches,
                              "modeled_switch_ns": run.modeled_switch_ns,
                              "results": sorted(run.results.items())})

    def layer_counts(self) -> Dict[str, float]:
        return {}

    def cross_checks(self) -> List[str]:
        """Kernel events counted at the wrappers equal the runs' own."""
        before, after = self.counts
        counted = after.get("kernel.events", 0) - before.get(
            "kernel.events", 0)
        own = sum(run.kernel_events for run in self.runs.values())
        if counted != own:
            return [f"kernel.events {counted} at the wrappers != {own} "
                    f"reported by the flow runs"]
        return []


# ---------------------------------------------------------------------------
# observed_migration
# ---------------------------------------------------------------------------

class ObservedMigration:
    """BT-MZ class C under AMPI with a RunObserver attached, the report
    and query engines over its trace, then a seeded chaos sweep."""

    name = "observed_migration"
    ITERATIONS = 40
    LB_PERIOD = 2
    CHECKPOINT_PERIOD = 4
    CHAOS_SEEDS = 150
    QUERY_WINDOWS = 16

    def __init__(self, seed: int, out_dir: str) -> None:
        from repro.ampi import AmpiRuntime
        from repro.balance.strategies import GreedyLB
        from repro.chaos import ChaosRunner, FaultConfig, STANDARD_WORKLOADS
        from repro.obs import RunObserver, build_report
        from repro import query
        from repro.workloads.btmz import BTMZConfig, make_btmz_main

        self.AmpiRuntime, self.GreedyLB = AmpiRuntime, GreedyLB
        self.RunObserver, self.build_report = RunObserver, build_report
        self.query = query
        self.cfg = BTMZConfig("C", 256, 16, iterations=self.ITERATIONS,
                              lb_period=self.LB_PERIOD)
        self.main = make_btmz_main(self.cfg, self.CHECKPOINT_PERIOD)
        # The default rates of tools/chaos_sweep.py.
        config = FaultConfig(
            drop_rate=0.01, delay_rate=0.08, reorder_rate=0.05,
            migrate_abort_rate=0.1, migrate_bounce_rate=0.05,
            ckpt_error_rate=0.02, ckpt_corrupt_rate=0.02,
            crash_rate=0.15, evac_rate=0.1)
        self.chaos = [ChaosRunner(w(), config) for w in STANDARD_WORKLOADS]
        first = seed * self.CHAOS_SEEDS
        self.chaos_seeds = range(first, first + self.CHAOS_SEEDS)
        self.state: Dict[str, Any] = {}

    def _observed_run(self):
        rt = self.AmpiRuntime(self.cfg.npes, self.cfg.nprocs, self.main,
                              strategy=self.GreedyLB(),
                              platform="tungsten_xeon",
                              slot_bytes=256 * 1024, stack_bytes=8 * 1024)
        obs = self.RunObserver.for_ampi(rt)
        obs.attach()
        try:
            rt.run()
            obs.finalize()
        finally:
            obs.detach()
        self.state.update(rt=rt, obs=obs)
        return rt, obs

    def _check_run(self, out) -> List[str]:
        rt, obs = out
        return (checks.check_busy(obs.entries,
                                  [p.busy_ns for p in rt.cluster.processors],
                                  obs.busy_at_attach)
                + checks.check_imbalance(
                    [(r.epoch, r.imbalance_before, r.imbalance_after)
                     for r in rt.reports]))

    def _check_report(self, report) -> List[str]:
        rt = self.state["rt"]
        return checks.check_migrations(
            report["migrations"]["completed"],
            sum(r.migrations for r in rt.reports),
            rt.migrator.migrations_completed)

    def _queries(self):
        q = self.query
        entries = self.state["obs"].entries
        ends = q.filter_entries(entries, "ev == 'end' and not skipped")
        agg = q.aggregate_entries(ends, "count() by category")
        by_cat = {row["group"]["category"] or "uncategorized":
                  row["aggregates"]["count()"] for row in agg["rows"]}
        tl = q.timeline_entries(entries, windows=self.QUERY_WINDOWS,
                                value="bytes", where="ev == 'send'")
        return by_cat, tl

    def _check_queries(self, out) -> List[str]:
        by_cat, tl = out
        obs = self.state["obs"]
        sends = [e for e in obs.entries if e.get("ev") == "send"]
        return (checks.check_categories(by_cat,
                                        obs.counters["by_category"])
                + checks.check_timeline(
                    [w["count"] for w in tl["windows"]],
                    [w["sum"] for w in tl["windows"]],
                    len(sends), float(sum(e["bytes"] for e in sends))))

    def round(self, rec: Recorder) -> None:
        self.state = {}
        fingerprints = []
        before = rec.counts()
        ran = rec.op("btmz", self._observed_run, self._check_run)
        self.state["counts"] = (before, rec.counts())
        if ran is not None:
            self.state["report"] = rec.op(
                "report",
                lambda: self.build_report(self.state["obs"].entries,
                                          self.state["obs"].registry),
                self._check_report)
            rec.op("query", self._queries, self._check_queries)
        else:
            # Same operations in every round, so a failure costs a fixed
            # share of ``attempted``.
            rec.op("report", lambda: None, lambda _: ["no observed run"])
            rec.op("query", lambda: None, lambda _: ["no observed run"])
        for runner in self.chaos:
            for seed in self.chaos_seeds:
                res = rec.op(f"chaos.{runner.workload.name}",
                             lambda: runner.run_seed(seed),
                             lambda r: checks.check_chaos(r.outcome,
                                                          r.detail))
                if res is not None:
                    fingerprints.append((res.workload, seed, res.outcome,
                                         len(res.schedule),
                                         res.fingerprint()))
        self.state["chaos"] = fingerprints

    def digest(self, rec: Recorder) -> None:
        rt, obs = self.state.get("rt"), self.state.get("obs")
        if rt is not None:
            rec.digest("btmz", {"makespan_ns": rt.makespan_ns,
                                "migrations": rt.migrator.migrations_completed,
                                "trace_entries": len(obs.entries)})
        report = self.state.get("report")
        if report is not None:
            rec.digest("report", {k: report[k] for k in
                                  ("events", "migrations", "categories")})
        rec.digest("chaos", self.state.get("chaos"))

    def layer_counts(self) -> Dict[str, float]:
        obs = self.state.get("obs")
        return {"obs.trace_entries": len(obs.entries) if obs else 0,
                "chaos.faults_injected": sum(
                    f[3] for f in self.state.get("chaos", ()))}

    def cross_checks(self) -> List[str]:
        """Counts at the wrappers against the observer's counters, over
        the observed run alone."""
        obs = self.state.get("obs")
        if obs is None:
            return ["no observed run"]
        before, after = self.state["counts"]
        reg = obs.registry
        problems = []
        for counter, own in (
                ("kernel.events", obs.counters["dispatched"]),
                ("balance.migrations",
                 reg.counter("migration.completed").value),
                ("checkpoint.writes",
                 reg.counter("checkpoint.writes").value)):
            counted = after.get(counter, 0) - before.get(counter, 0)
            if counted != own:
                problems.append(f"{counter} {counted} at the wrappers != "
                                f"{own} counted by the observer")
        return problems


WORKLOADS = {w.name: w for w in (PaperFigures, CompiledFlows,
                                 ObservedMigration)}
