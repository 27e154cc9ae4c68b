"""Run one workload in this process and print its figures.

Started by ``run.py``, once per workload run, with the program's
``src`` on ``PYTHONPATH``.  It builds the workload's inputs (the
set-up), runs whole rounds until the next one would overrun
``--seconds`` (or ``--rounds`` of them), checks every output, and
prints human-readable lines followed by one JSON line for ``run.py``.

With ``--traced`` every ``repro`` module is imported and wrapped first
(see ``tracing.py``), the set-up is traced too, and the JSON line
carries the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import resource
import sys
import time

#: Layers whose span self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("vm", "kernel", "flows.runtime", "flows.compiled",
                    "flows.mechanisms", "sim", "core.stacks",
                    "core.scheduler", "core.pup", "core.migration",
                    "core.checkpoint", "ampi", "balance", "bigsim", "obs",
                    "query", "chaos", "exec")

#: Counters taken at the wrappers and reported as they are.
WRAPPER_COUNTS = ("vm.mmap_calls", "vm.munmap_calls", "vm.page_maps",
                  "vm.remap_frames_calls", "kernel.events", "pup.bytes",
                  "checkpoint.writes", "ampi.messages", "balance.migrations",
                  "query.entries_scanned", "chaos.runs")

#: A layer's span self time and its sampled time may differ by at most
#: this share of the traced wall time (see README.md for why they differ).
ROLLUP_TOLERANCE = 0.10


def import_all_repro() -> None:
    """Import every ``repro`` module, so the tracer can wrap them all
    before any is first used."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def layer_metrics(tracer, rec, wl) -> dict:
    """The per-layer figures of one traced run (``run.py`` adds the
    ``bench.*`` figures from the untraced round)."""
    s = tracer.self_s
    c = tracer.counts
    m = {}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = s.get(layer, 0.0)
    m["flows.compile_s"] = s.get("flows.compile", 0.0)
    for name in WRAPPER_COUNTS:
        m[name] = c.get(name, 0)
    events = c.get("kernel.events", 0)
    m["kernel.ns_per_event"] = (s.get("kernel", 0.0) / events * 1e9
                                if events else 0.0)
    m["obs.report_s"] = sum(rec.op_s.get("report", ()))
    m["obs.trace_entries"] = 0
    m["chaos.faults_injected"] = 0
    m.update(wl.layer_counts())
    m["python.gc_s"] = tracer.gc_s
    m["python.gc_full_collections"] = tracer.gc_full
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=0,
                    help="stop after this many rounds (0: by --seconds)")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() when run.py started us")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import checks
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        import tracing
        import_all_repro()
        tracer = tracing.Tracer()
        tracer.install(extra_modules=(workloads, checks))
        tracer.start()
    os.makedirs(args.out, exist_ok=True)
    wl = cls(args.seed, args.out)
    rec = workloads.Recorder(tracer)

    rounds = []
    digests = []
    setup_s = None
    t_start = time.monotonic()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if setup_s is None:
            setup_s = time.monotonic() - args.t_spawn
        wl.round(rec)
        rounds.append(time.perf_counter() - t0)
        wl.digest(rec)
        digests.append(rec.take_digest())
        if args.rounds and len(rounds) >= args.rounds:
            break
        if time.monotonic() - t_start + rounds[-1] > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_s": rounds,
        # Mean, not median: the host's speed drifts between fast and slow
        # spells of seconds, and a median of a few rounds snaps to one.
        "wall_s": sum(rounds) / len(rounds),
        "setup_s": setup_s,
        "digest": digests[0],
        "digest_steady": len(set(digests)) == 1,
    }
    if tracer is not None:
        problems = wl.cross_checks()
        tracer.stop()
        gaps = tracer.disagreement()
        problems += [f"{layer}: span self time and sampled time differ by "
                     f"{gap:.3f} of the traced wall time"
                     for layer, gap in gaps.items()
                     if gap > ROLLUP_TOLERANCE]
        rec.op("cross_checks", lambda: problems, lambda p: p)
        result.update(layers=layer_metrics(tracer, rec, wl),
                      traced_wall_s=tracer.wall_s,
                      span_self_s=dict(sorted(tracer.self_s.items())),
                      rollup_s=tracer.rollup_s(),
                      rollup_gap=max(gaps.values()))
    result.update(attempted=rec.attempted, failed=rec.failed,
                  problems=rec.problems[:20],
                  op_s={k: sum(v) for k, v in rec.op_s.items()},
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for p in rec.problems[:20]:
        print(f"FAILED {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
