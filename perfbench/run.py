"""Benchmark of the reproduction: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload paper_figures --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload in one
child process and prints the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``).  ``--trace 1`` runs one untraced round
and then one traced round, each in its own child process, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_figures", "compiled_flows", "observed_migration")

#: The paper_figures experiments, reported as ``bench.<name>_s``.
EXPERIMENTS = ("table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8",
               "fig9", "fig10", "fig11", "fig12")

#: Every child must end within this many seconds in all.
TIME_LIMIT_S = 170.0


class RunFailed(Exception):
    """A child process failed or printed no result."""


def spawn(workload: str, seed: int, seconds: float, *, traced: bool,
          rounds: int, deadline: float) -> dict:
    """Run ``worker.py`` for one workload; returns its JSON result.

    The child starts with hash randomisation pinned and without writing
    bytecode, so every run imports the program the same cold way and
    leaves nothing in the source tree."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise RunFailed(f"no program source at {src}")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    out = os.path.join(HERE, "out", workload + ("-traced" if traced else ""))
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--rounds", str(rounds),
           "--t-spawn", repr(t_spawn), "--out", out]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload}: child ran past the time limit")
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def describe(res: dict, label: str) -> None:
    """Human-readable summary of one child's result."""
    print(f"[{label}] {res['workload']} seed={res['seed']}: "
          f"{res['rounds']} round(s) "
          f"{', '.join(f'{t:.3f}' for t in res['round_s'])} s; "
          f"set-up {res['setup_s']:.3f} s; "
          f"peak RSS {res['peak_rss_mb']:.1f} MB; "
          f"{res['failed']}/{res['attempted']} operations failed")
    ops = ", ".join(f"{k} {v:.3f}" for k, v in sorted(res["op_s"].items()))
    print(f"[{label}] seconds per operation name: {ops}")
    print(f"digest: {res['digest']}"
          + ("" if res["digest_steady"] else " (differs between rounds)"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark one workload of the reproduction.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace == 0:
            res = spawn(args.workload, args.seed, args.seconds,
                        traced=False, rounds=0, deadline=deadline)
            describe(res, "untraced")
            metrics = {"wall_s": metric(res["wall_s"], "s"),
                       "setup_s": metric(res["setup_s"], "s"),
                       "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
            attempted, failed = res["attempted"], res["failed"]
        else:
            base = spawn(args.workload, args.seed, args.seconds,
                         traced=False, rounds=1, deadline=deadline)
            describe(base, "untraced")
            res = spawn(args.workload, args.seed, args.seconds,
                        traced=True, rounds=1, deadline=deadline)
            describe(res, "traced")
            print("span self seconds by layer: " + json.dumps(
                {k: round(v, 3) for k, v in res["span_self_s"].items()}))
            print("sampled seconds by layer:   " + json.dumps(
                {k: round(v, 3) for k, v in res["rollup_s"].items()}))
            print(f"largest span/sample gap: {res['rollup_gap']:.3f} of "
                  f"the traced wall time")
            # Inclusive experiment times from the untraced round: tracing
            # inflates them.
            metrics = {f"bench.{exp}_s": metric(base["op_s"].get(exp, 0.0),
                                                "s")
                       for exp in EXPERIMENTS}
            metrics.update((name, metric(value, layer_unit(name)))
                           for name, value in res["layers"].items())
            metrics["trace.overhead_s"] = metric(
                res["wall_s"] - base["wall_s"], "s")
            attempted = base["attempted"] + res["attempted"]
            failed = base["failed"] + res["failed"]
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
