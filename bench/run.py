#!/usr/bin/env python3
"""Benchmark of the nonregdesign toolkit: one workload per invocation.

    python3 bench/run.py --workload {mc-risk,design-solve,info-ladder}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in.  The workload's operations run in whole
rounds until ``--seconds`` have passed, at least two; the first round's outputs are
checked against independent oracles and every later round must reproduce
them exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it, starting with ``#``, are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is timed in this process and in fresh interpreters, half of them
# before the measured rounds and half after, so the median spans the run.
SETUP_CHILDREN = 2
# Every operation is timed at least twice, so each stage time is a median
# over two stretches of the run; a traced run needs an untraced round 0 and
# at least one traced round.
MIN_ROUNDS = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc-risk", "design-solve", "info-ladder"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import, input building and one warm-up call, print it, exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def setup(args, wrap_h=None):
    """Import the package, build the workload's inputs, make one warm-up call."""
    t0 = time.perf_counter()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.workload == "info-ladder" and wrap_h is not None:
        work = build(args.seed, wrap_h)
    else:
        work = build(args.seed)
    work.warmup()
    return workloads, work, time.perf_counter() - t0


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def interleave(ops):
    """Spread each stage's operations evenly over the round.

    The machine's speed drifts over seconds; interleaving makes both stage
    times average over the same stretch of the run.
    """
    stages = {}
    for op in ops:
        stages.setdefault(op.stage, []).append(op)
    return sorted(ops, key=lambda op: (stages[op.stage].index(op) + 0.5) / len(stages[op.stage]))


def run_round(ops) -> tuple[dict, dict, dict]:
    outputs, errors, seconds = {}, {}, {}
    for op in ops:
        t = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception:  # an operation that raises counts as failed
            outputs[op.name] = None
            errors[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds[op.name] = time.perf_counter() - t
    return outputs, errors, seconds


def stage_seconds(ops, rounds, stage: int) -> float:
    """Sum over the stage's operations of their median time across rounds."""
    return sum(statistics.median(r[2][op.name] for r in rounds) for op in ops if op.stage == stage)


def check_round(ops, outputs, errors) -> dict[str, list[str]]:
    """Failure messages per failed operation of the first round."""
    failures = {name: [msg] for name, msg in errors.items()}
    for op in ops:
        if op.name in failures:
            continue
        try:
            msgs = op.check(outputs[op.name], outputs)
        except Exception:
            msgs = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if msgs:
            failures[op.name] = msgs
    return failures


def layer_metrics(tracer, wall_traced: float, wall_untraced: float) -> dict:
    from tracing import per_round_median

    rounds = tracer.round_totals()

    def med(name, key):
        return per_round_median(rounds, name, key)

    reps = med("sim.mc_risk", "count")
    values = {
        "models.sample_calls": (med("models.sample", "calls"), "count"),
        "models.sample_s": (med("models.sample", "s"), "s"),
        "estimator.fit_calls": (med("estimator.fit", "calls"), "count"),
        "estimator.fit_s": (med("estimator.fit", "s"), "s"),
        "estimator.self_s": (med("estimator.fit", "self_s"), "s"),
        "lp.envelope_solves": (med("lp.envelope", "calls"), "count"),
        "lp.envelope_s": (med("lp.envelope", "s"), "s"),
        "lp.envelope_pivots": (med("lp.envelope", "count"), "count"),
        "lp.master_solves": (med("lp.master", "calls"), "count"),
        "lp.master_s": (med("lp.master", "s"), "s"),
        "lp.master_pivots": (med("lp.master", "count"), "count"),
        "sim.mc_risk_s": (med("sim.mc_risk", "s"), "s"),
        "sim.self_s": (med("sim.mc_risk", "self_s"), "s"),
        "sim.replicate_us": (1e6 * med("sim.mc_risk", "s") / reps if reps else 0.0, "us"),
        "design.oracle_calls": (med("design.oracle", "calls"), "count"),
        "design.oracle_s": (med("design.oracle", "s"), "s"),
        "design.sphere_calls": (med("design.sphere", "calls"), "count"),
        "design.sphere_s": (med("design.sphere", "s"), "s"),
        "design.cuts_used": (med("design.solve", "count"), "count"),
        "design.self_s": (med("design.solve", "self_s"), "s"),
        "hellinger.fit_calls": (med("hellinger.fit", "calls"), "count"),
        "hellinger.fit_s": (med("hellinger.fit", "s"), "s"),
        "hellinger.h_evals": (med("hellinger.h", "calls"), "count"),
        "hellinger.h_s": (med("hellinger.h", "s"), "s"),
        "hellinger.self_s": (med("hellinger.fit", "self_s"), "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nonregdesign" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    wrap_h = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        wrap_h = lambda h: tracer.wrap("hellinger.h", h)  # noqa: E731
    workloads, work, setup_s = setup(args, wrap_h)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN // 2)]
    ops = interleave(work.ops)

    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) >= 1
        if traced:
            tracer.round = len(rounds)
            tracer.install(workloads.bindings())
            tracer.active = True
        try:
            rounds.append(run_round(ops))
        finally:
            if traced:
                tracer.active = False
                tracer.uninstall()
        if time.perf_counter() - t_start >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break

    setup_samples += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN // 2)]

    first_out, first_err, _ = rounds[0]
    failures = check_round(work.ops, first_out, first_err)
    failed = 0
    for i, (outputs, errors, _) in enumerate(rounds):
        for op in work.ops:
            if op.name in failures:
                failed += 1
            elif op.name in errors or outputs[op.name] != first_out[op.name]:
                failures.setdefault(op.name, [f"round {i} output differs from round 0"])
                failed += 1
    attempted = len(work.ops) * len(rounds)
    correct = set(failures) <= work.known_faults

    stage1 = stage_seconds(work.ops, rounds, 1)
    stage2 = stage_seconds(work.ops, rounds, 2)
    setup_med = statistics.median(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"nproc={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
          f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')}")
    for name, msgs in failures.items():
        known = " (known fault)" if name in work.known_faults else ""
        print(f"# FAILED{known} {name}: {'; '.join(msgs)}")
    named = dict(work.summary(stage1, stage2))
    named["setup_s"] = (setup_med, "s")
    named["peak_rss_mb"] = (rss_mb, "MB")
    print("# " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in named.items())
          + f"  attempted={attempted} failed={failed}")

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_med, "unit": "s"},
            "stage1_s": {"value": stage1, "unit": "s"},
            "stage2_s": {"value": stage2, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        untraced = sum(rounds[0][2].values())
        traced = statistics.median(sum(r[2].values()) for r in rounds[1:])
        metrics = layer_metrics(tracer, traced, untraced)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
