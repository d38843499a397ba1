#!/usr/bin/env python3
"""Monte Carlo design-comparison study.

Compares the risk of the max-min optimal designs against uniform and
E-optimal comparators, for a linear and a quadratic regression model with
one-sided gamma errors.  For each scenario the script prints a table of
total risks (with Monte Carlo standard errors) and writes one
``risk_<scenario>.csv`` per scenario in the classic
``design_id,component,mse,mc_se,replicates,seed`` format.

Typical total risk orderings this reproduces:

* linear, beta in {1.0, 1.4}: two-point optimal < uniform-5 < uniform-10
  < uniform-15 (spreading mass away from the endpoints costs risk);
* quadratic, A in {1, 2}: three-point optimal (center weight pi from the
  pi-curve) < E-optimal three-point < uniform-5.

Defaults are sized to finish in a couple of minutes; raise ``--reps`` for
smoother numbers.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from nonregdesign import (
    Design,
    ErrorFamily,
    ErrorModel,
    RegressionModel,
    SimPlan,
    mc_risk,
    pi_curve,
    e_optimal_design,
    uniform_design,
    write_risk_csv,
)


def two_point(A: float) -> Design:
    return Design([(-A, 0.5), (A, 0.5)], A)


def three_point(A: float, pi: float) -> Design:
    half = (1.0 - pi) / 2.0
    return Design([(-A, half), (0.0, pi), (A, half)], A)


def run_scenario(name, designs, model, args, out_dir):
    results = {}
    t0 = time.perf_counter()
    for design_id, design in designs.items():
        plan = SimPlan(
            design=design,
            model=model,
            n=args.n,
            replicates=args.reps,
            seed=args.seed,
        )
        results[design_id] = mc_risk(plan)
    elapsed = time.perf_counter() - t0
    path = out_dir / f"risk_{name}.csv"
    write_risk_csv(path, results, seed=args.seed)
    print(f"\n{name}  (n={args.n}, reps={args.reps}, seed={args.seed}, "
          f"{elapsed:.1f}s)  -> {path}")
    for design_id, est in results.items():
        print(f"  {design_id:<16} total={est.total_risk:.6g} "
              f"(se {est.mc_standard_error:.2g})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=300, help="replicates per design")
    ap.add_argument("--n", type=int, default=120, help="sample size per replicate")
    ap.add_argument("--seed", type=int, default=7, help="master seed")
    ap.add_argument("--out-dir", type=Path, default=Path("study_out"),
                    help="directory for risk CSVs")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for beta in (1.0, 1.4):
        error = ErrorModel(ErrorFamily.GAMMA, beta=beta, sigma=1.0)
        model = RegressionModel(degree=1, A=1.0, theta=(6.0, 0.5), error=error)
        designs = {
            "optimal": two_point(1.0),
            "uniform5": uniform_design(1.0, 5),
            "uniform10": uniform_design(1.0, 10),
            "uniform15": uniform_design(1.0, 15),
        }
        run_scenario(f"linear_beta{beta:g}", designs, model, args, args.out_dir)

    error = ErrorModel(ErrorFamily.GAMMA, beta=1.0, sigma=1.0)
    for A in (1.0, 2.0):
        model = RegressionModel(degree=2, A=A, theta=(2.0, 4.0, 0.8), error=error)
        (_, pi, _), = pi_curve(A, [1.0])
        designs = {
            "optimal": three_point(A, pi),
            "regular-optimal": e_optimal_design(A, 2).design,
            "uniform5": uniform_design(A, 5),
        }
        run_scenario(f"quadratic_A{A:g}", designs, model, args, args.out_dir)


if __name__ == "__main__":
    main()
