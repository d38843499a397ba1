"""Monte Carlo risk of the envelope estimator under fixed designs.

A :class:`SimPlan` pins everything needed to reproduce a study: the design
(realized to exact integer counts by largest-remainder rounding), the
regression model, the replicate count, and a seed.  Replicate ``r`` draws
its errors from an independent substream derived from ``(seed, r)``, so
results are bit-for-bit reproducible regardless of execution order.  The
design's envelope program -- its distinct rows, identifiability and dual
vertices -- is derived once per plan.  Replicates are drawn in order, a
chunk at a time, and each chunk is fitted at once by
``estimator.fit_batch``, tied replicates included: a tie on an optimal edge
takes the edge's point of smallest |theta_1|.  Only a replicate whose optimal
face the tie rule cannot order, or any replicate of a design with too many
bases to enumerate, runs the dense simplex, on the same draw; one with
non-finite responses fails.  So a replicate costs one error draw plus its
share of a batched fit.  Risk is the vector of componentwise mean squared
errors of the fitted coefficients; the total risk is their sum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .design import Design
from .estimator import _CHUNK_VALUES, _envelope, fit_batch
from .models import RegressionModel

# Replicates drawn and fitted together; fewer when n is large, so that a
# chunk's responses stay within _CHUNK_VALUES numbers.
_CHUNK = 256


class SimulationError(RuntimeError):
    """Too many replicates failed; results would be silently biased."""


@dataclass(frozen=True)
class SimPlan:
    design: Design
    n: int
    model: RegressionModel
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.n < len(self.design.points):
            raise ValueError(
                f"n={self.n} is below the design support size "
                f"{len(self.design.points)}"
            )
        if self.design.A > self.model.A + 1e-12:
            raise ValueError(
                f"design interval [-{self.design.A}, {self.design.A}] exceeds "
                f"the model's [-{self.model.A}, {self.model.A}]"
            )


@dataclass(frozen=True)
class RiskEstimate:
    per_component_mse: tuple[float, ...]
    total_risk: float
    mc_standard_error: float
    replicates: int
    per_component_se: tuple[float, ...]
    failed_replicates: tuple[int, ...] = ()

    @property
    def failures(self) -> int:
        return len(self.failed_replicates)

    def __post_init__(self) -> None:
        if any(v < 0.0 for v in self.per_component_mse):
            raise ValueError("componentwise MSE must be non-negative")
        if abs(self.total_risk - sum(self.per_component_mse)) > 1e-12 * max(
            1.0, abs(self.total_risk)
        ):
            raise ValueError("total risk must equal the sum of component MSEs")


def realize_design(design: Design, n: int) -> np.ndarray:
    """Integer per-point counts by largest-remainder rounding of n*w.

    Counts sum to n and satisfy |count_i - n*w_i| < 1.  Remainder ties go to
    the leftmost support point, so the realization does not depend on the
    order in which the design lists its points.
    """
    if n < len(design.points):
        raise ValueError(f"n={n} is below the support size {len(design.points)}")
    target = n * design.ws
    base = np.floor(target).astype(int)
    short = n - int(base.sum())
    frac = target - base
    order = np.lexsort((design.xs, -frac))
    counts = base.copy()
    counts[order[:short]] += 1
    return counts


def mc_risk(plan: SimPlan) -> RiskEstimate:
    """Monte Carlo risk of the envelope estimator under the plan's design.

    Replicates use independent, replicate-indexed substreams, so any
    execution order yields the identical estimate.  A design that does not
    identify the coefficients fails before any error is drawn.  A replicate
    whose responses are not finite or whose fit fails is recorded; more than
    1% failures aborts with a diagnostic rather than returning silently
    biased risk.
    """
    counts = realize_design(plan.design, plan.n)
    # Sorted covariates make the estimate invariant under relabeling of the
    # design's points: the r-th error draw always meets the same x.
    xs_rep = np.sort(np.repeat(plan.design.xs, counts))
    try:
        env = _envelope(xs_rep, plan.model.degree)
    except ValueError as exc:
        raise SimulationError(f"all {plan.replicates} replicates failed: {exc}") from exc
    theta = np.asarray(plan.model.theta)
    mean = plan.model.mean(xs_rep)
    chunk = max(1, min(_CHUNK, _CHUNK_VALUES // xs_rep.size))
    sq_errors, failed = [], []
    for start in range(0, plan.replicates, chunk):
        reps = range(start, min(start + chunk, plan.replicates))
        ys = np.empty((len(reps), xs_rep.size))
        for i, r in enumerate(reps):
            rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(r,)))
            ys[i] = mean + plan.model.error.sample(xs_rep.size, rng)
        fits, errors = fit_batch(env, ys)
        failed.extend(start + i for i in errors)
        ok = np.ones(len(reps), dtype=bool)
        ok[list(errors)] = False
        diff = fits[ok] - theta
        sq_errors.append(diff * diff)

    n_fail = len(failed)
    if n_fail > 0.01 * plan.replicates:
        raise SimulationError(
            f"{n_fail}/{plan.replicates} replicates failed (first failures: "
            f"{failed[:5]}); the envelope fit failed or the responses were not finite"
        )
    sq = np.concatenate(sq_errors)
    used = sq.shape[0]
    mse = sq.mean(axis=0)
    if used > 1:
        comp_se = sq.std(axis=0, ddof=1) / np.sqrt(used)
        total_se = float(sq.sum(axis=1).std(ddof=1) / np.sqrt(used))
    else:
        comp_se = np.full(sq.shape[1], np.inf)
        total_se = float("inf")
    return RiskEstimate(
        per_component_mse=tuple(float(v) for v in mse),
        total_risk=float(mse.sum()),
        mc_standard_error=total_se,
        replicates=used,
        per_component_se=tuple(float(v) for v in comp_se),
        failed_replicates=tuple(failed),
    )


def unif_mle_mse(theta: float, n: int) -> float:
    """Exact MSE of the sample maximum for Unif(0, theta).

    The maximum is the MLE; its MSE decays at the non-regular n^(-2) rate
    rather than the parametric n^(-1).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    var = theta**2 * n / ((n + 1.0) ** 2 * (n + 2.0))
    bias = theta * n / (n + 1.0) - theta
    return var + bias * bias


def write_risk_csv(path, results: dict[str, RiskEstimate], seed: int) -> None:
    """Emit ``design_id,component,mse,mc_se,replicates,seed`` rows.

    One row per coefficient component plus a ``total`` row per design, so
    both per-component and summed readings of the risk are available.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design_id", "component", "mse", "mc_se", "replicates", "seed"])
        for design_id, est in results.items():
            for k, (m, s) in enumerate(
                zip(est.per_component_mse, est.per_component_se)
            ):
                writer.writerow(
                    [design_id, k, f"{m:.12g}", f"{s:.12g}", est.replicates, seed]
                )
            writer.writerow(
                [
                    design_id,
                    "total",
                    f"{est.total_risk:.12g}",
                    f"{est.mc_standard_error:.12g}",
                    est.replicates,
                    seed,
                ]
            )
