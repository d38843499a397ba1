"""Monte Carlo risk of the envelope estimator under fixed designs.

A :class:`SimPlan` pins everything needed to reproduce a study: the design
(realized to exact integer counts by largest-remainder rounding), the
regression model, the replicate count, and a seed.  Replicate ``r`` draws
its errors from an independent substream derived from ``(seed, r)``, so
results are bit-for-bit reproducible regardless of execution order.  The
substreams' PCG64 seed words come from NumPy's ``SeedSequence`` hash,
computed for a whole chunk of replicates in one array pass.  The design's
envelope program -- its distinct rows, identifiability and dual vertices --
is derived once per plan.  Replicates are drawn in order, a
chunk at a time, and each chunk is fitted at once by
``estimator.fit_batch``: one array pass over the dual vertices fits every
replicate, and a tie on an optimal edge takes the edge's point of smallest
|theta_1|.  Only a replicate whose optimal face the tie rule cannot order,
or any replicate of a design with too many bases to enumerate, runs the
dense simplex, on the same draw; one with non-finite responses fails.  So a replicate costs one error draw plus its
share of a batched fit.  Risk is the vector of componentwise mean squared
errors of the fitted coefficients; the total risk is their sum.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .design import Design
from .estimator import _CHUNK_VALUES, _envelope, fit_batch
from .models import RegressionModel

# Replicates drawn and fitted together; fewer when n is large, so that a
# chunk's responses stay within _CHUNK_VALUES numbers.
_CHUNK = 256

# NumPy's SeedSequence (NEP 19, after O'Neill's seed_seq): a pool of four
# 32-bit words, the hashmix constants of the entropy mix (A) and of the
# output hash (B), and the two multipliers of mix.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# The spawn word r is one 32-bit entropy word.
_MAX_REPLICATES = 2**32


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
        for name in ("seed", "n", "replicates"):
            value = getattr(self, name)
            try:
                index = operator.index(value)
            except TypeError:
                index = -1
            if index < 0 or isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.replicates > _MAX_REPLICATES:
            raise ValueError(
                f"replicates={self.replicates} exceeds {_MAX_REPLICATES}: "
                "a replicate index must fit one 32-bit spawn word"
            )
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


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix of a Python int or a uint32 array.

    Returns the mixed value and the next hash constant.
    """
    next_const = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x: int, y):
    """SeedSequence's mix of the Python int x with a Python int or uint32 array."""
    result = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return result ^ result >> 16


class _SpawnSeeds:
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=(r,))`` for many r.

    The entropy is the seed's 32-bit words, zero-padded to the pool size,
    followed by the one spawn word r; only the last mix step sees r.  So
    the pool up to that step is built once, in Python ints, and the rest --
    mixing r into each pool word, then ``generate_state(4, uint64)``'s
    output hash -- runs on uint32 arrays over all r at once, where products
    wrap modulo 2**32 as SeedSequence's C arithmetic does.
    """

    def __init__(self, seed: int):
        words = []
        while True:
            words.append(seed & _MASK32)
            seed >>= 32
            if not seed:
                break
        words += [0] * (_POOL - len(words))
        hash_const = _INIT_A
        pool = []
        for word in words[:_POOL]:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    value, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], value)
        for word in words[_POOL:]:
            for dst in range(_POOL):
                value, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], value)
        self._pool = pool
        self._hash_const = hash_const

    def __call__(self, rs: np.ndarray) -> np.ndarray:
        """``(len(rs), 4)`` uint64 rows; row i seeds replicate ``rs[i]``."""
        r = np.asarray(rs, dtype=np.uint32)
        hash_const = self._hash_const
        pool = []
        for dst in range(_POOL):
            value, hash_const = _hashmix(r, hash_const)
            pool.append(_mix(self._pool[dst], value))
        hash_const = _INIT_B
        state = []
        for i in range(2 * _POOL):
            value = pool[i % _POOL] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value *= np.uint32(hash_const)
            state.append(value ^ value >> 16)
        out = np.empty((r.size, _POOL), dtype=np.uint64)
        for k in range(_POOL):
            out[:, k] = state[2 * k + 1].astype(np.uint64) << np.uint64(32)
            out[:, k] |= state[2 * k]
        return out


class _SeedWords(ISeedSequence):
    """One replicate's precomputed PCG64 seed words, as an ISeedSequence."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("only the PCG64 request (4, uint64) is precomputed")
        return self._words


def mc_risk(plan: SimPlan) -> RiskEstimate:
    """Monte Carlo risk of the envelope estimator under the plan's design.

    Replicate ``r`` draws its errors from
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(r,))))``, so any
    execution order yields the identical estimate.  Each chunk's PCG64 seed
    words come from one array pass of ``SeedSequence``'s hash, which the
    tests pin against NumPy's own.  A design that does not identify the
    coefficients fails before any error is drawn.  A replicate whose
    responses are not finite or whose fit fails is recorded; more than 1%
    failures aborts with a diagnostic rather than returning silently biased
    risk.
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
    spawn_seeds = _SpawnSeeds(operator.index(plan.seed))
    sq_errors, failed = [], []
    for start in range(0, plan.replicates, chunk):
        reps = range(start, min(start + chunk, plan.replicates))
        words = spawn_seeds(np.arange(reps.start, reps.stop, dtype=np.int64))
        ys = np.empty((len(reps), xs_rep.size))
        for i, row in enumerate(words):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(row)))
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
