"""Minimax risk lower bounds and the two-point risk inequality.

The headline bound for estimating an interest parameter with regularity
index ``alpha`` and (direction-free, n-sample) information value ``J`` is

    inf_T sup_theta  E ||T - psi(theta)||^2  >=  C(alpha) * J^(-2/alpha),

with the absolute constant C(alpha) = (1/32) * 3^(-2/alpha).  Because the
constant is not sharp, the bound is exposed both with and without it; the
order term J^(-2/alpha) is what simulation studies compare against.

The two-point inequality behind the bound is checked here by exact
enumeration on finite sample spaces: for any estimator T and parameter
pair (theta, vartheta),

    R(T, theta) + R(T, vartheta)
        >=  min{ (1 - h)/(4h), 1/16 } * ||psi(theta) - psi(vartheta)||^2,

where h is the squared Hellinger distance between the two distributions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_SAMPLE_SPACE = 6
_PROB_TOL = 1e-12


@dataclass(frozen=True)
class BoundInput:
    """Inputs to the minimax lower bound.

    ``info_value`` is the n-sample direction-free information, so no
    separate sample size appears here.
    """

    alpha: float
    info_value: float
    include_constant: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (self.info_value > 0.0 and math.isfinite(self.info_value)):
            raise ValueError(
                f"info_value must be positive and finite, got {self.info_value}"
            )


def hellinger_constant(alpha: float) -> float:
    """The absolute constant C(alpha) = (1/32) * 3^(-2/alpha)."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    return (1.0 / 32.0) * 3.0 ** (-2.0 / alpha)


def minimax_lower_bound(inp: BoundInput) -> float:
    """C(alpha) * info^(-2/alpha), or the bare order term if so requested."""
    order = inp.info_value ** (-2.0 / inp.alpha)
    if inp.include_constant:
        return hellinger_constant(inp.alpha) * order
    return order


def epsilon_diagnostic(alpha: float, info_value: float) -> float:
    """Radius eps = (3 * info)^(-1/alpha) of the perturbation used by the bound.

    Diagnostic only: it locates the hardest local alternative but is not
    needed to evaluate the bound itself.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not (info_value > 0.0 and math.isfinite(info_value)):
        raise ValueError(f"info_value must be positive and finite, got {info_value}")
    return (3.0 * info_value) ** (-1.0 / alpha)


def fisher_lower_bound(fisher: np.ndarray, d_psi: np.ndarray) -> float:
    """lambda_max( D I^{-1} D^T ) for the regular (alpha = 2) case.

    ``fisher`` must be symmetric positive definite, ``d_psi`` a full-rank
    q x d Jacobian of the interest parameter.  With the identity Jacobian
    this reduces to 1 / lambda_min(fisher).
    """
    fisher = np.atleast_2d(np.asarray(fisher, dtype=float))
    d = fisher.shape[0]
    if fisher.shape != (d, d):
        raise ValueError("fisher matrix must be square")
    if not np.isfinite(fisher).all():
        raise ValueError("fisher matrix must be finite")
    if not np.allclose(fisher, fisher.T, atol=1e-10):
        raise ValueError("fisher matrix must be symmetric")
    d_psi = np.atleast_2d(np.asarray(d_psi, dtype=float))
    q = d_psi.shape[0]
    if d_psi.shape[1] != d:
        raise ValueError(f"d_psi has {d_psi.shape[1]} columns, expected {d}")
    if not np.isfinite(d_psi).all():
        raise ValueError("d_psi must be finite")
    if np.linalg.matrix_rank(d_psi) < q:
        raise ValueError("d_psi must have full row rank")
    eigvals = np.linalg.eigvalsh(fisher)
    if eigvals[0] <= 0.0:
        raise ValueError("fisher matrix is singular or indefinite")
    cond = eigvals[-1] / eigvals[0]
    if cond > 1e12:
        warnings.warn(
            f"fisher matrix condition number {cond:.2e} exceeds 1e12; "
            "bound may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    middle = d_psi @ np.linalg.solve(fisher, d_psi.T)
    middle = 0.5 * (middle + middle.T)
    return float(np.linalg.eigvalsh(middle)[-1])


@dataclass(frozen=True)
class FiniteModelPair:
    """Two distributions on a tiny finite sample space, with psi values."""

    p_theta: np.ndarray
    p_vartheta: np.ndarray
    psi_theta: np.ndarray
    psi_vartheta: np.ndarray

    def __init__(self, p_theta, p_vartheta, psi_theta, psi_vartheta) -> None:
        p_theta = np.atleast_1d(np.asarray(p_theta, dtype=float))
        p_vartheta = np.atleast_1d(np.asarray(p_vartheta, dtype=float))
        psi_theta = np.atleast_1d(np.asarray(psi_theta, dtype=float))
        psi_vartheta = np.atleast_1d(np.asarray(psi_vartheta, dtype=float))
        m = p_theta.shape[0]
        if m > MAX_SAMPLE_SPACE:
            raise ValueError(f"sample space size {m} exceeds {MAX_SAMPLE_SPACE}")
        if p_vartheta.shape != (m,):
            raise ValueError("probability vectors must have equal length")
        for name, p in (("p_theta", p_theta), ("p_vartheta", p_vartheta)):
            if np.any(p < 0.0):
                raise ValueError(f"{name} has negative entries")
            if abs(float(p.sum()) - 1.0) > _PROB_TOL:
                raise ValueError(f"{name} sums to {p.sum()!r}, not 1")
        if psi_theta.shape != psi_vartheta.shape:
            raise ValueError("psi vectors must have equal length")
        object.__setattr__(self, "p_theta", p_theta)
        object.__setattr__(self, "p_vartheta", p_vartheta)
        object.__setattr__(self, "psi_theta", psi_theta)
        object.__setattr__(self, "psi_vartheta", psi_vartheta)

    @property
    def m(self) -> int:
        return self.p_theta.shape[0]

    def hellinger_sq(self) -> float:
        d = np.sqrt(self.p_theta) - np.sqrt(self.p_vartheta)
        return float(d @ d)


class TwoPointRiskResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def two_point_risk_check(pair: FiniteModelPair, estimator: np.ndarray) -> TwoPointRiskResult:
    """Exact check of the two-point risk inequality for one estimator.

    ``estimator`` maps each sample point to an estimate of psi: an array of
    shape (m,) for scalar psi or (m, q) generally.  Both risks are computed
    by exact summation over the sample space, so the comparison is free of
    Monte Carlo noise.  When h = 0 the (1-h)/(4h) branch is +infinity and
    the 1/16 branch applies.
    """
    t = np.asarray(estimator, dtype=float)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape[0] != pair.m:
        raise ValueError(f"estimator defined on {t.shape[0]} points, expected {pair.m}")
    q = pair.psi_theta.shape[0]
    if t.shape[1] != q:
        raise ValueError(f"estimator values have dimension {t.shape[1]}, expected {q}")

    risk_theta = float(pair.p_theta @ np.sum((t - pair.psi_theta) ** 2, axis=1))
    risk_vartheta = float(pair.p_vartheta @ np.sum((t - pair.psi_vartheta) ** 2, axis=1))
    lhs = risk_theta + risk_vartheta

    h = pair.hellinger_sq()
    if h < _PROB_TOL:
        branch = 1.0 / 16.0
    else:
        branch = min((1.0 - h) / (4.0 * h), 1.0 / 16.0)
    delta = pair.psi_theta - pair.psi_vartheta
    rhs = branch * float(delta @ delta)

    holds = lhs >= rhs - 1e-12 * max(1.0, abs(rhs))
    return TwoPointRiskResult(lhs, rhs, holds)
