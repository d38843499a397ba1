"""Linear-programming estimator for regression with non-negative errors.

With one-sided errors the regression surface is a lower envelope of the
data, so the estimator pushes the fitted polynomial up against the
observations:

    max sum_i f(x_i)' theta   s.t.   f(x_i)' theta <= y_i   for all i,

with f(x) = (1, x, ..., x^p) and all coefficients free.  Only the lowest
observation at each distinct x can bind, so the program reduces to one row
per distinct x_k with right-hand side min_{i: x_i = x_k} y_i, and an
objective sum_k n_k f(x_k)' theta that weights each point by its count n_k.
For exponential errors (alpha = 1) this is exactly the maximum-likelihood
estimator: the log-likelihood is sum_i (f(x_i)' theta - y_i) on the
feasible set.  Its componentwise error decays at the non-regular rate
n^(-1/alpha).

Maximizing the intercept alone (the location-case form of this estimator)
does not generalize: with a support point at x = 0 the intercept is pinned
by the observations there and every other coefficient is left undetermined,
and without one the intercept escapes to infinity between the data points.
The summed objective is bounded whenever the design matrix has full column
rank, which is exactly the Dataset identifiability invariant.  That check,
the distinct rows and their counts depend only on the covariates, so ``sim``
derives them once per plan and then runs one K-row solve per replicate, the
solve that ``smith_fit`` runs for one dataset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .lp import Domain, LinearProgram, LpError, LpStatus, Sense, solve_lp

ENVELOPE_TOL = 1e-8


class EstimationError(RuntimeError):
    """The estimation problem is ill-posed or the solve failed."""


def _envelope_rows(xs: np.ndarray, degree: int) -> tuple[np.ndarray, ...]:
    """Rows f(x_k) of the K sorted distinct x values, the row index of each
    x_i and each row's count n_k; ValueError if the rank is below degree+1.
    """
    support, which, counts = np.unique(xs, return_inverse=True, return_counts=True)
    f = np.vander(support, degree + 1, increasing=True)
    if np.linalg.matrix_rank(f) <= degree:
        raise ValueError(
            f"design matrix of the {support.size} distinct x values has rank "
            f"< {degree + 1}; the fit is not identifiable"
        )
    return f, which, counts


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x_i, y_i) for a polynomial fit of given degree."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    degree: int

    def __init__(self, xs, ys, degree: int) -> None:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be one-dimensional")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"xs has length {xs.shape[0]} but ys has length {ys.shape[0]}"
            )
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("xs and ys must be finite")
        degree = int(degree)
        if degree < 1:
            raise ValueError(f"degree must be at least 1, got {degree}")
        n, p1 = xs.shape[0], degree + 1
        if n < p1:
            raise ValueError(f"need at least degree+1 = {p1} observations, got {n}")
        _envelope_rows(xs, degree)  # identifiability check
        object.__setattr__(self, "xs", tuple(float(x) for x in xs))
        object.__setattr__(self, "ys", tuple(float(y) for y in ys))
        object.__setattr__(self, "degree", degree)

    @property
    def n(self) -> int:
        return len(self.xs)

    def design_matrix(self) -> np.ndarray:
        return np.vander(np.asarray(self.xs), self.degree + 1, increasing=True)


def _envelope_fit(f, which, counts, y: np.ndarray) -> np.ndarray:
    """Solve the K-row envelope program of ``_envelope_rows`` for responses y."""
    if not np.all(np.isfinite(y)):
        raise EstimationError("responses must be finite")
    floor = np.full(f.shape[0], np.inf)
    np.minimum.at(floor, which, y)
    lp = LinearProgram(
        counts @ f,
        f,
        floor,
        [Sense.LE] * f.shape[0],
        [Domain.FREE] * f.shape[1],
        maximize=True,
    )
    try:
        sol = solve_lp(lp)
    except LpError as exc:
        raise EstimationError(f"envelope fit failed: {exc}") from exc
    if sol.status is not LpStatus.OPTIMAL:
        # Defensive: the program is always feasible (a low constant fit) and
        # bounded (multipliers lambda_k = n_k certify the dual), so any other
        # status signals a numerical failure, not a property of the data.
        raise EstimationError(f"envelope fit returned status {sol.status.value}")
    theta = np.asarray(sol.x, dtype=float)
    worst = float((y - f[which] @ theta).min())
    if worst < -ENVELOPE_TOL:
        raise EstimationError(f"envelope violated by {-worst:.3e}")
    return theta


def smith_fit(data: Dataset) -> np.ndarray:
    """Maximum-likelihood lower-envelope fit, solved as a linear program.

    Maximizes the sum of fitted values subject to the fit lying below every
    observation, which is the MLE under exponential (alpha = 1) errors.
    The program is solved on the K distinct x values: one row
    f(x_k)'theta <= min_{i: x_i = x_k} y_i per point, and the objective
    sum_k n_k f(x_k)'theta with n_k the count at x_k.  Returns the
    coefficient vector theta_hat of length degree+1.  The fit satisfies the
    envelope property: every residual y_i - f(x_i)'theta_hat is at least
    -ENVELOPE_TOL.
    """
    rows = _envelope_rows(np.asarray(data.xs), data.degree)
    return _envelope_fit(*rows, np.asarray(data.ys))


def residuals(data: Dataset, theta) -> np.ndarray:
    """Residuals y_i - f(x_i)'theta."""
    return np.asarray(data.ys) - data.design_matrix() @ np.asarray(theta, dtype=float)


def load_dataset_csv(path, degree: int) -> Dataset:
    """Read a dataset from CSV with header ``x,y``."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [s.strip() for s in reader.fieldnames] != [
            "x",
            "y",
        ]:
            raise ValueError(f"expected CSV header 'x,y', got {reader.fieldnames}")
        for row in reader:
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
    return Dataset(xs, ys, degree)
