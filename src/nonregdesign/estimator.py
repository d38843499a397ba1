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
rank, which is exactly the Dataset identifiability invariant.

The dual of the K-row program is  min m'lambda  s.t.  F'lambda = c,
lambda >= 0, with m the point minima and c = sum_k n_k f(x_k).  Its feasible
set depends only on the covariates, and it is bounded (the intercept column
gives sum_k lambda_k = n), so the optimum is the best of finitely many dual
vertices: d-row bases B with lambda_B = F_B^{-T} c >= 0.  ``_envelope``
enumerates them once per set of covariates, and ``_certified_fits`` fits a
whole batch of responses with array arithmetic: per-point minima, the basis
with the smallest dual objective m_B'lambda_B, and theta = F_B^{-1} m_B.  A
nondegenerate optimal dual vertex pins the primal optimum uniquely, so that
theta is the one the simplex would find.  A fit is certified only if its best
basis is nondegenerate, every other basis is worse by a clear margin, and the
envelope check passes.

Otherwise the optimal face may be an edge: a degenerate optimal dual vertex
(c in the cone of fewer than d rows), or two bases whose objectives tie.
``_tied_fits`` resolves such a fit in arrays too.  Every optimal vertex is
the point theta_B of some dual-feasible basis, so the face is spanned by the
points theta_B whose objective is within the tie margin of the best and that
pass the envelope check.  When those are one or two distinct points, the fit
is the point of the face with the smallest |theta_1|: the crossing
theta_1 = 0 when the edge spans zero, else the end nearer zero.  The rule
commutes with the mirror x -> -x, which maps theta_j to (-1)^j theta_j.  The
dense simplex (``_envelope_fit``) remains for every other fit: a face the
rule cannot order (more than two distinct points, or theta_1 constant along
the edge), non-finite responses (which it rejects), and any fit of a design
whose bases are not enumerated (more than ``_MAX_BASES``, or one
ill-conditioned).  On a tie the simplex reports the optimal point where it
stops, which need not be a vertex: it splits each free coefficient into two
non-negative columns and can stop with both at zero, inside the edge.  With
a true slope that is mostly the rule's point; with none it often is not.
``fit_batch`` owns that policy; ``smith_fit`` runs it on a batch of one and
``sim`` on chunks of replicates, so both report the same theta.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lp import Domain, LinearProgram, LpError, LpStatus, Sense, solve_lp

ENVELOPE_TOL = 1e-8
# Dual vertices are enumerated only while C(K, d) is at most this; fits of a
# design with more bases run the simplex alone.
_MAX_BASES = 512
# A dual multiplier below this times n counts as zero (a degenerate vertex),
# and a best dual objective must be below every other one by more than this
# times n * max_k |m_k|, which bounds every vertex's objective.
_TIE_RTOL = 1e-9
# A design with a basis worse conditioned than this (in the infinity norm)
# runs the simplex alone.
_COND_MAX = 1e10
# Temporaries of a batched fit stay within this many numbers; ``sim`` sizes
# its chunks of replicates by it too.
_CHUNK_VALUES = 1 << 20


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


@dataclass(frozen=True, eq=False)
class _Envelope:
    """The envelope program of one set of covariates, for any responses.

    ``f``, ``which`` and ``counts`` are as in ``_envelope_rows``; ``order``
    sorts the observations by row and ``starts`` marks where each row's run
    begins.  The dual vertices are the d-row ``bases`` (row indices), their
    multipliers ``lam``, the inverses ``inv`` of their rows and whether each
    multiplier vector has a zero entry (``degenerate``); ``bases`` is None when
    there are more than ``_MAX_BASES`` or one is ill-conditioned.
    """

    f: np.ndarray
    which: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    bases: np.ndarray | None
    lam: np.ndarray | None
    inv: np.ndarray | None
    degenerate: np.ndarray | None


def _envelope(xs: np.ndarray, degree: int) -> _Envelope:
    """The envelope program of covariates xs; ValueError if not identifiable."""
    f, which, counts = _envelope_rows(xs, degree)
    k, d = f.shape
    order = np.argsort(which, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    dual = (None,) * 4
    if math.comb(k, d) <= _MAX_BASES:
        bases = np.array(list(itertools.combinations(range(k), d)))
        fb = f[bases]
        try:
            inv = np.linalg.inv(fb)
        except np.linalg.LinAlgError:  # a basis singular in floating point
            inv = None
        if inv is not None and np.all(
            np.abs(fb).sum(axis=2).max(axis=1) * np.abs(inv).sum(axis=2).max(axis=1)
            < _COND_MAX
        ):
            lam = np.einsum("bji,j->bi", inv, counts @ f)
            tol = _TIE_RTOL * xs.size
            keep = lam.min(axis=1) >= -tol
            lam = lam[keep]
            dual = (bases[keep], lam, inv[keep], lam.min(axis=1) <= tol)
    return _Envelope(f, which, counts, order, starts, *dual)


def _point_minima(env: _Envelope, ys: np.ndarray) -> np.ndarray:
    """The smallest response at each of the K points, per row of ys (R x K)."""
    return np.minimum.reduceat(ys[:, env.order], env.starts, axis=1)


def _dual_objectives(env: _Envelope, m: np.ndarray) -> np.ndarray:
    """Every basis's dual objective m_B'lambda_B, which is c'theta_B, per row
    of point minima m (R x bases)."""
    obj = m[:, env.bases[:, 0]] * env.lam[:, 0]
    for j in range(1, env.f.shape[1]):
        obj += m[:, env.bases[:, j]] * env.lam[:, j]
    return obj


def _basis_points(
    env: _Envelope, m: np.ndarray, rows: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """theta_B = F_B^{-1} m_B of basis ``bases[i]`` at minima ``m[rows[i]]``,
    and its fitted values at the K points.

    Both are accumulated over the d columns elementwise, so each point is the
    same whatever else is computed with it.
    """
    d = env.f.shape[1]
    mb = m[rows[:, None], env.bases[bases]]
    inv = env.inv[bases]
    theta = inv[:, :, 0] * mb[:, :1]
    for j in range(1, d):
        theta += inv[:, :, j] * mb[:, j : j + 1]
    fitted = theta[:, :1] * env.f[:, 0]
    for j in range(1, d):
        fitted += theta[:, j : j + 1] * env.f[:, j]
    return theta, fitted


def _certified_fits(env: _Envelope, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Envelope fits of the rows of ys (R x n) from the dual vertices.

    Returns theta (R x d) and a mask of the rows it certifies: finite
    responses, a nondegenerate best basis, every other basis's dual objective
    above it by more than the tie margin, and no point minimum below the fit
    by more than ENVELOPE_TOL.  The point minima bound every residual at
    their x from below, so that is the envelope check on all n residuals.
    Every step is elementwise per row, so a row's theta does not depend on
    the batch it is fitted in.  Uncertified rows of theta are meaningless.
    """
    r, d = ys.shape[0], env.f.shape[1]
    if env.bases is None:
        return np.zeros((r, d)), np.zeros(r, dtype=bool)
    finite = np.isfinite(ys).all(axis=1)
    m = _point_minima(env, ys)
    m[~finite] = 0.0
    obj = _dual_objectives(env, m)
    rows = np.arange(r)
    best = obj.argmin(axis=1)
    low = obj[rows, best]
    obj[rows, best] = np.inf
    gap = obj.min(axis=1) - low
    theta, fitted = _basis_points(env, m, rows, best)
    certified = (
        finite
        & ~env.degenerate[best]
        & (gap > _TIE_RTOL * ys.shape[1] * np.abs(m).max(axis=1))
        & ((m - fitted).min(axis=1) >= -ENVELOPE_TOL)
    )
    return theta, certified


def _tied_fits(env: _Envelope, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Envelope fits of the finite rows of ys (R x n) whose optimal face is
    one point or an edge, from the dual vertices.

    A row's optimal face is spanned by the basis points theta_B whose dual
    objective is within the tie margin of the best and that pass the
    envelope check.  Its ends a and b are the points with the smallest and
    the largest theta_1; every other point must coincide with one of them
    (fitted values within _TIE_RTOL * max_k |m_k|).  The fit is the point of
    the face with the smallest |theta_1|: the crossing theta_1 = 0 when the
    face spans zero, else the end nearer zero.  Returns theta (R x d) and a
    mask of the rows resolved; a face with more than two distinct points,
    or an edge along which theta_1 is constant, is not, and those rows of
    theta are meaningless.  Rows go in blocks whose temporaries stay within
    _CHUNK_VALUES numbers, and every step is elementwise per row, so a
    row's theta does not depend on the batch.
    """
    r, (k, d) = ys.shape[0], env.f.shape
    theta = np.zeros((r, d))
    resolved = np.zeros(r, dtype=bool)
    block = max(1, _CHUNK_VALUES // (env.bases.shape[0] * max(k, d * d)))
    for lo in range(0, r, block):
        m = _point_minima(env, ys[lo : lo + block])
        obj = _dual_objectives(env, m)
        scale = np.abs(m).max(axis=1)
        margin = _TIE_RTOL * ys.shape[1] * scale
        rows, bases = np.nonzero(obj <= (obj.min(axis=1) + margin)[:, None])
        points, fitted = _basis_points(env, m, rows, bases)
        keep = (m[rows] - fitted).min(axis=1) >= -ENVELOPE_TOL
        if not keep.any():
            continue
        # each row's points in order of theta_1; ties keep the basis order
        order = np.lexsort((points[keep, 1], rows[keep]))
        rows, points, fitted = rows[keep][order], points[keep][order], fitted[keep][order]
        new = np.concatenate(([True], rows[1:] != rows[:-1]))
        first = np.flatnonzero(new)
        last = np.append(first[1:], rows.size) - 1
        owner = np.cumsum(new) - 1
        tol = _TIE_RTOL * scale[rows]
        near_a = np.abs(fitted - fitted[first[owner]]).max(axis=1) <= tol
        near_b = np.abs(fitted - fitted[last[owner]]).max(axis=1) <= tol
        a, b = points[first], points[last]
        a1, b1 = a[:, 1], b[:, 1]
        # two distinct points at most, and theta_1 moves along an edge
        size = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
        ok = np.logical_and.reduceat(near_a | near_b, first) & (
            near_a[last] | (b1 - a1 > _TIE_RTOL * size)
        )
        fit = np.where((a1 >= 0.0)[:, None], a, b)
        cross = (a1 < 0.0) & (b1 > 0.0)
        fit[cross] = (b1[cross, None] * a[cross] - a1[cross, None] * b[cross]) / (
            b1[cross] - a1[cross]
        )[:, None]
        fit[cross, 1] = 0.0
        done = lo + rows[first[ok]]
        theta[done] = fit[ok]
        resolved[done] = True
    return theta, resolved


def _envelope_fit(env: _Envelope, y: np.ndarray) -> np.ndarray:
    """Solve the K-row envelope program for responses y with the simplex."""
    if not np.all(np.isfinite(y)):
        raise EstimationError("responses must be finite")
    f, which = env.f, env.which
    floor = np.full(f.shape[0], np.inf)
    np.minimum.at(floor, which, y)
    lp = LinearProgram(
        env.counts @ f,
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


def fit_batch(
    env: _Envelope, ys: np.ndarray
) -> tuple[np.ndarray, dict[int, EstimationError]]:
    """Envelope fits of the rows of ys (R x n): the kernel for the batch,
    the tie rule for the finite rows it does not certify, then the simplex
    for each row neither resolves.

    Returns theta (R x d) and, by row index, the error of each row whose
    simplex fit failed; those rows of theta are meaningless.
    """
    theta, done = _certified_fits(env, ys)
    if env.bases is not None and not done.all():
        tied = np.flatnonzero(~done & np.isfinite(ys).all(axis=1))
        fits, resolved = _tied_fits(env, ys[tied])
        theta[tied[resolved]] = fits[resolved]
        done[tied[resolved]] = True
    errors: dict[int, EstimationError] = {}
    for i in np.flatnonzero(~done).tolist():
        try:
            theta[i] = _envelope_fit(env, ys[i])
        except EstimationError as exc:
            errors[i] = exc
    return theta, errors


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
    env = _envelope(np.asarray(data.xs), data.degree)
    theta, errors = fit_batch(env, np.asarray(data.ys)[None])
    if errors:
        raise errors[0]
    return theta[0]


def residuals(data: Dataset, theta) -> np.ndarray:
    """Residuals y_i - f(x_i)'theta."""
    return np.asarray(data.ys) - data.design_matrix() @ np.asarray(theta, dtype=float)


def load_dataset_csv(path, degree: int) -> Dataset:
    """Read a dataset from UTF-8 CSV with header ``x,y``; blank lines are
    skipped, and so is a leading byte-order mark.

    A row that is not two numbers raises ValueError naming its line.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [s.strip() for s in header] != ["x", "y"]:
            raise ValueError(f"expected CSV header 'x,y', got {header}")
        for row in filter(None, reader):
            try:
                x, y = row
                xs.append(float(x))
                ys.append(float(y))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return Dataset(xs, ys, degree)
