"""Independent reference computations for the benchmark's checks.

Nothing here imports the package under test: every value is rebuilt from
numpy alone, so a check that compares a package output with one of these
functions compares two different computations of the same quantity.

* ``replicate_errors`` redraws the errors of Monte Carlo replicate ``r``
  from the documented ``(seed, r)`` substream contract.
* ``realized_counts`` is largest-remainder rounding of ``n * w``.
* ``interpolant`` is the envelope fit of a design with as many support
  points as coefficients: the LP has a unique vertex, the polynomial
  through the per-point minima.
* ``envelope_vertex_max`` solves the envelope LP reduced to per-point
  minima by enumerating all ``C(K, d)`` bases.
* ``sphere_min`` evaluates ``min_{|u|=1} sum_i w_i |f(x_i)'u|**alpha``:
  exactly at the kink intersections for ``alpha <= 1``, by a dense
  lat-long grid with local pattern-search refinement for ``alpha > 1``.
* ``e_optimal_centre_weight`` is the closed-form centre weight of the
  E-optimal design on ``{-A, 0, A}``.
* ``uniform_J`` holds the analytic Hellinger information of the uniform
  families (derived in README.md).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def regressors(xs, degree: int) -> np.ndarray:
    """Rows ``(1, x, ..., x**degree)``."""
    return np.vander(np.asarray(xs, dtype=float), degree + 1, increasing=True)


# ---------------------------------------------------------------------------
# Monte Carlo replicates and the envelope fit
# ---------------------------------------------------------------------------


def realized_counts(xs: np.ndarray, ws: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder counts of ``n * ws``; remainder ties go leftmost."""
    target = n * np.asarray(ws, dtype=float)
    counts = np.floor(target).astype(int)
    short = n - int(counts.sum())
    frac = target - counts
    order = sorted(range(len(xs)), key=lambda i: (-frac[i], xs[i]))
    for i in order[:short]:
        counts[i] += 1
    return counts


def replicate_errors(seed: int, r: int, beta: float, n: int) -> np.ndarray:
    """Gamma(beta, 1) errors of replicate ``r`` from its ``(seed, r)`` stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
    rng = np.random.Generator(np.random.PCG64(ss))
    return rng.gamma(shape=beta, scale=1.0, size=n)


def replicate_data(
    support: np.ndarray, counts: np.ndarray, theta: np.ndarray, beta: float,
    seed: int, r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and responses of replicate ``r``.

    Covariates are the support points repeated by their counts and sorted,
    so the ``i``-th error meets the ``i``-th smallest covariate.
    """
    order = np.argsort(support)
    xs = np.repeat(support[order], counts[order])
    e = replicate_errors(seed, r, beta, xs.shape[0])
    return xs, regressors(xs, len(theta) - 1) @ theta + e


def point_minima(support: np.ndarray, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Smallest response observed at each support point."""
    return np.array([y[xs == x].min() for x in support])


def interpolant(support: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial through ``(support, minima)``."""
    return np.linalg.solve(regressors(support, len(support) - 1), minima)


def envelope_vertex_max(
    support: np.ndarray, counts: np.ndarray, minima: np.ndarray, degree: int,
    tol: float = 1e-9,
) -> tuple[float, int]:
    """Optimum of ``max sum_k n_k f(x_k)'t s.t. f(x_k)'t <= m_k`` by enumeration.

    Returns the optimal objective and the number of distinct optimal
    vertices; more than one means the optimal set is an edge or face and
    the LP's answer depends on which vertex a solver reaches.
    """
    f = regressors(support, degree)
    c = counts @ f
    d = degree + 1
    best = -math.inf
    optimal: list[np.ndarray] = []
    for rows in itertools.combinations(range(len(support)), d):
        sub = f[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        t = np.linalg.solve(sub, minima[list(rows)])
        if np.any(f @ t > minima + tol * (1.0 + np.abs(minima))):
            continue
        val = float(c @ t)
        scale = tol * max(1.0, abs(val))
        if val > best + scale:
            best, optimal = val, [t]
        elif abs(val - best) <= scale:
            if not any(np.allclose(t, o, rtol=0.0, atol=1e-9) for o in optimal):
                optimal.append(t)
    return best, len(optimal)


# ---------------------------------------------------------------------------
# Sphere minimum of the design criterion
# ---------------------------------------------------------------------------


def _values(f: np.ndarray, w: np.ndarray, alpha: float, us: np.ndarray) -> np.ndarray:
    return np.abs(us @ f.T) ** alpha @ w


def kink_min(f: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """Minimum over the directions where ``d - 1`` rows vanish together.

    On each cell of the arrangement ``{f_i'u = 0}`` the criterion is a
    concave function, homogeneous of degree ``alpha``; for ``alpha <= 1``
    its minimum over the sphere therefore sits on an extreme ray of a cell,
    which is one of these directions.  Exact for ``alpha <= 1``; an upper
    bound otherwise.
    """
    d = f.shape[1]
    if d == 2:
        cand = np.stack([-f[:, 1], f[:, 0]], axis=1)
    elif d == 3:
        i, j = np.triu_indices(f.shape[0], k=1)
        cand = np.cross(f[i], f[j])
    else:
        raise ValueError("kink evaluation supports d = 2 and d = 3")
    norms = np.linalg.norm(cand, axis=1)
    cand = cand[norms > 1e-12] / norms[norms > 1e-12, None]
    return float(np.min(_values(f, w, alpha, cand)))


def _latlong_hemisphere(d: int, n_polar: int) -> tuple[np.ndarray, float]:
    """Unit vectors covering one hemisphere and the grid's angular step."""
    if d == 2:
        step = math.pi / (4 * n_polar)
        ang = np.arange(4 * n_polar) * step
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), step
    step = 0.5 * math.pi / n_polar
    polar = (np.arange(n_polar) + 0.5) * step
    azim = np.arange(4 * n_polar) * step
    p, a = np.meshgrid(polar, azim, indexing="ij")
    us = np.stack(
        [np.sin(p) * np.cos(a), np.sin(p) * np.sin(a), np.cos(p)], axis=-1
    ).reshape(-1, 3)
    return us, step


def _refine(
    f: np.ndarray, w: np.ndarray, alpha: float, u: np.ndarray, step: float,
    points: int = 9, min_step: float = 1e-12, max_moves: int = 2000,
) -> float:
    """Pattern search on tangent-plane grids around the best point so far.

    The grid keeps its size while the best point lies on its rim, so the
    search can travel along a flat valley (a near-double eigenvalue at
    ``alpha = 2``), and shrinks once the best point is inside it.
    """
    d = len(u)
    best_u = u
    best = float(_values(f, w, alpha, u[None])[0])
    h = step
    offsets = np.linspace(-1.0, 1.0, points)
    if d == 3:
        a, b = np.meshgrid(offsets, offsets)
        offsets = np.stack([a.ravel(), b.ravel()], axis=1)
    else:
        offsets = offsets[:, None]
    on_rim = np.max(np.abs(offsets), axis=1) == 1.0
    for _ in range(max_moves):
        if h <= min_step:
            break
        q, _ = np.linalg.qr(np.column_stack([best_u, np.eye(d)]))
        cand = best_u + h * offsets @ q[:, 1:d].T
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = _values(f, w, alpha, cand)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, best_u = float(vals[k]), cand[k]
            if not on_rim[k]:
                h *= 0.35
        else:
            h *= 0.35
    return best


def sphere_min(
    f: np.ndarray, w: np.ndarray, alpha: float, n_polar: int = 150, starts: int = 4,
) -> float:
    """``min_{|u|=1} sum_i w_i |f_i'u|**alpha`` computed without the package.

    At ``alpha = 2`` it is the smallest eigenvalue of the moment matrix and
    for ``alpha <= 1`` the kink evaluation; both are exact.  Otherwise the minimum
    is the smaller of the kink evaluation and a grid search: the best
    ``starts`` points of a lat-long hemisphere grid are each refined by a
    shrinking pattern search.
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    if alpha == 2.0:
        return float(np.linalg.eigvalsh(f.T @ (w[:, None] * f))[0])
    best = kink_min(f, w, alpha)
    if alpha <= 1.0:
        return best
    us, step = _latlong_hemisphere(f.shape[1], n_polar)
    vals = _values(f, w, alpha, us)
    for i in np.argsort(vals, kind="stable")[:starts]:
        best = min(best, _refine(f, w, alpha, us[i], 2.0 * step))
    return best


def three_point_f(a: float, alpha: float, pi: float, **kw) -> float:
    """Criterion of the quadratic design ``{-a, 0, a}`` with centre weight ``pi``."""
    f = regressors([0.0, a, -a], 2)
    w = np.array([pi, 0.5 * (1.0 - pi), 0.5 * (1.0 - pi)])
    return sphere_min(f, w, alpha, **kw)


# ---------------------------------------------------------------------------
# E-optimal three-point design in closed form
# ---------------------------------------------------------------------------


def _block_eigenvalue(a: float, q: float) -> float:
    """Smaller eigenvalue of ``[[1, q a**2], [q a**2, q a**4]]``."""
    s = q * a**4
    return 0.5 * ((1.0 + s) - math.sqrt((1.0 - s) ** 2 + 4.0 * q * q * a**4))


def three_point_lambda_min(a: float, pi: float) -> float:
    """Smallest eigenvalue of the quadratic moment matrix of ``{-a, 0, a}``.

    With ``q = 1 - pi`` the matrix splits into the eigenvalue ``q a**2``
    (the odd coefficient) and the 2x2 block ``[[1, q a**2], [q a**2, q a**4]]``.
    """
    q = 1.0 - pi
    return min(q * a * a, _block_eigenvalue(a, q))


def e_optimal_centre_weight(a: float) -> float:
    """Centre weight maximising ``lambda_min`` over ``pi`` for ``{-a, 0, a}``.

    The block eigenvalue is stationary at ``q = 2 / (a**4 + 4)``.  When the
    odd eigenvalue ``q a**2`` is the smaller one there, the optimum is
    instead where the two meet, ``q = (a**2 - 1) / a**4``.  Gives 0.6 at
    ``a = 1``, 61/81 at ``a = 1.5`` and 13/16 at ``a = 2``.
    """
    q = 2.0 / (a**4 + 4.0)
    if q * a * a < _block_eigenvalue(a, q):
        q = (a * a - 1.0) / a**4
    return 1.0 - q


def e_optimal_pi_interval(a: float, rel_gap: float) -> tuple[float, float]:
    """The centre weights whose ``lambda_min`` is within ``rel_gap`` of the best.

    A solver that certifies its value to a relative gap can return any
    weight in this interval; bisection on each side of the optimum, which
    ``lambda_min`` is concave around.
    """
    pi_star = e_optimal_centre_weight(a)
    level = three_point_lambda_min(a, pi_star) * (1.0 - rel_gap)

    def edge(inside: float, outside: float) -> float:
        for _ in range(200):
            mid = 0.5 * (inside + outside)
            if three_point_lambda_min(a, mid) >= level:
                inside = mid
            else:
                outside = mid
        return inside

    return edge(pi_star, 0.0), edge(pi_star, 1.0)


# ---------------------------------------------------------------------------
# Uniform families
# ---------------------------------------------------------------------------


def uniform_J(variant: str, theta: tuple[float, ...], u=None) -> float:
    """Analytic Hellinger information (``alpha = 1``) for ``eps > 0``.

    From the overlap formula ``h = 2 - 2 * overlap / sqrt(L * L')`` expanded
    to first order in ``eps``; see README.md.
    """
    if variant == "scale":
        (t,) = theta
        return 1.0 / t
    if variant == "reciprocal":
        (t,) = theta
        return (t * t + 1.0) / (t * (t * t - 1.0))
    if variant == "power_pair":
        (t,) = theta
        return (2.0 * t + 1.0) / (t * (t - 1.0))
    if variant == "loc_scale":
        _, s = theta
        u1, u2 = u
        return (2.0 * max(0.0, u1) - 2.0 * min(0.0, u1 + u2) + u2) / s
    raise ValueError(f"unknown uniform variant {variant!r}")
