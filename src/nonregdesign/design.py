"""Optimal designs for non-regular polynomial regression.

A design is a finitely supported probability measure on [-A, A], restricted
to the balanced class (mean-zero support).  Its information in direction u
is the weighted power sum

    J_xi(u) = J_tilde * sum_i w_i |f(x_i)' u|^alpha,      f(x) = (1, x, ..., x^p),

and the design criterion is the direction-free value J_xi = inf_{|u|=1} J_xi(u),
a concave function of the weights.  It is also unchanged by the reflection
x -> -x, so symmetrizing a design never lowers it and the optimum over
balanced designs is attained by a symmetric one.  The optimizer therefore
searches symmetric designs only: a Kelley cutting-plane scheme on the
simplex of weights at 0 and on the +-x pairs of a symmetric candidate grid.
Each master step solves a small LP (max t s.t. every accumulated cut
exceeds t), and each separation step finds the worst direction of the
current design.  The degree p is 1 or 2, so u has d = p + 1 = 2 or 3
entries.  One function, ``_sphere_min``, decides every sphere minimum.  A
design that cannot identify every coefficient has a null direction, and its
criterion is exactly 0; that is settled from the moment matrix before any
search.  Otherwise the minimum is exact where its location is known: at
alpha = 2 it is the smallest eigenvalue of the moment matrix, and at
alpha <= 1 it lies on a kink ray, so enumerating those rays finds it (and
the solver cuts the master with every violated ray at once).  At
1 < alpha < 2 a branch-and-bound over cells of the hemisphere certifies it:
the reported value is at most 1e-10 relative above the minimum.  At
alpha = 2 the cutting-plane solver maximizes the minimum eigenvalue, i.e.
E-optimality, which serves as the regular comparator.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .hellinger import InfoMethod, InfoResult
from .lp import Domain, LinearProgram, LpStatus, Sense, Tableau, solve_lp

_WEIGHT_TOL = 1e-10
_BALANCE_TOL = 1e-8
_DISTINCT_TOL = 1e-12
_TIE_RTOL = 1e-12  # sphere minimizers this close in value count as tied
_PI_LEVELS = 17  # pi_curve ends on a cell of the lattice k / 2**17 (width 7.6e-6)
_GRID_SIZE = 101  # default candidate grid of design-opt and e_optimal_design
_WEIGHT_FLOOR = 1e-12  # solver weights at or below this are dropped from designs
_DEGENERATE_RTOL = 1e-13  # lambda_min(F'WF) at or below this (relative) means J = 0
# Branch-and-bound sphere minimum (1 < alpha < 2).
_BB_RTOL = 1e-10  # certificate: reported minimum at most this far (relative) above the true one
_BB_CHUNK = 2048  # cells per array operation, so cells x support temporaries stay bounded
_BB_MAX_CELLS = 200_000  # more live cells than this raise instead of growing without limit
_BB_MAX_LEVELS = 80  # cells halve in radius per level: past this they cannot shrink, so raise
_BB_POLISH_ROUNDS = 20  # at most this many rounds per incumbent polish
_BB_POLISH_RTOL = 1e-13  # a round that gains less than this (relative) ends the polish
_BB_KINK_FLOOR = 1e-9  # floor of |f_i'u| / |f_i| where a power of it would blow up
_BB_KINK_NEAR = 1e-3  # terms with |f_j'u| / |f_j| below this get a kink step
_BB_CAP_RADII = np.array([0.3, 0.1, 0.03, 0.01, 0.003, 0.001])  # tangent radii tried for a cap
_BB_CAP_RTOL = 0.5 * _BB_RTOL  # a certified cap holds g >= g(u) (1 - this): room for rounding
_BLOCK_CUTS = 16  # most kink-ray cuts one Kelley step adds to the master (alpha <= 1)


@dataclass(frozen=True)
class Design:
    """Finitely supported balanced design on [-A, A].

    Balance (sum w_i x_i = 0) is the class the optimizer searches over;
    pass require_balance=False to carry an unbalanced measure, e.g. as
    input to symmetrize.
    """

    points: tuple[tuple[float, float], ...]
    A: float

    def __init__(self, points, A, *, require_balance=True) -> None:
        pts = tuple((float(x), float(w)) for x, w in points)
        A = float(A)
        if not (A > 0.0 and math.isfinite(A)):
            raise ValueError(f"A must be positive and finite, got {A}")
        if not pts:
            raise ValueError("design needs at least one support point")
        xs = np.array([x for x, _ in pts])
        ws = np.array([w for _, w in pts])
        # negated comparisons, so that NaN fails them too
        if not np.all(np.abs(xs) <= A + 1e-12):
            raise ValueError(f"support points must lie in [-{A}, {A}]")
        if not np.all(ws >= 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(ws.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {ws.sum()!r}, not 1")
        if require_balance and abs(float(ws @ xs)) > _BALANCE_TOL:
            raise ValueError(f"design not balanced: sum w_i x_i = {ws @ xs!r}")
        if len(pts) > 1:
            gaps = np.diff(np.sort(xs))
            if np.any(gaps <= _DISTINCT_TOL):
                raise ValueError("support points must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "A", A)

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points])

    @property
    def ws(self) -> np.ndarray:
        return np.array([w for _, w in self.points])

    def as_json_dict(self) -> dict:
        return {
            "A": self.A,
            "points": [{"x": x, "w": w} for x, w in self.points],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Design":
        try:
            a = payload["A"]
            pts = [(p["x"], p["w"]) for p in payload["points"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed design payload: {exc}") from exc
        return cls(pts, a)


@dataclass(frozen=True)
class CuttingPlaneConfig:
    gap_tol: float = 1e-5  # relative to the master bound
    max_cuts: int = 500

    def __post_init__(self) -> None:
        # a gap_tol of 1 or more accepts the first incumbent as converged
        if not 0.0 < self.gap_tol < 1.0:
            raise ValueError(f"gap_tol must be positive and below 1, got {self.gap_tol}")
        try:
            max_cuts = operator.index(self.max_cuts)
        except TypeError:
            max_cuts = None
        if max_cuts is None or isinstance(self.max_cuts, (bool, np.bool_)):
            raise ValueError(f"max_cuts must be an integer, got {self.max_cuts!r}")
        if max_cuts < 4:
            raise ValueError(f"max_cuts must be at least 4, got {self.max_cuts}")


class StopReason(enum.Enum):
    """Why the cutting-plane loop stopped."""

    CONVERGED = "converged"  # gap within gap_tol of the master bound
    MAX_CUTS = "max_cuts"  # cut cap reached first
    REPEATED_CUT = "repeated_cut"  # oracle direction already cut: grid resolution


@dataclass(frozen=True)
class DesignSolution:
    design: Design
    info: float
    worst_direction: tuple[float, ...]
    cuts_used: int  # seed cuts plus every cut the loop added; none is dropped
    gap: float
    stop: StopReason


def regressor_matrix(xs: np.ndarray, degree: int) -> np.ndarray:
    """Rows f(x_i)' = (1, x_i, ..., x_i^degree) for degree 1 or 2.

    Every design-layer entry builds its rows here, so this is where the
    degree is checked.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.vander(xs, degree + 1, increasing=True)


def _canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip u, or each row of u, so that its first nonzero entry is positive."""
    first = np.take_along_axis(u, np.argmax(u != 0.0, axis=-1)[..., None], axis=-1)
    return np.where(first < 0.0, -u, u)


def _argmin_lex(values: np.ndarray, us: np.ndarray) -> int:
    """Index of the minimum; exact ties resolved by lexicographic direction."""
    best = float(np.min(values))
    idx = np.flatnonzero(values == best)
    if idx.size == 1:
        return int(idx[0])
    order = np.lexsort(us[idx].T[::-1])
    return int(idx[order[0]])


def _moment_matrix(f: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """F'WF for regressor rows f and weights ws."""
    return f.T @ (ws[:, None] * f)


def _kink_candidates(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact null directions of the regressor rows, where |f'u|^alpha kinks.

    For alpha <= 1 the sphere minimum of sum_i w_i |f(x_i)'u|^alpha lies on
    these rays.  Fix the sign of every f(x_i)'u: along any great-circle arc
    inside such a region, or along a null circle f(x_i)'u = 0 between two
    intersections, the objective is a sum of terms c_i |cos(t - phi_i)|^alpha,
    each concave in t when alpha <= 1.  So no interior point of a region or
    of a kink arc is a strict minimum, and the minimum sits on a null
    direction (d = 2) or on a pairwise intersection f(x_i) x f(x_j) (d = 3).
    Returns (rays, rows): unit candidates and, per ray, the indices of the
    d - 1 rows it annihilates.  Both are empty when every pair of rows is
    parallel; a design that passes ``_is_degenerate`` has at least one ray.
    """
    scale = np.linalg.norm(f, axis=1)
    if f.shape[1] == 2:
        cand = np.stack([-f[:, 1], f[:, 0]], axis=1)
        rows = np.arange(f.shape[0])[:, None]
    else:
        i, j = np.triu_indices(f.shape[0], k=1)
        cand = np.cross(f[i], f[j])
        rows = np.stack([i, j], axis=1)
        scale = scale[i] * scale[j]
    norms = np.linalg.norm(cand, axis=1)
    keep = norms > 1e-12 * np.maximum(scale, 1.0)
    return cand[keep] / norms[keep, None], rows[keep]


def _mirror(u: np.ndarray) -> np.ndarray:
    """u, or each row of u, with entry 1 negated: the image of x -> -x."""
    v = np.array(u, dtype=float)
    v[..., 1] = -v[..., 1]
    return v


def _is_mirror_symmetric(f: np.ndarray, ws: np.ndarray) -> bool:
    """True when ``_mirror`` of the rows f_i, with their positive weights,
    gives the same multiset, compared exactly after sorting.  Then
    sum_i w_i |f_i'u|^alpha is unchanged by u -> ``_mirror``(u)."""
    rows = np.column_stack([f, ws])[ws > 0.0]
    flipped = _mirror(rows)
    return bool(np.array_equal(
        rows[np.lexsort(rows.T[::-1])], flipped[np.lexsort(flipped.T[::-1])]
    ))


def _lex_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, True where a is lexicographically no greater than b."""
    delta = a - b
    first = np.argmax(delta != 0.0, axis=1)[:, None]
    return np.take_along_axis(delta, first, axis=1)[:, 0] <= 0.0


def _kink_values(
    f: np.ndarray, ws: np.ndarray, alpha: float, j_tilde: float, mirror: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every kink ray of the rows f, canonically signed, with the indices of
    the rows it annihilates (as ``_kink_candidates``) and the objective
    j_tilde * sum_i w_i |f_i'r|^alpha on it.

    With ``mirror`` only one ray of each mirror pair is kept: the one
    ``_argmin_lex`` picks from a tie.
    """
    rays, rows = _kink_candidates(f)
    rays = _canonical_sign(rays)
    if mirror:
        half = _lex_le(rays, _canonical_sign(_mirror(rays)))
        rays, rows = rays[half], rows[half]
    proj = np.abs(rays @ f.T)
    # zero by construction: keeps rounding residue out of |.|^alpha
    np.put_along_axis(proj, rows, 0.0, axis=1)
    return rays, rows, j_tilde * (proj**alpha @ ws)


def _is_degenerate(eigvals: np.ndarray) -> bool:
    """True when ascending moment-matrix eigenvalues leave a null direction."""
    return bool(eigvals[0] <= _DEGENERATE_RTOL * max(1.0, eigvals[-1]))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared lengths of the vectors whose d = 2 or 3 components run along
    the first axis of v.

    The squares are summed left to right.  That is NumPy's own order for a
    reduction over so short an axis, so ``np.sqrt`` of the result has the
    bits of ``np.linalg.norm(v, axis=0)``, without its slow short-axis pass.
    """
    sq = v * v
    total = sq[0] + sq[1]
    if len(v) == 3:
        total += sq[2]
    return total


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit length along its first axis, the components."""
    return v / np.sqrt(_sq_norms(v))


def _split_cells(cells: np.ndarray) -> np.ndarray:
    """Halve arcs (d = 2) or quarter spherical triangles (d = 3).

    Cells are stored component first: ``cells[:, j, n]`` is vertex j of cell
    n, so every array pass runs along the cells.  New vertices are the
    normalized edge midpoints, so the children tile the parent.  They come
    in blocks of n, one per position, each in the parents' order: [v0, m]
    and [m, v1] for an arc; [v0, m01, m02], [v1, m12, m01], [v2, m02, m12]
    and [m01, m12, m02] for a triangle.
    """
    d, k, n = cells.shape
    out = np.empty((d, k, 2 * (k - 1), n))  # component, vertex, block, parent
    if k == 2:
        m = _unit(cells[:, 0] + cells[:, 1])
        out[:, 0, 0], out[:, 1, 0] = cells[:, 0], m
        out[:, 0, 1], out[:, 1, 1] = m, cells[:, 1]
    else:
        mids = _unit(cells + cells[:, [1, 2, 0]])  # m01, m12, m02
        out[:, 0, :3] = cells
        out[:, 1, :3] = mids
        out[:, 2, 0] = mids[:, 2]
        out[:, 2, 1:3] = mids[:, :2]
        out[:, :, 3] = mids
    return out.reshape(d, k, -1)


@functools.lru_cache(maxsize=None)
def _initial_cells(d: int, mirror: bool) -> np.ndarray:
    """Cells covering a hemisphere, laid out as ``_split_cells`` takes them:
    64 arcs of [0, pi) at d = 2, and the 4 upper octahedral faces, each
    split three times, at d = 3.

    With ``mirror`` the objective is unchanged by u_1 -> -u_1, and the cells
    cover the half u_1 >= 0 of the hemisphere only: up to sign every
    direction has a mirror image there.  That is 32 arcs of [0, pi/2] and
    the faces [e1, e2, e3] and [e2, -e1, e3], the first cells of the full
    hemisphere.  Built once per (d, mirror) and read-only.
    """
    if d == 2:
        t = np.arange(33 if mirror else 65) * (math.pi / 64)
        v = np.stack([np.cos(t), np.sin(t)])
        cells = np.stack([v[:, :-1], v[:, 1:]], axis=1)
    else:
        e1, e2, e3 = np.eye(3)
        faces = np.array([[e1, e2, e3], [e2, -e1, e3], [-e1, -e2, e3], [-e2, e1, e3]])
        cells = np.ascontiguousarray(faces[: 2 if mirror else 4].T)
        for _ in range(3):
            cells = _split_cells(cells)
    cells.flags.writeable = False  # shared by every call through the cache
    return cells


def _cell_caps(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre (a row per cell) and radius of a cap around each cell, for
    cells laid out as ``_split_cells`` takes them.

    The radius comes from the longest centre-to-vertex chord as
    2 asin(chord / 2), which stays accurate for tiny cells where arccos of
    the dot product rounds to 0.
    """
    total = cells[:, 0] + cells[:, 1]
    if cells.shape[1] == 3:
        total += cells[:, 2]
    centres = _unit(total)
    chords = np.sqrt(np.max(_sq_norms(cells - centres[:, None]), axis=0))
    radii = 2.0 * np.arcsin(np.minimum(0.5 * chords, 1.0))
    return np.ascontiguousarray(centres.T), radii


def _min_linear_over_cap(
    b: np.ndarray, c: np.ndarray, r: np.ndarray, cos_r: np.ndarray, sin_r: np.ndarray
) -> np.ndarray:
    """min of b'u over the caps |u| = 1, angle(u, c) <= r, row by row.

    It is |b| cos(min(phi + r, pi)) with phi the angle between b and c,
    expanded as (b'c) cos r - |b_t| sin r with b_t the part of b tangent at c.
    """
    bc = np.einsum("ij,ij->i", b, c)
    bt = np.sqrt(_sq_norms((b - bc[:, None] * c).T))
    value = bc * cos_r - bt * sin_r
    outside = ~(np.arctan2(bt, bc) + r < math.pi)
    if outside.any():
        value[outside] = -np.hypot(bc[outside], bt[outside])
    return value


def _cell_bounds(
    f: np.ndarray, f_norm: np.ndarray, ws: np.ndarray, alpha: float,
    c: np.ndarray, r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """g(c) and a lower bound of g(u) = sum_i w_i |f_i'u|^alpha on each cap (c, r).

    For 1 < alpha <= 2 each term is convex and alpha-homogeneous, so its
    tangent plane at c, w_i |f_i'c|^alpha + slope_i f_i'(u - c), lies below
    it, and by Euler's identity the constant is -(alpha - 1) w_i |f_i'c|^alpha.
    Two bounds follow; the larger is returned.
    - Convex: every term linearized, then the linear form minimized over
      the cap.
    - Kink-aware (``_kink_bound``): the terms whose kink circle f_i'u = 0
      crosses the cap, |f_i'c| <= |f_i| sin r, are not linearized.
    """
    p = c @ f.T
    ap = np.abs(p)
    terms = ws * ap**alpha
    g = terms.sum(axis=1)
    slopes = (alpha * ws) * ap ** (alpha - 1.0) * np.sign(p)
    b = slopes @ f
    cos_r, sin_r = np.cos(r), np.sin(r)
    lower = _min_linear_over_cap(b, c, r, cos_r, sin_r) - (alpha - 1.0) * g
    cross = ap <= f_norm * sin_r[:, None]
    n_cross = cross.sum(axis=1)
    for m in np.flatnonzero(np.bincount(n_cross)[1:]) + 1:
        rows = np.flatnonzero(n_cross == m)
        idx = np.nonzero(cross[rows])[1].reshape(rows.size, m)
        kink = _kink_bound(
            f, f_norm, ws, alpha, c[rows], r[rows], cos_r[rows], sin_r[rows],
            g[rows], b[rows], terms[rows], slopes[rows], idx,
        )
        lower[rows] = np.maximum(lower[rows], kink)
    return g, lower


def _kink_bound(
    f, f_norm, ws, alpha, c, r, cos_r, sin_r, g, b, terms, slopes, idx
) -> np.ndarray:
    """Lower bound on caps whose crossing terms are the rows of ``idx``.

    The other terms are linearized as in ``_cell_bounds``, giving a + b'u.
    With n_j = f_j / |f_j| for the crossing terms, write b = sum_j beta_j n_j
    + b_perp.  Then, with tau_j = n_j'u,

        g(u) >= a + b_perp'u + sum_j (beta_j tau_j + k_j |tau_j|^alpha),

    k_j = w_j |f_j|^alpha, and each part is minimized over the cap on its
    own: b_perp'u in closed form, and each convex 1-D term on the exact
    range of tau_j, an interval around 0, at its stationary point
    tau* = -sign(beta) (|beta| / (alpha k))^(1 / (alpha - 1)), clipped.
    A single crossing term is kept exact this way (beta = b'n).  With more,
    beta = 0 and b_perp = b: every crossing term is bounded by 0.
    """
    rows = np.arange(len(idx))[:, None]
    fj = f[idx]
    n = fj / f_norm[idx][..., None]
    b_rest = b - np.einsum("rm,rmd->rd", slopes[rows, idx], fj)
    beta = np.zeros(idx.shape)
    if idx.shape[1] == 1:
        beta = np.einsum("rmd,rd->rm", n, b_rest)
    b_perp = b_rest - np.einsum("rm,rmd->rd", beta, n)
    lin = _min_linear_over_cap(b_perp, c, r, cos_r, sin_r)
    psi = np.arccos(np.clip(np.einsum("rmd,rd->rm", n, c), -1.0, 1.0))
    tau_lo = np.cos(np.minimum(psi + r[:, None], math.pi))
    tau_hi = np.cos(np.maximum(psi - r[:, None], 0.0))
    k = ws[idx] * f_norm[idx] ** alpha
    # |tau*| capped at 1 before the power: the clip to [tau_lo, tau_hi] within
    # [-1, 1] gives the same tau, and the power cannot overflow as alpha -> 1
    ratio = np.minimum(np.abs(beta) / (alpha * k), 1.0)
    tau = np.clip(-np.sign(beta) * ratio ** (1.0 / (alpha - 1.0)), tau_lo, tau_hi)
    exact = (beta * tau + k * np.abs(tau) ** alpha).sum(axis=1)
    a = -(alpha - 1.0) * (g - terms[rows, idx].sum(axis=1))
    return a + lin + exact


def _polish(
    f: np.ndarray, ws: np.ndarray, alpha: float, u: np.ndarray, value: float
) -> tuple[np.ndarray, float]:
    """Lower g(u) = sum_i w_i |f_i'u|^alpha from u, keeping only improvements.

    Each round tries three kinds of step and keeps the best.
    - Majorize-minimize: |t|^alpha is concave in t^2 for alpha <= 2, so its
      tangent in t^2 lies above it, g(v) <= const + (alpha/2) sum_i w_i
      s_i^(alpha/2-1) (f_i'v)^2 for any s_i > 0, with equality at v = u when
      s_i = (f_i'u)^2.  The step minimizes that quadratic over the sphere:
      the lambda_min eigenvector.  It never goes uphill, but it crawls for
      alpha near 1, where the majorizer is 1 / (alpha - 1) times too curved.
    - Newton on the sphere, when the Riemannian Hessian at u is positive
      definite.
    - ``_kink_step`` for every term with u close to its kink circle, where
      the other two stall.
    Rounds stop when one gains less than ``_BB_POLISH_RTOL`` relative.
    """
    f_norm = np.linalg.norm(f, axis=1)
    for _ in range(_BB_POLISH_ROUNDS):
        start = value
        p = f @ u
        ap = np.maximum(np.abs(p), _BB_KINK_FLOOR * f_norm)
        curv = ws * ap ** (alpha - 2.0)
        candidates = [np.linalg.eigh(f.T @ (curv[:, None] * f))[1][:, 0]]
        # Newton: tangent basis t, gradient and Hessian of g restricted to the sphere
        t = np.linalg.svd(u[None, :])[2][1:]
        ft = f @ t.T
        grad = (alpha * ws * ap ** (alpha - 1.0) * np.sign(p)) @ ft
        hess = alpha * ((alpha - 1.0) * ft.T @ (curv[:, None] * ft) - value * np.eye(len(t)))
        if np.all(np.linalg.eigvalsh(hess) > 0.0):
            candidates.append(u - np.linalg.solve(hess, grad) @ t)
        near = np.abs(p) < _BB_KINK_NEAR * f_norm
        candidates += [
            _kink_step(f, f_norm, ws, alpha, u, j, near) for j in np.flatnonzero(near)
        ]
        for v in candidates:
            v = v / np.linalg.norm(v)
            v_value = float(ws @ np.abs(f @ v) ** alpha)
            if v_value < value:
                u, value = v, v_value
        if not value < start * (1.0 - _BB_POLISH_RTOL):
            break
    return u, value


def _kink_step(
    f: np.ndarray, f_norm: np.ndarray, ws: np.ndarray, alpha: float,
    u: np.ndarray, j: int, near: np.ndarray,
) -> np.ndarray:
    """Move u along a great circle to the best tau = n'u, n = f_j / |f_j|.

    The circle leaves u towards n, orthogonally to the normals of the other
    terms in ``near``, so their near-zero f_i'u stay near zero.  The other
    terms are linearized at u, which leaves the 1-D model
    beta tau + k |tau|^alpha of ``_kink_bound``; u moves to its minimizer.
    """
    n = f[j] / f_norm[j]
    others = np.flatnonzero(near)
    q = np.linalg.qr(np.column_stack([u, *f[others[others != j]]]))[0]
    e = n - q @ (q.T @ n)
    s = float(np.linalg.norm(e))
    if s < _BB_KINK_FLOOR:
        return u
    e /= s
    p = f @ u
    slopes = (alpha * ws) * np.abs(p) ** (alpha - 1.0) * np.sign(p)
    slopes[j] = 0.0
    beta = float(slopes @ (f @ e)) / s
    k = ws[j] * f_norm[j] ** alpha
    tau0 = float(n @ u)
    reach = math.hypot(tau0, s)  # n'(u cos th + e sin th) = reach sin(th + atan2(tau0, s))
    tau = math.copysign(min(abs(beta) / (alpha * k), 1.0) ** (1.0 / (alpha - 1.0)), -beta)
    theta = math.asin(max(-1.0, min(1.0, tau / reach))) - math.atan2(tau0, s)
    return u * math.cos(theta) + e * math.sin(theta)


def _certified_cap(
    f: np.ndarray, ws: np.ndarray, alpha: float, u: np.ndarray, value: float
) -> float:
    """Angle of a cap around +-u on which g >= value * (1 - ``_BB_CAP_RTOL``),
    or 0 when no radius of ``_BB_CAP_RADII`` passes; ``value`` = g(u).

    Take x = u + T'y with T a tangent basis at u and |y| <= R, so that x / |x|
    covers every direction within atan(R) of u.  h(x) = sum_i w_i |f_i'x|^alpha
    is convex and C^1, and with p = F u its Hessian along the segment is
    at least Q = sum_i kappa_i (T f_i)(T f_i)', kappa_i = alpha (alpha - 1)
    w_i M_i^(alpha - 2), because |f_i'x| <= M_i = |p_i| + R |T f_i| and
    alpha - 2 < 0 (a kink only adds curvature).  So h(x) >= g + gamma'y +
    y'Qy / 2, gamma the Riemannian gradient, and since g(x / |x|) =
    h(x) / (1 + |y|^2)^(alpha / 2) with (1 + s)^(alpha / 2) <= 1 + alpha s / 2,
    g(x / |x|) >= g (1 - eps) once gamma'y + y'(Q - alpha g)y / 2 >= -eps g.
    With mu = lambda_min(Q) - alpha g > 0 that holds when |gamma|^2 <= 2 mu eps g.
    The largest radius that passes is returned.
    """
    t = np.linalg.svd(u[None, :])[2][1:]
    p = f @ u
    ft = f @ t.T
    grad = (alpha * ws * np.abs(p) ** (alpha - 1.0) * np.sign(p)) @ ft
    m = np.abs(p) + _BB_CAP_RADII[:, None] * np.linalg.norm(ft, axis=1)
    kappa = alpha * (alpha - 1.0) * ws * m ** (alpha - 2.0)
    mu = np.linalg.eigvalsh(np.einsum("ri,ij,ik->rjk", kappa, ft, ft))[:, 0] - alpha * value
    ok = (mu > 0.0) & (grad @ grad <= 2.0 * _BB_CAP_RTOL * value * mu)
    return math.atan(_BB_CAP_RADII[np.argmax(ok)]) if ok.any() else 0.0


def _inside_cap(
    centres: np.ndarray, radii: np.ndarray, u: np.ndarray, angle: float
) -> np.ndarray:
    """True for each cap (centre, radius) that lies inside the cap of ``angle``
    around +-u.  Angles come from chords, accurate for tiny ones too."""
    chord = np.sqrt(np.minimum(_sq_norms((centres - u).T), _sq_norms((centres + u).T)))
    return 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0)) + radii <= angle


def _branch_and_bound(
    f: np.ndarray, ws: np.ndarray, alpha: float, mirror: bool = False,
) -> tuple[np.ndarray, float]:
    """Certified min_{|u|=1} sum_i w_i |f_i'u|^alpha for 1 < alpha < 2.

    Cells of a hemisphere (the objective is even), or of its half u_1 >= 0
    when ``mirror`` says the objective is unchanged by u_1 -> -u_1, are
    evaluated level by level, all of a level's cells in array operations of
    at most ``_BB_CHUNK`` cells.  The incumbent is the best cell centre seen,
    polished by ``_polish`` after each improvement, and ``_certified_cap``
    then tries to certify a cap around the polished point.  A cell is
    dropped once its lower bound (``_cell_bounds``) reaches
    best * (1 - 1e-10), or once it lies inside a certified cap, and the
    rest are split.  When no cell remains the incumbent is within 1e-10
    relative of the minimum.  A design with a null direction (minimum 0)
    would never drop the cells around it; ``_sphere_min`` answers it before
    calling.  Raises RuntimeError above ``_BB_MAX_CELLS`` live cells or
    ``_BB_MAX_LEVELS`` levels.
    """
    keep = ws > 0.0
    f, ws = f[keep], ws[keep]
    f_norm = np.linalg.norm(f, axis=1)
    cells = _initial_cells(f.shape[1], mirror)
    best_u, best = cells[:, 0, 0], math.inf
    caps: list[tuple[np.ndarray, float]] = []  # certified (u, angle); each stays valid
    for _ in range(_BB_MAX_LEVELS):
        if cells.shape[2] > _BB_MAX_CELLS:
            raise RuntimeError(f"sphere branch-and-bound exceeded {_BB_MAX_CELLS} live cells")
        centres, radii = _cell_caps(cells)
        values = np.empty(len(centres))
        lower = np.empty(len(centres))
        for s in range(0, len(centres), _BB_CHUNK):
            part = slice(s, s + _BB_CHUNK)
            values[part], lower[part] = _cell_bounds(
                f, f_norm, ws, alpha, centres[part], radii[part]
            )
        i = int(np.argmin(values))
        if values[i] < best:
            best_u, best = _polish(f, ws, alpha, centres[i], float(values[i]))
            angle = _certified_cap(f, ws, alpha, best_u, best)
            if angle > 0.0:
                caps.append((best_u, angle))
        live = lower < best * (1.0 - _BB_RTOL)
        for u, angle in caps:
            live &= ~_inside_cap(centres, radii, u, angle)
        cells = _split_cells(cells[:, :, live])
        if not cells.shape[2]:
            return best_u, best
    raise RuntimeError(f"sphere branch-and-bound did not finish in {_BB_MAX_LEVELS} levels")


def _sphere_min(
    f: np.ndarray, ws: np.ndarray, alpha: float, j_tilde: float,
) -> tuple[np.ndarray, float, InfoMethod, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """min_{|u|=1} j_tilde * sum_i w_i |f_i'u|^alpha, exactly where possible.

    The one place that decides a sphere minimum.  A design whose moment
    matrix F'WF has a null direction (``_is_degenerate``) cannot identify
    every coefficient: its minimum is exactly 0, at the lambda_min
    eigenvector, labelled SPHERE_SEARCH.  Otherwise the path follows alpha.
    At alpha = 2 the minimum is j_tilde * lambda_min(F'WF) (EIGENVALUE).  At
    alpha <= 1 it is the smallest value over the kink rays of
    ``_kink_values`` (KINK_ENUMERATION).  At 1 < alpha < 2
    ``_branch_and_bound`` certifies it to 1e-10 relative (BRANCH_AND_BOUND).
    When ``_is_mirror_symmetric`` holds (every design ``pi_curve`` and the
    cutting-plane solver pass), both paths search one half of the mirror
    u_1 -> -u_1: the kink enumeration keeps the lexicographically smaller
    ray of each mirror pair, and the branch-and-bound covers u_1 >= 0.

    Returns (ties, value, method, kinks).  The rows of ``ties`` are
    minimizers, the reported direction first: an orthonormal basis of the
    lambda_min eigenspace at alpha = 2, every kink ray within 1e-12
    relative of the minimum at alpha <= 1, and the one null direction or
    certified incumbent otherwise.  On the KINK_ENUMERATION path ``kinks``
    is what ``_kink_values`` returned: every ray searched, the rows it
    annihilates and its value, from the same enumeration.  On the other
    paths it is None.
    """
    vals, vecs = np.linalg.eigh(_moment_matrix(f, ws))
    if _is_degenerate(vals):
        return _canonical_sign(vecs[:, :1].T), 0.0, InfoMethod.SPHERE_SEARCH, None
    kinks = None
    mirror = alpha < 2.0 and _is_mirror_symmetric(f, ws)
    if alpha == 2.0:
        tied = vals <= vals[0] + _TIE_RTOL * abs(vals[-1])
        ties = _canonical_sign(vecs[:, tied].T)
        value, method = float(j_tilde * vals[0]), InfoMethod.EIGENVALUE
    elif alpha <= 1.0:
        kinks = rays, _, vals = _kink_values(f, ws, alpha, j_tilde, mirror)
        best = _argmin_lex(vals, rays)
        tied = np.flatnonzero(vals <= vals[best] * (1.0 + _TIE_RTOL))
        order = np.concatenate([[best], tied[tied != best]])
        ties, value, method = rays[order], float(vals[best]), InfoMethod.KINK_ENUMERATION
    else:
        u, value = _branch_and_bound(f, ws, alpha, mirror)
        ties, value = _canonical_sign(u)[None, :], j_tilde * value
        method = InfoMethod.BRANCH_AND_BOUND
    return ties, value, method, kinks


def _check_criterion(alpha: float, j_tilde: float) -> None:
    """Reject an alpha outside (0, 2] or a j_tilde that is not positive and finite."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not (j_tilde > 0.0 and math.isfinite(j_tilde)):
        raise ValueError(f"j_tilde must be positive and finite, got {j_tilde}")


def design_info(design: Design, alpha: float, j_tilde: float, degree: int) -> InfoResult:
    """Direction-free design information inf_u J_xi(u) with its minimizer.

    ``_sphere_min`` decides the value and names its path in ``method``:
    EIGENVALUE (alpha = 2), KINK_ENUMERATION (alpha <= 1) or
    BRANCH_AND_BOUND (1 < alpha < 2, certified to 1e-10 relative).  A
    design whose support cannot identify all degree+1 coefficients has a
    direction annihilating every support point; its information is exactly
    0, its method SPHERE_SEARCH, and the result carries the degeneracy flag.
    ``degree`` is 1 or 2.
    """
    _check_criterion(alpha, j_tilde)
    ties, value, method, _ = _sphere_min(
        regressor_matrix(design.xs, degree), design.ws, alpha, j_tilde
    )
    return InfoResult(
        alpha=alpha,
        J=value,
        direction=tuple(ties[0]),
        method=method,
        degenerate=method is InfoMethod.SPHERE_SEARCH,
    )


def _merge_points(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(points)
    merged: list[tuple[float, float]] = []
    for x, w in pts:
        if merged and abs(x - merged[-1][0]) <= _DISTINCT_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + w)
        else:
            merged.append((x, w))
    return merged


def symmetrize(design: Design) -> Design:
    """Half-mixture of the design with its reflection x -> -x.

    Accepts unbalanced input and always returns a balanced (symmetric)
    design.  Never decreases the design information, so symmetric designs
    form a complete class for this problem.
    """
    half = [(x, 0.5 * w) for x, w in design.points]
    half += [(-x, 0.5 * w) for x, w in design.points]
    merged = _merge_points(half)
    return Design(merged, design.A)


def uniform_design(A: float, k: int) -> Design:
    """k equally spaced, equally weighted points on [-A, A] inclusive."""
    if k < 2:
        raise ValueError("uniform design needs at least 2 points")
    xs = np.linspace(-A, A, k)
    return Design([(float(x), 1.0 / k) for x in xs], A)


def default_grid(A: float, size: int = _GRID_SIZE) -> np.ndarray:
    """Equally spaced candidate grid on [-A, A]; odd size keeps 0 on it."""
    if not (A > 0.0 and math.isfinite(A)):
        raise ValueError(f"A must be positive and finite, got {A}")
    if size < 3 or size > 201:
        raise ValueError("grid size must lie in [3, 201]")
    if size % 2 == 0:
        size += 1
    return np.linspace(-A, A, size)


def _validate_grid(grid: np.ndarray) -> tuple[np.ndarray, float]:
    """Check a candidate grid; return its positive half and A."""
    grid = np.unique(np.asarray(grid, dtype=float))
    if grid.size > 201:
        raise ValueError(f"candidate grid size {grid.size} exceeds 201")
    a = float(np.max(np.abs(grid)))
    if a <= 0.0:
        raise ValueError("grid must span a nondegenerate interval")
    if not (np.any(np.abs(grid - a) < 1e-12) and np.any(np.abs(grid + a) < 1e-12)):
        raise ValueError("grid must include both endpoints -A and A")
    if not np.any(np.abs(grid) < 1e-12):
        raise ValueError("grid must include 0")
    if np.max(np.abs(grid + grid[::-1])) > 1e-12 * a:
        raise ValueError("grid must be symmetric about 0")
    return grid[grid >= 1e-12], a


def _seed_directions(d: int) -> list[np.ndarray]:
    dirs = [np.eye(d)[i] for i in range(d)]
    ones = np.ones(d) / math.sqrt(d)
    dirs.append(ones)
    for i in range(1, d):
        v = np.ones(d)
        v[i] = -1.0
        dirs.append(v / np.linalg.norm(v))
    return dirs


def _cut_lp(
    phi: np.ndarray, spread: np.ndarray | None = None, t_target: float = 0.0
) -> LinearProgram:
    """The cut LP: w in the simplex, a free t, and t <= phi_u . w per cut.

    Without ``spread`` it maximizes t (the first master); with it, it
    maximizes spread . w subject to t >= t_target.  Each cut row is written
    t - phi_u . w <= 0 and starts at its slack, so phase one carries only
    the simplex row and the target row.
    """
    n_cuts, g = phi.shape
    rows = [np.hstack([-phi, np.ones((n_cuts, 1))]), np.append(np.ones(g), 0.0)]
    rhs = [0.0] * n_cuts + [1.0]
    senses = [Sense.LE] * n_cuts + [Sense.EQ]
    if spread is None:
        c = np.append(np.zeros(g), 1.0)
    else:
        c = np.append(spread, 0.0)
        rows.append(np.append(np.zeros(g), 1.0))
        rhs.append(t_target)
        senses.append(Sense.GE)
    domains = [Domain.NON_NEGATIVE] * g + [Domain.FREE]
    return LinearProgram(c, np.vstack(rows), rhs, senses, domains, maximize=True)


def optimize_design_cutting_plane(
    grid,
    alpha: float,
    j_tilde: float,
    degree: int,
    config: CuttingPlaneConfig | None = None,
) -> DesignSolution:
    """Maximize the design information over symmetric designs on a grid.

    The criterion is concave in the weights and unchanged by x -> -x, so
    symmetrizing never lowers it and symmetric designs attain the optimum
    over all balanced ones.  The variables are therefore the weight at 0
    and the weights of the +-x pairs of ``grid``, which must be symmetric
    about 0.  Kelley's method on that simplex: the master LP maximizes the
    worst accumulated cut, and the separation oracle is the sphere minimizer
    at the incumbent design.  The master is one live ``Tableau``: the seed
    cuts are solved by the two-phase simplex, and each oracle call adds one
    block of cut rows, repaired by one run of dual simplex pivots.  At
    1 < alpha <= 2 the block is the worst direction.  At alpha <= 1 the
    oracle enumerates every kink ray of the incumbent's support, and the
    block holds each ray below ``t_upper (1 - gap_tol)``, most violated
    first, at most ``_BLOCK_CUTS`` of them; the minimum of every design on
    the grid lies on such a ray, so the masters close in on the finite LP
    over all grid rays.  A direction whose mirror is already cut is skipped, as on
    symmetric weights it gives the same row.  Every cut is kept, so the
    master bound never rises.  The loop stops once the gap falls within
    ``config.gap_tol`` of the master bound, at ``config.max_cuts`` cuts, or
    when no offered direction is new; ``stop`` says which.
    One LP on the loop's cuts then finishes from its best verified value J:
    it maximizes the spread sum w_i x_i^2 at t >= J, and its design is kept
    if its verified information is at least J (1 - 1e-12), so ``info``
    never falls below what the loop verified by more than roundoff.

    The optimal design does not depend on ``j_tilde``, so the solve runs at
    unit scale and only the reported ``info`` and ``gap`` are multiplied by
    it.  Returned designs list their points in ascending x.
    """
    config = config or CuttingPlaneConfig()
    _check_criterion(alpha, j_tilde)
    pos, a = _validate_grid(grid)
    d = degree + 1
    var_xs = np.concatenate([[0.0], pos])
    f_pos = regressor_matrix(var_xs, degree)
    f_neg = regressor_matrix(-var_xs, degree)
    xs_full = np.concatenate([-pos[::-1], var_xs])

    def cut_row(u: np.ndarray, own=()) -> np.ndarray:
        at_pos, at_neg = np.abs(f_pos @ u), np.abs(f_neg @ u)
        for x in own:  # the support points a kink ray annihilates: exactly 0
            k = np.searchsorted(var_xs, abs(x))
            if x >= 0.0:
                at_pos[k] = 0.0
            if x <= 0.0:
                at_neg[k] = 0.0
        return 0.5 * (at_pos**alpha + at_neg**alpha)

    def to_design(w: np.ndarray) -> Design:
        ws_full = np.concatenate([0.5 * w[:0:-1], w[:1], 0.5 * w[1:]])
        keep = ws_full > _WEIGHT_FLOOR
        ws_k = ws_full[keep]
        return Design(list(zip(xs_full[keep], ws_k / ws_k.sum())), a)

    def oracle(design: Design):
        """Unit-scale J and its direction, then the cuts on offer: their
        directions, the support points each annihilates, and their values.
        At alpha <= 1 these are every kink ray of the support, from the
        enumeration that found J; otherwise the reported direction alone."""
        ties, value, _, kinks = _sphere_min(
            regressor_matrix(design.xs, degree), design.ws, alpha, 1.0
        )
        if kinks is None:
            return value, ties[0], ties[:1], np.empty((1, 0)), np.full(1, value)
        rays, rows, vals = kinks
        return value, ties[0], rays, design.xs[rows], vals

    cuts: list[np.ndarray] = [np.asarray(u, float) for u in _seed_directions(d)]
    if config.max_cuts < len(cuts):
        raise ValueError(f"max_cuts must be at least {len(cuts)} (the seed cuts) "
                         f"at degree {degree}, got {config.max_cuts}")
    phi_rows: list[np.ndarray] = [cut_row(u) for u in cuts]
    seen = np.vstack([cuts, _mirror(np.array(cuts))])  # every cut and its mirror

    master = Tableau(_cut_lp(np.array(phi_rows)))
    sol = master.solve()
    best: tuple[float, Design, np.ndarray] | None = None
    while True:
        if sol.status is not LpStatus.OPTIMAL:
            raise AssertionError("master LP not solved")
        w, t_upper = sol.x[:-1], float(sol.x[-1])
        incumbent = to_design(w)
        val, u_star, offered, own, offered_vals = oracle(incumbent)
        if best is None or val > best[0]:
            best = (val, incumbent, u_star)
        tol = config.gap_tol * t_upper
        if t_upper - best[0] <= tol:
            stop = StopReason.CONVERGED
            break
        if len(cuts) >= config.max_cuts:
            stop = StopReason.MAX_CUTS
            break
        # separation: cut every offered direction below the master bound,
        # most violated first (ties in the order _argmin_lex breaks them),
        # unless it or its mirror (the same row on symmetric weights) is
        # already cut
        room = min(_BLOCK_CUTS, config.max_cuts - len(cuts))
        block: list[tuple[np.ndarray, np.ndarray]] = []
        below = np.flatnonzero(offered_vals < t_upper - tol)
        below = below[np.lexsort(tuple(offered[below].T[::-1]) + (offered_vals[below],))]
        for u, x in zip(offered[below], own[below]):
            if np.abs(seen @ u).max() > 1.0 - 1e-12:
                continue
            block.append((u, x))
            seen = np.vstack([seen, u, _mirror(u)])
            if len(block) == room:
                break
        if not block:
            stop = StopReason.REPEATED_CUT  # grid resolution limit reached
            break
        cuts.extend(u for u, _ in block)
        rows = [cut_row(u, x) for u, x in block]
        phi_rows.extend(rows)
        sol = master.add_row(np.column_stack([-np.array(rows), np.ones(len(rows))]),
                             np.zeros(len(rows)))

    val, incumbent, u_star = best
    # Spread: the optimum can be a large flat face (piecewise-linear
    # criterion); pick its most spread design that the cuts allow at the
    # verified value, and keep it unless its own value falls more than
    # roundoff below.
    spread = solve_lp(_cut_lp(np.array(phi_rows), var_xs**2, val))
    if spread.status is LpStatus.OPTIMAL:
        cand = to_design(spread.x[:-1])
        cand_val, cand_u = oracle(cand)[:2]
        if cand_val >= val * (1.0 - _TIE_RTOL):
            incumbent, val, u_star = cand, cand_val, cand_u
    return DesignSolution(
        design=incumbent,
        info=j_tilde * val,
        worst_direction=tuple(u_star),
        cuts_used=len(cuts),
        gap=j_tilde * max(t_upper - val, 0.0),
        stop=stop,
    )


def _three_point_inner(a: float, alpha: float):
    """f(pi) = inf_u [ pi |u_1|^alpha + (1-pi)/2 (|f(A)'u|^alpha + |f(-A)'u|^alpha) ].

    Returns a map pi -> (f(pi), slope).  Each u gives a function affine in
    pi with slope sum_i c_i |f(x_i)'u|^alpha, c = (1, -1/2, -1/2) on the rows
    f(0), f(A), f(-A), and f is their pointwise minimum, so the slope at a
    sphere minimizer is a supergradient of f at pi.  When several directions
    attain the minimum, the slope is the smallest over all of them: at
    alpha = 2, lambda_min(V'SV) with V spanning the lambda_min eigenspace and
    S = sum_i c_i f(x_i) f(x_i)'; otherwise the minimum over the tied kink
    rays.  That makes the slope a function of pi, not of which tied
    minimizer the oracle reports.
    """
    rows = regressor_matrix(np.array([0.0, a, -a]), 2)
    c = np.array([1.0, -0.5, -0.5])
    s = _moment_matrix(rows, c)

    def f_of_pi(pi: float) -> tuple[float, float]:
        ws = np.array([pi, 0.5 * (1.0 - pi), 0.5 * (1.0 - pi)])
        ties, value, _, _ = _sphere_min(rows, ws, alpha, 1.0)
        if alpha == 2.0:
            slope = np.linalg.eigvalsh(ties @ s @ ties.T)[0]
        else:
            slope = np.min(np.abs(ties @ rows.T) ** alpha @ c)
        return value, float(slope)

    return f_of_pi


def pi_curve(a: float, alphas) -> list[tuple[float, float, float]]:
    """Optimal weight at zero for the symmetric three-point quadratic design.

    For each alpha, maximizes the concave map pi -> f(pi) (a pointwise min
    of functions affine in pi) by a bracketing search on the lattice
    k / 2**17.  Each oracle call at a lattice point inside the bracket gives
    a cut: f there and the slope of the affine piece active at the sphere
    minimizer, a supergradient.  A positive slope moves the lower end, a
    zero or negative one the upper end, so exact ties resolve toward the
    smaller pi.  Where several directions attain the sphere minimum (a
    double eigenvalue at alpha = 2, tied kink rays at alpha <= 1), the
    smallest of their slopes decides, so the result does not depend on which
    minimizer the oracle returns.

    The next trial comes from the cuts: the zero of the secant on the slope
    through the two cuts nearest the bracket on the side of the latest
    trial, or, if that is not in the bracket, the point where the cuts at
    the two bracket ends cross (Kelley's cutting plane).  It is floored onto
    the lattice and clamped strictly inside the bracket.  The midpoint is
    taken instead when the cuts give no point in the bracket or when the
    last two trials did not halve it (Brent's safeguard), so at worst every
    third trial halves the bracket.  For A in {1, 1.5, 2} and alpha from 1
    to 2 in steps of 0.05 that is 4 to 13 oracle calls per alpha, the final
    f included, where bisection took 18.

    The slope is non-increasing in pi, so exactly one lattice cell has a
    positive slope at its left end (or is at 0) and a non-positive one at its
    right end (or is at 1).  Every trial is a lattice point, so the search
    ends on that cell, the one bisection from [0, 1] reaches, and reports
    its midpoint with f there.  Returns (alpha, pi, f(pi)) rows.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"A must be positive and finite, got {a}")
    n = 1 << _PI_LEVELS
    out = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        _check_criterion(alpha, 1.0)
        f_of_pi = _three_point_inner(a, float(alpha))
        lo, hi = 0, n  # lattice indices of the bracket ends
        # cuts (pi, f, slope) by distance from the bracket, nearest last
        ups: list[tuple[float, float, float]] = []  # slope > 0: pi ascending
        downs: list[tuple[float, float, float]] = []  # slope <= 0: pi descending
        widths = [n]  # bracket width after each trial
        side = ups  # the cuts on the side of the latest trial
        while hi - lo > 1:
            x = math.nan
            if len(widths) < 3 or 2 * widths[-1] <= widths[-3]:
                if len(side) >= 2 and side[-1][2] != side[-2][2]:
                    (p, _, g), (q, _, h) = side[-2:]
                    x = q - h * (q - p) / (h - g)  # zero of the secant on the slope
                if not lo <= x * n <= hi and ups and downs:
                    (p, v, g), (q, w, h) = ups[-1], downs[-1]
                    x = (w - v + g * p - h * q) / (g - h)  # where the two cuts cross
            if lo <= x * n <= hi:
                k = min(max(math.floor(x * n), lo + 1), hi - 1)
            else:
                k = (lo + hi) // 2
            pi = k / n
            value, slope = f_of_pi(pi)
            if slope > 0.0:
                lo, side = k, ups
            else:
                hi, side = k, downs  # zero slope moves the upper end: smaller pi wins
            side.append((pi, value, slope))
            widths.append(hi - lo)
        pi_star = (2 * lo + 1) / (2 * n)
        out.append((float(alpha), pi_star, f_of_pi(pi_star)[0]))
    return out


def e_optimal_design(
    a: float,
    degree: int,
    config: CuttingPlaneConfig | None = None,
    grid_size: int = _GRID_SIZE,
) -> DesignSolution:
    """Maximize lambda_min of the moment matrix (the regular comparator).

    E-optimality is exactly the alpha = 2 case of the information criterion,
    so this is the cutting-plane solver at alpha = 2 on ``default_grid``.
    """
    grid = default_grid(a, grid_size)
    return optimize_design_cutting_plane(
        grid, alpha=2.0, j_tilde=1.0, degree=degree, config=config
    )
