"""Squared Hellinger distance and the local information index.

For a family ``{p_theta}`` the squared Hellinger distance is

    h(theta, vartheta) = integral (sqrt(p_theta) - sqrt(p_vartheta))^2 dy,

always in ``[0, 2]``.  Non-regular models satisfy a local power law

    h(theta, theta + eps*u) ~ J(theta; u) * |eps|**alpha,

with regularity index ``alpha`` in ``(0, 2]``.  ``J(theta; u)`` is the
Hellinger information in direction ``u``; regular models have ``alpha = 2``
and ``J = u' I(theta) u / 4`` with ``I`` the Fisher information.

This module computes ``h`` (closed forms for uniform families; otherwise
one engine of nested double-exponential rules, run on arrays for the
one-sided location families and node by node for generic densities),
recovers ``(alpha, J)`` from a ladder of shrinking ``eps`` via a log-log
least-squares fit refined by a damped Gauss-Newton, and evaluates the
closed-form information of the one-sided location families:
``J = c * (1 + beta*r(beta))`` where ``c`` is the small-y constant of the
error density and ``r`` a one-dimensional integral with a closed form in
the Gamma function (:func:`r_beta`).  Nothing here needs SciPy.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import ErrorModel, UniformModel, UniformVariant, uniform_support

# the location h raises once a rung's summed quadrature error estimate
# exceeds max(_LOCATION_ATOL, _LOCATION_RTOL * h)
_LOCATION_ATOL = 1e-12
_LOCATION_RTOL = 1e-6
# Both quadratures of h use nested double-exponential rules of step
# 2**-level on |t| <= _DE_T_MAX (see _de_panels).  The location h, which
# takes one NumPy pass per level for a whole ladder, starts at
# _DE_FIRST_LEVEL; hellinger_sq_numeric, which calls the pdfs once per node,
# starts at _DE_NUMERIC_FIRST_LEVEL.  A panel is accepted once two
# consecutive levels agree to _DE_PANEL_RTOL of its own value (location h)
# or of the whole integral (hellinger_sq_numeric); no agreement by
# _DE_MAX_LEVEL raises QuadratureError.
_DE_T_MAX = 4.0
_DE_FIRST_LEVEL = 4
_DE_NUMERIC_FIRST_LEVEL = 2
_DE_MAX_LEVEL = 8
_DE_PANEL_RTOL = 1e-11
# ladder fits with a larger max log-residual drop their two largest rungs
_LADDER_RESIDUAL_TOL = 1e-3
# The corrected refit's damped Gauss-Newton halves its damping after a step
# that lowers the cost and multiplies it by ten after one that does not.  It
# starts at _GN_DAMPING_START and stops after _GN_MAX_STEPS steps, once the
# damping exceeds _GN_DAMPING_MAX, or at a step shorter than _GN_XTOL
# relative to the parameters.
_GN_MAX_STEPS = 100
_GN_DAMPING_START = 1e-3
_GN_DAMPING_MAX = 1e10
_GN_XTOL = 1e-12
_GN_DIAG = np.diag_indices(3)  # the diagonal of the 3x3 J'J the damping scales

__all__ = [
    "DensitySpec",
    "EpsilonLadder",
    "InfoMethod",
    "InfoResult",
    "NonIdentifiableError",
    "QuadratureError",
    "estimate_alpha_and_J",
    "fisher_quadratic_check",
    "hellinger_sq_closed",
    "hellinger_sq_numeric",
    "location_h_fn",
    "location_hellinger_sq",
    "location_info",
    "normal_density",
    "normal_ls_h_fn",
    "normal_ls_hellinger_closed",
    "product_hellinger_sq",
    "r_beta",
    "reparam_info",
    "uniform_h_fn",
    "uniform_info",
]


class QuadratureError(RuntimeError):
    """Raised when quadrature cannot certify the requested accuracy."""


def _check_unit(u, dim: int | None = None) -> np.ndarray:
    """``u`` as a float array, checked to have unit norm (and length dim)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if dim is not None and u.shape != (dim,):
        raise ValueError(f"direction must be a {dim}-vector")
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {nrm}")
    return u


class NonIdentifiableError(ValueError):
    """Raised when h(theta, theta + eps*u) vanishes along the whole ladder."""


class InfoMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    LIMIT_FIT = "limit_fit"
    SPHERE_SEARCH = "sphere_search"  # degenerate design: J = 0 at a null direction
    KINK_ENUMERATION = "kink_enumeration"  # exact: minimum over the kink rays
    EIGENVALUE = "eigenvalue"  # exact: lambda_min of the moment matrix
    BRANCH_AND_BOUND = "branch_and_bound"  # certified to 1e-10 relative, 1 < alpha < 2


@dataclass(frozen=True)
class InfoResult:
    """Regularity index ``alpha`` and Hellinger information ``J``.

    ``direction`` is the (unit) direction the information refers to, or
    ``None`` for scalar parameters.  ``degenerate`` flags directions with
    ``J = 0`` (locally non-identifiable).
    """

    alpha: float
    J: float
    direction: tuple[float, ...] | None
    method: InfoMethod
    degenerate: bool = False


@dataclass(frozen=True)
class DensitySpec:
    """A density for quadrature: pdf, support, and known kink locations.

    :func:`hellinger_sq_numeric` calls ``pdf`` with one Python ``float`` at
    a time, only strictly inside ``support``: about 300 to 1,600 times per
    ``h`` for the shifted gamma and Weibull densities, up to about 2,000
    for smooth two-sided ones.  A ``pdf`` that computes on ``math`` and
    returns a ``float`` is the fast path;
    :meth:`nonregdesign.models.ErrorModel.density` does so for Python
    numbers.

    ``pdf`` may be infinite at a support endpoint, as it is never called
    there.  An integrable singularity is resolved in full at an endpoint
    ``0``.  At any other endpoint ``a`` the nodes next to it are only known
    to the roundoff of ``a``: a singularity like ``(y - a)**-0.5`` then
    loses about ``sqrt(1e-16 * |a|)`` of its mass, and
    :func:`hellinger_sq_numeric` raises :class:`QuadratureError` rather
    than return that value.
    """

    pdf: Callable[[float], float]
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric ladder ``eps0 * ratio**k`` for ``k = 0..count-1``."""

    eps0: float = 1e-2
    ratio: float = 0.5
    count: int = 8

    def __post_init__(self) -> None:
        if not (self.eps0 > 0.0 and math.isfinite(self.eps0)):
            raise ValueError(f"eps0={self.eps0} must be positive and finite")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio={self.ratio} must lie in (0, 1)")
        if self.count < 4:
            raise ValueError("need at least 4 ladder rungs for the log-log fit")

    def epsilons(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count)


@functools.lru_cache(maxsize=None)
def _de_rule(level: int, odd_only: bool) -> tuple[np.ndarray, ...]:
    """Nodes and weights of the double-exponential rules at step 2**-level.

    The abscissae are ``t = k * 2**-level`` with ``|t| <= _DE_T_MAX`` (odd
    ``k`` only when ``odd_only``: the nodes a level adds to the one below)
    and ``s = (pi/2) sinh t``.  Returns, per node, the tanh-sinh position
    ``1 / (1 + exp(-2s))`` in the unit panel and its weight, then the
    exp-sinh offset ``exp(s)`` and its weight.  The position is the node's
    distance from the left end, so it stays relative-accurate next to it.
    """
    n = int(_DE_T_MAX * 2**level)
    k = np.arange(-n, n + 1)
    if odd_only:
        k = k[k % 2 != 0]
    t = k / 2.0**level
    s = 0.5 * math.pi * np.sinh(t)
    ds = 0.5 * math.pi * np.cosh(t)
    es_x = np.exp(s)
    rule = (1.0 / (1.0 + np.exp(-2.0 * s)), ds / (2.0 * np.cosh(s) ** 2), es_x, ds * es_x)
    for arr in rule:
        arr.flags.writeable = False  # shared by every call through the cache
    return rule


def _de_panels(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    width: np.ndarray,
    tail: np.ndarray,
    first_level: int,
    pooled_floor: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of the panels of a non-negative integrand.

    Panel ``i`` is ``[lo[i], lo[i] + width[i]]`` (tanh-sinh) or, where
    ``tail[i]``, the half-line from ``lo[i]`` (exp-sinh on the offset
    ``width[i] * exp(s)``; a negative width mirrors it onto
    ``(-inf, lo[i]]``).  ``integrand(x, rows)`` maps a 2-D array of
    abscissae, one row per panel, to values of the same shape; ``rows``
    holds the panel index of each row.  Every panel refines from
    ``first_level`` and is accepted once two consecutive levels agree to
    ``_DE_PANEL_RTOL`` of its own value or, given ``pooled_floor``, of the
    larger of ``pooled_floor`` and the sum over all panels; the finer value
    is kept and the difference is its error estimate.  A panel still
    unsettled at ``_DE_MAX_LEVEL`` gets a NaN error estimate (see
    :func:`_check_settled`).
    """
    span = np.abs(width)

    def level_sums(rows: np.ndarray, level: int, odd_only: bool) -> np.ndarray:
        ts_u, ts_w, es_x, es_w = _de_rule(level, odd_only)
        on_tail = tail[rows, None]
        x = np.where(on_tail, es_x, ts_u)
        w = np.where(on_tail, es_w, ts_w)
        f = integrand(lo[rows, None] + width[rows, None] * x, rows)
        return (w * f).sum(axis=1) * (span[rows] / 2.0**level)

    vals = np.zeros(lo.size)
    errs = np.zeros(lo.size)
    active = np.arange(lo.size)
    level = first_level
    coarse = level_sums(active, level, False)
    while active.size:
        if level >= _DE_MAX_LEVEL:
            errs[active] = np.nan
            break
        level += 1
        fine = 0.5 * coarse + level_sums(active, level, True)
        diff = np.abs(fine - coarse)
        if pooled_floor is None:
            done = diff <= _DE_PANEL_RTOL * np.abs(fine)
        else:
            done = diff <= _DE_PANEL_RTOL * max(pooled_floor, vals.sum() + fine.sum())
        vals[active[done]] = fine[done]
        errs[active[done]] = diff[done]
        active = active[~done]
        coarse = fine[~done]
    return vals, errs


def _check_settled(errs: np.ndarray, context: str = "") -> None:
    """Raise :class:`QuadratureError` if ``_de_panels`` left a panel unsettled."""
    unsettled = int(np.isnan(errs).sum())
    if unsettled:
        raise QuadratureError(
            f"{unsettled} quadrature panel(s) unsettled at level {_DE_MAX_LEVEL}{context}"
        )


def hellinger_sq_numeric(
    p: DensitySpec,
    q: DensitySpec,
    atol: float = 1e-12,
    rtol: float = 1e-6,
) -> float:
    """Squared Hellinger distance between two densities by quadrature.

    Integrates the non-negative integrand ``(sqrt(p) - sqrt(q))**2`` over the
    union of supports, splitting at every support endpoint and declared
    breakpoint so the integrand is smooth on each panel.  Finite panels take
    tanh-sinh rules and an infinite side takes an exp-sinh tail from one
    unit past its outermost knot; each panel settles to ``_DE_PANEL_RTOL``
    of ``max(h, atol)`` (see ``_de_panels``).  Raises
    :class:`QuadratureError` when a panel does not settle or the summed
    error estimate exceeds ``max(atol, rtol * h)``.

    The integrand is formed directly, so it cancels where ``p`` and ``q``
    are close: where they differ by a relative ``d``, it carries a relative
    roundoff of about ``1e-16 / d``.
    """
    lo = min(p.support[0], q.support[0])
    hi = max(p.support[1], q.support[1])
    if not lo < hi:
        raise ValueError("degenerate union of supports")

    cuts = {
        float(t)
        for spec in (p, q)
        for t in (*spec.support, *spec.breakpoints)
        if math.isfinite(t) and lo < t < hi
    }
    knots = sorted(cuts)
    # an infinite side gets one finite anchor a unit past its outermost cut
    knots.insert(0, lo if math.isfinite(lo) else (knots[0] if knots else 0.0) - 1.0)
    knots.append(hi if math.isfinite(hi) else knots[-1] + 1.0)
    panels = [(a, b - a, False) for a, b in zip(knots[:-1], knots[1:])]
    if not math.isfinite(lo):
        panels.insert(0, (knots[0], -1.0, True))
    if not math.isfinite(hi):
        panels.append((knots[-1], 1.0, True))
    starts, widths, tail = (np.array(col) for col in zip(*panels))

    # the rules call the pdfs node by node, hundreds of times per h: bind once
    p_pdf, (p_lo, p_hi) = p.pdf, p.support
    q_pdf, (q_lo, q_hi) = q.pdf, q.support
    sqrt = math.sqrt

    def point(y: float) -> float:
        # a node that rounds onto a support endpoint is skipped: the pdf may
        # be singular there, and such nodes lie within half an ulp of it
        fp = max(p_pdf(y), 0.0) if p_lo < y < p_hi else 0.0
        fq = max(q_pdf(y), 0.0) if q_lo < y < q_hi else 0.0
        return (sqrt(fp) - sqrt(fq)) ** 2

    def integrand(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.array([point(v) for v in y.ravel().tolist()]).reshape(y.shape)

    # panels settle against h, not their own values: where p and q nearly
    # cancel, a panel's roundoff can exceed _DE_PANEL_RTOL of its value
    vals, errs = _de_panels(integrand, starts, widths, tail, _DE_NUMERIC_FIRST_LEVEL, atol)
    _check_settled(errs)
    total = sum(vals.tolist())
    total_err = float(errs.sum())
    if total_err > max(atol, rtol * abs(total)):
        raise QuadratureError(
            f"quadrature error estimate {total_err:.3e} exceeds tolerance "
            f"for h = {total:.6e}"
        )
    return float(min(max(total, 0.0), 2.0))


# ---------------------------------------------------------------------------
# Closed forms for uniform families
# ---------------------------------------------------------------------------


def _uniform_overlap_h(s1: tuple[float, float], s2: tuple[float, float]) -> float:
    """h between Unif(s1) and Unif(s2) from the interval-overlap formula."""
    a1, b1 = s1
    a2, b2 = s2
    overlap = max(0.0, min(b1, b2) - max(a1, a2))
    affinity = overlap / math.sqrt((b1 - a1) * (b2 - a2))
    return float(min(max(2.0 - 2.0 * affinity, 0.0), 2.0))


def hellinger_sq_closed(model: UniformModel, theta, vartheta) -> float:
    """Exact squared Hellinger distance for a uniform family.

    ``theta`` and ``vartheta`` are parameter points of ``model.variant``; both
    must lie in the variant's parameter domain.
    """
    s1 = uniform_support(model.variant, theta)
    s2 = uniform_support(model.variant, vartheta)
    return _uniform_overlap_h(s1, s2)


def uniform_h_fn(model: UniformModel) -> Callable[[np.ndarray, np.ndarray], float]:
    """h(theta, vartheta) callable for ladder fits on a uniform family."""

    def h(t1: np.ndarray, t2: np.ndarray) -> float:
        return hellinger_sq_closed(model, t1, t2)

    return h


def uniform_info(model: UniformModel, direction=None) -> InfoResult:
    """Closed-form Hellinger information of the uniform families (alpha = 1).

    Scalar variants ignore ``direction`` (the two signed directions give the
    same J).  The location-scale variant requires a unit direction
    ``u = (u1, u2)`` and returns
    ``J = (2 max(0, u1) - 2 min(0, u1 + u2) + u2) / theta2``.
    """
    theta = model.theta
    if model.variant is UniformVariant.SCALE:
        (t,) = theta
        return InfoResult(1.0, 1.0 / t, None, InfoMethod.CLOSED_FORM)
    if model.variant is UniformVariant.RECIPROCAL:
        (t,) = theta
        j = (t * t + 1.0) / (t * (t * t - 1.0))
        return InfoResult(1.0, j, None, InfoMethod.CLOSED_FORM)
    if model.variant is UniformVariant.POWER_PAIR:
        (t,) = theta
        j = (2.0 * t + 1.0) / (t * (t - 1.0))
        return InfoResult(1.0, j, None, InfoMethod.CLOSED_FORM)
    # location-scale
    if direction is None:
        raise ValueError("loc_scale information needs a direction u = (u1, u2)")
    u = _check_unit(direction, 2)
    scale = theta[1]
    g = 2.0 * max(0.0, u[0]) - 2.0 * min(0.0, u[0] + u[1]) + u[1]
    return InfoResult(1.0, g / scale, tuple(u), InfoMethod.CLOSED_FORM)


# ---------------------------------------------------------------------------
# One-sided location families: specialised h and the closed-form information
# ---------------------------------------------------------------------------


def _overlap_integrand(model: ErrorModel, z: np.ndarray, e) -> np.ndarray:
    """``(sqrt(p0(z + e)) - sqrt(p0(z)))**2`` at ``z > 0``, vectorised.

    ``e`` is a shift or an array of shifts broadcast against ``z``.  When
    the two densities are close the difference goes through the
    log-density increment, ``p0(z) * expm1(dlog / 2)**2``, which avoids
    catastrophic cancellation at small ``e``.
    """
    dlog = model.log_density_diff(z, e)
    p = model.density(z)
    out = p * np.expm1(0.5 * dlog) ** 2
    far = np.abs(dlog) > 2.0
    if far.any():
        out[far] = (np.sqrt(model.density((z + e)[far])) - np.sqrt(p[far])) ** 2
    return out


def _location_h_many(model: ErrorModel, shifts: Sequence[float]) -> list[float]:
    """``h(theta, theta + d)`` of the location family for each shift ``d``.

    Each rung's overlap integral runs on the panels ``[0, e]`` and
    geometric decades out to the first knot at or above ``10 sigma``
    (tanh-sinh), and the tail past it (exp-sinh on the offset
    ``sigma * exp(s)``), with ``e = |d|``.  The panels of every rung go
    through one ``_de_panels`` run, each panel carrying its own shift into
    the integrand; a panel settles on its own value alone, so every rung
    gets the values a run of its own panels would.  The rungs are then
    checked in order, and the first that fails raises what
    :func:`location_hellinger_sq` raises on it alone.
    """
    es = [abs(float(d)) for d in shifts]
    first_bad = next((k for k, e in enumerate(es) if not math.isfinite(e)), len(es))
    rungs = [e for e in es[:first_bad] if e != 0.0]
    lo: list[float] = []
    width: list[float] = []
    tail: list[bool] = []
    shift: list[float] = []
    panels = []
    for e in rungs:
        knots = [0.0, e]
        while knots[-1] < 10.0 * model.sigma:
            knots.append(knots[-1] * 10.0)
        panels.append(slice(len(lo), len(lo) + len(knots)))
        lo += knots
        width += [b - a for a, b in zip(knots[:-1], knots[1:])] + [model.sigma]
        tail += [False] * (len(knots) - 1) + [True]
        shift += [e] * len(knots)
    if rungs:
        rung_shift = np.array(shift)[:, None]
        vals, errs = _de_panels(
            lambda z, rows: _overlap_integrand(model, z, rung_shift[rows]),
            np.array(lo), np.array(width), np.array(tail), _DE_FIRST_LEVEL,
        )

    out = []
    rung_panels = iter(panels)
    for d, e in zip(shifts, es):
        if not math.isfinite(e):
            raise ValueError(f"shift eps={d} must be finite")
        if e == 0.0:
            out.append(0.0)
            continue
        rung = next(rung_panels)
        _check_settled(errs[rung], f" for eps = {e:.6e}")
        total = sum(vals[rung].tolist(), float(model.cdf(e)))
        total_err = float(errs[rung].sum())
        if total_err > max(_LOCATION_ATOL, _LOCATION_RTOL * abs(total)):
            raise QuadratureError(
                f"quadrature error {total_err:.3e} too large for h = {total:.6e}"
            )
        out.append(float(min(max(total, 0.0), 2.0)))
    return out


def location_hellinger_sq(model: ErrorModel, eps: float) -> float:
    """h(theta, theta + eps) for the location family ``y = theta + e``.

    By shift invariance the distance depends only on ``|eps|``, which must
    be finite.  The non-overlap mass is the exact error CDF at ``|eps|``.
    The overlap part is integrated on arrays with nested double-exponential
    rules (see ``_location_h_many``) over panels graded around the moving
    support endpoint, where the integrand has a ``z**(beta-1)`` kink.
    Raises :class:`QuadratureError` when the summed error estimate exceeds
    ``max(_LOCATION_ATOL, _LOCATION_RTOL * h)``.
    """
    return _location_h_many(model, [eps])[0]


def location_h_fn(model: ErrorModel) -> Callable[[np.ndarray, np.ndarray], float]:
    """h(theta, vartheta) callable for the scalar location family.

    Its ``ladder(theta, points)`` attribute returns ``[h(theta, p) for p in
    points]`` from one quadrature pass over all the points (see
    :func:`estimate_alpha_and_J`).
    """

    def shift(t1, t2) -> float:
        return float(np.atleast_1d(t2)[0] - np.atleast_1d(t1)[0])

    def h(t1, t2) -> float:
        return location_hellinger_sq(model, shift(t1, t2))

    h.ladder = lambda t1, points: _location_h_many(model, [shift(t1, t2) for t2 in points])
    return h


def r_beta(beta: float) -> float:
    """The information integral ``r(beta)`` of the one-sided location model.

    With ``b = (beta - 1) / 2``,

        r(beta) = integral_0^inf ((w + 1)**b - w**b)**2 dw
                = Gamma(b + 1)**2 / (Gamma(beta + 1) sin(pi (2 - beta) / 2))
                  - 1/beta,

    where the first term is the Mandelbrot--Van Ness constant of fractional
    Brownian motion with ``H = beta / 2``.  That sine argument stays accurate
    as ``beta`` nears 2, where ``pi beta / 2`` rounds next to ``pi``.  Against
    40-digit arithmetic the result is within 2e-15 absolute below
    ``beta = 1.05``, where the terms cancel as ``r ~ b**2``, and within 1e-12
    relative above.  ``r(1) = 0`` exactly.
    """
    if not 1.0 <= beta < 2.0:
        raise ValueError(f"beta={beta} outside the non-regular range [1, 2)")
    if beta == 1.0:
        return 0.0
    mvn = math.gamma(0.5 * (beta + 1.0)) ** 2 / (
        math.gamma(beta + 1.0) * math.sin(0.5 * math.pi * (2.0 - beta))
    )
    return float(mvn - 1.0 / beta)


def location_info(model: ErrorModel) -> InfoResult:
    """Closed-form information of the one-sided location family.

    ``alpha = beta`` and ``J = c * (1 + beta * r(beta))`` where ``c`` is the
    small-y constant of the error density.  The information does not depend
    on the location point or the direction sign.
    """
    c = model.small_y_constant()
    r = r_beta(model.beta)
    j = c * (1.0 + model.beta * r)
    return InfoResult(model.beta, j, None, InfoMethod.CLOSED_FORM)


# ---------------------------------------------------------------------------
# Ladder fit
# ---------------------------------------------------------------------------


def _corrected_ladder_fit(
    log_eps: np.ndarray,
    log_h: np.ndarray,
    slope0: float,
    intercept0: float,
    resid0: float,
) -> tuple[float, float, float] | None:
    """Refit ``log h = log J + a log eps + log(1 + c eps**(2-a))``.

    Damped Gauss--Newton (Levenberg--Marquardt) from ``(slope0,
    intercept0, 0)`` on the closed-form Jacobian.  A step into the invalid
    region (``2 - a`` outside ``(1e-3, 2.5)``, or ``1 + c eps**(2-a) <=
    1e-9`` on some rung) counts as a step that does not lower the cost.
    Returns ``(alpha, log J, max residual)`` when some step lowers the cost
    and the fit reduces the worst residual, else ``None``.  Skipped near
    ``alpha = 2`` where the correction term degenerates into the constant
    and would confound ``J``.
    """
    if not 0.05 < slope0 < 1.95 or log_eps.size < 4:
        return None

    def residuals_and_jacobian(params: np.ndarray):
        a, lj, c = params
        expo = 2.0 - a
        if not 1e-3 < expo < 2.5:
            return None
        power = np.exp(expo * log_eps)
        arg = 1.0 + c * power
        if np.any(arg <= 1e-9):
            return None
        resid = lj + a * log_eps + np.log(arg) - log_h
        jac = np.column_stack([log_eps / arg, np.ones_like(arg), power / arg])
        return resid, jac

    x = np.array([slope0, intercept0, 0.0])
    resid, jac = residuals_and_jacobian(x)
    cost = float(resid @ resid)
    damping = _GN_DAMPING_START
    lowered = False
    for _ in range(_GN_MAX_STEPS):
        lhs = jac.T @ jac
        lhs[_GN_DIAG] += damping * lhs[_GN_DIAG]
        try:
            step = np.linalg.solve(lhs, -(jac.T @ resid))
        except np.linalg.LinAlgError:  # no damping repairs a singular J'J
            break
        trial = residuals_and_jacobian(x + step)
        if trial is not None and float(trial[0] @ trial[0]) < cost:
            x = x + step
            resid, jac = trial
            cost = float(resid @ resid)
            lowered = True
            damping *= 0.5
        else:
            damping *= 10.0
        # math.sqrt(v @ v) is np.linalg.norm(v) of a 1-D v, bit for bit
        if damping > _GN_DAMPING_MAX or (
            math.sqrt(step @ step) <= _GN_XTOL * (_GN_XTOL + math.sqrt(x @ x))
        ):
            break
    if not lowered:
        return None
    a, lj, _ = x
    new_resid = float(np.max(np.abs(resid)))
    if not (np.isfinite(new_resid) and new_resid < resid0 and 0.02 < a < 1.98):
        return None
    return float(a), float(lj), new_resid


def estimate_alpha_and_J(
    h_fn: Callable[[np.ndarray, np.ndarray], float],
    theta,
    direction=None,
    ladder: EpsilonLadder | None = None,
) -> InfoResult:
    """Fit ``(alpha, J)`` from ``h(theta, theta + eps*u)`` on an eps ladder.

    Starts from least squares on ``log h`` against ``log eps`` and then
    refines with the first correction term of the expansion,

        h(eps) = J * eps**alpha * (1 + c * eps**(2 - alpha)),

    whose exponent is tied to ``alpha``; near the regular boundary the bare
    linear fit is biased by several percent because the correction decays
    as slowly as ``eps**(2 - alpha)``.  The refinement is skipped when the
    fitted exponent is too close to 2 (the correction term degenerates into
    the constant) and abandoned if the nonlinear fit fails to reduce the
    residual, falling back to the linear fit with its two largest rungs
    dropped when the largest log residual exceeds 1e-3.  Raises
    ``ValueError`` naming the first rung whose h is not finite, and
    :class:`NonIdentifiableError` when h vanishes on the ladder; when every
    rung is positive but below ``1e-12`` the result is returned with
    ``degenerate=True`` (indistinguishable from a non-identifiable
    direction unless h is relative-accurate).

    An ``h_fn`` with a ``ladder`` attribute, as :func:`location_h_fn`
    returns, is called once as ``h_fn.ladder(theta, points)``, which must
    return ``[h_fn(theta, p) for p in points]``; any other ``h_fn`` is
    called once per rung.
    """
    if ladder is None:
        ladder = EpsilonLadder()
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if direction is None:
        if theta.size != 1:
            raise ValueError("direction is required for vector parameters")
        u = np.array([1.0])
    else:
        u = np.atleast_1d(np.asarray(direction, dtype=float))
        if u.shape != theta.shape:
            raise ValueError("direction and theta must have the same dimension")
        _check_unit(u)

    eps = ladder.epsilons()
    points = [theta + e * u for e in eps]
    h_ladder = getattr(h_fn, "ladder", None)
    if h_ladder is not None:
        h = np.array([float(v) for v in h_ladder(theta, points)])
    else:
        h = np.array([float(h_fn(theta, p)) for p in points])
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"h = {h[k]} is not finite at rung {k} (eps = {eps[k]:.6g})")
    if np.all(h == 0.0):
        raise NonIdentifiableError(
            "h(theta, theta + eps*u) is identically zero along the ladder; "
            "the direction is non-identifiable"
        )
    if np.any(h <= 0.0):
        raise NonIdentifiableError(
            "h vanishes on part of the ladder; the direction is locally "
            "non-identifiable or h was computed at absolute tolerance"
        )
    # All rungs below 1e-12 is numerically indistinguishable from a
    # non-identifiable direction when h carries absolute quadrature error;
    # the fit is still returned, flagged, for callers whose h is exact or
    # relative-accurate (closed forms, relative-tolerance quadrature).
    all_tiny = bool(np.all(h < 1e-12))

    def fit(le: np.ndarray, lh: np.ndarray) -> tuple[float, float, float]:
        design = np.column_stack([le, np.ones_like(le)])
        coef, *_ = np.linalg.lstsq(design, lh, rcond=None)
        resid = lh - design @ coef
        return float(coef[0]), float(coef[1]), float(np.max(np.abs(resid)))

    log_eps = np.log(eps)
    log_h = np.log(h)
    slope, intercept, max_resid = fit(log_eps, log_h)
    refined = _corrected_ladder_fit(log_eps, log_h, slope, intercept, max_resid)
    if refined is not None:
        slope, intercept, max_resid = refined
    elif max_resid > _LADDER_RESIDUAL_TOL and len(eps) >= 5:
        slope, intercept, max_resid = fit(log_eps[2:], log_h[2:])

    dir_out = None if direction is None else tuple(float(x) for x in u)
    return InfoResult(
        alpha=slope,
        J=float(math.exp(intercept)),
        direction=dir_out,
        method=InfoMethod.LIMIT_FIT,
        degenerate=all_tiny,
    )


# ---------------------------------------------------------------------------
# Regular families: the alpha = 2 quadratic law
# ---------------------------------------------------------------------------


def normal_density(mu: float, sigma: float) -> DensitySpec:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    norm_const = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def pdf(y: float) -> float:
        z = (y - mu) / sigma
        return norm_const * math.exp(-0.5 * z * z)

    return DensitySpec(pdf=pdf, support=(-np.inf, np.inf), breakpoints=(mu,))


def normal_ls_hellinger_closed(t1, t2) -> float:
    """Exact h between N(mu1, s1^2) and N(mu2, s2^2)."""
    mu1, s1 = float(t1[0]), float(t1[1])
    mu2, s2 = float(t2[0]), float(t2[1])
    affinity = math.sqrt(2.0 * s1 * s2 / (s1 * s1 + s2 * s2)) * math.exp(
        -((mu1 - mu2) ** 2) / (4.0 * (s1 * s1 + s2 * s2))
    )
    return 2.0 - 2.0 * affinity


def normal_ls_h_fn() -> Callable[[np.ndarray, np.ndarray], float]:
    """h callable for the normal location-scale family.

    It routes through :func:`hellinger_sq_numeric` (the generic quadrature
    path); :func:`normal_ls_hellinger_closed` is the exact affinity formula.
    """

    def h(t1, t2) -> float:
        p = normal_density(float(t1[0]), float(t1[1]))
        q = normal_density(float(t2[0]), float(t2[1]))
        return hellinger_sq_numeric(p, q, atol=1e-14, rtol=1e-8)

    return h


def normal_ls_fisher(theta) -> np.ndarray:
    """Fisher information of N(mu, sigma^2) at theta = (mu, sigma)."""
    sigma = float(theta[1])
    return np.diag([1.0 / sigma**2, 2.0 / sigma**2])


def fisher_quadratic_check(
    theta,
    direction,
    ladder: EpsilonLadder | None = None,
) -> tuple[InfoResult, float]:
    """Ladder fit versus the quadratic law for the normal family.

    Returns the fitted :class:`InfoResult` (alpha should be close to 2) and
    the reference value ``u' I(theta) u / 4``.  ``direction`` must be a unit
    vector.  The fit runs the generic quadrature of :func:`normal_ls_h_fn`.
    """
    u = _check_unit(direction, 2)
    if ladder is None:
        ladder = EpsilonLadder()
    result = estimate_alpha_and_J(normal_ls_h_fn(), theta, u, ladder)
    quarter = float(u @ normal_ls_fisher(theta) @ u) / 4.0
    return result, quarter


# ---------------------------------------------------------------------------
# Transformations and products
# ---------------------------------------------------------------------------


def reparam_info(alpha: float, j_tilde: float, gradient, direction) -> InfoResult:
    """Information of ``theta`` when the model depends on it via ``g(theta)``.

    For a scalar reparametrisation with gradient ``g_dot`` and a direction
    ``u``, the chain rule for the Hellinger power law gives
    ``J(theta; u) = |g_dot' u|**alpha * J_tilde(g(theta))``.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha={alpha} outside (0, 2]")
    if not (j_tilde >= 0.0 and math.isfinite(j_tilde)):
        raise ValueError(f"J_tilde must be finite and non-negative, got {j_tilde}")
    g = np.atleast_1d(np.asarray(gradient, dtype=float))
    u = np.atleast_1d(np.asarray(direction, dtype=float))
    if g.shape != u.shape:
        raise ValueError("gradient and direction must have the same dimension")
    if float(np.linalg.norm(g)) == 0.0:
        raise ValueError("zero gradient: the reparametrisation is degenerate")
    _check_unit(u)
    inner = abs(float(g @ u))
    j = inner**alpha * j_tilde
    degenerate = inner < 1e-15
    dir_out = tuple(float(x) for x in u) if u.size > 1 else None
    return InfoResult(alpha, float(j), dir_out, InfoMethod.CLOSED_FORM, degenerate)


def product_hellinger_sq(h_values: Sequence[float]) -> float:
    """h of a product of independent experiments from the per-factor h's.

    Uses ``h = 2 * (1 - prod(1 - h_i / 2))``, the exact product rule for
    Hellinger affinities.
    """
    h = np.asarray(h_values, dtype=float)
    if np.any((h < 0.0) | (h > 2.0)):
        raise ValueError("each h must lie in [0, 2]")
    return float(2.0 * (1.0 - np.prod(1.0 - h / 2.0)))
