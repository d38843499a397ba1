"""Statistical models with non-regular likelihoods.

Three building blocks:

* :class:`ErrorModel` -- non-negative error distributions (gamma, Weibull,
  exponential) whose density behaves like ``beta * c * y**(beta - 1)`` as
  ``y -> 0``.  The shape ``beta`` in ``[1, 2)`` is exactly the range where the
  model is non-regular (infinite or undefined Fisher information).
* :class:`UniformModel` -- the classical uniform families whose endpoints move
  with the parameter.
* :class:`RegressionModel` -- polynomial regression ``y = f(x)' theta + e``
  with a one-sided error ``e >= 0``, observed on the design interval
  ``[-A, A]``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Past z = y / sigma = 1e154 every density here is 0 and every cdf 1, while
# z**beta (beta < 2) is still finite; capping z there keeps the power from
# overflowing without changing any value.
_Z_CAP = 1e154
_EXPM1_CAP = 700.0  # expm1 overflows just above 709.78
_EPS = 2.0**-53  # stopping rule of the incomplete gamma series and fraction
_TINY = 1e-300  # modified Lentz: stands in for a vanishing denominator


def _gamma_p(a: float, z: float) -> float:
    """The regularised incomplete gamma ratio ``P(a, z)``, ``a > 0``, finite ``z >= 0``.

    Below ``z = a + 1`` it sums the series of DLMF 8.7.1,
    ``P = z**a exp(-z) / Gamma(a + 1) * sum_k z**k / ((a + 1) ... (a + k))``,
    whose terms are all positive.  From there on it evaluates the Legendre
    continued fraction of DLMF 8.9.2 for ``Q = 1 - P`` by the modified
    Lentz method.  There ``P > 1/2``, as the median of a gamma law lies
    below its mean ``a``, so ``1 - Q`` keeps full relative accuracy.
    """
    if z < a + 1.0:
        term = total = 1.0
        k = a
        while term > _EPS * total:
            k += 1.0
            term *= z / k
            total += term
        return z**a * math.exp(-z) / math.gamma(a + 1.0) * total
    b = z + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    frac = d
    step = i = 0.0
    while abs(step - 1.0) > _EPS:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        step = d * c
        frac *= step
    return 1.0 - math.exp(a * math.log(z) - z - math.lgamma(a)) * frac


class ErrorFamily(enum.Enum):
    GAMMA = "gamma"
    WEIBULL = "weibull"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class ErrorModel:
    """Non-negative error distribution with a power-law density at the origin.

    The density satisfies ``p0(y) ~ beta * c * y**(beta - 1)`` as ``y -> 0``
    with ``c = small_y_constant()``.  ``beta`` must lie in ``[1, 2)``: for
    ``beta >= 2`` the model is regular and the machinery in this package does
    not apply.  ``sigma`` is a scale parameter; the exponential family is the
    ``beta = 1`` case with rate ``1 / sigma``.
    """

    family: ErrorFamily
    beta: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.beta >= 2.0:
            raise ValueError(
                f"beta={self.beta} is in the regular regime (beta >= 2); "
                "use classical Fisher-information tools instead"
            )
        if self.beta < 1.0:
            raise ValueError(f"beta={self.beta} must be at least 1")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma={self.sigma} must be positive and finite")
        if self.family is ErrorFamily.EXPONENTIAL and self.beta != 1.0:
            raise ValueError("exponential errors require beta = 1")

    def density(self, y):
        """Density p0(y), vectorised over ``y``; zero for ``y < 0``.

        Zero at ``+inf`` and NaN at NaN.  A Python ``int`` or ``float``
        (``np.float64`` included) is computed with :mod:`math` and gives a
        ``float``: quadrature calls the density one node at a time, and
        NumPy on a 0-d array costs about ten times as much per call.  The
        two paths agree to roundoff.  Arrays, 0-d ones included, go
        through NumPy.
        """
        if isinstance(y, (int, float)):
            return self._scalar_density(float(y))
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        out[np.isnan(y)] = np.nan
        pos = (y >= 0.0) & (y < self.sigma * _Z_CAP)
        z = np.where(pos, y, 1.0) / self.sigma
        if self.beta == 1.0:  # every family's beta = 1 member is the exponential
            vals = np.exp(-z) / self.sigma
        elif self.family is ErrorFamily.GAMMA:
            vals = z ** (self.beta - 1.0) * np.exp(-z) / (math.gamma(self.beta) * self.sigma)
        else:
            vals = (self.beta / self.sigma) * z ** (self.beta - 1.0) * np.exp(-(z**self.beta))
        out[pos] = vals[pos] if vals.ndim else vals
        if out.ndim == 0:
            return float(out)
        return out

    def _scalar_density(self, y: float) -> float:
        """:meth:`density` at one float, in the array path's order of operations."""
        if not 0.0 <= y < math.inf:
            return math.nan if math.isnan(y) else 0.0
        z = y / self.sigma
        if self.beta == 1.0:  # every family's beta = 1 member is the exponential
            return math.exp(-z) / self.sigma
        if self.family is ErrorFamily.GAMMA:
            return z ** (self.beta - 1.0) * math.exp(-z) / (math.gamma(self.beta) * self.sigma)
        try:
            zb = z**self.beta
        except OverflowError:  # exp(-zb) underflows to 0 long before this
            return 0.0
        return (self.beta / self.sigma) * z ** (self.beta - 1.0) * math.exp(-zb)

    def cdf(self, y):
        """Distribution function, exact (no quadrature); zero for ``y < 0``.

        Gamma errors at ``beta != 1`` go through :func:`_gamma_p`, one
        element at a time, so an array and its elements give the same bits.
        """
        if self.family is ErrorFamily.GAMMA and self.beta != 1.0:
            if isinstance(y, (int, float)):
                return self._gamma_cdf(float(y))
            y = np.asarray(y, dtype=float)
            vals = np.array([self._gamma_cdf(v) for v in y.ravel().tolist()]).reshape(y.shape)
        else:
            y = np.asarray(y, dtype=float)
            z = np.clip(y, 0.0, self.sigma * _Z_CAP) / self.sigma
            if self.beta == 1.0:
                vals = -np.expm1(-z)
            else:
                vals = -np.expm1(-(z**self.beta))
        if vals.ndim == 0:
            return float(vals)
        return vals

    def _gamma_cdf(self, y: float) -> float:
        """:meth:`cdf` of gamma errors at one float: NaN stays NaN, ``y`` is clipped."""
        if math.isnan(y):
            return math.nan
        return _gamma_p(self.beta, min(max(y, 0.0), self.sigma * _Z_CAP) / self.sigma)

    def log_density_diff(self, z, e: float | np.ndarray) -> float | np.ndarray:
        """``log p0(z + e) - log p0(z)`` for ``z > 0``, cancellation-free.

        Vectorised over ``z``; a scalar ``z`` gives a float.  ``e`` is a
        shift or an array of shifts broadcast against ``z`` (one per row,
        say), computed element by element as a scalar ``e`` would be.  Used
        by Hellinger quadrature at tiny shifts ``e``, where forming the two
        densities and subtracting would lose all significant digits.
        """
        z = np.asarray(z, dtype=float)
        if (z <= 0.0).any():  # the method, not np.any: half the call overhead
            raise ValueError("z must be positive")
        ratio = np.log1p(e / z)
        if self.beta == 1.0:
            vals = np.full(ratio.shape, -e / self.sigma)
        elif self.family is ErrorFamily.GAMMA:
            vals = (self.beta - 1.0) * ratio - e / self.sigma
        elif z.max() <= self.sigma * _Z_CAP and self.beta * ratio.max() <= _EXPM1_CAP:
            # Weibull, where grow and (z / sigma)**beta are finite
            grow = np.expm1(self.beta * ratio)
            vals = (self.beta - 1.0) * ratio - (z / self.sigma) ** self.beta * grow
        else:  # where zb overflows, z * grow ~ beta * e is formed first; where
            # grow does, zb is negligible and the difference cancels nothing
            with np.errstate(over="ignore", invalid="ignore"):
                grow = np.expm1(self.beta * ratio)
                zb = (z / self.sigma) ** self.beta
                split = z ** (self.beta - 1.0) * (z * grow) / self.sigma**self.beta
                jump = ((z + e) / self.sigma) ** self.beta - zb
                diff = np.where(np.isinf(grow), jump, zb * grow)
                vals = (self.beta - 1.0) * ratio - np.where(np.isinf(zb), split, diff)
        if vals.ndim == 0:
            return float(vals)
        return vals

    def small_y_constant(self) -> float:
        """The constant ``c`` in ``p0(y) ~ beta * c * y**(beta-1)`` at 0."""
        if self.family is ErrorFamily.GAMMA:
            return 1.0 / (self.beta * math.gamma(self.beta) * self.sigma**self.beta)
        if self.family is ErrorFamily.WEIBULL:
            return self.sigma**-self.beta
        return 1.0 / self.sigma

    def mean(self) -> float:
        if self.family is ErrorFamily.GAMMA:
            return self.beta * self.sigma
        if self.family is ErrorFamily.WEIBULL:
            return self.sigma * math.gamma(1.0 + 1.0 / self.beta)
        return self.sigma

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` iid errors using the supplied generator."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if self.family is ErrorFamily.GAMMA:
            return rng.gamma(shape=self.beta, scale=self.sigma, size=n)
        if self.family is ErrorFamily.WEIBULL:
            return self.sigma * rng.weibull(self.beta, size=n)
        return rng.exponential(scale=self.sigma, size=n)


class UniformVariant(enum.Enum):
    """The uniform families with parameter-dependent support."""

    SCALE = "scale"  # Unif(0, theta), theta > 0
    RECIPROCAL = "reciprocal"  # Unif(1/theta, theta), theta > 1
    POWER_PAIR = "power_pair"  # Unif(theta, theta^2), theta > 1
    LOC_SCALE = "loc_scale"  # Unif(theta1, theta1 + theta2), theta2 > 0


@dataclass(frozen=True)
class UniformModel:
    """A uniform family together with a parameter point.

    ``theta`` is a scalar for the one-parameter variants and a pair
    ``(location, scale)`` for ``LOC_SCALE``.
    """

    variant: UniformVariant
    theta: tuple[float, ...]

    def __init__(self, variant: UniformVariant, theta) -> None:
        object.__setattr__(self, "variant", variant)
        theta_tuple = tuple(float(t) for t in np.atleast_1d(theta))
        object.__setattr__(self, "theta", theta_tuple)
        uniform_support(variant, theta_tuple)  # validates the domain

    @property
    def dim(self) -> int:
        return 2 if self.variant is UniformVariant.LOC_SCALE else 1

    def support(self) -> tuple[float, float]:
        return uniform_support(self.variant, self.theta)


def uniform_support(variant: UniformVariant, theta) -> tuple[float, float]:
    """Support interval of the variant at parameter ``theta``.

    Raises ``ValueError`` when ``theta`` is outside the parameter domain.
    """
    theta = tuple(float(t) for t in np.atleast_1d(theta))
    if variant is UniformVariant.LOC_SCALE:
        if len(theta) != 2:
            raise ValueError("loc_scale variant needs theta = (location, scale)")
        loc, scale = theta
        if not (scale > 0.0):
            raise ValueError(f"scale={scale} must be positive")
        return loc, loc + scale
    if len(theta) != 1:
        raise ValueError(f"{variant.value} variant takes a scalar parameter")
    (t,) = theta
    if variant is UniformVariant.SCALE:
        if not (t > 0.0):
            raise ValueError(f"theta={t} must be positive for the scale variant")
        return 0.0, t
    if variant is UniformVariant.RECIPROCAL:
        if not (t > 1.0):
            raise ValueError(f"theta={t} must exceed 1 for the reciprocal variant")
        return 1.0 / t, t
    if variant is UniformVariant.POWER_PAIR:
        if not (t > 1.0):
            raise ValueError(f"theta={t} must exceed 1 for the power-pair variant")
        return t, t * t
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class RegressionModel:
    """Polynomial regression with one-sided errors on ``[-A, A]``.

    The response is ``y = g(x, theta) + e`` with mean
    ``g(x, theta) = sum_k theta_k x**k`` for ``k = 0..degree`` and error
    ``e >= 0`` drawn from ``error``.  Supported degrees are 1 and 2.
    """

    degree: int
    A: float
    theta: tuple[float, ...]
    error: ErrorModel

    def __init__(self, degree: int, A: float, theta, error: ErrorModel) -> None:
        if degree not in (1, 2):
            raise ValueError(f"degree={degree} is not supported (use 1 or 2)")
        if not (A > 0.0 and math.isfinite(A)):
            raise ValueError(f"A={A} must be positive and finite")
        theta_tuple = tuple(float(t) for t in np.atleast_1d(theta))
        if len(theta_tuple) != degree + 1:
            raise ValueError(
                f"theta has length {len(theta_tuple)}, expected degree+1 = {degree + 1}"
            )
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "A", float(A))
        object.__setattr__(self, "theta", theta_tuple)
        object.__setattr__(self, "error", error)

    def regressor(self, x) -> np.ndarray:
        """Monomial regressor ``f(x) = (1, x, ..., x**degree)``.

        Accepts a scalar (returns shape ``(degree+1,)``) or a vector
        (returns shape ``(len(x), degree+1)``).  Rejects ``|x| > A``.
        """
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.A + 1e-12):
            raise ValueError(f"design point outside [-{self.A}, {self.A}]")
        powers = np.arange(self.degree + 1)
        f = x[..., None] ** powers
        return f

    def mean(self, x):
        """Regression mean ``g(x, theta) = f(x)' theta``."""
        f = self.regressor(x)
        return f @ np.asarray(self.theta)
