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
import functools
import math
from dataclasses import dataclass

import numpy as np

# Past z = y / sigma = 1e154 every density here is 0 and every cdf 1, while
# z**beta (beta < 2) is still finite; capping z there keeps the power from
# overflowing without changing any value.
_Z_CAP = 1e154


@functools.cache
def _gamma(x: float) -> float:
    """SciPy's gamma function, cached: density calls it once per quadrature node."""
    from scipy import special  # loaded on first use, not at package import

    return special.gamma(x)


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
        if self.family is ErrorFamily.GAMMA:
            if self.beta == 1.0:
                vals = np.exp(-z) / self.sigma
            else:
                vals = (
                    z ** (self.beta - 1.0)
                    * np.exp(-z)
                    / (_gamma(self.beta) * self.sigma)
                )
        elif self.family is ErrorFamily.WEIBULL:
            if self.beta == 1.0:
                vals = np.exp(-z) / self.sigma
            else:
                vals = (
                    (self.beta / self.sigma)
                    * z ** (self.beta - 1.0)
                    * np.exp(-(z**self.beta))
                )
        else:  # exponential, beta = 1
            vals = np.exp(-z) / self.sigma
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
            return (
                z ** (self.beta - 1.0)
                * math.exp(-z)
                / (float(_gamma(self.beta)) * self.sigma)
            )
        try:
            zb = z**self.beta
        except OverflowError:  # exp(-zb) underflows to 0 long before this
            return 0.0
        return (self.beta / self.sigma) * z ** (self.beta - 1.0) * math.exp(-zb)

    def cdf(self, y):
        """Distribution function, exact (no quadrature); zero for ``y < 0``."""
        y = np.asarray(y, dtype=float)
        z = np.clip(y, 0.0, self.sigma * _Z_CAP) / self.sigma
        if self.family is ErrorFamily.GAMMA:
            from scipy import special

            vals = special.gammainc(self.beta, z)
        elif self.family is ErrorFamily.WEIBULL:
            vals = -np.expm1(-(z**self.beta))
        else:
            vals = -np.expm1(-z)
        if vals.ndim == 0:
            return float(vals)
        return vals

    def log_density_diff(self, z, e: float) -> float | np.ndarray:
        """``log p0(z + e) - log p0(z)`` for ``z > 0``, cancellation-free.

        Vectorised over ``z``; a scalar ``z`` gives a float.  Used by
        Hellinger quadrature at tiny shifts ``e``, where forming the two
        densities and subtracting would lose all significant digits.
        """
        z = np.asarray(z, dtype=float)
        if (z <= 0.0).any():  # the method, not np.any: half the call overhead
            raise ValueError("z must be positive")
        ratio = np.log1p(e / z)
        if self.family is ErrorFamily.GAMMA:
            vals = (self.beta - 1.0) * ratio - e / self.sigma
        elif self.family is ErrorFamily.WEIBULL:
            grow = np.expm1(self.beta * ratio)
            if z.max() <= self.sigma * _Z_CAP:  # (z / sigma)**beta is finite
                vals = (self.beta - 1.0) * ratio - (z / self.sigma) ** self.beta * grow
            else:  # where zb overflows, z * grow ~ beta * e is formed first
                with np.errstate(over="ignore", invalid="ignore"):
                    zb = (z / self.sigma) ** self.beta
                    split = z ** (self.beta - 1.0) * (z * grow) / self.sigma**self.beta
                    vals = (self.beta - 1.0) * ratio - np.where(np.isinf(zb), split, zb * grow)
        else:
            vals = np.full_like(z, -e / self.sigma)
        if vals.ndim == 0:
            return float(vals)
        return vals

    def small_y_constant(self) -> float:
        """The constant ``c`` in ``p0(y) ~ beta * c * y**(beta-1)`` at 0."""
        if self.family is ErrorFamily.GAMMA:
            return 1.0 / (self.beta * _gamma(self.beta) * self.sigma**self.beta)
        if self.family is ErrorFamily.WEIBULL:
            return self.sigma**-self.beta
        return 1.0 / self.sigma

    def mean(self) -> float:
        if self.family is ErrorFamily.GAMMA:
            return self.beta * self.sigma
        if self.family is ErrorFamily.WEIBULL:
            return self.sigma * _gamma(1.0 + 1.0 / self.beta)
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
