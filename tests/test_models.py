import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from nonregdesign.models import (
    ErrorFamily,
    ErrorModel,
    RegressionModel,
    UniformModel,
    UniformVariant,
    _gamma_p,
    uniform_support,
)

ALL_FAMILIES = [ErrorFamily.GAMMA, ErrorFamily.WEIBULL, ErrorFamily.EXPONENTIAL]


class TestErrorModelDomain:
    def test_beta_two_is_regular_regime(self):
        with pytest.raises(ValueError, match="regular"):
            ErrorModel(ErrorFamily.GAMMA, 2.0, 1.0)

    def test_beta_above_two_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            ErrorModel(ErrorFamily.WEIBULL, 2.5, 1.0)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(ErrorFamily.GAMMA, 0.7, 1.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            ErrorModel(ErrorFamily.GAMMA, 1.5, 0.0)

    def test_exponential_requires_unit_beta(self):
        with pytest.raises(ValueError):
            ErrorModel(ErrorFamily.EXPONENTIAL, 1.5, 1.0)


class TestDensity:
    def test_exponential_rate_one_at_origin(self):
        m = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        assert m.density(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_negative_argument_gives_zero(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert m.density(-0.3) == 0.0

    def test_gamma_small_y_constant(self):
        # c = 1 / (beta * Gamma(beta) * sigma**beta)
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert m.small_y_constant() == pytest.approx(
            1.0 / (1.5 * special.gamma(1.5)), rel=1e-14, abs=0
        )

    def test_weibull_small_y_constant(self):
        m = ErrorModel(ErrorFamily.WEIBULL, 1.5, 2.0)
        assert m.small_y_constant() == pytest.approx(2.0**-1.5, rel=1e-14, abs=0)

    def test_gamma_beta_one_matches_exponential(self):
        g = ErrorModel(ErrorFamily.GAMMA, 1.0, 2.0)
        e = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 2.0)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(g.density(ys), e.density(ys), rtol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("beta,sigma", [(1.0, 1.0), (1.0, 2.5)])
    def test_density_integrates_to_one_beta_one(self, family, beta, sigma):
        m = ErrorModel(family, beta, sigma)
        val, _ = integrate.quad(m.density, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    @pytest.mark.parametrize("beta,sigma", [(1.2, 1.0), (1.5, 2.0), (1.8, 0.7)])
    def test_density_integrates_to_one(self, family, beta, sigma):
        m = ErrorModel(family, beta, sigma)
        val, _ = integrate.quad(m.density, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    @pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
    def test_small_y_power_law(self, family, beta):
        # p0(y) / (beta c y**(beta-1)) -> 1, with the deviation shrinking
        # monotonically along a decreasing y grid and below 1% at y = 1e-6
        m = ErrorModel(family, beta, 1.3)
        c = m.small_y_constant()
        ys = 10.0 ** -np.arange(1, 7)
        ratio = m.density(ys) / (beta * c * ys ** (beta - 1.0))
        dev = np.abs(ratio - 1.0)
        assert np.all(np.diff(dev) < 0.0)
        assert dev[-1] < 0.01

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_cdf_matches_quadrature(self, family):
        m = ErrorModel(family, 1.4, 1.1)
        for y in [0.3, 1.0, 2.7]:
            val, _ = integrate.quad(m.density, 0.0, y, epsabs=1e-13, epsrel=1e-11)
            assert m.cdf(y) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_log_density_diff_matches_direct(self, family):
        m = ErrorModel(family, 1.6, 0.9)
        for z in [0.05, 0.7, 3.0]:
            for e in [1e-3, 0.2]:
                direct = math.log(m.density(z + e)) - math.log(m.density(z))
                assert m.log_density_diff(z, e) == pytest.approx(direct, rel=1e-10, abs=0)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_log_density_diff_at_tiny_z(self, family):
        # expm1(beta * log1p(e / z)) overflows here: the Weibull value was NaN
        # at z = 1e-300 and 1e-200, and -inf at 1e-170
        m = ErrorModel(family, 1.9, 1.0)
        z = np.array([1e-300, 1e-200, 1e-170, 1e-100, 0.5])
        vals = m.log_density_diff(z, 1e-3)
        for zi, v in zip(z, vals):
            direct = math.log(m.density(zi + 1e-3)) - math.log(m.density(zi))
            assert v == pytest.approx(direct, rel=1e-12, abs=0)
            assert m.log_density_diff(float(zi), 1e-3) == pytest.approx(v, rel=1e-15, abs=0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_log_density_diff_on_arrays(self, family):
        beta = 1.0 if family is ErrorFamily.EXPONENTIAL else 1.6
        m = ErrorModel(family, beta, 0.9)
        zs = np.array([[1e-12, 0.05, 0.7], [3.0, 40.0, 1e3]])
        vals = m.log_density_diff(zs, 1e-3)
        assert vals.shape == zs.shape
        for z, v in zip(zs.ravel(), vals.ravel()):
            scalar = m.log_density_diff(float(z), 1e-3)
            assert type(scalar) is float
            assert v == pytest.approx(scalar, rel=1e-15, abs=1e-300)
        with pytest.raises(ValueError, match="positive"):
            m.log_density_diff(np.array([0.5, 0.0]), 1e-3)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_log_density_diff_with_a_shift_per_row(self, family):
        # each row gets the bits of its own scalar-shift call, also where
        # another row's 1e300 sends the Weibull array down its overflow branch
        beta = 1.0 if family is ErrorFamily.EXPONENTIAL else 1.6
        m = ErrorModel(family, beta, 0.9)
        zs = np.array([[1e-12, 0.05, 0.7], [3.0, 40.0, 1e3], [0.2, 5.0, 1e300]])
        shifts = np.array([[1e-3], [0.25], [1.0]])
        vals = m.log_density_diff(zs, shifts)
        for row, z, e in zip(vals, zs, shifts[:, 0]):
            assert np.array_equal(row, m.log_density_diff(z, float(e)))
        assert np.array_equal(vals[:2], m.log_density_diff(zs[:2], shifts[:2]))

    @pytest.mark.parametrize("beta", [1.3, 1.9])
    def test_weibull_log_density_diff_past_power_overflow(self, beta):
        # (z / sigma)**beta overflows here; the value itself is representable
        # and is -beta e z**(beta - 1) / sigma**beta to first order in e / z
        m = ErrorModel(ErrorFamily.WEIBULL, beta, 1.0)
        z = np.array([1e300, 0.7])
        vals = m.log_density_diff(z, 1.0)
        assert vals[0] == pytest.approx(-beta * 1e300 ** (beta - 1.0), rel=1e-12, abs=0)
        assert vals[1] == pytest.approx(m.log_density_diff(0.7, 1.0), rel=1e-15, abs=0)


def _models_over_grid(sigmas=(0.5, 1.0, 2.0)):
    for family in ALL_FAMILIES:
        betas = (1.0,) if family is ErrorFamily.EXPONENTIAL else (1.0, 1.3, 1.6, 1.9)
        for beta in betas:
            for sigma in sigmas:
                yield ErrorModel(family, beta, sigma)


class TestScalarDensity:
    """A Python number takes ``math``; arrays, 0-d ones too, take NumPy."""

    YS = (-1.0, 0.0, 1e-300, 1e-8, 0.5, 30.0, 700.0, math.inf)

    @pytest.mark.parametrize("m", list(_models_over_grid()), ids=repr)
    def test_scalar_matches_array(self, m):
        for y in self.YS:
            scalar = m.density(y)
            array = m.density(np.array([y]))[0]
            if (scalar == 0.0 and array == 0.0) or (
                math.isnan(scalar) and math.isnan(array)
            ):
                continue
            assert abs(scalar - array) <= 2e-15 * abs(array), (y, scalar, array)

    @pytest.mark.parametrize("y", [0.5, 2, np.float64(0.5)])
    def test_python_number_gives_float(self, y):
        for m in _models_over_grid():
            assert type(m.density(y)) is float

    def test_zero_d_array_takes_numpy(self, monkeypatch):
        m = ErrorModel(ErrorFamily.GAMMA, 1.3)
        expected = m.density(np.array([0.7]))[0]

        def no_scalar_path(self, y):
            raise AssertionError("0-d array took the scalar path")

        monkeypatch.setattr(ErrorModel, "_scalar_density", no_scalar_path)
        value = m.density(np.array(0.7))
        assert type(value) is float
        assert value == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_infinity_gives_zero_and_nan_gives_nan(self, family):
        # gamma and Weibull at beta > 1 used to form inf**(beta-1) * exp(-inf),
        # and Weibull at beta > 1 overflowed z**beta at huge finite y
        huge = np.array([1e300, 1.7e308])
        betas = (1.0,) if family is ErrorFamily.EXPONENTIAL else (1.3, 1.6, 1.9)
        for beta in betas:
            m = ErrorModel(family, beta, 1.5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert m.density(math.inf) == 0.0
                assert math.isnan(m.density(math.nan))
                vals = m.density(np.array([math.inf, math.nan, 0.5, -math.inf]))
                assert m.density(1e300) == 0.0
                assert np.all(m.density(huge) == 0.0)
                assert np.all(m.cdf(huge) == 1.0)
                assert np.all(np.isfinite(m.log_density_diff(huge, 1.0)))
            assert vals[0] == 0.0
            assert math.isnan(vals[1])
            assert vals[2] > 0.0 and vals[3] == 0.0
            assert math.isnan(m.cdf(math.nan))


def _reference_scalar_density(m: ErrorModel, y: float) -> float:
    """The scalar density with its constants formed at every call."""
    if not 0.0 <= y < math.inf:
        return math.nan if math.isnan(y) else 0.0
    z = y / m.sigma
    if m.beta == 1.0:
        return math.exp(-z) / m.sigma
    if m.family is ErrorFamily.GAMMA:
        return z ** (m.beta - 1.0) * math.exp(-z) / (math.gamma(m.beta) * m.sigma)
    try:
        zb = z**m.beta
    except OverflowError:
        return 0.0
    return (m.beta / m.sigma) * z ** (m.beta - 1.0) * math.exp(-zb)


def _reference_array_density(m: ErrorModel, y: np.ndarray) -> np.ndarray:
    """The array density with its constants formed at every call."""
    out = np.zeros_like(y)
    out[np.isnan(y)] = np.nan
    pos = (y >= 0.0) & (y < m.sigma * 1e154)
    z = np.where(pos, y, 1.0) / m.sigma
    if m.beta == 1.0:
        vals = np.exp(-z) / m.sigma
    elif m.family is ErrorFamily.GAMMA:
        vals = z ** (m.beta - 1.0) * np.exp(-z) / (math.gamma(m.beta) * m.sigma)
    else:
        vals = (m.beta / m.sigma) * z ** (m.beta - 1.0) * np.exp(-(z**m.beta))
    out[pos] = vals[pos]
    return out


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestBoundDensityConstants:
    """The density's constants are bound per model, with the same bits."""

    YS = (
        0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.3, 0.7, 1.0, 2.5, 30.0, 700.0, 1e300,
        math.inf, -math.inf, math.nan, -1.0, -5e-324, -1e300,
    )

    def test_scalar_and_array_paths_keep_their_bits(self):
        rng = np.random.default_rng(3)
        random_ys = np.concatenate([rng.exponential(2.0, 200), 10.0 ** rng.uniform(-300, 300, 50)])
        for m in _models_over_grid(sigmas=(0.5, 1.0, 2.5)):
            near_cap = 1e154 * m.sigma
            ys = [*self.YS, near_cap, math.nextafter(near_cap, 0.0), *random_ys.tolist()]
            scalar = [m.density(y) for y in ys]
            assert all(type(v) is float for v in scalar)
            assert _hex(scalar) == _hex(_reference_scalar_density(m, y) for y in ys), m
            array = m.density(np.array(ys))
            assert _hex(array) == _hex(_reference_array_density(m, np.array(ys))), m

    def test_only_the_fields_define_the_model(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.3, 2.5)
        twin = ErrorModel(ErrorFamily.GAMMA, 1.3, 2.5)
        assert m == twin and hash(m) == hash(twin)
        assert repr(m) == "ErrorModel(family=<ErrorFamily.GAMMA: 'gamma'>, beta=1.3, sigma=2.5)"
        assert [f.name for f in dataclasses.fields(m)] == ["family", "beta", "sigma"]
        assert dataclasses.astuple(m) == (ErrorFamily.GAMMA, 1.3, 2.5)
        # replace() and unpickling rebuild the constants from the new fields
        moved = dataclasses.replace(m, family=ErrorFamily.WEIBULL, beta=1.6)
        fresh = ErrorModel(ErrorFamily.WEIBULL, 1.6, 2.5)
        assert moved == fresh and moved.density(0.7) == fresh.density(0.7)
        data = pickle.dumps(m)
        assert b"_gamma_scale" not in data and b"_kind" not in data
        back = pickle.loads(data)
        assert back == m and hash(back) == hash(m)
        assert _hex([back.density(0.7), *back.density(np.array([0.7, 3.0]))]) == _hex(
            [m.density(0.7), *m.density(np.array([0.7, 3.0]))]
        )
        with pytest.raises(ValueError, match="regular"):
            dataclasses.replace(m, beta=2.0)


class TestGammaCdf:
    """P(beta, z): a series below z = beta + 1, a continued fraction above."""

    @pytest.mark.parametrize("beta", [1.05, 1.3, 1.5, 1.9, 3.0, 7.5])
    def test_matches_mpmath(self, beta):
        mp = pytest.importorskip("mpmath")
        switch = beta + 1.0
        zs = np.logspace(-300, 3, 67).tolist() + [
            0.5 * switch,
            math.nextafter(switch, 0.0),
            switch,
            math.nextafter(switch, math.inf),
            2.0 * switch,
        ]
        for z in zs:
            with mp.workdps(40):
                ref = float(mp.gammainc(mp.mpf(beta), 0, mp.mpf(z), regularized=True))
            got = _gamma_p(beta, z)
            if ref < sys.float_info.min:  # subnormal: no relative accuracy left
                assert abs(got - ref) <= 4.0 * 2.0**-1074, (z, got, ref)
            else:
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0), z
            if beta < 2.0:
                assert ErrorModel(ErrorFamily.GAMMA, beta).cdf(z) == got

    @pytest.mark.parametrize("beta", [1.05, 1.3, 1.9])
    def test_scalar_and_array_give_the_same_bits(self, beta):
        m = ErrorModel(ErrorFamily.GAMMA, beta, 1.5)
        ys = np.array([
            -1.0, 0.0, 1e-300, 1e-9, 0.3, 1.5 * (beta + 1.0), 2.5, 40.0, 1e300,
            math.inf, -math.inf, math.nan,
        ])
        scalars = np.array([m.cdf(float(y)) for y in ys])
        assert scalars[-3:-1].tolist() == [1.0, 0.0]
        np.testing.assert_array_equal(m.cdf(ys), scalars)
        np.testing.assert_array_equal(m.cdf(ys.reshape(3, 4)), scalars.reshape(3, 4))
        for y, want in zip(ys, scalars):
            got = m.cdf(np.array(y))
            assert type(got) is float
            assert got == want or math.isnan(got) and math.isnan(want)


class TestSampling:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_samples_non_negative(self, family):
        beta = 1.0 if family is ErrorFamily.EXPONENTIAL else 1.5
        m = ErrorModel(family, beta, 2.0)
        x = m.sample(10_000, np.random.default_rng(123))
        assert x.shape == (10_000,)
        assert np.all(x >= 0.0)

    def test_deterministic_given_seed(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        a = m.sample(100, np.random.default_rng(7))
        b = m.sample(100, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "family,beta,sigma,dist",
        [
            (ErrorFamily.GAMMA, 1.5, 2.0, stats.gamma(a=1.5, scale=2.0)),
            (ErrorFamily.WEIBULL, 1.3, 1.5, stats.weibull_min(c=1.3, scale=1.5)),
            (ErrorFamily.EXPONENTIAL, 1.0, 0.8, stats.expon(scale=0.8)),
        ],
    )
    def test_ks_against_reference_cdf(self, family, beta, sigma, dist):
        m = ErrorModel(family, beta, sigma)
        x = m.sample(100_000, np.random.default_rng(20240901))
        ks = stats.kstest(x, dist.cdf).statistic
        assert ks < 0.01


class TestUniformModel:
    def test_scale_support(self):
        assert uniform_support(UniformVariant.SCALE, 2.0) == (0.0, 2.0)

    def test_reciprocal_support(self):
        lo, hi = uniform_support(UniformVariant.RECIPROCAL, 2.0)
        assert (lo, hi) == (0.5, 2.0)

    def test_power_pair_support(self):
        assert uniform_support(UniformVariant.POWER_PAIR, 2.0) == (2.0, 4.0)

    def test_loc_scale_support(self):
        assert uniform_support(UniformVariant.LOC_SCALE, (1.5, 2.0)) == (1.5, 3.5)

    @pytest.mark.parametrize(
        "variant,theta",
        [
            (UniformVariant.SCALE, -1.0),
            (UniformVariant.RECIPROCAL, 1.0),
            (UniformVariant.POWER_PAIR, 0.9),
            (UniformVariant.LOC_SCALE, (0.0, 0.0)),
        ],
    )
    def test_domain_violations(self, variant, theta):
        with pytest.raises(ValueError):
            UniformModel(variant, theta)

    def test_dim(self):
        assert UniformModel(UniformVariant.SCALE, 2.0).dim == 1
        assert UniformModel(UniformVariant.LOC_SCALE, (0.0, 1.0)).dim == 2


class TestRegressionModel:
    def make(self, degree=2, A=1.0, theta=(2.0, 4.0, 0.8)):
        err = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        return RegressionModel(degree, A, theta, err)

    def test_mean_and_regressor_quadratic(self):
        model = self.make()
        g, f = model.mean(0.5), model.regressor(0.5)
        assert g == pytest.approx(4.2, abs=1e-12)
        np.testing.assert_allclose(f, [1.0, 0.5, 0.25])

    def test_point_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            self.make(A=1.0).regressor(1.5)

    def test_theta_length_checked(self):
        err = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        with pytest.raises(ValueError):
            RegressionModel(2, 1.0, (1.0, 2.0), err)

    def test_degree_three_rejected(self):
        err = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        with pytest.raises(ValueError):
            RegressionModel(3, 1.0, (1.0, 2.0, 3.0, 4.0), err)

    def test_vectorised_regressor(self):
        model = self.make(degree=1, theta=(6.0, 0.5))
        xs = np.array([-1.0, 0.0, 1.0])
        f = model.regressor(xs)
        assert f.shape == (3, 2)
        np.testing.assert_allclose(model.mean(xs), 6.0 + 0.5 * xs)

    @given(x=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_mean_is_inner_product(self, x):
        model = self.make()
        g, f = model.mean(x), model.regressor(x)
        assert g == pytest.approx(float(f @ np.asarray(model.theta)), abs=1e-12)


@given(
    beta=st.floats(1.0, 1.99, exclude_max=True),
    sigma=st.floats(0.1, 5.0),
    y=st.floats(0.0, 20.0),
)
@settings(max_examples=100, deadline=None)
def test_density_and_cdf_ranges(beta, sigma, y):
    for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
        m = ErrorModel(family, beta, sigma)
        assert m.density(y) >= 0.0
        assert 0.0 <= m.cdf(y) <= 1.0
        assert m.cdf(y + 0.5) >= m.cdf(y)
