import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import nonregdesign.hellinger as hellinger_module
from nonregdesign.hellinger import (
    DensitySpec,
    EpsilonLadder,
    InfoMethod,
    NonIdentifiableError,
    QuadratureError,
    estimate_alpha_and_J,
    fisher_quadratic_check,
    hellinger_sq_closed,
    hellinger_sq_numeric,
    location_h_fn,
    location_hellinger_sq,
    location_info,
    normal_density,
    normal_ls_h_fn,
    normal_ls_hellinger_closed,
    product_hellinger_sq,
    r_beta,
    reparam_info,
    uniform_h_fn,
    uniform_info,
)
from nonregdesign.models import ErrorFamily, ErrorModel, UniformModel, UniformVariant

# Frozen oracle values (40-digit tanh-sinh quadrature of the transformed
# integral, cross-checked against a binomial-series evaluation).
R_HALF = 0.207352518097373  # r(1.5)
R_ONE_TWO = 0.030383278633844  # r(1.2)
R_ONE_EIGHT = 0.96401898  # r(1.8), certified to ~1e-8


def uniform_density(lo: float, hi: float) -> DensitySpec:
    return DensitySpec(pdf=lambda y: 1.0 / (hi - lo), support=(lo, hi))


class TestHellingerNumeric:
    def test_identical_models_zero(self):
        p = uniform_density(0.0, 1.0)
        q = uniform_density(0.0, 1.0)
        assert abs(hellinger_sq_numeric(p, q)) <= 1e-9

    def test_uniform_pair_overlap(self):
        # 2 - 2/sqrt(2), hand-checkable overlap integral
        p = uniform_density(0.0, 1.0)
        q = uniform_density(0.0, 2.0)
        assert hellinger_sq_numeric(p, q) == pytest.approx(
            2.0 - math.sqrt(2.0), abs=1e-9
        )

    def test_symmetry(self):
        p = uniform_density(0.0, 1.5)
        q = uniform_density(0.5, 2.5)
        assert hellinger_sq_numeric(p, q) == pytest.approx(
            hellinger_sq_numeric(q, p), abs=1e-10
        )

    def test_matches_closed_form_uniform(self):
        model = UniformModel(UniformVariant.SCALE, 1.0)
        closed = hellinger_sq_closed(model, 1.0, 2.0)
        p = uniform_density(0.0, 1.0)
        q = uniform_density(0.0, 2.0)
        assert hellinger_sq_numeric(p, q) == pytest.approx(closed, abs=1e-9)

    def test_normal_pair_matches_affinity_formula(self):
        t1, t2 = (0.0, 1.0), (0.3, 1.4)
        p = normal_density(*t1)
        q = normal_density(*t2)
        assert hellinger_sq_numeric(p, q) == pytest.approx(
            normal_ls_hellinger_closed(t1, t2), abs=1e-10
        )

    def test_range_clamped(self):
        p = uniform_density(0.0, 1.0)
        q = uniform_density(5.0, 6.0)  # disjoint supports
        assert hellinger_sq_numeric(p, q) == pytest.approx(2.0, abs=1e-12)


class TestClosedForms:
    def test_loc_scale_identical(self):
        m = UniformModel(UniformVariant.LOC_SCALE, (0.0, 1.0))
        assert hellinger_sq_closed(m, (0.0, 1.0), (0.0, 1.0)) == 0.0

    def test_loc_scale_shift(self):
        m = UniformModel(UniformVariant.LOC_SCALE, (0.0, 1.0))
        # overlap 0.9 of two unit intervals
        assert hellinger_sq_closed(m, (0.0, 1.0), (0.1, 1.0)) == pytest.approx(
            0.2, abs=1e-14
        )

    def test_scale_variant(self):
        m = UniformModel(UniformVariant.SCALE, 1.0)
        assert hellinger_sq_closed(m, 1.0, 2.0) == pytest.approx(
            2.0 - math.sqrt(2.0), abs=1e-14
        )

    def test_domain_checked(self):
        m = UniformModel(UniformVariant.RECIPROCAL, 2.0)
        with pytest.raises(ValueError):
            hellinger_sq_closed(m, 2.0, 0.5)


class TestLocationHellinger:
    def test_exponential_closed_form(self):
        # affinity exp(-e/(2 sigma)) => h = 2 - 2 exp(-e/2) at sigma=1
        m = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        for e in [0.1, 0.02]:
            assert location_hellinger_sq(m, e) == pytest.approx(
                2.0 - 2.0 * math.exp(-e / 2.0), rel=1e-10
            )

    def test_shift_sign_irrelevant(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert location_hellinger_sq(m, 0.05) == pytest.approx(
            location_hellinger_sq(m, -0.05), rel=1e-12
        )

    def test_matches_generic_quadrature(self):
        m = ErrorModel(ErrorFamily.WEIBULL, 1.4, 1.2)
        e = 0.07
        p = DensitySpec(pdf=lambda y: float(m.density(y)), support=(0.0, np.inf))
        q = DensitySpec(
            pdf=lambda y: float(m.density(y - e)), support=(e, np.inf)
        )
        assert location_hellinger_sq(m, e) == pytest.approx(
            hellinger_sq_numeric(p, q), rel=1e-7
        )

    def test_tiny_shift_relative_accuracy(self):
        # h ~ J e^beta far below double absolute scales must stay
        # relative-accurate; value frozen from 40-digit quadrature
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert location_hellinger_sq(m, 1e-9) == pytest.approx(
            3.11866741e-14, rel=1e-8
        )

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, eps):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        with pytest.raises(ValueError, match="finite"):
            location_hellinger_sq(m, eps)

    def test_never_calls_scipy_quad(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad was called")

        monkeypatch.setattr(integrate, "quad", no_quad)
        for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
            m = ErrorModel(family, 1.6, 1.2)
            for e in EpsilonLadder().epsilons():
                assert location_hellinger_sq(m, e) > 0.0

    def test_unsettled_levels_raise(self, monkeypatch):
        # two coarse levels cannot agree to 1e-11 on the z**(beta-1) panel
        monkeypatch.setattr(hellinger_module, "_DE_FIRST_LEVEL", 0)
        monkeypatch.setattr(hellinger_module, "_DE_MAX_LEVEL", 1)
        m = ErrorModel(ErrorFamily.WEIBULL, 1.9, 1.0)
        with pytest.raises(QuadratureError, match="unsettled at level 1"):
            location_hellinger_sq(m, 7.8125e-5)

    def test_final_tolerance_raises(self, monkeypatch):
        # the summed error estimate is checked against max(atol, rtol * h)
        monkeypatch.setattr(hellinger_module, "_LOCATION_ATOL", 0.0)
        monkeypatch.setattr(hellinger_module, "_LOCATION_RTOL", 0.0)
        m = ErrorModel(ErrorFamily.WEIBULL, 1.9, 1.0)
        with pytest.raises(QuadratureError, match="too large"):
            location_hellinger_sq(m, 7.8125e-5)


def _mp_location_h(family: ErrorFamily, beta: float, sigma: float, eps: float):
    """h of the shifted location pair at 30 digits, apart from the package.

    Disjoint mass F(eps) plus the overlap integral of
    (sqrt(p0(z + eps)) - sqrt(p0(z)))**2, split at eps and at its decades
    out to 10 sigma.  Returns (value, mpmath's error estimate).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        b, s, e = mp.mpf(beta), mp.mpf(sigma), mp.mpf(eps)
        if family is ErrorFamily.GAMMA:
            def pdf(y):
                return (y / s) ** (b - 1) * mp.exp(-y / s) / (mp.gamma(b) * s)

            disjoint = mp.gammainc(b, 0, e / s, regularized=True)
        else:
            def pdf(y):
                return (b / s) * (y / s) ** (b - 1) * mp.exp(-((y / s) ** b))

            disjoint = -mp.expm1(-((e / s) ** b))
        points = [mp.mpf(0), e]
        while points[-1] < 10 * s:
            points.append(points[-1] * 10)
        overlap, err = mp.quad(
            lambda z: (mp.sqrt(pdf(z + e)) - mp.sqrt(pdf(z))) ** 2,
            points + [mp.inf],
            error=True,
        )
        return disjoint + overlap, err


class TestLocationHellingerOracle:
    @pytest.mark.parametrize("beta", [1.0, 1.3, 1.6, 1.9])
    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_matches_mpmath(self, family, beta):
        pytest.importorskip("mpmath")
        for sigma in (1.0, 1.2):
            m = ErrorModel(family, beta, sigma)
            for eps in (1e-9, 7.8e-5, 1e-2, 0.3, 1.0):
                ref, err = _mp_location_h(family, beta, sigma, eps)
                assert float(err) < 1e-15 * float(ref)
                assert location_hellinger_sq(m, eps) == pytest.approx(
                    float(ref), rel=1e-12
                )


class TestRBeta:
    def test_r_one_is_exactly_zero(self):
        assert r_beta(1.0) == 0.0

    def test_r_half_frozen_oracle(self):
        assert r_beta(1.5) == pytest.approx(R_HALF, rel=1e-10)

    def test_r_one_two_frozen_oracle(self):
        assert r_beta(1.2) == pytest.approx(R_ONE_TWO, rel=1e-10)

    def test_r_one_eight_frozen_oracle(self):
        assert r_beta(1.8) == pytest.approx(R_ONE_EIGHT, rel=1e-7)

    def test_two_mesh_simpson_agreement(self):
        # independent oracle: composite Simpson after the smoothing
        # substitution w = s**8 (head) and 1/w = s**8 (tail)
        def r_simpson(beta: float, n: int) -> float:
            b = 0.5 * (beta - 1.0)
            k = 8
            s = np.linspace(0.0, 1.0, n)
            w = s**k
            head = ((w + 1.0) ** b - w**b) ** 2 * k * s ** (k - 1)
            t = s**k
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = (
                    np.expm1(b * np.log1p(t)) ** 2
                    * t ** (-2.0 * b - 2.0)
                    * k
                    * s ** (k - 1)
                )
            tail[0] = 0.0
            h = 1.0 / (n - 1)
            simp = lambda y: h / 3.0 * (
                y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()
            )
            return simp(head) + simp(tail)

        coarse = r_simpson(1.5, 10_001)
        fine = r_simpson(1.5, 20_001)
        assert abs(coarse - fine) < 1e-6
        assert r_beta(1.5) == pytest.approx(fine, abs=1e-6)

    def test_monotone_in_beta(self):
        grid = [1.0, 1.2, 1.4, 1.6, 1.8, 1.9, 1.99]
        vals = [r_beta(b) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_regular_regime_rejected(self):
        with pytest.raises(ValueError):
            r_beta(2.0)


class TestLocationInfo:
    def test_exponential_rate_one(self):
        m = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)
        res = location_info(m)
        assert res.alpha == 1.0
        assert res.J == pytest.approx(1.0, rel=1e-14)

    def test_gamma_beta_one(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.0, 1.0)
        assert location_info(m).J == pytest.approx(1.0, rel=1e-14)

    def test_gamma_three_halves_formula(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        expected = (1.0 + 1.5 * R_HALF) / (1.5 * special.gamma(1.5))
        assert location_info(m).J == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_limit_fit_agreement_mid_beta(self, family):
        # the definitional-limit fit must reproduce the closed form within 2%
        m = ErrorModel(family, 1.5, 1.0)
        ref = location_info(m)
        fit = estimate_alpha_and_J(
            location_h_fn(m), 0.0, ladder=EpsilonLadder(eps0=1e-5)
        )
        assert fit.J == pytest.approx(ref.J, rel=0.02)
        assert fit.alpha == pytest.approx(1.5, rel=0.01)


class TestEstimateAlphaJ:
    @pytest.mark.parametrize(
        "variant,theta,expected",
        [
            (UniformVariant.SCALE, 2.0, 0.5),
            (UniformVariant.RECIPROCAL, 2.0, 5.0 / 6.0),
            (UniformVariant.POWER_PAIR, 2.0, 2.5),
        ],
    )
    def test_uniform_families_theta_two(self, variant, theta, expected):
        model = UniformModel(variant, theta)
        fit = estimate_alpha_and_J(uniform_h_fn(model), theta)
        assert fit.alpha == pytest.approx(1.0, abs=0.01)
        assert fit.J == pytest.approx(expected, rel=0.01)
        assert fit.method is InfoMethod.LIMIT_FIT
        assert fit.direction is None

    def test_loc_scale_directional(self):
        model = UniformModel(UniformVariant.LOC_SCALE, (0.0, 2.0))
        closed = uniform_info(model, (1.0, 0.0))
        fit = estimate_alpha_and_J(
            uniform_h_fn(model), (0.0, 2.0), (1.0, 0.0)
        )
        assert fit.J == pytest.approx(closed.J, rel=0.01)
        assert fit.direction == (1.0, 0.0)

    def test_direction_symmetry(self):
        model = UniformModel(UniformVariant.LOC_SCALE, (0.0, 2.0))
        u = np.array([0.6, 0.8])
        f1 = estimate_alpha_and_J(uniform_h_fn(model), (0.0, 2.0), u)
        f2 = estimate_alpha_and_J(uniform_h_fn(model), (0.0, 2.0), -u)
        # the two fits see h at +eps and -eps, which differ at O(eps); they
        # agree only to fit tolerance, and both sit within 2% of the limit
        assert f1.J == pytest.approx(f2.J, rel=0.02)
        assert f1.alpha == pytest.approx(f2.alpha, abs=0.01)
        closed = uniform_info(model, u / np.linalg.norm(u))
        assert f1.J == pytest.approx(closed.J, rel=0.02)
        assert f2.J == pytest.approx(closed.J, rel=0.02)

    def test_non_unit_direction_rejected(self):
        model = UniformModel(UniformVariant.LOC_SCALE, (0.0, 2.0))
        with pytest.raises(ValueError, match="unit"):
            estimate_alpha_and_J(uniform_h_fn(model), (0.0, 2.0), (1.0, 1.0))
        message = "direction must be a unit vector, got norm 2"
        with pytest.raises(ValueError, match=message):
            uniform_info(model, (0.0, 2.0))
        with pytest.raises(ValueError, match=message):
            reparam_info(1.0, 1.0, (1.0, 1.0), (2.0, 0.0))

    def test_nan_h_names_the_rung(self):
        with pytest.raises(ValueError, match="not finite at rung 0"):
            estimate_alpha_and_J(lambda a, b: math.nan, 1.0)

    def test_infinite_small_rungs_name_the_first(self):
        # rungs 4..7 of the default ladder have eps < 1e-3
        def h_fn(a, b):
            e = abs(float(b[0] - a[0]))
            return math.inf if e < 1e-3 else e

        with pytest.raises(ValueError, match=r"not finite at rung 4 \(eps = 0.000625\)"):
            estimate_alpha_and_J(h_fn, 1.0)

    def test_identically_zero_h_raises(self):
        with pytest.raises(NonIdentifiableError):
            estimate_alpha_and_J(lambda a, b: 0.0, 1.0)

    def test_all_tiny_h_flagged_degenerate(self):
        h_fn = lambda a, b: 1e-13 * abs(float(b[0] - a[0]))
        fit = estimate_alpha_and_J(h_fn, 1.0)
        assert fit.degenerate
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            EpsilonLadder(eps0=-1.0)
        with pytest.raises(ValueError):
            EpsilonLadder(ratio=1.5)
        with pytest.raises(ValueError):
            EpsilonLadder(count=3)


def _linear_fit(log_eps, log_h):
    design = np.column_stack([log_eps, np.ones_like(log_eps)])
    coef, *_ = np.linalg.lstsq(design, log_h, rcond=None)
    return coef[0], coef[1], float(np.max(np.abs(log_h - design @ coef)))


def _least_squares_refit(log_eps, log_h, slope0, intercept0):
    """The corrected model fitted by SciPy to tight tolerances: the oracle."""
    from scipy.optimize import least_squares

    def residuals(params):
        a, lj, c = params
        arg = 1.0 + c * np.exp((2.0 - a) * log_eps)
        if not 1e-3 < 2.0 - a < 2.5 or np.any(arg <= 1e-9):
            return np.full_like(log_h, 1e6)
        return lj + a * log_eps + np.log(arg) - log_h

    res = least_squares(
        residuals, x0=[slope0, intercept0, 0.0], jac="3-point",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000,
    )
    return res.x, float(np.max(np.abs(residuals(res.x))))


def _oracle_ladders():
    eps = EpsilonLadder().epsilons()
    for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
        for beta in (1.0, 1.3, 1.6, 1.9):
            model = ErrorModel(family, beta)
            yield f"{family.value}-{beta}", [location_hellinger_sq(model, e) for e in eps]
    for variant in (UniformVariant.SCALE, UniformVariant.RECIPROCAL, UniformVariant.POWER_PAIR):
        model = UniformModel(variant, 2.0)
        yield variant.value, [hellinger_sq_closed(model, 2.0, 2.0 + e) for e in eps]
    theta, u = np.array([0.3, 1.7]), np.array([0.6, 0.8])
    model = UniformModel(UniformVariant.LOC_SCALE, theta)
    yield "loc_scale", [hellinger_sq_closed(model, theta, theta + e * u) for e in eps]


class TestCorrectedRefit:
    """The Gauss-Newton refit against ladders with a known answer and SciPy."""

    @pytest.mark.parametrize("a", [0.15, 0.5, 1.0, 1.4, 1.85])
    @pytest.mark.parametrize("c", [-0.8, -0.2, 0.5, 3.0])
    @pytest.mark.parametrize("j", [0.3, 2.0])
    def test_recovers_synthetic_ladder(self, a, j, c):
        def h_fn(t1, t2):
            e = abs(float(t2[0] - t1[0]))
            return j * e**a * (1.0 + c * e ** (2.0 - a))

        fit = estimate_alpha_and_J(h_fn, 0.0)
        assert abs(fit.alpha - a) <= 1e-9
        assert abs(fit.J - j) <= 1e-9 * j

    @pytest.mark.parametrize("name,h", list(_oracle_ladders()))
    def test_matches_least_squares(self, name, h):
        log_eps = np.log(EpsilonLadder().epsilons())
        log_h = np.log(h)
        slope, intercept, resid0 = _linear_fit(log_eps, log_h)
        fit = hellinger_module._corrected_ladder_fit(
            log_eps, log_h, slope, intercept, resid0
        )
        assert fit is not None
        (a, lj, _), _ = _least_squares_refit(log_eps, log_h, slope, intercept)
        assert fit[0] == pytest.approx(a, rel=1e-8)
        assert math.exp(fit[1]) == pytest.approx(math.exp(lj), rel=1e-8)

    def test_no_lower_max_residual_returns_none(self):
        # the enriched model lowers the sum of squares on this ladder but
        # raises its worst residual, so the linear fit stands
        log_eps = np.log(EpsilonLadder().epsilons())
        bumps = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 0.0, -1.0, 0.0])
        log_h = 0.7 * log_eps + 0.2 + 1e-3 * bumps
        slope, intercept, resid0 = _linear_fit(log_eps, log_h)
        _, oracle_resid = _least_squares_refit(log_eps, log_h, slope, intercept)
        assert oracle_resid > resid0
        assert (
            hellinger_module._corrected_ladder_fit(log_eps, log_h, slope, intercept, resid0)
            is None
        )


class TestFisherQuadraticCheck:
    def test_location_direction_pins_quarter(self):
        res, quarter = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
        assert quarter == 0.25
        assert res.alpha == pytest.approx(2.0, abs=1e-3)
        assert res.J == pytest.approx(0.25, rel=1e-4)

    def test_diagonal_ratio(self):
        loc, qloc = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
        scl, qscl = fisher_quadratic_check((0.0, 1.0), (0.0, 1.0))
        assert loc.J / scl.J == pytest.approx(qloc / qscl, rel=0.02)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            fisher_quadratic_check((0.0, 1.0), (2.0, 0.0))

    def test_closed_form_route_agrees(self):
        res_num, _ = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
        res_cls = estimate_alpha_and_J(normal_ls_hellinger_closed, (0.0, 1.0), (1.0, 0.0))
        assert res_num.J == pytest.approx(res_cls.J, rel=1e-6)


class TestReparamInfo:
    def test_identity_case(self):
        res = reparam_info(1.0, 1.0, (1.0, 1.0), (1.0, 0.0))
        assert res.J == pytest.approx(1.0, abs=1e-14)

    def test_scaling_power(self):
        res = reparam_info(1.5, 2.0, (1.0, 2.0), (0.0, 1.0))
        assert res.J == pytest.approx(2.0**1.5 * 2.0, rel=1e-14)

    def test_orthogonal_direction_degenerate(self):
        u = np.array([2.0, -1.0]) / math.sqrt(5.0)
        res = reparam_info(1.0, 3.0, (1.0, 2.0), u)
        assert res.J == pytest.approx(0.0, abs=1e-14)
        assert res.degenerate

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="gradient"):
            reparam_info(1.0, 1.0, (0.0, 0.0), (1.0, 0.0))

    def test_against_limit_fit_on_shifted_exponential_line(self):
        # two-parameter mean a + b*x with exponential errors observed at a
        # fixed x: information in direction u is |u1 + u2*x| * J_exp
        x = 0.7
        err = ErrorModel(ErrorFamily.EXPONENTIAL, 1.0, 1.0)

        def h_fn(t1, t2):
            shift = float((t2 - t1) @ np.array([1.0, x]))
            return location_hellinger_sq(err, shift)

        u = np.array([0.6, 0.8])
        fit = estimate_alpha_and_J(h_fn, (1.0, 1.0), u, EpsilonLadder(1e-3))
        expected = reparam_info(1.0, location_info(err).J, (1.0, x), u)
        assert fit.J == pytest.approx(expected.J, rel=0.01)


class TestProductRule:
    @given(
        hs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_additivity_bounds(self, hs):
        joint = product_hellinger_sq(hs)
        assert joint <= 2.0 * sum(hs) + 1e-12
        assert joint >= max(hs) - 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            product_hellinger_sq([2.5])

    def test_single_factor_identity(self):
        assert product_hellinger_sq([0.3]) == pytest.approx(0.3, abs=1e-15)
