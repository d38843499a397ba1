import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

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

    def test_mirrored_tails_match_the_exponential_closed_form(self):
        # exp(y) on (-inf, 0] against exp(y + e) on (-inf, -e]: the mirror
        # image of the exponential location pair, h = 2 - 2 exp(-e/2)
        for e in (0.1, 0.02):
            p = DensitySpec(pdf=math.exp, support=(-math.inf, 0.0))
            q = DensitySpec(pdf=lambda y: math.exp(y + e), support=(-math.inf, -e))
            assert hellinger_sq_numeric(p, q) == pytest.approx(
                2.0 - 2.0 * math.exp(-e / 2.0), rel=1e-10, abs=0.0
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
                2.0 - 2.0 * math.exp(-e / 2.0), rel=1e-10, abs=0
            )

    def test_shift_sign_irrelevant(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert location_hellinger_sq(m, 0.05) == pytest.approx(
            location_hellinger_sq(m, -0.05), rel=1e-12, abs=0
        )

    def test_matches_generic_quadrature(self):
        m = ErrorModel(ErrorFamily.WEIBULL, 1.4, 1.2)
        e = 0.07
        p = DensitySpec(pdf=lambda y: float(m.density(y)), support=(0.0, np.inf))
        q = DensitySpec(
            pdf=lambda y: float(m.density(y - e)), support=(e, np.inf)
        )
        assert location_hellinger_sq(m, e) == pytest.approx(
            hellinger_sq_numeric(p, q), rel=1e-7, abs=0
        )

    def test_tiny_shift_relative_accuracy(self):
        # h ~ J e^beta far below double absolute scales must stay
        # relative-accurate; value frozen from 40-digit quadrature
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        assert location_hellinger_sq(m, 1e-9) == pytest.approx(
            3.11866741e-14, rel=1e-8, abs=0.0
        )

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, eps):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        with pytest.raises(ValueError, match="finite"):
            location_hellinger_sq(m, eps)

    def test_ladder_rungs_settle_at_the_first_refinement(self, monkeypatch):
        # two NumPy passes per h: the first level and its odd nodes
        rules = []
        de_rule = hellinger_module._de_rule

        def counting_rule(level, odd_only):
            rules.append((level, odd_only))
            return de_rule(level, odd_only)

        monkeypatch.setattr(hellinger_module, "_de_rule", counting_rule)
        first = hellinger_module._DE_FIRST_LEVEL
        for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
            for beta in (1.0, 1.3, 1.6, 1.9):
                m = ErrorModel(family, beta, 1.2)
                for e in EpsilonLadder().epsilons():
                    rules.clear()
                    assert location_hellinger_sq(m, e) > 0.0
                    assert rules == [(first, False), (first + 1, True)]
                # a whole ladder fit is one quadrature: the same two passes
                rules.clear()
                estimate_alpha_and_J(location_h_fn(m), 0.7)
                assert rules == [(first, False), (first + 1, True)]

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


def _per_rung(h):
    """``h`` without its ladder call: estimate_alpha_and_J calls it per rung."""
    return lambda t1, t2: h(t1, t2)


class TestLocationLadderCall:
    """``location_h_fn(m).ladder`` against the same h called rung by rung."""

    LADDERS = (None, EpsilonLadder(eps0=0.05, ratio=0.6, count=10))

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    @pytest.mark.parametrize("beta", [1.0, 1.3, 1.6, 1.9])
    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_fits_match_the_per_rung_path_bit_for_bit(self, family, beta, sigma):
        h = location_h_fn(ErrorModel(family, beta, sigma))
        for theta in (0.0, 0.7, -3.3):
            for direction in (None, [-1.0]):
                for ladder in self.LADDERS:
                    fast = estimate_alpha_and_J(h, theta, direction, ladder)
                    slow = estimate_alpha_and_J(_per_rung(h), theta, direction, ladder)
                    assert repr(fast) == repr(slow)

    @pytest.mark.parametrize("theta", [0.7, -3.3, 1e3])
    def test_each_rung_uses_its_own_rounded_shift(self, theta):
        # the shift is (theta + e) - theta, which differs from e here
        m = ErrorModel(ErrorFamily.WEIBULL, 1.6, 1.2)
        h = location_h_fn(m)
        eps = EpsilonLadder().epsilons()
        points = [np.array([theta]) + e * np.array([-1.0]) for e in eps]
        shifts = [float(p[0] - theta) for p in points]
        assert any(abs(d) != e for d, e in zip(shifts, eps))
        values = h.ladder(np.array([theta]), points)
        assert [v.hex() for v in values] == [
            location_hellinger_sq(m, d).hex() for d in shifts
        ]
        assert [v.hex() for v in values] == [
            h(np.array([theta]), p).hex() for p in points
        ]

    def test_shifts_that_round_to_zero(self):
        # at theta = 4e12 an ulp is 4.9e-4, so the two smallest rungs vanish
        m = ErrorModel(ErrorFamily.GAMMA, 1.3)
        h = location_h_fn(m)
        theta = np.array([4e12])
        points = [theta + e for e in EpsilonLadder().epsilons()]
        values = h.ladder(theta, points)
        assert 0.0 in values and any(v > 0.0 for v in values)
        assert values == [h(theta, p) for p in points]
        for ladder, match in ((None, "part"), (EpsilonLadder(eps0=1e-5), "identically")):
            with pytest.raises(NonIdentifiableError, match=match) as fast:
                estimate_alpha_and_J(h, 4e12, ladder=ladder)
            with pytest.raises(NonIdentifiableError) as slow:
                estimate_alpha_and_J(_per_rung(h), 4e12, ladder=ladder)
            assert str(fast.value) == str(slow.value)

    @pytest.mark.parametrize(
        "consts,family,beta,expected",
        [
            # rung 1 (eps = 5e-3) is the first whose panel cannot settle
            ({"_DE_FIRST_LEVEL": 3, "_DE_MAX_LEVEL": 4}, ErrorFamily.WEIBULL, 1.3,
             r"1 quadrature panel\(s\) unsettled at level 4 for eps = 5\.000000e-03"),
            # every rung unsettled: rung 0 is named
            ({"_DE_FIRST_LEVEL": 0, "_DE_MAX_LEVEL": 1}, ErrorFamily.GAMMA, 1.6,
             r"unsettled at level 1 for eps = 1\.000000e-02"),
            # rung 0's error estimate is exactly 0; a later rung's is not
            ({"_LOCATION_ATOL": 0.0, "_LOCATION_RTOL": 0.0}, ErrorFamily.GAMMA, 1.9,
             r"too large for h = 2\.021800e-04"),
        ],
    )
    def test_failures_name_the_per_rung_path_first_rung(
        self, monkeypatch, consts, family, beta, expected
    ):
        for name, value in consts.items():
            monkeypatch.setattr(hellinger_module, name, value)
        h = location_h_fn(ErrorModel(family, beta))
        with pytest.raises(QuadratureError, match=expected) as fast:
            estimate_alpha_and_J(h, 0.4)
        with pytest.raises(QuadratureError) as slow:
            estimate_alpha_and_J(_per_rung(h), 0.4)
        assert str(fast.value) == str(slow.value)

    def test_points_in_any_order(self):
        h = location_h_fn(ErrorModel(ErrorFamily.WEIBULL, 1.3))
        theta = np.array([0.2])
        points = [theta + d for d in (0.1, 0.0, -0.02, 0.0, 0.05, 3.0)]
        assert h.ladder(theta, points) == [h(theta, p) for p in points]

    def test_non_finite_shift_is_rejected_at_its_rung(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5)
        h = location_h_fn(m)
        with pytest.raises(ValueError, match="finite"):
            h.ladder(np.array([0.0]), [np.array([0.1]), np.array([math.inf])])
        assert h.ladder(np.array([0.0]), []) == []


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


def shifted_specs(m: ErrorModel, eps: float, loc: float = 0.0, log=None):
    """The location pair at ``loc`` and ``loc + eps`` as two DensitySpecs."""

    def spec(at):
        def pdf(y):
            if log is not None:
                log.append((y, at))
            return m.density(y - at)

        return DensitySpec(pdf=pdf, support=(at, math.inf))

    return spec(loc), spec(loc + eps)


class TestHellingerNumericShifted:
    @pytest.mark.parametrize("beta", [1.3, 1.6, 1.9])
    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_matches_mpmath(self, family, beta):
        pytest.importorskip("mpmath")
        m = ErrorModel(family, beta)
        for eps in (1e-9, 1e-6, 7.8125e-5, 1e-2, 0.3, 1.0):
            ref, err = _mp_location_h(family, beta, 1.0, eps)
            assert float(err) < 1e-15 * float(ref)
            # The direct integrand cancels where the pair differs by a
            # relative d ~ eps / z, and keeps about 1e-16 / d of roundoff.
            # At beta 1.9 about a tenth of h lies at z ~ 1, so at eps = 1e-9
            # roundoff of 1e-7 there caps the agreement near 1e-8.
            rtol = 1e-8 if (beta, eps) == (1.9, 1e-9) else 1e-10
            assert hellinger_sq_numeric(*shifted_specs(m, eps)) == pytest.approx(
                float(ref), rel=rtol, abs=0.0
            )

    def test_pdf_call_count(self):
        # SciPy's QUADPACK made about 1,600 calls on this pair
        log = []
        m = ErrorModel(ErrorFamily.GAMMA, 1.3)
        hellinger_sq_numeric(*shifted_specs(m, 1e-2, log=log))
        assert len(log) <= 800

    def test_pdf_is_called_only_inside_its_support(self):
        # tanh-sinh nodes next to a panel end round onto it in floating point
        log = []
        for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
            m = ErrorModel(family, 1.6)
            hellinger_sq_numeric(*shifted_specs(m, 7.8125e-5, loc=-3.3, log=log))
        assert all(y > at for y, at in log)
        seen = []

        def pdf(y):
            seen.append(y)
            return normal_density(0.0, 1.0).pdf(y)

        hellinger_sq_numeric(DensitySpec(pdf, (-1.0, 2.0)), normal_density(0.5, 1.2))
        assert seen and all(-1.0 < y < 2.0 for y in seen)

    def test_singular_endpoint(self):
        # h of 1/(2 sqrt(y - a)) against Unif(a, a + 1) is 2 - 4 sqrt(2) / 3
        def pair(a):
            p = DensitySpec(lambda y: 0.5 / math.sqrt(y - a), (a, a + 1.0))
            return p, DensitySpec(lambda y: 1.0, (a, a + 1.0))

        exact = 2.0 - 4.0 * math.sqrt(2.0) / 3.0
        assert hellinger_sq_numeric(*pair(0.0)) == pytest.approx(exact, rel=1e-13, abs=0.0)
        # next to a = 1 the nodes round, and about 1e-7 of h is lost
        with pytest.raises(QuadratureError, match="unsettled"):
            hellinger_sq_numeric(*pair(1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_pdf_value_raises_at_the_first_level(self, bad):
        # an inf used to settle its panel at inf and come back as h = 2.0; a
        # NaN ran every level to 8 and then blamed the panel, not the pdf
        calls = []

        def pdf(y):
            calls.append(y)
            return bad if 0.5 < y < 0.6 else math.exp(-y)

        p = DensitySpec(pdf, (0.0, math.inf))
        q = DensitySpec(lambda y: math.exp(-(y - 0.1)), (0.1, math.inf))
        with pytest.raises(QuadratureError, match=r"pdf value is inf or NaN at y = 0\.5"):
            hellinger_sq_numeric(p, q)
        # p's nodes on the three panels up to the first level with one in
        # (0.5, 0.6), the level after the first
        first = hellinger_module._DE_NUMERIC_FIRST_LEVEL
        rule = hellinger_module._de_rule
        assert len(calls) == 3 * (rule(first, False)[0].size + rule(first + 1, True)[0].size)

    def test_total_above_two_raises(self):
        # a constant pdf of 1e300 on (0, 1) used to come back clipped to 2.0
        unit = DensitySpec(lambda y: 1.0, (0.0, 1.0))
        huge = DensitySpec(lambda y: 1e300, (0.0, 1.0))
        with pytest.raises(QuadratureError, match="exceeds 2 .* does not integrate to 1"):
            hellinger_sq_numeric(huge, unit)

    def test_overflowing_panel_sum_raises_without_a_warning(self):
        # at 1e308 the level sums overflow; they used to warn twice and then
        # run every level to 8 before blaming an unsettled panel
        calls = []

        def pdf(y):
            calls.append(y)
            return 1e308

        unit = DensitySpec(lambda y: 1.0, (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="panel sum is not finite at level 2"):
                hellinger_sq_numeric(DensitySpec(pdf, (0.0, 1.0)), unit)
        # the first level's nodes only (those that round onto 1.0 are skipped)
        first = hellinger_module._DE_NUMERIC_FIRST_LEVEL
        assert 0 < len(calls) <= hellinger_module._de_rule(first, False)[0].size

    def test_disjoint_supports_still_give_two(self):
        unit = DensitySpec(lambda y: 1.0, (0.0, 1.0))
        assert hellinger_sq_numeric(unit, DensitySpec(lambda y: 1.0, (1.0, 2.0))) == 2.0
        apart = hellinger_sq_numeric(unit, DensitySpec(lambda y: 0.5, (3.0, 5.0)))
        assert apart == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_nodes_keep_the_reference_loops_bits(self, monkeypatch):
        # every node value, and so h, has the bits of the loop that clipped
        # with max(v, 0.0), squared with ** 2 and filled a list
        def reference_point(p, q, y):
            fp = max(p.pdf(y), 0.0) if p.support[0] < y < p.support[1] else 0.0
            fq = max(q.pdf(y), 0.0) if q.support[0] < y < q.support[1] else 0.0
            return (math.sqrt(fp) - math.sqrt(fq)) ** 2

        pairs = [
            shifted_specs(ErrorModel(family, beta), eps, loc=loc)
            for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL)
            for beta in (1.0, 1.3, 1.6, 1.9)
            for eps, loc in ((1e-2, -3.3), (7.8125e-5, 2.1), (0.3, 0.0))
        ]
        pairs += [
            (normal_density(0.0, 1.0), normal_density(*other))
            for other in ((0.01, 1.0), (0.0, 1.01), (1e-4, 1.0001))
        ]
        pairs.append((normal_density(0.3, 2.0), normal_density(0.5, 2.5)))
        # negative values, -0.0 among them, count as 0
        pairs.append((
            DensitySpec(
                lambda y: math.cos(y) if y < 2.0 else -0.0, (0.0, 3.0), (math.pi / 2.0, 2.0)
            ),
            DensitySpec(lambda y: 0.5 - y / 4.0, (0.0, 3.0), (2.0,)),
        ))
        real_de_panels = hellinger_module._de_panels
        checked = []
        for p, q in pairs:

            def de_panels(integrand, *args, p=p, q=q):
                def checked_integrand(y, rows):
                    f = integrand(y, rows)
                    ref = [reference_point(p, q, v) for v in y.ravel().tolist()]
                    assert f.shape == y.shape
                    assert [v.hex() for v in f.ravel().tolist()] == [v.hex() for v in ref]
                    checked.append(y.size)
                    return f

                return real_de_panels(checked_integrand, *args)

            monkeypatch.setattr(hellinger_module, "_de_panels", de_panels)
            hellinger_sq_numeric(p, q)
        assert sum(checked) > 10_000

    def test_normal_pdf_call_count(self):
        # about 1,700 calls today (SciPy's QUADPACK made about 800)
        seen = []

        def logged(spec):
            def pdf(y):
                seen.append(y)
                return spec.pdf(y)

            return DensitySpec(pdf, spec.support, spec.breakpoints)

        p, q = normal_density(0.0, 1.0), normal_density(0.01, 1.0)
        h = hellinger_sq_numeric(logged(p), logged(q))
        exact = normal_ls_hellinger_closed((0.0, 1.0), (0.01, 1.0))
        assert h == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert len(seen) <= 1700

    def test_unsettled_levels_raise(self, monkeypatch):
        monkeypatch.setattr(hellinger_module, "_DE_NUMERIC_FIRST_LEVEL", 0)
        monkeypatch.setattr(hellinger_module, "_DE_MAX_LEVEL", 1)
        m = ErrorModel(ErrorFamily.WEIBULL, 1.9, 1.0)
        with pytest.raises(QuadratureError, match="unsettled at level 1"):
            hellinger_sq_numeric(*shifted_specs(m, 7.8125e-5))

    def test_final_tolerance_raises(self):
        # the summed error estimate is checked against max(atol, rtol * h)
        m = ErrorModel(ErrorFamily.WEIBULL, 1.9, 1.0)
        with pytest.raises(QuadratureError, match="exceeds tolerance"):
            hellinger_sq_numeric(*shifted_specs(m, 7.8125e-5), atol=0.0, rtol=0.0)


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
                    float(ref), rel=1e-12, abs=0.0
                )


class TestRBeta:
    def test_r_one_is_exactly_zero(self):
        assert r_beta(1.0) == 0.0

    def test_r_half_frozen_oracle(self):
        assert r_beta(1.5) == pytest.approx(R_HALF, rel=1e-10, abs=0)

    def test_r_one_two_frozen_oracle(self):
        assert r_beta(1.2) == pytest.approx(R_ONE_TWO, rel=1e-10, abs=0)

    def test_r_one_eight_frozen_oracle(self):
        assert r_beta(1.8) == pytest.approx(R_ONE_EIGHT, rel=1e-7, abs=0)

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

    def test_accuracy_against_40_digit_closed_form(self):
        # rounding of the Gamma-function form: 2e-15 absolute below 1.05,
        # where r ~ ((beta - 1)/2)**2 cancels, and 1e-12 relative above
        # (criterion 3 checks the form itself against the integral)
        import mpmath as mp
        with mp.workdps(40):
            for beta in [1.0 + k / 1000 for k in range(1, 1000)] + [1.9999]:
                b = mp.mpf(beta)
                exact = mp.gamma((b + 1) / 2) ** 2 / (
                    mp.gamma(b + 1) * mp.sin(mp.pi * (2 - b) / 2)
                ) - 1 / b
                err = abs(r_beta(beta) - exact)
                if beta < 1.05:
                    assert err <= 2e-15, (beta, float(err))
                else:
                    assert err <= 1e-12 * exact, (beta, float(err / exact))

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
        assert res.J == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_gamma_beta_one(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.0, 1.0)
        assert location_info(m).J == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_gamma_three_halves_formula(self):
        m = ErrorModel(ErrorFamily.GAMMA, 1.5, 1.0)
        expected = (1.0 + 1.5 * R_HALF) / (1.5 * special.gamma(1.5))
        assert location_info(m).J == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("family", [ErrorFamily.GAMMA, ErrorFamily.WEIBULL])
    def test_limit_fit_agreement_mid_beta(self, family):
        # the definitional-limit fit must reproduce the closed form within 2%
        m = ErrorModel(family, 1.5, 1.0)
        ref = location_info(m)
        fit = estimate_alpha_and_J(
            location_h_fn(m), 0.0, ladder=EpsilonLadder(eps0=1e-5)
        )
        assert fit.J == pytest.approx(ref.J, rel=0.02, abs=0)
        assert fit.alpha == pytest.approx(1.5, rel=0.01, abs=0)


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
        assert fit.J == pytest.approx(expected, rel=0.01, abs=0)
        assert fit.method is InfoMethod.LIMIT_FIT
        assert fit.direction is None

    def test_loc_scale_directional(self):
        model = UniformModel(UniformVariant.LOC_SCALE, (0.0, 2.0))
        closed = uniform_info(model, (1.0, 0.0))
        fit = estimate_alpha_and_J(
            uniform_h_fn(model), (0.0, 2.0), (1.0, 0.0)
        )
        assert fit.J == pytest.approx(closed.J, rel=0.01, abs=0)
        assert fit.direction == (1.0, 0.0)

    def test_direction_symmetry(self):
        model = UniformModel(UniformVariant.LOC_SCALE, (0.0, 2.0))
        u = np.array([0.6, 0.8])
        f1 = estimate_alpha_and_J(uniform_h_fn(model), (0.0, 2.0), u)
        f2 = estimate_alpha_and_J(uniform_h_fn(model), (0.0, 2.0), -u)
        # the two fits see h at +eps and -eps, which differ at O(eps); they
        # agree only to fit tolerance, and both sit within 2% of the limit
        assert f1.J == pytest.approx(f2.J, rel=0.02, abs=0)
        assert f1.alpha == pytest.approx(f2.alpha, abs=0.01)
        closed = uniform_info(model, u / np.linalg.norm(u))
        assert f1.J == pytest.approx(closed.J, rel=0.02, abs=0)
        assert f2.J == pytest.approx(closed.J, rel=0.02, abs=0)

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


def _reference_corrected_fit(log_eps, log_h, slope0, intercept0, resid0):
    """_corrected_ladder_fit as a plain loop that forms a Jacobian at every trial."""
    if not 0.05 < slope0 < 1.95 or log_eps.size < 4:
        return None

    def residuals_and_jacobian(params):
        a, lj, c = params
        if not 1e-3 < 2.0 - a < 2.5:
            return None
        power = np.exp((2.0 - a) * log_eps)
        arg = 1.0 + c * power
        if np.any(arg <= 1e-9):
            return None
        jac = np.column_stack([log_eps / arg, np.ones_like(arg), power / arg])
        return lj + a * log_eps + np.log(arg) - log_h, jac

    x = np.array([slope0, intercept0, 0.0])
    resid, jac = residuals_and_jacobian(x)
    cost, damping, lowered = float(resid @ resid), 1e-3, False
    for _ in range(100):
        lhs = jac.T @ jac
        lhs += np.diag(damping * np.diag(lhs))
        try:
            step = np.linalg.solve(lhs, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            break
        trial = residuals_and_jacobian(x + step)
        if trial is not None and float(trial[0] @ trial[0]) < cost:
            x, (resid, jac) = x + step, trial
            cost, lowered, damping = float(resid @ resid), True, damping * 0.5
        else:
            damping *= 10.0
        if damping > 1e10 or np.linalg.norm(step) <= 1e-12 * (1e-12 + np.linalg.norm(x)):
            break
    new_resid = float(np.max(np.abs(resid)))
    if not (lowered and np.isfinite(new_resid) and new_resid < resid0 and 0.02 < x[0] < 1.98):
        return None
    return float(x[0]), float(x[1]), new_resid


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
        assert fit[0] == pytest.approx(a, rel=1e-8, abs=0)
        assert math.exp(fit[1]) == pytest.approx(math.exp(lj), rel=1e-8, abs=0)

    def test_keeps_the_reference_loops_bits(self):
        log_eps = np.log(EpsilonLadder().epsilons())
        ladders = [np.log(h) for _, h in _oracle_ladders()]
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, c = rng.uniform(0.1, 1.95), rng.normal(0.0, 3.0)
            noise = rng.normal(0.0, 10.0 ** rng.uniform(-12, -2), log_eps.size)
            correction = np.abs(1.0 + c * np.exp((2.0 - a) * log_eps))
            ladders.append(a * log_eps + np.log(correction) + noise)

        def hexes(fit):
            return None if fit is None else [v.hex() for v in fit]

        refined = 0
        for log_h in ladders:
            start = tuple(float(v) for v in _linear_fit(log_eps, log_h))
            fit = hellinger_module._corrected_ladder_fit(log_eps, log_h, *start)
            assert hexes(fit) == hexes(_reference_corrected_fit(log_eps, log_h, *start))
            refined += fit is not None
        assert 100 < refined < len(ladders)

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
        assert res.J == pytest.approx(0.25, rel=1e-4, abs=0)

    def test_diagonal_ratio(self):
        loc, qloc = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
        scl, qscl = fisher_quadratic_check((0.0, 1.0), (0.0, 1.0))
        assert loc.J / scl.J == pytest.approx(qloc / qscl, rel=0.02, abs=0)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            fisher_quadratic_check((0.0, 1.0), (2.0, 0.0))

    def test_closed_form_route_agrees(self):
        res_num, _ = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
        res_cls = estimate_alpha_and_J(normal_ls_hellinger_closed, (0.0, 1.0), (1.0, 0.0))
        assert res_num.J == pytest.approx(res_cls.J, rel=1e-6, abs=0)


class TestReparamInfo:
    def test_identity_case(self):
        res = reparam_info(1.0, 1.0, (1.0, 1.0), (1.0, 0.0))
        assert res.J == pytest.approx(1.0, abs=1e-14)

    def test_scaling_power(self):
        res = reparam_info(1.5, 2.0, (1.0, 2.0), (0.0, 1.0))
        assert res.J == pytest.approx(2.0**1.5 * 2.0, rel=1e-14, abs=0)

    def test_orthogonal_direction_degenerate(self):
        u = np.array([2.0, -1.0]) / math.sqrt(5.0)
        res = reparam_info(1.0, 3.0, (1.0, 2.0), u)
        assert res.J == pytest.approx(0.0, abs=1e-14)
        assert res.degenerate

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="gradient"):
            reparam_info(1.0, 1.0, (0.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("j_tilde", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_j_tilde_rejected(self, j_tilde):
        with pytest.raises(ValueError, match="J_tilde must be finite and non-negative"):
            reparam_info(1.0, j_tilde, [1.0], [1.0])

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
        assert fit.J == pytest.approx(expected.J, rel=0.01, abs=0)


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
