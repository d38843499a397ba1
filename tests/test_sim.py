import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonregdesign.design import Design, uniform_design
from nonregdesign.estimator import Dataset, _envelope, _envelope_fit, smith_fit
from nonregdesign.models import ErrorFamily, ErrorModel, RegressionModel
from nonregdesign.sim import (
    _CHUNK,
    RiskEstimate,
    SimPlan,
    SimulationError,
    _SeedWords,
    _SpawnSeeds,
    mc_risk,
    realize_design,
    unif_mle_mse,
    write_risk_csv,
)

GAMMA1 = ErrorModel(ErrorFamily.GAMMA, beta=1.0, sigma=1.0)
LINEAR_MODEL = RegressionModel(degree=1, A=1.0, theta=(6.0, 0.5), error=GAMMA1)
TWO_POINT = Design(A=1.0, points=((-1.0, 0.5), (1.0, 0.5)))
# the best three-point centre weight at A = 2, alpha = 1
PI_A2 = 0.648373
# at n = 20 rounding leaves the centre without observations: counts (10, 0, 10)
EMPTY_CENTRE = Design(A=1.0, points=((-1.0, 0.49), (0.0, 0.02), (1.0, 0.49)))
# one to seven 32-bit entropy words; above 2**128 the seed has more words
# than SeedSequence's pool of four
SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**70, 2**128, 2**130 + 7, 2**200 + 123]
# both sides of the first chunk boundary, and the largest spawn word
SPAWN_WORDS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2**31, 2**32 - 1]


def small_plan(reps=40, seed=5, design=TWO_POINT, n=20):
    return SimPlan(design=design, n=n, model=LINEAR_MODEL, replicates=reps, seed=seed)


class ZeroError:
    """Error model stub with point mass at zero (noiseless data)."""

    def sample(self, n, rng):
        return np.zeros(n)


class NanError:
    """Error model stub that poisons every replicate."""

    def sample(self, n, rng):
        return np.full(n, np.nan)


class FlakyError:
    """Error model stub that poisons only the first replicate."""

    def __init__(self):
        self.calls = 0

    def sample(self, n, rng):
        self.calls += 1
        if self.calls == 1:
            return np.full(n, np.nan)
        return np.zeros(n)


class CountingError:
    """Gamma(1) errors that count the draws."""

    def __init__(self):
        self.calls = 0

    def sample(self, n, rng):
        self.calls += 1
        return GAMMA1.sample(n, rng)


class InfOnceError:
    """Error model stub whose first replicate has one +inf response."""

    def __init__(self):
        self.calls = 0

    def sample(self, n, rng):
        self.calls += 1
        errors = np.zeros(n)
        if self.calls == 1:
            errors[0] = np.inf
        return errors


def dataset_risk(plan):
    """Componentwise MSE of smith_fit on one public Dataset per replicate."""
    counts = realize_design(plan.design, plan.n)
    xs = np.sort(np.repeat(plan.design.xs, counts))
    theta = np.asarray(plan.model.theta)
    sq = []
    for r in range(plan.replicates):
        ss = np.random.SeedSequence(entropy=plan.seed, spawn_key=(r,))
        rng = np.random.Generator(np.random.PCG64(ss))
        y = plan.model.mean(xs) + plan.model.error.sample(plan.n, rng)
        diff = smith_fit(Dataset(xs, y, plan.model.degree)) - theta
        sq.append(diff * diff)
    return np.array(sq).mean(axis=0)


def simplex_risk(plan):
    """Componentwise MSE with the dense simplex fitting every replicate."""
    xs = np.sort(np.repeat(plan.design.xs, realize_design(plan.design, plan.n)))
    env = _envelope(xs, plan.model.degree)
    theta = np.asarray(plan.model.theta)
    sq = []
    for r in range(plan.replicates):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(r,)))
        y = plan.model.mean(xs) + plan.model.error.sample(plan.n, rng)
        diff = _envelope_fit(env, y) - theta
        sq.append(diff * diff)
    return np.array(sq).mean(axis=0)


class TestRealizeDesign:
    def test_even_split(self):
        np.testing.assert_array_equal(realize_design(TWO_POINT, 120), [60, 60])

    def test_three_point_exact(self):
        d = Design(A=1.0, points=((-1.0, 0.125), (0.0, 0.75), (1.0, 0.125)))
        np.testing.assert_array_equal(realize_design(d, 120), [15, 90, 15])

    def test_thirds_round_to_33_or_34(self):
        d = Design(A=1.0, points=((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)))
        counts = realize_design(d, 100)
        assert counts.sum() == 100
        assert set(counts) <= {33, 34}

    def test_remainder_tie_goes_to_leftmost(self):
        d = Design(A=1.0, points=((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)))
        np.testing.assert_array_equal(realize_design(d, 100), [34, 33, 33])

    def test_counts_do_not_depend_on_listing_order(self):
        fwd = Design(A=1.0, points=((-1.0, 0.4), (0.5, 0.4), (1.0, 0.2)),
                     require_balance=False)
        rev = Design(A=1.0, points=((1.0, 0.2), (0.5, 0.4), (-1.0, 0.4)),
                     require_balance=False)
        c_fwd = dict(zip(fwd.xs, realize_design(fwd, 17)))
        c_rev = dict(zip(rev.xs, realize_design(rev, 17)))
        assert c_fwd == c_rev

    def test_n_below_support_rejected(self):
        d = Design(A=1.0, points=((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)))
        with pytest.raises(ValueError, match="below the support"):
            realize_design(d, 2)

    @given(
        n=st.integers(6, 500),
        raw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_rounding_properties(self, n, raw):
        w = np.array(raw) / sum(raw)
        xs = np.linspace(-1.0, 1.0, len(w))
        d = Design(A=1.0, points=tuple(zip(xs, w)), require_balance=False)
        counts = realize_design(d, n)
        assert counts.sum() == n
        assert np.all(np.abs(counts - n * d.ws) < 1.0)
        assert np.all(counts >= 0)


class TestSpawnSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_numpy_seed_sequence(self, seed):
        words = _SpawnSeeds(seed)(np.array(SPAWN_WORDS, dtype=np.int64))
        assert words.dtype == np.uint64 and words.shape == (len(SPAWN_WORDS), 4)
        for row, r in zip(words, SPAWN_WORDS):
            want = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("seed", [0, 2**70, 2**200 + 123])
    def test_generator_equals_numpy_stream(self, seed):
        words = _SpawnSeeds(seed)(np.arange(_CHUNK - 2, _CHUNK + 2))
        for row, r in zip(words, range(_CHUNK - 2, _CHUNK + 2)):
            got = np.random.Generator(np.random.PCG64(_SeedWords(row)))
            want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            assert got.bit_generator.state == want.bit_generator.state
            np.testing.assert_array_equal(got.gamma(1.3, size=50), want.gamma(1.3, size=50))

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64)])
    def test_only_the_pcg64_request_is_served(self, n_words, dtype):
        row = _SpawnSeeds(1)(np.arange(1))[0]
        with pytest.raises(ValueError, match="precomputed"):
            _SeedWords(row).generate_state(n_words, dtype)


class TestSimPlan:
    def test_replicates_positive(self):
        with pytest.raises(ValueError, match="replicates"):
            small_plan(reps=0)

    def test_replicates_fit_one_spawn_word(self):
        small_plan(reps=2**32)
        with pytest.raises(ValueError, match="32-bit spawn word"):
            small_plan(reps=2**32 + 1)

    @pytest.mark.parametrize("seed", [-1, -3, 2.5, 3.0, True, np.bool_(False), "7", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got"):
            small_plan(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("n", 20.5), ("n", 20.0), ("n", "20"), ("n", True),
        ("replicates", 5.5), ("replicates", True), ("replicates", np.bool_(True)),
        ("replicates", None),
    ])
    def test_non_integral_size_rejected(self, field, value):
        # replicates=True once ran 1 replicate; n=20.5 failed inside
        # realize_design and replicates=5.5 inside range
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer, got"):
            small_plan(**{"reps" if field == "replicates" else field: value})

    def test_numpy_integer_seed_gives_the_same_risk(self):
        want = mc_risk(small_plan(seed=5))
        assert mc_risk(small_plan(seed=np.int64(5))) == want
        assert mc_risk(small_plan(seed=np.uint32(5))) == want

    def test_n_covers_support(self):
        with pytest.raises(ValueError, match="below the design support"):
            small_plan(n=1)

    def test_design_interval_within_model(self):
        wide = Design(A=2.0, points=((-2.0, 0.5), (2.0, 0.5)))
        with pytest.raises(ValueError, match="exceeds"):
            SimPlan(design=wide, n=20, model=LINEAR_MODEL, replicates=10, seed=0)


class TestRiskEstimate:
    def test_total_must_match_sum(self):
        with pytest.raises(ValueError, match="sum"):
            RiskEstimate(
                per_component_mse=(0.1, 0.2),
                total_risk=0.5,
                mc_standard_error=0.01,
                replicates=10,
                per_component_se=(0.01, 0.01),
            )

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RiskEstimate(
                per_component_mse=(-0.1, 0.2),
                total_risk=0.1,
                mc_standard_error=0.01,
                replicates=10,
                per_component_se=(0.01, 0.01),
            )


class TestMcRisk:
    def test_bitwise_deterministic(self):
        a = mc_risk(small_plan())
        b = mc_risk(small_plan())
        assert a == b

    def test_invariant_under_point_relabeling(self):
        base = mc_risk(small_plan())
        relabeled = Design(A=1.0, points=((1.0, 0.5), (-1.0, 0.5)))
        assert mc_risk(small_plan(design=relabeled)) == base

    def test_noiseless_errors_give_zero_risk(self):
        model = RegressionModel(degree=1, A=1.0, theta=(2.0, 1.0), error=ZeroError())
        plan = SimPlan(design=TWO_POINT, n=10, model=model, replicates=20, seed=3)
        est = mc_risk(plan)
        assert est.total_risk <= 1e-20
        assert est.failures == 0

    def test_all_failures_abort(self):
        model = RegressionModel(degree=1, A=1.0, theta=(2.0, 1.0), error=NanError())
        plan = SimPlan(design=TWO_POINT, n=10, model=model, replicates=50, seed=3)
        with pytest.raises(SimulationError, match="replicates failed"):
            mc_risk(plan)

    @pytest.mark.parametrize(
        "degree, a, design, n, seed",
        [
            (1, 1.0, uniform_design(1.0, 15), 120, 9),
            (2, 2.0, uniform_design(2.0, 5), 120, 9),  # optimal edges
            (1, 1.0, TWO_POINT, 60, 9),
            (1, 1.0, EMPTY_CENTRE, 20, 9),
            # a seed of three 32-bit words
            (1, 1.0, uniform_design(1.0, 15), 120, 2**70),
            (2, 2.0, uniform_design(2.0, 5), 120, 2**70),
        ],
        ids=["linear-uniform15", "quadratic-uniform5", "two-point", "empty-centre",
             "linear-uniform15-seed2^70", "quadratic-uniform5-seed2^70"],
    )
    def test_equals_smith_fit_on_each_dataset(self, degree, a, design, n, seed):
        theta = (6.0, 0.5) if degree == 1 else (2.0, 4.0, 0.8)
        model = RegressionModel(degree=degree, A=a, theta=theta, error=GAMMA1)
        plan = SimPlan(design=design, n=n, model=model, replicates=40, seed=seed)
        est = mc_risk(plan)
        assert est.failures == 0
        np.testing.assert_array_equal(est.per_component_mse, dataset_risk(plan))
        # tied replicates take the tie rule, which lands where the simplex stops
        np.testing.assert_allclose(est.per_component_mse, simplex_risk(plan), rtol=1e-9)

    @pytest.mark.parametrize("design", [TWO_POINT, EMPTY_CENTRE], ids=["two-point", "empty-centre"])
    def test_non_identifying_design_fails_before_any_draw(self, design, monkeypatch):
        def no_draws(self, n, rng):
            raise AssertionError("errors drawn for a non-identifying design")

        monkeypatch.setattr(ErrorModel, "sample", no_draws)
        model = RegressionModel(degree=2, A=1.0, theta=(2.0, 4.0, 0.8), error=GAMMA1)
        plan = SimPlan(design=design, n=20, model=model, replicates=30, seed=3)
        with pytest.raises(SimulationError, match="replicates failed"):
            mc_risk(plan)

    @pytest.mark.parametrize("error", [FlakyError, InfOnceError], ids=["nan", "one-inf"])
    def test_rare_failure_is_tolerated_and_reported(self, error):
        model = RegressionModel(degree=1, A=1.0, theta=(2.0, 1.0), error=error())
        plan = SimPlan(design=TWO_POINT, n=10, model=model, replicates=150, seed=3)
        est = mc_risk(plan)
        assert est.failures == 1
        assert est.replicates == 149
        assert est.failed_replicates == (0,)

    @pytest.mark.parametrize(
        "degree, a, design, seed",
        [
            (1, 1.0, uniform_design(1.0, 15), 4),
            (2, 2.0, uniform_design(2.0, 5), 4),
            (1, 1.0, uniform_design(1.0, 15), 2**70),
            (2, 2.0, uniform_design(2.0, 5), 2**70),
        ],
        ids=["linear-uniform15", "quadratic-uniform5",
             "linear-uniform15-seed2^70", "quadratic-uniform5-seed2^70"],
    )
    def test_chunked_replicates_equal_smith_fit_on_each_dataset(self, degree, a, design, seed):
        # 300 replicates span two chunks of the batched fit and of the seed hash
        theta = (6.0, 0.5) if degree == 1 else (2.0, 4.0, 0.8)
        model = RegressionModel(degree=degree, A=a, theta=theta, error=GAMMA1)
        plan = SimPlan(design=design, n=60, model=model, replicates=300, seed=seed)
        assert plan.replicates > _CHUNK
        mse = mc_risk(plan).per_component_mse
        np.testing.assert_array_equal(mse, dataset_risk(plan))
        np.testing.assert_allclose(mse, simplex_risk(plan), rtol=1e-9)

    def test_tied_replicates_are_drawn_once(self, envelope_solves):
        # quadratic uniform5 ties on most replicates; the tie rule fits each
        # within its chunk, with no simplex solve and no second draw
        error = CountingError()
        model = RegressionModel(degree=2, A=2.0, theta=(2.0, 4.0, 0.8), error=error)
        plan = SimPlan(design=uniform_design(2.0, 5), n=120, model=model,
                       replicates=300, seed=7)
        est = mc_risk(plan)
        assert error.calls == 300
        assert not envelope_solves
        np.testing.assert_allclose(est.per_component_mse, simplex_risk(plan), rtol=1e-10)

    @pytest.mark.parametrize("beta", [1.0, 1.3, 1.7])
    @pytest.mark.parametrize(
        "degree, a, design, want",
        [
            (1, 1.0, TWO_POINT, None),
            (2, 2.0, Design([(-2.0, (1 - PI_A2) / 2), (0.0, PI_A2), (2.0, (1 - PI_A2) / 2)], 2.0),
             11.0735),
        ],
        ids=["linear-two-point", "quadratic-three-point"],
    )
    def test_d_point_risk_matches_its_closed_form(self, degree, a, design, want, beta):
        # With d = degree + 1 support points the fit interpolates the point
        # minima, so theta_hat - theta = F^-1 m.  The minimum m_k of n_k
        # Weibull(beta, sigma) errors is Weibull(beta, sigma n_k^(-1/beta)):
        # E m_k = sigma n_k^(-1/beta) Gamma(1 + 1/beta), E m_k^2 =
        # sigma^2 n_k^(-2/beta) Gamma(1 + 2/beta), E m_k m_l = E m_k E m_l.
        # beta = 1 is the exponential: 2 / n_k^2 and 1 / (n_k n_l).
        n = 120
        counts = realize_design(design, n)
        g = np.linalg.inv(np.vander(design.xs, degree + 1, increasing=True))
        scale = counts ** (-1.0 / beta)
        mean = scale * math.gamma(1.0 + 1.0 / beta)
        moments = np.outer(mean, mean) + np.diag(
            scale**2 * math.gamma(1.0 + 2.0 / beta) - mean**2
        )
        exact = np.diag(g @ moments @ g.T)
        if want is not None and beta == 1.0:
            assert n * n * exact.sum() == pytest.approx(want, abs=1e-4)
        theta = (6.0, 0.5) if degree == 1 else (2.0, 4.0, 0.8)
        error = GAMMA1 if beta == 1.0 else ErrorModel(ErrorFamily.WEIBULL, beta)
        model = RegressionModel(degree=degree, A=a, theta=theta, error=error)
        est = mc_risk(SimPlan(design=design, n=n, model=model, replicates=4000, seed=17))
        assert abs(est.total_risk - exact.sum()) <= 4.0 * est.mc_standard_error
        for got, se, ref in zip(est.per_component_mse, est.per_component_se, exact):
            assert abs(got - ref) <= 4.0 * se

    def test_design_above_the_basis_cap_runs_the_simplex(self, envelope_solves):
        # C(60, 3) bases: no dual vertices are enumerated
        model = RegressionModel(degree=2, A=2.0, theta=(2.0, 4.0, 0.8), error=GAMMA1)
        plan = SimPlan(design=uniform_design(2.0, 60), n=120, model=model,
                       replicates=30, seed=7)
        est = mc_risk(plan)
        assert len(envelope_solves) == 30
        np.testing.assert_array_equal(est.per_component_mse, simplex_risk(plan))

    def test_standard_error_scales_with_replicates(self):
        se = {
            reps: mc_risk(
                SimPlan(design=TWO_POINT, n=60, model=LINEAR_MODEL,
                        replicates=reps, seed=21)
            ).mc_standard_error
            for reps in (250, 1000)
        }
        ratio = se[250] / se[1000]
        assert 1.5 <= ratio <= 2.5  # expect ~sqrt(1000/250) = 2

    def test_component_se_positive_and_finite(self):
        est = mc_risk(small_plan())
        assert all(0.0 < s < np.inf for s in est.per_component_se)
        assert 0.0 < est.mc_standard_error < np.inf

    def test_risk_decays_at_squared_rate(self):
        # risk * n^2 should be flat in n; under the regular 1/n rate it
        # would grow fourfold from n=60 to n=240
        cs = []
        for n in (60, 120, 240):
            plan = SimPlan(design=TWO_POINT, n=n, model=LINEAR_MODEL,
                           replicates=1000, seed=13)
            cs.append(mc_risk(plan).total_risk * n * n)
        assert min(cs) > 0.0
        assert max(cs) / min(cs) < 1.5


class TestUnifMleMse:
    def test_exact_formula_n10(self):
        expected = 10.0 / 1452.0 + (10.0 / 11.0 - 1.0) ** 2
        assert unif_mle_mse(1.0, 10) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_single_observation(self):
        # var = 1/12 at theta=1, n=1; bias = -1/2
        assert unif_mle_mse(1.0, 1) == pytest.approx(1.0 / 12.0 + 0.25, rel=1e-15, abs=0)

    def test_squared_rate_asymptote(self):
        n, theta = 10_000, 2.0
        assert n * n * unif_mle_mse(theta, n) == pytest.approx(
            2.0 * theta * theta, rel=0.01, abs=0
        )

    def test_matches_monte_carlo(self):
        theta, n, reps = 1.5, 25, 100_000
        rng = np.random.default_rng(123)
        sq = (rng.uniform(0.0, theta, size=(reps, n)).max(axis=1) - theta) ** 2
        se = sq.std(ddof=1) / np.sqrt(reps)
        assert abs(sq.mean() - unif_mle_mse(theta, n)) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(ValueError, match="positive"):
            unif_mle_mse(0.0, 10)
        with pytest.raises(ValueError, match="at least 1"):
            unif_mle_mse(1.0, 0)

    @given(theta=st.floats(0.1, 50.0), n=st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_positive_and_decreasing_in_n(self, theta, n):
        assert unif_mle_mse(theta, n) > 0.0
        assert unif_mle_mse(theta, n + 1) < unif_mle_mse(theta, n)


class TestWriteRiskCsv:
    def test_exact_format(self, tmp_path):
        est = RiskEstimate(
            per_component_mse=(0.001, 0.002),
            total_risk=0.003,
            mc_standard_error=0.0005,
            replicates=100,
            per_component_se=(0.0001, 0.0002),
        )
        path = tmp_path / "risk.csv"
        write_risk_csv(path, {"opt": est}, seed=7)
        assert path.read_text() == (
            "design_id,component,mse,mc_se,replicates,seed\n"
            "opt,0,0.001,0.0001,100,7\n"
            "opt,1,0.002,0.0002,100,7\n"
            "opt,total,0.003,0.0005,100,7\n"
        )

    def test_multiple_designs_in_insertion_order(self, tmp_path):
        est = mc_risk(small_plan())
        path = tmp_path / "risk.csv"
        write_risk_csv(path, {"a": est, "b": est}, seed=5)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 3
        assert rows[1].startswith("a,0,") and rows[4].startswith("b,0,")
