"""End-to-end acceptance suite: twelve numbered criteria, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion, plus one for a golden digest of the ``pi_curve`` grid.  Each
test states its tolerance inline; failures carry the computed-versus-expected
numbers in the assertion message.
"""

import hashlib
import math
import time

import mpmath
import numpy as np
import pytest

import nonregdesign.design as design_module
from nonregdesign.bounds import FiniteModelPair, fisher_lower_bound, two_point_risk_check
from nonregdesign.design import (
    Design,
    default_grid,
    design_info,
    e_optimal_design,
    optimize_design_cutting_plane,
    pi_curve,
    symmetrize,
    uniform_design,
)
from nonregdesign.estimator import Dataset, residuals, smith_fit
from nonregdesign.hellinger import (
    EpsilonLadder,
    estimate_alpha_and_J,
    location_h_fn,
    location_info,
    r_beta,
    uniform_h_fn,
)
from nonregdesign.lp import LpStatus, solve_lp
from nonregdesign.models import (
    ErrorFamily,
    ErrorModel,
    RegressionModel,
    UniformModel,
    UniformVariant,
)
from nonregdesign.sim import SimPlan, mc_risk, unif_mle_mse

from lp_oracle import oracle_solve, random_boxed_lp
from sphere_oracle import dense_oracle

PI_ALPHAS = np.round(np.arange(1.0, 2.0 + 1e-9, 0.05), 10)
PI_A_VALUES = (1.0, 1.5, 2.0)


@pytest.fixture(scope="module")
def pi_grid():
    """Full weight-at-zero curve grid, shared by criteria 5, 6 and 10, with
    the sphere-oracle calls each of its points took."""
    calls: list[int] = []
    inner = design_module._three_point_inner

    def counted(a, alpha):
        f_of_pi = inner(a, alpha)
        calls.append(0)

        def f(pi):
            calls[-1] += 1
            return f_of_pi(pi)
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_module, "_three_point_inner", counted)
        t0 = time.perf_counter()
        rows = {a: pi_curve(a, PI_ALPHAS) for a in PI_A_VALUES}
        elapsed = time.perf_counter() - t0
    return rows, elapsed, calls


def _pi_at(rows, a, alpha):
    for row_alpha, pi, f in rows[a]:
        if abs(row_alpha - alpha) < 1e-12:
            return pi
    raise KeyError(f"alpha={alpha} not on the grid")


def _random_balanced_design(rng, a, k):
    """k-point balanced design: k-1 random points plus a balancing point."""
    while True:
        xs = rng.uniform(-a, a, size=k - 1)
        ws = rng.dirichlet(np.ones(k))
        x_bal = -float(xs @ ws[:-1]) / ws[-1]
        if abs(x_bal) > a:
            continue
        all_xs = np.append(xs, x_bal)
        if np.min(np.diff(np.sort(all_xs))) < 1e-6:
            continue
        if np.any(ws < 1e-3):
            continue
        return Design(list(zip(all_xs, ws)), a)


def _mix_designs(d1: Design, d2: Design, lam: float) -> Design:
    pts: dict[float, float] = {}
    for x, w in d1.points:
        pts[x] = pts.get(x, 0.0) + lam * w
    for x, w in d2.points:
        pts[x] = pts.get(x, 0.0) + (1.0 - lam) * w
    return Design(sorted(pts.items()), d1.A)


def test_criterion_01_closed_form_uniform_information():
    t0 = time.perf_counter()
    cases = [
        (UniformVariant.SCALE, 0.5),
        (UniformVariant.RECIPROCAL, 5.0 / 6.0),
        (UniformVariant.POWER_PAIR, 2.5),
    ]
    for variant, expected in cases:
        model = UniformModel(variant, 2.0)
        fit = estimate_alpha_and_J(uniform_h_fn(model), 2.0)
        assert fit.J == pytest.approx(expected, rel=0.01, abs=0), (
            f"{variant.value}: limit fit J={fit.J:.6f}, closed form {expected}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s (budget 5 s)"


def test_criterion_02_location_information_agreement():
    t0 = time.perf_counter()
    for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
        for beta in (1.0, 1.2, 1.5, 1.8):
            model = ErrorModel(family, beta, 1.0)
            ref = location_info(model).J
            fit = estimate_alpha_and_J(
                location_h_fn(model), 0.0, ladder=EpsilonLadder(eps0=1e-5)
            )
            rel = abs(fit.J - ref) / ref
            assert rel < 0.02, (
                f"{family.value} beta={beta}: limit fit J={fit.J:.6f} vs "
                f"closed form {ref:.6f} (rel {rel:.4f})"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f} s (budget 60 s)"


def _r_beta_mpmath(beta: float) -> mpmath.mpf:
    """r(beta) by 30-digit tanh-sinh quadrature of its defining integral.

    The head is integral_0^1 ((w + 1)^b - w^b)^2 dw with b = (beta - 1) / 2.
    The tail w > 1 becomes integral_0^1 t^(-2b) (expm1(b log1p t) / t)^2 dt
    under w = 1/t, and t = s^p with p = 1 / (1 - 2b) makes its weight
    constant.
    """
    with mpmath.workdps(30):
        b = (mpmath.mpf(beta) - 1) / 2
        p = 1 / (1 - 2 * b)
        head = mpmath.quad(lambda w: ((w + 1) ** b - w**b) ** 2, [0, 1])

        def tail(s):
            t = s**p
            return p * (mpmath.expm1(b * mpmath.log1p(t)) / t) ** 2

        return head + mpmath.quad(tail, [0, 1])


def test_criterion_03_r_beta_quadrature():
    # r_beta evaluates the Mandelbrot-Van Ness closed form; the oracle
    # integrates the definition instead
    assert r_beta(1.0) == 0.0  # exactly
    for beta in np.arange(1.05, 2.0, 0.05):
        beta = float(beta)
        exact = float(_r_beta_mpmath(beta))
        got = r_beta(beta)
        assert abs(got - exact) <= 1e-10 * exact, (
            f"beta={beta:.2f}: closed form {got!r} vs quadrature {exact!r}"
        )


def test_criterion_04_linear_model_two_point_optimum():
    for alpha in (1.0, 1.4):
        for a in (1.0, 2.0):
            sol = optimize_design_cutting_plane(
                default_grid(a), alpha, 1.0, degree=1
            )
            weights = {x: w for x, w in sol.design.points}
            assert set(weights) == {-a, a}, (
                f"alpha={alpha}, A={a}: support {sorted(weights)} != {{+-{a}}}"
            )
            for x in (-a, a):
                assert weights[x] == pytest.approx(0.5, abs=1e-4), (
                    f"alpha={alpha}, A={a}: weight at {x} is {weights[x]:.6f}"
                )


def test_criterion_05_pi_curve_endpoints(pi_grid):
    rows, elapsed, _ = pi_grid
    # At alpha = 1 the criterion is positively homogeneous and piecewise
    # linear in u, so its sphere minimum sits on a pairwise null ray of the
    # rows f(0), f(A), f(-A).  On the ray f(A) x f(-A) ~ (A^2, 0, -1) it is
    # pi A^2 / sqrt(A^4 + 1); on f(0) x f(+-A) ~ (0, -+A, 1) it is
    # (1 - pi) A^2 / sqrt(A^2 + 1).  The minimum of the two peaks where they
    # cross, at pi* = sqrt(A^4 + 1) / (sqrt(A^4 + 1) + sqrt(A^2 + 1)): 0.5 at
    # A = 1 and 0.648371 at A = 2.  The pin 0.75 first stated for A = 2 gives
    # only 1/sqrt(5) = 0.447214 there, against 0.629013 at pi*.
    pi_2_1 = math.sqrt(2.0**4 + 1) / (math.sqrt(2.0**4 + 1) + math.sqrt(2.0**2 + 1))
    checks = [
        ("pi_1(1)", _pi_at(rows, 1.0, 1.0), 0.50),
        ("pi_2(1)", _pi_at(rows, 2.0, 1.0), pi_2_1),
        ("pi_1.5(1.1)", _pi_at(rows, 1.5, 1.1), 0.60),
        ("pi_1(2)", _pi_at(rows, 1.0, 2.0), 0.60),
        ("pi_1.5(2)", _pi_at(rows, 1.5, 2.0), 0.75),
        ("pi_2(2)", _pi_at(rows, 2.0, 2.0), 0.81),
    ]
    failures = [
        f"{name}: computed {got:.6f} vs stated {want:.6f} (|diff| "
        f"{abs(got - want):.4f} > 0.01)"
        for name, got, want in checks
        if abs(got - want) > 0.01
    ]
    passes = [name for name, got, want in checks if abs(got - want) <= 0.01]
    assert elapsed < 120.0, f"curve grid took {elapsed:.1f} s (budget 120 s)"
    assert not failures, (
        "; ".join(failures) + f"; remaining endpoints pass: {passes}"
    )


def test_criterion_06_pi_curve_monotonicity(pi_grid):
    rows, _, _ = pi_grid
    for a in PI_A_VALUES:
        pis = np.array([pi for _, pi, _ in rows[a]])
        worst = float(np.diff(pis).min())
        assert worst >= -1e-6, f"A={a}: pi decreases in alpha by {-worst:.2e}"
    for i, alpha in enumerate(PI_ALPHAS):
        across_a = np.array([rows[a][i][1] for a in PI_A_VALUES])
        worst = float(np.diff(across_a).min())
        assert worst >= -1e-6, f"alpha={alpha}: pi decreases in A by {-worst:.2e}"


def test_pi_curve_grid_digest(pi_grid):
    # SHA-256 of the 63 rows as first computed by bisection on the sign of the
    # slope (18 oracle calls a point, 1,134 in all); the cut-model search must
    # end on the same lattice cells, so every byte of every row stays put
    rows, _, calls = pi_grid
    text = "\n".join(f"{alpha!r},{pi!r},{f!r}" for a in PI_A_VALUES
                     for alpha, pi, f in rows[a])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "eddc958451f78977c1ea32f0dc560718209ac42ec4cedda005c59333ddce3ffb"
    assert len(calls) == len(PI_A_VALUES) * len(PI_ALPHAS)
    assert max(calls) <= 18 and sum(calls) <= 550, (max(calls), sum(calls))


def test_criterion_07_symmetrization_and_concavity():
    rng = np.random.default_rng(20240814)
    worst_sym, worst_conc = np.inf, np.inf
    for trial in range(1000):
        degree = 1 if trial % 2 == 0 else 2
        a = float(rng.choice([1.0, 2.0]))
        alpha = float(rng.uniform(0.3, 2.0))
        k = int(rng.integers(2, 6))
        d1 = _random_balanced_design(rng, a, k)
        j1 = design_info(d1, alpha, 1.0, degree).J
        j_sym = design_info(symmetrize(d1), alpha, 1.0, degree).J
        worst_sym = min(worst_sym, j_sym - j1)
        assert j_sym >= j1 - 1e-6, (
            f"trial {trial}: symmetrization lowered the information by "
            f"{j1 - j_sym:.2e}"
        )
        d2 = _random_balanced_design(rng, a, int(rng.integers(2, 6)))
        j2 = design_info(d2, alpha, 1.0, degree).J
        j_mix = design_info(_mix_designs(d1, d2, 0.5), alpha, 1.0, degree).J
        margin = j_mix - 0.5 * (j1 + j2)
        worst_conc = min(worst_conc, margin)
        assert margin >= -1e-6, (
            f"trial {trial}: mixture information {j_mix:.8f} below the "
            f"average {0.5 * (j1 + j2):.8f}"
        )
    assert worst_sym > -1e-6 and worst_conc > -1e-6


def test_criterion_08_two_point_inequality_brute_force():
    rng = np.random.default_rng(20240815)
    violations = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 7))
        q = int(rng.integers(1, 3))
        pair = FiniteModelPair(
            rng.dirichlet(np.ones(m)),
            rng.dirichlet(np.ones(m)),
            rng.normal(scale=2.0, size=q),
            rng.normal(scale=2.0, size=q),
        )
        estimator = rng.normal(scale=2.0, size=(m, q))
        if not two_point_risk_check(pair, estimator).holds:
            violations += 1
    assert violations == 0, f"{violations} violations out of 10000 instances"


def test_criterion_09_uniform_scale_mse():
    theta, n, reps = 1.0, 10, 100_000
    rng = np.random.default_rng(20240816)
    sq = (rng.uniform(0.0, theta, size=(reps, n)).max(axis=1) - theta) ** 2
    se = sq.std(ddof=1) / math.sqrt(reps)
    closed = unif_mle_mse(theta, n)
    assert abs(sq.mean() - closed) <= 3.0 * se, (
        f"MC {sq.mean():.6e} vs closed form {closed:.6e} "
        f"(diff {abs(sq.mean() - closed):.2e}, 3 SE {3 * se:.2e})"
    )
    big_n = 10_000
    limit = 2.0 * theta * theta
    scaled = big_n**2 * unif_mle_mse(theta, big_n)
    assert scaled == pytest.approx(limit, rel=0.01, abs=0), (
        f"n^2 MSE = {scaled:.6f} vs limit {limit}"
    )


def _risks(designs, model, seed=7, n=120, reps=1000):
    return {
        name: mc_risk(SimPlan(design=d, n=n, model=model, replicates=reps,
                              seed=seed))
        for name, d in designs.items()
    }


def test_criterion_10_risk_orderings(pi_grid):
    rows, _, _ = pi_grid
    t0 = time.perf_counter()

    # linear model: two-point optimum versus uniform competitors
    lin_designs = {
        "optimal": Design([(-1.0, 0.5), (1.0, 0.5)], 1.0),
        "uniform5": uniform_design(1.0, 5),
        "uniform10": uniform_design(1.0, 10),
        "uniform15": uniform_design(1.0, 15),
    }
    for beta in (1.0, 1.4):
        model = RegressionModel(1, 1.0, (6.0, 0.5),
                                ErrorModel(ErrorFamily.GAMMA, beta, 1.0))
        res = _risks(lin_designs, model)
        opt = res["optimal"]
        for name in ("uniform5", "uniform10", "uniform15"):
            other = res[name]
            assert opt.total_risk < other.total_risk, (
                f"beta={beta}: optimal total {opt.total_risk:.6f} not below "
                f"{name} total {other.total_risk:.6f}"
            )
            gap = other.per_component_mse[1] - opt.per_component_mse[1]
            se = math.hypot(other.per_component_se[1], opt.per_component_se[1])
            assert gap > 3.0 * se, (
                f"beta={beta}: slope gap vs {name} is {gap:.6f}, "
                f"needs > {3 * se:.6f}"
            )

    # quadratic model: three-point optimum versus the regular comparator
    # and a uniform competitor
    for a in (1.0, 2.0):
        pi = _pi_at(rows, a, 1.0)
        quad_designs = {
            "optimal": Design(
                [(-a, 0.5 * (1 - pi)), (0.0, pi), (a, 0.5 * (1 - pi))], a
            ),
            "regular-optimal": e_optimal_design(a, 2).design,
            "uniform5": uniform_design(a, 5),
        }
        model = RegressionModel(2, a, (2.0, 4.0, 0.8),
                                ErrorModel(ErrorFamily.GAMMA, 1.0, 1.0))
        res = _risks(quad_designs, model)
        opt = res["optimal"]
        for name in ("regular-optimal", "uniform5"):
            other = res[name]
            gap = other.total_risk - opt.total_risk
            se = math.hypot(other.mc_standard_error, opt.mc_standard_error)
            assert gap > 0.0, (
                f"A={a}: optimal total {opt.total_risk:.6f} not below "
                f"{name} total {other.total_risk:.6f}"
            )
            assert gap > 3.0 * se, (
                f"A={a}: total-risk gap vs {name} is {gap:.6f}, "
                f"needs > {3 * se:.6f}"
            )

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 10 took {elapsed:.1f} s (budget 600 s)"


def test_criterion_11_alpha2_eigenvalue_consistency():
    for d in (2, 3):
        rng = np.random.default_rng(20240818 + d)
        for _ in range(25):
            m = rng.normal(size=(d, d))
            fisher = m @ m.T + 0.3 * np.eye(d)
            # u' fisher u / 4 = sum_k |l_k'u|^2 / 4 over the rows l_k' of L',
            # fisher = L L'; a quadratic form has one basin, so one polish start
            rows = np.linalg.cholesky(fisher).T
            info = dense_oracle(rows, np.full(d, 0.25), 2.0, starts=1)
            eig_path = fisher_lower_bound(fisher, np.eye(d))  # = 1 / lambda_min
            product = 4.0 * info * eig_path
            assert product == pytest.approx(1.0, rel=1e-6, abs=0), (
                f"d={d}: sphere path {info:.10f} vs eigenvalue path "
                f"{eig_path:.10f} (product {product:.10f})"
            )


def test_criterion_12_lp_oracle_and_envelope_estimator():
    mismatches = []
    for seed in range(1000):
        lp = random_boxed_lp(seed)
        want_status, want_value = oracle_solve(lp)
        sol = solve_lp(lp)
        if want_status == "infeasible":
            ok = sol.status is LpStatus.INFEASIBLE
        else:
            ok = (
                sol.status is LpStatus.OPTIMAL
                and sol.objective == pytest.approx(want_value, rel=1e-7, abs=1e-7)
            )
        if not ok:
            mismatches.append(seed)
    assert not mismatches, f"LP mismatches at seeds {mismatches[:10]}"

    # exact recovery on noiseless data
    xs = np.array([-1.0, 0.0, 1.0])
    theta = smith_fit(Dataset(xs, 3.0 + 2.0 * xs, 1))
    np.testing.assert_allclose(theta, [3.0, 2.0], atol=1e-12)
    xs = np.linspace(-2.0, 2.0, 30)
    truth = np.array([2.0, 4.0, 0.8])
    y = np.vander(xs, 3, increasing=True) @ truth
    np.testing.assert_allclose(smith_fit(Dataset(xs, y, 2)), truth, atol=1e-10)

    # envelope property on simulated datasets
    rng = np.random.default_rng(20240819)
    for trial in range(50):
        degree = 1 if trial % 2 == 0 else 2
        n = int(rng.integers(degree + 2, 60))
        xs = rng.uniform(-2.0, 2.0, size=n)
        coef = rng.normal(size=degree + 1)
        beta = float(rng.uniform(1.0, 1.9))
        y = np.vander(xs, degree + 1, increasing=True) @ coef
        y = y + rng.gamma(shape=beta, scale=1.0, size=n)
        try:
            data = Dataset(xs, y, degree)
        except ValueError:
            continue  # rank-deficient draw
        fit = smith_fit(data)
        worst = float(residuals(data, fit).min())
        assert worst >= -1e-8, f"trial {trial}: residual {worst:.2e}"
