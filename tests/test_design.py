import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonregdesign.design as design_module
from nonregdesign.design import (
    CuttingPlaneConfig,
    Design,
    StopReason,
    _three_point_inner,
    default_grid,
    design_info,
    design_info_directional,
    direction_free_info_psi,
    e_optimal_design,
    optimize_design_cutting_plane,
    pi_curve,
    regressor_matrix,
    symmetrize,
    uniform_design,
)
from nonregdesign.hellinger import InfoMethod
from sphere_oracle import dense_oracle, grid_oracle, kink_oracle

TWO_POINT = Design(A=1.0, points=((-1.0, 0.5), (1.0, 0.5)))
THREE_POINT_06 = Design(A=1.0, points=((-1.0, 0.2), (0.0, 0.6), (1.0, 0.2)))


def random_balanced_design(rng: np.random.Generator, a: float = 1.0, k: int | None = None) -> Design:
    """Random balanced (generally asymmetric) design on [-a, a]."""
    while True:
        k_pts = int(k if k is not None else rng.integers(3, 7))
        xs = rng.uniform(-a, a, size=k_pts - 1)
        ws = rng.dirichlet(np.ones(k_pts))
        # Last point balances the first k-1; resample until it lands inside.
        x_last = -float(xs @ ws[:-1]) / float(ws[-1])
        if abs(x_last) > a:
            continue
        all_xs = np.append(xs, x_last)
        if np.min(np.diff(np.sort(all_xs))) < 1e-6 or np.min(ws) < 1e-3:
            continue
        return Design(list(zip(all_xs, ws)), a)


class TestDesignType:
    def test_valid_construction(self):
        d = Design(A=1.0, points=((-1.0, 0.5), (1.0, 0.5)))
        assert d.A == 1.0
        np.testing.assert_allclose(d.xs, [-1.0, 1.0])
        np.testing.assert_allclose(d.ws, [0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Design(A=1.0, points=((-1.0, 0.5), (1.0, 0.6)))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Design(A=1.0, points=((-1.0, 1.2), (1.0, -0.2)))

    def test_balance_enforced(self):
        with pytest.raises(ValueError, match="balanced"):
            Design(A=1.0, points=((1.0, 1.0),))

    def test_balance_opt_out(self):
        d = Design(A=1.0, points=((1.0, 1.0),), require_balance=False)
        assert d.points == ((1.0, 1.0),)

    def test_support_inside_interval(self):
        with pytest.raises(ValueError, match="lie in"):
            Design(A=1.0, points=((-1.5, 0.5), (1.5, 0.5)))

    def test_points_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            Design(A=1.0, points=((0.0, 0.5), (0.0, 0.5)))

    def test_positive_a(self):
        for a in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="A must be positive"):
                Design(A=a, points=((0.0, 1.0),))

    def test_non_finite_points_and_weights(self):
        # NaN compares false, so the range and sign checks once let it through
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="support points must lie in"):
                Design(A=1.0, points=((x, 1.0),), require_balance=False)
        with pytest.raises(ValueError, match="weights must be non-negative"):
            Design(A=1.0, points=((-1.0, math.nan), (1.0, 0.5)), require_balance=False)
        with pytest.raises(ValueError, match="weights sum to"):
            Design(A=1.0, points=((-1.0, math.inf), (1.0, 0.5)), require_balance=False)

    def test_json_round_trip(self):
        d = Design(A=2.0, points=((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
        payload = json.loads(json.dumps(d.as_json_dict()))
        back = Design.from_json_dict(payload)
        assert back.points == d.points and back.A == d.A

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            Design.from_json_dict({"points": [{"x": 0.0}]})

    def test_json_invalid_weights_rejected_on_load(self):
        payload = {"A": 1.0, "points": [{"x": -1.0, "w": 0.7}, {"x": 1.0, "w": 0.7}]}
        with pytest.raises(ValueError):
            Design.from_json_dict(payload)


class TestGridsAndConfigs:
    def test_default_grid_contains_anchors(self):
        g = default_grid(2.0)
        assert g.size == 101
        assert np.any(g == 0.0) and np.any(g == 2.0) and np.any(g == -2.0)

    def test_default_grid_even_size_bumped_to_odd(self):
        assert default_grid(1.0, 100).size == 101

    def test_default_grid_size_bounds(self):
        with pytest.raises(ValueError):
            default_grid(1.0, 2)
        with pytest.raises(ValueError):
            default_grid(1.0, 301)

    def test_cutting_plane_config_validation(self):
        for gap_tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="gap_tol must be positive"):
                CuttingPlaneConfig(gap_tol=gap_tol)
        with pytest.raises(ValueError, match="max_cuts must be at least 4"):
            CuttingPlaneConfig(max_cuts=3)


class TestDirectional:
    def test_two_point_axis_direction(self):
        val = design_info_directional(TWO_POINT, np.array([1.0, 0.0]), 1.0, 1.0, 1)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_two_point_diagonal_direction(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        val = design_info_directional(TWO_POINT, u, 1.0, 1.0, 1)
        assert val == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_j_tilde_scales_linearly(self):
        u = np.array([0.6, 0.8])
        v1 = design_info_directional(TWO_POINT, u, 1.5, 1.0, 1)
        v2 = design_info_directional(TWO_POINT, u, 1.5, 3.25, 1)
        assert v2 == pytest.approx(3.25 * v1, rel=1e-14)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            design_info_directional(TWO_POINT, np.array([1.0, 1.0]), 1.0, 1.0, 1)

    @given(
        theta=st.floats(0.0, 2.0 * math.pi),
        alpha=st.floats(0.25, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_antipodal_directions_equal(self, theta, alpha):
        u = np.array([math.cos(theta), math.sin(theta)])
        v_pos = design_info_directional(TWO_POINT, u, alpha, 1.0, 1)
        v_neg = design_info_directional(TWO_POINT, -u, alpha, 1.0, 1)
        assert v_pos == v_neg


class TestDesignInfo:
    def test_one_point_design_degenerate(self):
        d = Design(A=1.0, points=((0.0, 1.0),))
        res = design_info(d, 1.0, 1.0, 1)
        assert res.J == 0.0
        assert res.degenerate
        # the annihilating direction is orthogonal to f(0) = (1, 0)
        assert abs(res.direction[0]) < 1e-12 and abs(res.direction[1]) == pytest.approx(1.0)

    def test_two_point_exact_value(self):
        res = design_info(TWO_POINT, 1.0, 1.0, 1)
        assert res.J == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
        assert not res.degenerate

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_two_point_formula_and_monotonicity(self, a):
        d = Design(A=a, points=((-a, 0.5), (a, 0.5)))
        res = design_info(d, 1.0, 1.0, 1)
        assert res.J == pytest.approx(a / math.sqrt(1.0 + a * a), rel=1e-10)

    def test_increasing_in_a(self):
        vals = [
            design_info(Design(A=a, points=((-a, 0.5), (a, 0.5))), 1.0, 1.0, 1).J
            for a in (0.5, 1.0, 2.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_three_point_alpha2_eigenvalue(self):
        res = design_info(THREE_POINT_06, 2.0, 1.0, 2)
        assert res.J == pytest.approx(0.2, abs=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            design_info(TWO_POINT, 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="alpha"):
            design_info(TWO_POINT, 2.5, 1.0, 1)

    def test_j_tilde_domain(self):
        for j_tilde in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="j_tilde must be positive"):
                design_info(TWO_POINT, 1.0, j_tilde, 1)

    def test_info_below_any_direction(self):
        rng = np.random.default_rng(5)
        d = random_balanced_design(rng, a=1.5)
        res = design_info(d, 1.5, 1.0, 2)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert res.J <= design_info_directional(d, u, 1.5, 1.0, 2) + 1e-12

    def test_minimizing_direction_attains_value(self):
        res = design_info(TWO_POINT, 1.0, 1.0, 1)
        attained = design_info_directional(TWO_POINT, np.asarray(res.direction), 1.0, 1.0, 1)
        assert attained == pytest.approx(res.J, rel=1e-12)


class TestExactSphereOracle:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_kink_enumeration_matches_independent_oracles(self, degree, alpha):
        rng = np.random.default_rng(400 + 10 * degree + int(10 * alpha))
        for _ in range(6):
            d = random_balanced_design(rng, a=1.5)
            f = np.vander(d.xs, degree + 1, increasing=True)
            res = design_info(d, alpha, 1.0, degree)
            assert res.method is InfoMethod.KINK_ENUMERATION
            assert res.J == pytest.approx(kink_oracle(f, d.ws, alpha), rel=1e-12)
            assert res.J <= grid_oracle(f, d.ws, alpha) * (1.0 + 1e-12)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_alpha2_is_lambda_min(self, degree):
        rng = np.random.default_rng(500 + degree)
        for _ in range(10):
            d = random_balanced_design(rng, a=1.5)
            f = np.vander(d.xs, degree + 1, increasing=True)
            res = design_info(d, 2.0, 1.0, degree)
            assert res.method is InfoMethod.EIGENVALUE
            lam = np.linalg.eigvalsh(f.T @ (d.ws[:, None] * f))[0]
            assert res.J == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,degree,method",
        [
            (0.5, 1, InfoMethod.KINK_ENUMERATION),
            (1.0, 2, InfoMethod.KINK_ENUMERATION),
            (2.0, 1, InfoMethod.EIGENVALUE),
            (2.0, 2, InfoMethod.EIGENVALUE),
            (1.5, 1, InfoMethod.BRANCH_AND_BOUND),
            (1.5, 2, InfoMethod.BRANCH_AND_BOUND),
        ],
    )
    def test_method_names_the_path(self, alpha, degree, method):
        assert design_info(THREE_POINT_06, alpha, 1.0, degree).method is method

    def test_degenerate_design_keeps_sphere_search_label(self):
        res = design_info(Design(A=1.0, points=((0.0, 1.0),)), 2.0, 1.0, 1)
        assert res.degenerate and res.method is InfoMethod.SPHERE_SEARCH

    def test_exact_paths_skip_the_grid_search(self):
        for degree in (1, 2):
            for alpha in (0.5, 1.0, 1.5, 2.0):
                design_info(THREE_POINT_06, alpha, 1.0, degree)
        for alpha in (1.0, 2.0):
            ((_, pi, f),) = pi_curve(2.0, [alpha])
            assert 0.0 < pi < 1.0 and f > 0.0
        ((_, pi, f),) = pi_curve(1.5, [1.1])
        assert 0.0 < pi < 1.0 and f > 0.0
        sol = optimize_design_cutting_plane(default_grid(1.0, 21), 1.5, 1.0, 2)
        assert sol.stop is StopReason.CONVERGED

    @pytest.mark.parametrize(
        "a,alpha,pi,value",
        [(2.0, 2.0, 13.0 / 16.0, 0.75), (1.0, 1.0, 0.5, 2.0 ** -1.5)],
    )
    def test_tied_minimizers_report_the_smallest_slope(self, a, alpha, pi, value):
        # At these pi the sphere minimum is attained by several directions
        # whose slopes straddle 0 (pi is the maximizer of the concave f), so
        # the smallest slope must be <= 0 whichever minimizer comes first.
        f_val, slope = _three_point_inner(a, alpha)(pi)
        assert f_val == pytest.approx(value, rel=1e-12)
        assert slope <= 0.0


def _three_point(a, pi):
    ws = np.array([pi, 0.5 * (1.0 - pi), 0.5 * (1.0 - pi)])
    return regressor_matrix(np.array([0.0, a, -a]), 2), ws


def _kink_count(f, c, r):
    """How many kink circles f_i'u = 0 cross the cap (c, r)."""
    return int(np.sum(np.abs(f @ c) <= np.linalg.norm(f, axis=1) * math.sin(r)))


def _random_cell(rng, f, d, kinks):
    """A random arc (d = 2) or spherical triangle (d = 3) whose cap crosses
    about ``kinks`` kink circles f_i'u = 0, mostly with a radius log-uniform
    in [1e-10, 0.2]."""
    rho = 10.0 ** rng.uniform(-10.0, math.log10(0.2))
    i, j = rng.choice(len(f), size=2, replace=False)
    if kinks == 0:
        c = rng.normal(size=d)
    elif kinks == 1:
        c = rng.normal(size=d)
        c -= (c @ f[i]) / (f[i] @ f[i]) * f[i]
    elif d == 3:
        c = np.cross(f[i], f[j])
    else:
        # kink circles are rays at d = 2: an arc reaching over two of them
        zi, zj = np.array([-f[i, 1], f[i, 0]]), np.array([-f[j, 1], f[j, 0]])
        zi, zj = zi / np.linalg.norm(zi), zj / np.linalg.norm(zj)
        zj = zj if zi @ zj >= 0.0 else -zj
        c = zi + zj
        rho = 0.5 * math.acos(min(1.0, zi @ zj)) * rng.uniform(1.05, 1.5)
    c = c / np.linalg.norm(c)
    c = c + 0.02 * rho * rng.normal(size=d)  # the cap still crosses what c is near
    c /= np.linalg.norm(c)
    t = np.linalg.svd(c[None, :])[2][1:]
    if d == 2:
        return np.array([math.cos(rho) * c + math.sin(rho) * s * t[0] for s in (-1.0, 1.0)])
    phis = rng.uniform(0.0, 2.0 * math.pi) + np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, 3)
    rims = np.cos(phis)[:, None] * t[0] + np.sin(phis)[:, None] * t[1]
    return math.cos(rho) * c + math.sin(rho) * rims


def _cell_samples(cell):
    """Dense points of an arc or spherical triangle, vertices included."""
    if len(cell) == 2:
        s = np.linspace(0.0, 1.0, 201)[:, None]
        pts = (1.0 - s) * cell[0] + s * cell[1]
    else:
        i, j = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
        keep = i + j <= 40
        a, b = i[keep][:, None] / 40.0, j[keep][:, None] / 40.0
        pts = a * cell[0] + b * cell[1] + (1.0 - a - b) * cell[2]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.mark.filterwarnings("error")
class TestBranchAndBound:
    """The certified 1 < alpha < 2 sphere minimum, against package-free checks."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9])
    def test_agrees_with_dense_oracle(self, degree, alpha):
        rng = np.random.default_rng(600 + 10 * degree + int(100 * alpha))
        for _ in range(4):
            d = random_balanced_design(rng, a=1.5)
            f = regressor_matrix(d.xs, degree)
            res = design_info(d, alpha, 1.0, degree)
            assert res.method is InfoMethod.BRANCH_AND_BOUND
            oracle = dense_oracle(f, d.ws, alpha)
            # certificate: at most 1e-10 above the minimum, which the
            # oracle's evaluated points cannot undercut
            assert res.J <= oracle * (1.0 + 1e-10)
            assert res.J == pytest.approx(oracle, rel=1e-9)
            u = np.asarray(res.direction)
            attained = design_info_directional(d, u, alpha, 1.0, degree)
            assert attained == pytest.approx(res.J, rel=1e-14)

    @pytest.mark.parametrize(
        "a,alpha,pi",
        [(1.5, 1.2, 0.625286), (2.0, 1.05, 0.7), (1.5, 1.1, 0.60162), (1.0, 1.5, 0.6)],
    )
    def test_three_point_cases_agree_with_dense_oracle(self, a, alpha, pi):
        # a near-tie of two local minima, a minimizer on a kink circle next
        # to a second kink, the (1.5, 1.1) optimum, and a flat (pitchfork) minimum
        f, ws = _three_point(a, pi)
        value = _three_point_inner(a, alpha)(pi)[0]
        oracle = dense_oracle(f, ws, alpha)
        assert value <= oracle * (1.0 + 1e-10)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_near_tie_pin(self):
        # two local minima within 3.1e-6 of each other: the grid plus
        # Nelder-Mead oracle and bench/oracles.py both reported the higher
        # one, 0.5611595471 near u = (0, 0.837, 0.548)
        value = _three_point_inner(1.5, 1.2)(0.625286)[0]
        assert value == pytest.approx(0.5611564417, abs=1e-9)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.9])
    def test_cell_bound_below_dense_samples(self, degree, alpha):
        rng = np.random.default_rng(700 + 10 * degree + int(100 * alpha))
        d = random_balanced_design(rng, a=1.5, k=5)
        f, ws = regressor_matrix(d.xs, degree), d.ws
        f_norm = np.linalg.norm(f, axis=1)
        seen = {0: 0, 1: 0, 2: 0}
        for n in range(150):
            cell = _random_cell(rng, f, degree + 1, n % 3)
            centres, radii = design_module._cell_caps(cell[None])
            _, lower = design_module._cell_bounds(f, f_norm, ws, alpha, centres, radii)
            dense = np.abs(_cell_samples(cell) @ f.T) ** alpha @ ws
            assert lower[0] <= dense.min() * (1.0 + 1e-13) + 1e-15
            k = _kink_count(f, centres[0], radii[0])
            seen[min(k, 2)] += 1
        assert min(seen.values()) >= 20, seen

    def test_cell_and_level_caps_raise(self, monkeypatch):
        monkeypatch.setattr(design_module, "_BB_MAX_CELLS", 100)
        with pytest.raises(RuntimeError, match="live cells"):
            design_info(THREE_POINT_06, 1.5, 1.0, 2)
        monkeypatch.setattr(design_module, "_BB_MAX_CELLS", 200_000)
        monkeypatch.setattr(design_module, "_BB_MAX_LEVELS", 3)
        with pytest.raises(RuntimeError, match="in 3 levels"):
            design_info(THREE_POINT_06, 1.5, 1.0, 2)

    def test_kink_line_minimum_stays_small(self, monkeypatch):
        # (A, alpha, pi) = (2, 1.05, 0.7): the minimizer lies on the kink
        # circle of f(0), next to that of f(2).  The linearized bound alone
        # keeps about 10,500 cells alive there; the kink-aware one 256.
        monkeypatch.setattr(design_module, "_BB_MAX_CELLS", 2048)
        value = _three_point_inner(2.0, 1.05)(0.7)[0]
        assert value == pytest.approx(0.5719736429, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("xs,degree", [([-1.0, 1.0], 2), ([-0.3, 0.7], 2), ([0.37], 1)])
    def test_degenerate_design_answers_zero(self, xs, degree, alpha):
        # rank-deficient: the u orthogonal to every f(x_i) has value 0, so the
        # bound of a cell around it never reaches a positive incumbent.  At
        # alpha = 2, lambda_min alone read -5.4e-17 on {-0.3, 0.7}.
        f = regressor_matrix(np.array(xs), degree)
        ws = np.full(len(xs), 1.0 / len(xs))
        ties, value, method = design_module._sphere_min(f, ws, alpha, 1.0)
        assert value == 0.0 and method is InfoMethod.SPHERE_SEARCH
        assert np.abs(f @ ties[0]).max() < 1e-12

    @pytest.mark.parametrize("alpha", [1.0001, 1.001, 1.01])
    def test_alpha_near_one_is_warning_free_and_sound(self, alpha):
        # the closed-form 1-D minimizer raises a ratio to 1 / (alpha - 1)
        rng = np.random.default_rng(int(alpha * 1e4))
        for degree in (1, 2):
            d = random_balanced_design(rng, a=2.0)
            f = regressor_matrix(d.xs, degree)
            res = design_info(d, alpha, 1.0, degree)
            assert res.J <= dense_oracle(f, d.ws, alpha) * (1.0 + 1e-10)

    def test_cutting_plane_gap_is_a_certificate(self):
        # the solve once reported info 6.6e-5 away from the value of its own
        # design, above the 1e-5 gap it certified
        sol = _solve(2, 2.0, 1.2)
        f = regressor_matrix(sol.design.xs, 2)
        assert sol.info == pytest.approx(dense_oracle(f, sol.design.ws, 1.2), rel=1e-9)
        assert sol.gap <= CuttingPlaneConfig().gap_tol * (sol.info + sol.gap)


class TestDirectionFreePsi:
    def test_identity_reduces_to_design_info(self):
        rng = np.random.default_rng(11)
        for degree in (1, 2):
            d = random_balanced_design(rng, a=1.0, k=degree + 3)
            base = design_info(d, 1.5, 1.3, degree).J
            via_psi = direction_free_info_psi(d, np.eye(degree + 1), 1.5, 1.3, degree)
            assert via_psi == pytest.approx(base, rel=1e-9)

    def test_slope_functional_linear_two_point(self):
        val = direction_free_info_psi(TWO_POINT, np.array([[0.0, 1.0]]), 1.0, 1.0, 1)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_alpha2_identity_matches_lambda_min(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            d = random_balanced_design(rng, a=1.2)
            via_psi = direction_free_info_psi(d, np.eye(3), 2.0, 2.1, 2)
            f = regressor_matrix(d.xs, 2)
            lam = np.linalg.eigvalsh((f * d.ws[:, None]).T @ f)[0]
            assert via_psi == pytest.approx(2.1 * lam, rel=1e-8)

    def test_near_tie_identity_is_certified(self):
        # grid plus Nelder-Mead stopped in the higher of the two near-tied
        # minima here, 0.5611595471
        d = Design([(-1.5, 0.187357), (0.0, 0.625286), (1.5, 0.187357)], 1.5)
        value = direction_free_info_psi(d, np.eye(3), 1.2, 1.0, 2)
        assert value == pytest.approx(0.5611564417, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 1.8, 2.0])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_square_dpsi_is_design_info_of_mapped_design(self, degree, alpha):
        # x -> (x - c) / s maps f(x) to M f(x), so D_psi = M'^-1 turns
        # F D_psi^-1 into the regressor rows of the mapped support points
        rng = np.random.default_rng(5)
        c, s = 0.3, 1.7
        m = np.array([[1.0, 0.0], [-c / s, 1.0 / s]])
        if degree == 2:
            m = np.array(
                [[1.0, 0.0, 0.0], [-c / s, 1.0 / s, 0.0], [c * c / s**2, -2.0 * c / s**2, 1.0 / s**2]]
            )
        d_psi = np.linalg.inv(m.T)
        for _ in range(3):
            d = random_balanced_design(rng, a=1.0, k=degree + 3)
            xs = (d.xs - c) / s
            mapped = Design(list(zip(xs, d.ws)), float(np.max(np.abs(xs))), require_balance=False)
            ref = design_info(mapped, alpha, 1.3, degree).J
            via_psi = direction_free_info_psi(d, d_psi, alpha, 1.3, degree)
            assert via_psi == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_scaled_dpsi_scales_the_value(self, alpha):
        # J(u) / |c D u|^alpha = c^-alpha J(u) / |D u|^alpha, however small
        # the mapped rows' moment matrix gets
        base = direction_free_info_psi(THREE_POINT_06, np.eye(3), alpha, 1.0, 2)
        for c in (1e-6, 1e7):
            scaled = direction_free_info_psi(THREE_POINT_06, c * np.eye(3), alpha, 1.0, 2)
            assert scaled * c**alpha == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_degenerate_design_answers_zero(self, alpha):
        # two points cannot identify a quadratic: exactly 0, as design_info;
        # lambda_min of the mapped rows alone is +-1e-17 at alpha = 2
        skew = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 2.0]])
        for d_psi in (np.eye(3), np.diag([1.0, 2.0, 3.0]), skew):
            assert direction_free_info_psi(TWO_POINT, d_psi, alpha, 1.0, 2) == 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            direction_free_info_psi(TWO_POINT, np.zeros((1, 2)), 1.0, 1.0, 1)

    def test_wrong_columns_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            direction_free_info_psi(TWO_POINT, np.eye(3), 1.0, 1.0, 1)

    @pytest.mark.parametrize("alpha,j_tilde", [(3.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                               (1.5, -1.0), (1.5, math.nan)])
    def test_criterion_domain(self, alpha, j_tilde):
        # alpha = 3 once ran a branch-and-bound whose cell bound needs alpha <= 2
        match = "alpha must lie" if j_tilde == 1.0 else "j_tilde must be positive"
        for d_psi in (np.eye(2), np.array([[0.0, 1.0]])):
            with pytest.raises(ValueError, match=match):
                direction_free_info_psi(TWO_POINT, d_psi, alpha, j_tilde, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dpsi_named(self, bad):
        # NaN once failed inside the SVD ("did not converge") and inf as "must
        # have full row rank"
        for d_psi in (np.array([[bad, 1.0]]), np.array([[bad, 1.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="d_psi must be finite"):
                direction_free_info_psi(TWO_POINT, d_psi, 1.0, 1.0, 1)


def _ratio(f, ws, alpha, d_psi, u):
    return float(ws @ np.abs(f @ u) ** alpha / np.linalg.norm(d_psi @ u) ** alpha)


class TestWideDpsi:
    """psi = D_psi theta with fewer rows than coefficients: the ratio
    inf_u J(u) / |D_psi u|^alpha, against closed forms and the dense oracle."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_two_point_quadratic_identifies_slope_not_intercept(self, alpha):
        # support {-1, 1} leaves u = (1, 0, -1) null: theta_1 and
        # theta_0 + theta_2 are identified, theta_0 is not.  The
        # grid-plus-Nelder-Mead search gave the intercept 4.6e-23 at alpha = 1.5
        slope = direction_free_info_psi(TWO_POINT, [[0.0, 1.0, 0.0]], alpha, 1.0, 2)
        assert slope == pytest.approx(min(1.0, 2.0 ** (alpha - 1.0)), rel=1e-10)
        pair = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
        both = direction_free_info_psi(TWO_POINT, pair, alpha, 1.0, 2)
        assert both == pytest.approx(2.0 ** ((alpha - 2.0) / 2.0), rel=1e-10)
        assert direction_free_info_psi(TWO_POINT, [[1.0, 0.0, 0.0]], alpha, 1.0, 2) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_one_point_design_identifies_its_mean(self, degree, alpha):
        # one support point identifies f(x0)'theta alone, and J(u) =
        # |f(x0)'u|^alpha makes its ratio j_tilde in every direction
        one = Design([(0.4, 1.0)], 1.0, require_balance=False)
        f0 = regressor_matrix(np.array([0.4]), degree)
        value = direction_free_info_psi(one, f0, alpha, 1.3, degree)
        assert value == pytest.approx(1.3, rel=1e-14)
        scaled = direction_free_info_psi(one, 2.0 * f0, alpha, 1.3, degree)
        assert scaled == pytest.approx(1.3 * 2.0**-alpha, rel=1e-14)
        other = regressor_matrix(np.array([-0.2]), degree)
        assert direction_free_info_psi(one, other, alpha, 1.3, degree) == 0.0

    def test_ratio_branch_and_bound_stays_small(self, monkeypatch):
        # the slope of THREE_POINT_06 is smallest at u = (0, 1, 0), on the
        # kink circle of f(0): 0.2 (1 + 1) = 0.4 for every alpha >= 1
        monkeypatch.setattr(design_module, "_BB_MAX_CELLS", 2048)
        for alpha in (1.05, 1.5, 1.9):
            value = direction_free_info_psi(THREE_POINT_06, [[0.0, 1.0, 0.0]], alpha, 1.0, 2)
            assert value == pytest.approx(0.4, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("shape", [(1, 2), (1, 3), (2, 3)])
    def test_random_dpsi_agrees_with_dense_oracle(self, shape, alpha):
        rng = np.random.default_rng(800 + 10 * shape[0] + shape[1] + int(10 * alpha))
        degree = shape[1] - 1
        for _ in range(2):
            d = random_balanced_design(rng, a=1.5)
            d_psi = rng.normal(size=shape)
            f = regressor_matrix(d.xs, degree)
            value = direction_free_info_psi(d, d_psi, alpha, 1.0, degree)
            # four polish starts keep the 24 oracle calls near 15 s
            oracle = dense_oracle(f, d.ws, alpha, d_psi, starts=4)
            assert value <= oracle * (1.0 + 1e-10)
            assert value == pytest.approx(oracle, rel=1e-8)
            if alpha >= 1.0:  # below 1, rounding residue of f_i'u = 0 enters |.|^alpha
                ties, _, _ = design_module._sphere_min(f, d.ws, alpha, 1.0, d_psi)
                assert _ratio(f, d.ws, alpha, d_psi, ties[0]) == pytest.approx(value, rel=1e-12)


class TestSymmetrize:
    def test_one_point_example(self):
        d = Design(A=1.0, points=((1.0, 1.0),), require_balance=False)
        sym = symmetrize(d)
        assert sym.points == ((-1.0, 0.5), (1.0, 0.5))

    def test_symmetric_fixed_point(self):
        sym = symmetrize(THREE_POINT_06)
        assert sym.points == THREE_POINT_06.points

    def test_reflection_weights_merge(self):
        d = Design(A=1.0, points=((-0.5, 0.6), (1.0, 0.3), (-0.4, 0.1)), require_balance=False)
        sym = symmetrize(d)
        as_dict = dict(sym.points)
        assert as_dict[0.5] == pytest.approx(0.3) and as_dict[-0.5] == pytest.approx(0.3)
        assert as_dict[1.0] == pytest.approx(0.15) and as_dict[-1.0] == pytest.approx(0.15)
        assert sum(w for _, w in sym.points) == pytest.approx(1.0, abs=1e-14)

    def test_output_always_balanced(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.uniform(-1, 1, 4)
            ws = rng.dirichlet(np.ones(4))
            d = Design(list(zip(xs, ws)), 1.0, require_balance=False)
            sym = symmetrize(d)
            assert abs(float(sym.xs @ sym.ws)) < 1e-12

    @pytest.mark.parametrize("degree,alpha", [(1, 1.0), (1, 1.5), (1, 2.0), (2, 1.0), (2, 1.5), (2, 2.0)])
    def test_dominance_on_random_designs(self, degree, alpha):
        rng = np.random.default_rng(100 + degree * 10 + int(alpha * 2))
        worst = np.inf
        for _ in range(35):
            d = random_balanced_design(rng, a=1.0, k=degree + 3)
            base = design_info(d, alpha, 1.0, degree).J
            dominated = design_info(symmetrize(d), alpha, 1.0, degree).J
            worst = min(worst, dominated - base)
            assert dominated >= base - 1e-6


class TestConcavity:
    @pytest.mark.parametrize("degree,alpha", [(1, 1.0), (1, 2.0), (2, 1.0), (2, 1.5), (2, 2.0)])
    def test_mixture_dominates_average(self, degree, alpha):
        rng = np.random.default_rng(200 + degree * 10 + int(alpha * 2))
        for _ in range(25):
            d1 = random_balanced_design(rng, a=1.0, k=degree + 3)
            d2 = random_balanced_design(rng, a=1.0, k=degree + 3)
            j1 = design_info(d1, alpha, 1.0, degree).J
            j2 = design_info(d2, alpha, 1.0, degree).J
            for w in (0.25, 0.5, 0.75):
                pts = [(x, w * wt) for x, wt in d1.points]
                pts += [(x, (1.0 - w) * wt) for x, wt in d2.points]
                mix = Design(pts, 1.0)
                j_mix = design_info(mix, alpha, 1.0, degree).J
                assert j_mix >= w * j1 + (1.0 - w) * j2 - 1e-6


class TestCuttingPlaneSolver:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.4])
    def test_linear_optimum_is_two_point_half(self, a, alpha):
        sol = optimize_design_cutting_plane(default_grid(a), alpha, 1.0, 1)
        pts = dict(sol.design.points)
        assert set(pts) == {-a, a}
        assert pts[a] == pytest.approx(0.5, abs=1e-6)
        assert pts[-a] == pytest.approx(0.5, abs=1e-6)

    def test_linear_information_values(self):
        # closed forms: alpha=1 -> A/sqrt(1+A^2); alpha=1.4, A=1 -> 2^(alpha/2-1)
        sol = optimize_design_cutting_plane(default_grid(1.0), 1.0, 1.0, 1)
        assert sol.info == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
        sol = optimize_design_cutting_plane(default_grid(1.0), 1.4, 1.0, 1)
        assert sol.info == pytest.approx(2.0 ** (1.4 / 2.0 - 1.0), rel=1e-9)

    def test_quadratic_alpha2_a1(self):
        sol = optimize_design_cutting_plane(default_grid(1.0), 2.0, 1.0, 2)
        pts = dict(sol.design.points)
        assert set(pts) == {-1.0, 0.0, 1.0}
        assert pts[0.0] == pytest.approx(0.6, abs=5e-3)
        assert sol.info == pytest.approx(0.2, abs=1e-5)

    def test_quadratic_alpha2_a2(self):
        sol = optimize_design_cutting_plane(default_grid(2.0), 2.0, 1.0, 2)
        pts = dict(sol.design.points)
        assert set(pts) == {-2.0, 0.0, 2.0}
        assert pts[0.0] == pytest.approx(0.8125, abs=5e-3)
        assert sol.info == pytest.approx(0.75, abs=1e-5)

    @pytest.mark.parametrize(
        "a,three_point_best",
        [(1.0, 0.3535534), (2.0, 0.6290102)],
    )
    def test_quadratic_alpha1_beats_three_point_family(self, a, three_point_best):
        # At alpha = 1 the grid optimum spreads mass over many points and its
        # information strictly exceeds the best three-point design (the
        # three-point structure is a conjecture outside alpha = 1.5..2).
        sol = optimize_design_cutting_plane(default_grid(a), 1.0, 1.0, 2)
        assert len(sol.design.points) > 3
        assert sol.info > three_point_best + 0.02
        recomputed = design_info(sol.design, 1.0, 1.0, 2)
        assert recomputed.J == pytest.approx(sol.info, rel=1e-9)

    def test_quadratic_alpha15_matches_pi_scan(self):
        sol = optimize_design_cutting_plane(default_grid(1.0), 1.5, 1.0, 2)
        (_, pi_star, f_star) = pi_curve(1.0, [1.5])[0]
        pts = dict(sol.design.points)
        assert set(pts) == {-1.0, 0.0, 1.0}
        assert pts[0.0] == pytest.approx(pi_star, abs=5e-3)
        assert sol.info == pytest.approx(f_star, abs=5e-6)

    def test_scale_invariance_of_argmax(self):
        grid = default_grid(1.0, 21)
        sol1 = optimize_design_cutting_plane(grid, 1.3, 1.0, 2)
        sol2 = optimize_design_cutting_plane(grid, 1.3, 3.7, 2)
        assert sol1.design.xs.tolist() == sol2.design.xs.tolist()
        np.testing.assert_allclose(sol1.design.ws, sol2.design.ws, atol=1e-9)
        assert sol2.info == pytest.approx(3.7 * sol1.info, rel=1e-9)

    def test_soundness_gap_and_recomputation(self):
        sol = optimize_design_cutting_plane(default_grid(1.0, 41), 1.5, 1.0, 2)
        assert sol.gap >= 0.0
        recomputed = design_info(sol.design, 1.5, 1.0, 2)
        assert recomputed.J >= sol.info - sol.gap - 1e-9

    def test_cut_cap_returns_nonzero_gap(self):
        # the quadratic alpha=1 optimum needs ~100 cuts, so a cap of 8
        # (just above the seed-cut count) must stop early with a real gap
        cfg = CuttingPlaneConfig(max_cuts=8)
        sol = optimize_design_cutting_plane(default_grid(1.0, 41), 1.0, 1.0, 2, config=cfg)
        assert sol.cuts_used <= 8
        assert sol.gap > 1e-4

    @pytest.mark.parametrize("a,alpha", [(2.0, 1.0), (1.5, 1.5)])
    def test_every_cut_is_kept(self, monkeypatch, a, alpha):
        # The Kelley loop alternates master LP and oracle call until the
        # tie-break's first LP, which has a target row; condense LPs come later.
        events = []
        solve_cut_lp = design_module._solve_cut_lp
        info = design_module.design_info

        def record_lp(phi, *args):
            res = solve_cut_lp(phi, *args)
            events.append(("lp", len(phi), res[1] if not args else None))
            return res

        def record_info(*args):
            res = info(*args)
            events.append(("info", np.asarray(res.direction)))
            return res

        monkeypatch.setattr(design_module, "_solve_cut_lp", record_lp)
        monkeypatch.setattr(design_module, "design_info", record_info)
        sol = optimize_design_cutting_plane(default_grid(a), alpha, 1.0, 2)
        kelley = events[:next(k for k, e in enumerate(events) if e[0] == "lp" and e[2] is None)]
        bounds = [e[2] for e in kelley[::2]]
        added = [e[1] for e in kelley[1::2]][:-1]  # the last oracle call adds no cut
        seeds = design_module._seed_directions(3)
        assert [e[1] for e in kelley[::2]] == [len(seeds) + k for k in range(len(bounds))]
        assert all(t1 <= t0 * (1.0 + 1e-12) for t0, t1 in zip(bounds, bounds[1:]))
        cuts = np.array(seeds + added)
        overlap = np.abs(cuts @ cuts.T) - np.eye(len(cuts))
        assert overlap.max() <= 1.0 - 1e-12
        assert sol.cuts_used == len(seeds) + len(added)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            design_info(TWO_POINT, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="degree"):
            optimize_design_cutting_plane(default_grid(1.0, 11), 1.0, 1.0, 0)
        # the design layer covers linear and quadratic regression only
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            design_info(TWO_POINT, 1.0, 1.0, 3)
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            optimize_design_cutting_plane(default_grid(1.0, 11), 1.0, 1.0, 3)
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            direction_free_info_psi(TWO_POINT, np.eye(4), 1.0, 1.0, 3)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="0"):
            optimize_design_cutting_plane(np.array([-1.0, -0.5, 0.5, 1.0]), 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="endpoint"):
            optimize_design_cutting_plane(np.array([-1.0, 0.0, 0.5]), 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="201"):
            optimize_design_cutting_plane(np.linspace(-1, 1, 251), 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="symmetric"):
            optimize_design_cutting_plane(np.array([-1.0, -0.4, 0.0, 0.5, 1.0]), 1.0, 1.0, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            optimize_design_cutting_plane(default_grid(1.0), 2.4, 1.0, 1)
        for j_tilde in (-1.0, math.nan):
            with pytest.raises(ValueError, match="j_tilde must be positive"):
                optimize_design_cutting_plane(default_grid(1.0), 1.0, j_tilde, 1)


@functools.lru_cache(maxsize=None)
def _solve(degree: int, a: float, alpha: float):
    return optimize_design_cutting_plane(default_grid(a), alpha, 1.0, degree)


def random_grid_design(rng: np.random.Generator, grid: np.ndarray) -> Design:
    """Random balanced, generally asymmetric design supported on grid points."""
    xs = rng.choice(grid, size=int(rng.integers(2, 6)), replace=False)
    ws = rng.dirichlet(np.ones(xs.size))
    m = float(xs @ ws)
    if m == 0.0:
        return Design(list(zip(xs, ws)), float(grid[-1]))
    # mix in a grid point on the other side of 0 that brings the mean to 0
    x_b = float(rng.choice(grid[grid * m < 0.0]))
    lam = m / (m - x_b)
    pts = [(x, (1.0 - lam) * w) for x, w in zip(xs, ws)] + [(x_b, lam)]
    return Design(design_module._merge_points(pts), float(grid[-1]))


class TestSymmetricFormulation:
    CASES = [(1, 1.0, 1.4), (2, 1.0, 1.0), (2, 2.0, 1.0), (2, 1.0, 2.0), (2, 2.0, 0.5)]

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_designs_are_symmetric_and_ascending(self, degree, a, alpha):
        sol = _solve(degree, a, alpha)
        xs = sol.design.xs
        assert np.all(np.diff(xs) > 0.0)
        np.testing.assert_array_equal(xs, -xs[::-1])
        np.testing.assert_array_equal(sol.design.ws, sol.design.ws[::-1])
        assert sol.stop is StopReason.CONVERGED

    @pytest.mark.parametrize("a", [1.5, 2.0])
    def test_alpha05_quadratic_converges(self, a):
        # both inputs once stopped the general-weight formulation (all grid
        # weights plus a balance row) with an LP failure: an unbounded master
        # at A = 1.5 and a negative basic variable at A = 2
        sol = _solve(2, a, 0.5)
        assert sol.stop is StopReason.CONVERGED
        assert sol.gap <= 1e-5 * (sol.info + sol.gap)
        recomputed = design_info(sol.design, 0.5, 1.0, 2)
        assert recomputed.method is InfoMethod.KINK_ENUMERATION
        assert recomputed.J == pytest.approx(sol.info, rel=1e-12)
        (_, _, f_three) = pi_curve(a, [0.5])[0]
        assert sol.info >= f_three

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_symmetric_optimum_bounds_asymmetric_designs(self, alpha):
        # complete class: no balanced design on the grid beats the symmetric
        # optimum's upper bound; the oracle is exact at these alpha
        a = 2.0
        grid = default_grid(a)
        sol = _solve(2, a, alpha)
        rng = np.random.default_rng(int(alpha * 10) + 500)
        n_asym = 0
        for _ in range(25):
            d = random_grid_design(rng, grid)
            n_asym += not np.allclose(np.sort(d.xs), -np.sort(d.xs)[::-1])
            assert design_info(d, alpha, 1.0, 2).J <= sol.info + sol.gap
        assert n_asym >= 20

    @pytest.mark.parametrize("a,general_info", [(1.0, 0.3760762690), (2.0, 0.7079246266)])
    def test_alpha1_quadratic_info_not_below_general_weights(self, a, general_info):
        # values the general-weight formulation reached on the same grids
        assert _solve(2, a, 1.0).info >= general_info * (1.0 - 1e-9)

    def test_scale_enters_only_the_report(self):
        grid = default_grid(1.0, 21)
        sol1 = optimize_design_cutting_plane(grid, 1.3, 1.0, 2)
        sol2 = optimize_design_cutting_plane(grid, 1.3, 3.7, 2)
        assert sol1.design == sol2.design
        assert sol1.worst_direction == sol2.worst_direction
        assert sol2.info == 3.7 * sol1.info
        assert sol2.gap == 3.7 * sol1.gap


class TestPiCurve:
    def test_endpoint_a1_alpha1(self):
        (_, pi, f) = pi_curve(1.0, [1.0])[0]
        assert pi == pytest.approx(0.5, abs=2e-4)
        assert f == pytest.approx(2.0 ** -1.5, abs=1e-5)

    def test_endpoint_a2_alpha1(self):
        # The optimal central weight at (A=2, alpha=1); see the solver tests
        # for the grid cross-check of the same inner objective.
        (_, pi, f) = pi_curve(2.0, [1.0])[0]
        assert pi == pytest.approx(0.64837, abs=2e-4)
        assert f == pytest.approx(0.6290102, abs=1e-4)

    def test_endpoint_a15_alpha11(self):
        # certified sphere minima put the optimum at 0.601620; the grid plus
        # Nelder-Mead oracle stopped above the minimum near it and gave 0.601307
        (_, pi, _) = pi_curve(1.5, [1.1])[0]
        assert pi == pytest.approx(0.601620, abs=2e-5)

    def test_alpha2_endpoints_match_e_optimal_weights(self):
        rows = pi_curve(1.0, [2.0]) + pi_curve(1.5, [2.0]) + pi_curve(2.0, [2.0])
        pis = [r[1] for r in rows]
        fs = [r[2] for r in rows]
        assert pis[0] == pytest.approx(0.6, abs=2e-4)
        assert pis[1] == pytest.approx(61.0 / 81.0, abs=2e-4)
        assert pis[2] == pytest.approx(0.8125, abs=2e-4)
        assert fs[0] == pytest.approx(0.2, abs=1e-5)
        assert fs[1] == pytest.approx(5.0 / 9.0, abs=1e-5)
        assert fs[2] == pytest.approx(0.75, abs=1e-5)

    def test_monotone_in_alpha(self):
        rows = pi_curve(1.5, [1.0, 1.25, 1.5, 1.75, 2.0])
        pis = [r[1] for r in rows]
        assert all(b >= a - 1e-6 for a, b in zip(pis, pis[1:]))

    def test_monotone_in_a(self):
        pis = [pi_curve(a, [1.25])[0][1] for a in (1.0, 1.5, 2.0)]
        assert all(b >= a - 1e-6 for a, b in zip(pis, pis[1:]))

    def test_row_shape_and_alpha_passthrough(self):
        rows = pi_curve(1.0, [1.2, 1.8])
        assert [r[0] for r in rows] == [1.2, 1.8]
        assert all(len(r) == 3 for r in rows)

    def test_domain_validation(self):
        for a in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="A must be positive"):
                pi_curve(a, [1.5])
        with pytest.raises(ValueError, match="alpha"):
            pi_curve(1.0, [2.5])


class TestEOptimal:
    def test_quadratic_a1(self):
        sol = e_optimal_design(1.0, 2)
        pts = dict(sol.design.points)
        assert set(pts) == {-1.0, 0.0, 1.0}
        assert pts[0.0] == pytest.approx(0.6, abs=5e-3)
        assert pts[1.0] == pytest.approx(0.2, abs=5e-3)
        assert sol.info == pytest.approx(0.2, abs=1e-5)

    def test_quadratic_a2(self):
        sol = e_optimal_design(2.0, 2)
        pts = dict(sol.design.points)
        assert pts[0.0] == pytest.approx(0.8125, abs=1e-3)
        assert sol.info == pytest.approx(0.75, abs=1e-5)

    def test_linear_a1(self):
        sol = e_optimal_design(1.0, 1)
        pts = dict(sol.design.points)
        assert set(pts) == {-1.0, 1.0}
        assert pts[1.0] == pytest.approx(0.5, abs=1e-6)
        assert sol.info == pytest.approx(1.0, rel=1e-9)

    def test_info_is_lambda_min(self):
        sol = e_optimal_design(1.5, 2)
        f = regressor_matrix(sol.design.xs, 2)
        lam = np.linalg.eigvalsh((f * sol.design.ws[:, None]).T @ f)[0]
        assert sol.info == pytest.approx(lam, rel=1e-6)

    def test_degree_validation(self):
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            e_optimal_design(1.0, 3)


class TestUniformDesign:
    def test_five_point(self):
        d = uniform_design(2.0, 5)
        np.testing.assert_allclose(d.xs, [-2.0, -1.0, 0.0, 1.0, 2.0])
        np.testing.assert_allclose(d.ws, 0.2)

    def test_even_count_is_balanced(self):
        d = uniform_design(1.0, 10)
        assert abs(float(d.xs @ d.ws)) < 1e-12
        assert not np.any(d.xs == 0.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            uniform_design(1.0, 1)

