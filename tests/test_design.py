import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonregdesign.design as design_module
import nonregdesign.lp as lp_module
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
from nonregdesign.lp import Domain, LinearProgram, LpStatus, Sense
from lp_oracle import oracle_solve
from sphere_oracle import cap_samples, dense_oracle, grid_oracle, kink_oracle

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
        # a gap_tol of 1 or more once stopped at the first incumbent as converged
        for gap_tol in (0.0, math.nan, 1.0, 5.0, math.inf):
            with pytest.raises(ValueError, match="gap_tol must be positive and below 1"):
                CuttingPlaneConfig(gap_tol=gap_tol)
        with pytest.raises(ValueError, match="max_cuts must be at least 4"):
            CuttingPlaneConfig(max_cuts=3)
        for max_cuts in (30.5, 30.0, True, np.bool_(True), "30", None):
            with pytest.raises(ValueError, match="max_cuts must be an integer"):
                CuttingPlaneConfig(max_cuts=max_cuts)
        assert CuttingPlaneConfig(gap_tol=0.5, max_cuts=np.int64(30)).max_cuts == 30


class TestDirectional:
    def test_two_point_axis_direction(self):
        val = design_info_directional(TWO_POINT, np.array([1.0, 0.0]), 1.0, 1.0, 1)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_two_point_diagonal_direction(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        val = design_info_directional(TWO_POINT, u, 1.0, 1.0, 1)
        assert val == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14, abs=0)

    def test_j_tilde_scales_linearly(self):
        u = np.array([0.6, 0.8])
        v1 = design_info_directional(TWO_POINT, u, 1.5, 1.0, 1)
        v2 = design_info_directional(TWO_POINT, u, 1.5, 3.25, 1)
        assert v2 == pytest.approx(3.25 * v1, rel=1e-14, abs=0)

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
        assert res.J == pytest.approx(a / math.sqrt(1.0 + a * a), rel=1e-10, abs=0)

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
        assert attained == pytest.approx(res.J, rel=1e-12, abs=0)


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
            assert res.J == pytest.approx(kink_oracle(f, d.ws, alpha), rel=1e-12, abs=0)
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
            assert res.J == pytest.approx(lam, rel=1e-12, abs=0)

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
        assert f_val == pytest.approx(value, rel=1e-12, abs=0)
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


def _record_caps(monkeypatch) -> list:
    """Route ``_certified_cap`` through a recorder of (f, ws, alpha, u, value, angle)."""
    caps = []
    certify = design_module._certified_cap

    def recorded(f, ws, alpha, u, value):
        angle = certify(f, ws, alpha, u, value)
        caps.append((f, ws, alpha, u, value, angle))
        return angle

    monkeypatch.setattr(design_module, "_certified_cap", recorded)
    return caps


CAP_RADII = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


def _probe_caps(f, ws, alpha, rng, starts=24) -> list:
    """Polish from random starts and try a cap at each polished point, so that
    caps around every local minimum are tried, not only around incumbents.
    Returns the polished points, which probe the caps of the others."""
    probes = []
    for _ in range(starts):
        u = rng.normal(size=f.shape[1])
        u /= np.linalg.norm(u)
        u, value = design_module._polish(f, ws, alpha, u, float(np.abs(f @ u) ** alpha @ ws))
        design_module._certified_cap(f, ws, alpha, u, value)
        probes.append(u)
    return probes


def _assert_caps_hold(caps, probes=()) -> int:
    """Every certified cap keeps g >= value (1 - 5e-11), its claim, up to
    rounding, on its dense samples and at each probe direction inside it
    (a claim that implies the 1e-10 certificate); returns how many caps
    were certified."""
    certified = 0
    for f, ws, alpha, u, value, angle in caps:
        if angle == 0.0:
            continue
        certified += 1
        # the angle is atan of a tangent radius the certificate tried
        assert any(math.isclose(math.tan(angle), r, rel_tol=1e-12) for r in CAP_RADII)
        pts = cap_samples(u, angle)
        inside = [
            v for v in probes
            if 2.0 * math.asin(min(1.0, 0.5 * min(
                np.linalg.norm(v - u), np.linalg.norm(v + u)))) <= angle
        ]
        if inside:
            pts = np.vstack([pts, inside])
        g = np.abs(pts @ f.T) ** alpha @ ws
        assert g.min() >= value * (1.0 - 5e-11 - 1e-14), (angle, value, g.min())
    return certified


# three-point cases (A, alpha, pi): those of the dense-oracle test below, an
# interior minimum with a wide cap, and the pi_curve optimum at (2, 1.5)
CAP_CASES = [
    (1.5, 1.2, 0.625286), (2.0, 1.05, 0.7), (1.5, 1.1, 0.60162), (1.0, 1.5, 0.6),
    (2.0, 1.5, 0.7), (2.0, 1.5, 0.7476539611816406),
]


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
            assert res.J == pytest.approx(oracle, rel=1e-9, abs=0)
            u = np.asarray(res.direction)
            attained = design_info_directional(d, u, alpha, 1.0, degree)
            assert attained == pytest.approx(res.J, rel=1e-14, abs=0)

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
        assert value == pytest.approx(oracle, rel=1e-9, abs=0)

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
            centres, radii = design_module._cell_caps(cell.T[..., None])
            _, lower = design_module._cell_bounds(f, f_norm, ws, alpha, centres, radii)
            dense = np.abs(_cell_samples(cell) @ f.T) ** alpha @ ws
            assert lower[0] <= dense.min() * (1.0 + 1e-13) + 1e-15
            k = _kink_count(f, centres[0], radii[0])
            seen[min(k, 2)] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9])
    def test_certified_caps_hold_on_dense_samples(self, monkeypatch, degree, alpha):
        # the caps the search certifies around its incumbents, caps tried at
        # every local minimum, and caps tried a small step off the minimizer,
        # where a wrong certificate would claim a value the minimizer undercuts
        rng = np.random.default_rng(900 + 10 * degree + int(100 * alpha))
        caps = _record_caps(monkeypatch)
        certified = 0
        for k in range(6):
            d = random_balanced_design(rng, a=1.5)
            d = symmetrize(d) if k % 2 else d
            f, ws = regressor_matrix(d.xs, degree), d.ws
            u = np.asarray(design_info(d, alpha, 1.0, degree).direction)
            probes = [u] + _probe_caps(f, ws, alpha, rng)
            t = np.linalg.svd(u[None])[2][1:]
            for step in (1e-8, 1e-6, 1e-4, 1e-2):
                v = math.cos(step) * u + math.sin(step) * (rng.normal(size=len(t)) @ t)
                v /= np.linalg.norm(v)
                design_module._certified_cap(f, ws, alpha, v, float(np.abs(f @ v) ** alpha @ ws))
            certified += _assert_caps_hold(caps, probes)
            caps.clear()
        assert certified >= 1

    @pytest.mark.parametrize("a,alpha,pi", CAP_CASES)
    def test_three_point_caps_hold_on_dense_samples(self, monkeypatch, a, alpha, pi):
        caps = _record_caps(monkeypatch)
        f, ws = _three_point(a, pi)
        ties, _, _, _ = design_module._sphere_min(f, ws, alpha, 1.0)
        assert caps
        probes = [ties[0]] + _probe_caps(f, ws, alpha, np.random.default_rng(int(1e6 * pi)))
        _assert_caps_hold(caps, probes)

    def test_pitchfork_gets_no_cap(self, monkeypatch):
        # at the flat minimum of (A, alpha) = (1, 1.5) near pi* = 0.6000023 the
        # curvature bound mu is not positive, so the search runs without a cap
        caps = _record_caps(monkeypatch)
        _three_point_inner(1.0, 1.5)(0.6000023)
        assert caps and all(angle == 0.0 for *_, angle in caps)

    def test_interior_minimum_gets_a_wide_cap(self, monkeypatch):
        caps = _record_caps(monkeypatch)
        _three_point_inner(2.0, 1.5)(0.7)
        assert max(angle for *_, angle in caps) >= 0.05

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
        ties, value, method, _ = design_module._sphere_min(f, ws, alpha, 1.0)
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
        assert sol.info == pytest.approx(dense_oracle(f, sol.design.ws, 1.2), rel=1e-9, abs=0)
        assert sol.gap <= CuttingPlaneConfig().gap_tol * (sol.info + sol.gap)


def _ref_unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _ref_split_cells(cells):
    """The split as a stack of rows: cells[n] holds the vertices of cell n."""
    if cells.shape[1] == 2:
        v0, v1 = cells[:, 0], cells[:, 1]
        m = _ref_unit_rows(v0 + v1)
        return np.concatenate([np.stack([v0, m], 1), np.stack([m, v1], 1)])
    v0, v1, v2 = cells[:, 0], cells[:, 1], cells[:, 2]
    m01, m12, m02 = _ref_unit_rows(v0 + v1), _ref_unit_rows(v1 + v2), _ref_unit_rows(v0 + v2)
    return np.concatenate([
        np.stack([v0, m01, m02], 1),
        np.stack([v1, m12, m01], 1),
        np.stack([v2, m02, m12], 1),
        np.stack([m01, m12, m02], 1),
    ])


def _ref_cell_caps(cells):
    centres = _ref_unit_rows(cells.sum(axis=1))
    chords = np.linalg.norm(cells - centres[:, None, :], axis=2).max(axis=1)
    return centres, 2.0 * np.arcsin(np.minimum(0.5 * chords, 1.0))


def _ref_min_linear_over_cap(b, c, r, cos_r, sin_r):
    bc = np.einsum("ij,ij->i", b, c)
    bt = np.linalg.norm(b - bc[:, None] * c, axis=1)
    inside = np.arctan2(bt, bc) + r < math.pi
    return np.where(inside, bc * cos_r - bt * sin_r, -np.hypot(bc, bt))


def _ref_inside_cap(centres, radii, u, angle):
    chord = np.minimum(np.linalg.norm(centres - u, axis=1), np.linalg.norm(centres + u, axis=1))
    return 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0)) + radii <= angle


def _ref_initial_cells(d, mirror):
    if d == 2:
        t = np.arange(33 if mirror else 65) * (math.pi / 64)
        v = np.stack([np.cos(t), np.sin(t)], axis=1)
        return np.stack([v[:-1], v[1:]], axis=1)
    e1, e2, e3 = np.eye(3)
    cells = np.array([[e1, e2, e3], [e2, -e1, e3], [-e1, -e2, e3], [-e2, e1, e3]])
    cells = cells[:2] if mirror else cells
    for _ in range(3):
        cells = _ref_split_cells(cells)
    return cells


def _as_rows(cells):
    """Component-first cells (component, vertex, cell) as rows of vertices."""
    return cells.transpose(2, 1, 0)


def _random_cells(rng, d, n):
    """n random arcs (d = 2) or spherical triangles (d = 3), component first."""
    v = rng.normal(size=(d, d, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(1, 1, n))
    return v / np.linalg.norm(v, axis=0)


class TestBranchAndBoundKernels:
    """The level loop's array kernels give the same bits as the row-by-row
    formulas, with np.linalg.norm and np.stack, that they replaced."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_split_and_caps_match_row_formulas(self, d):
        rng = np.random.default_rng(40 + d)
        cells = _random_cells(rng, d, 300)
        children = design_module._split_cells(cells)
        assert np.array_equal(_as_rows(children), _ref_split_cells(_as_rows(cells)))
        centres, radii = design_module._cell_caps(cells)
        ref_centres, ref_radii = _ref_cell_caps(_as_rows(cells))
        assert np.array_equal(centres, ref_centres) and np.array_equal(radii, ref_radii)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_deep_splits_match_row_formulas(self, d, mirror):
        # 36 levels below the start cells the chords are near 1e-12, where
        # the arcsin of the chord, not arccos, keeps the radius
        rng = np.random.default_rng(50 + 2 * d + mirror)
        cells = design_module._initial_cells(d, mirror)
        assert np.array_equal(_as_rows(cells), _ref_initial_cells(d, mirror))
        for _ in range(36):
            children = design_module._split_cells(cells)
            assert np.array_equal(_as_rows(children), _ref_split_cells(_as_rows(cells)))
            centres, radii = design_module._cell_caps(children)
            ref_centres, ref_radii = _ref_cell_caps(_as_rows(children))
            assert np.array_equal(centres, ref_centres) and np.array_equal(radii, ref_radii)
            cells = children[:, :, rng.choice(children.shape[2], size=8, replace=False)]
        assert 1e-14 < radii.max() < 1e-11

    @pytest.mark.parametrize("d", [2, 3])
    def test_unit_and_cap_tests_match_row_formulas(self, d):
        rng = np.random.default_rng(60 + d)
        v = rng.normal(size=(500, d)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(500, 1))
        assert np.array_equal(design_module._unit(v.T).T, _ref_unit_rows(v))
        c = _ref_unit_rows(rng.normal(size=(500, d)))
        r = rng.uniform(0.0, math.pi, size=500)
        args = (v, c, r, np.cos(r), np.sin(r))
        lin = design_module._min_linear_over_cap(*args)
        assert np.array_equal(lin, _ref_min_linear_over_cap(*args))
        # both branches ran: caps that reach -b / |b| and caps that do not
        wide = np.arctan2(np.linalg.norm(v - np.einsum("ij,ij->i", v, c)[:, None] * c, axis=1),
                          np.einsum("ij,ij->i", v, c)) + r >= math.pi
        assert 50 < wide.sum() < 450
        centres = _ref_unit_rows(rng.normal(size=(500, d)))
        radii = 10.0 ** rng.uniform(-12.0, -0.5, size=500)
        for _ in range(5):
            u = _ref_unit_rows(rng.normal(size=d))
            angle = rng.uniform(0.2, 1.5)
            inside = design_module._inside_cap(centres, radii, u, angle)
            assert np.array_equal(inside, _ref_inside_cap(centres, radii, u, angle))
            assert 0 < inside.sum() < 500

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_start_cells_are_shared_and_read_only(self, d, mirror):
        cells = design_module._initial_cells(d, mirror)
        assert cells is design_module._initial_cells(d, mirror)
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0, 0, 0] = 0.0
        before = cells.copy()
        f = regressor_matrix(np.array([-1.3, -0.4, 0.4, 1.3]), d - 1)
        ws = np.array([0.3, 0.2, 0.2, 0.3]) if mirror else np.array([0.4, 0.1, 0.2, 0.3])
        assert design_module._is_mirror_symmetric(f, ws) is mirror
        design_module._branch_and_bound(f, ws, 1.4, mirror)
        assert np.array_equal(cells, before)


def _mirrored(u):
    """The image of u under x -> -x, which negates entry 1, signed so that
    its first nonzero entry is positive."""
    v = np.array(u, dtype=float)
    v[1] = -v[1]
    return -v if v[np.flatnonzero(v)[0]] < 0.0 else v


class TestMirrorHalf:
    """Symmetric designs search half the sphere; the answers must not move."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [1.2, 1.7])
    def test_symmetric_designs_agree_with_oracle_and_full_hemisphere(self, degree, alpha):
        rng = np.random.default_rng(950 + 10 * degree + int(10 * alpha))
        cases = [symmetrize(random_balanced_design(rng, a=1.5)) for _ in range(2)]
        # minima at the far end of the half; in the last, at degree 1 and
        # alpha = 1.2, a local minimum in the near quarter is 10% higher
        cases += [
            Design([(-0.5, 0.5), (0.5, 0.5)], 1.5),
            Design([(-1.4, 0.3), (0.0, 0.4), (1.4, 0.3)], 1.5),
            Design([(-1.5, 0.2), (-0.3, 0.3), (0.3, 0.3), (1.5, 0.2)], 1.5),
        ]
        for d in cases:
            f, ws = regressor_matrix(d.xs, degree), d.ws
            assert design_module._is_mirror_symmetric(f, ws)
            res = design_info(d, alpha, 1.0, degree)
            oracle = dense_oracle(f, ws, alpha)
            assert res.J <= oracle * (1.0 + 1e-10)
            assert res.J == pytest.approx(oracle, rel=1e-9, abs=0)
            # one weight 1 ulp up breaks the exact symmetry: full hemisphere
            nudged = ws.copy()
            nudged[0] = np.nextafter(nudged[0], 1.0)
            assert not design_module._is_mirror_symmetric(f, nudged)
            full = design_module._sphere_min(f, nudged, alpha, 1.0)[1]
            assert res.J == pytest.approx(full, rel=1e-10, abs=0)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_half_kink_enumeration_matches_the_full_one(self, monkeypatch, degree, alpha):
        rng = np.random.default_rng(970 + 10 * degree + int(10 * alpha))
        cases = [symmetrize(random_balanced_design(rng, a=2.0)) for _ in range(6)]
        cases.append(Design([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)], 1.0))  # exact ties
        half = []
        for d in cases:
            f = regressor_matrix(d.xs, degree)
            assert design_module._is_mirror_symmetric(f, d.ws)
            half.append(design_module._sphere_min(f, d.ws, alpha, 1.0))
        monkeypatch.setattr(design_module, "_is_mirror_symmetric", lambda f, ws: False)
        for d, (ties, value, method, _) in zip(cases, half):
            f = regressor_matrix(d.xs, degree)
            _, full, full_method, _ = design_module._sphere_min(f, d.ws, alpha, 1.0)
            assert method is full_method is InfoMethod.KINK_ENUMERATION
            assert abs(value - full) <= np.spacing(full)
            # the kept ray of a mirror pair is the lexicographically smaller one
            assert tuple(ties[0]) <= tuple(_mirrored(ties[0]))

    def test_mirror_test_is_exact_and_ignores_zero_weights(self):
        f = regressor_matrix(np.array([-1.0, 0.0, 0.5, 1.0]), 2)
        assert design_module._is_mirror_symmetric(f, np.array([0.25, 0.5, 0.0, 0.25]))
        assert not design_module._is_mirror_symmetric(f, np.array([0.25, 0.25, 0.25, 0.25]))
        assert not design_module._is_mirror_symmetric(
            f, np.array([0.25, 0.5, 0.0, np.nextafter(0.25, 1.0)])
        )


class TestDirectionFreePsi:
    def test_identity_reduces_to_design_info(self):
        rng = np.random.default_rng(11)
        for degree in (1, 2):
            d = random_balanced_design(rng, a=1.0, k=degree + 3)
            base = design_info(d, 1.5, 1.3, degree).J
            via_psi = direction_free_info_psi(d, np.eye(degree + 1), 1.5, 1.3, degree)
            assert via_psi == pytest.approx(base, rel=1e-9, abs=0)

    @pytest.mark.parametrize("shape,degree", [((1, 2), 1), ((2, 3), 2)])
    def test_wide_dpsi_rejected(self, shape, degree):
        d_psi = np.eye(*shape)
        with pytest.raises(ValueError, match="d_psi must be square"):
            direction_free_info_psi(THREE_POINT_06, d_psi, 1.0, 1.0, degree)

    def test_alpha2_identity_matches_lambda_min(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            d = random_balanced_design(rng, a=1.2)
            via_psi = direction_free_info_psi(d, np.eye(3), 2.0, 2.1, 2)
            f = regressor_matrix(d.xs, 2)
            lam = np.linalg.eigvalsh((f * d.ws[:, None]).T @ f)[0]
            assert via_psi == pytest.approx(2.1 * lam, rel=1e-8, abs=0)

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
            assert via_psi == pytest.approx(ref, rel=1e-9, abs=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_random_square_dpsi_agrees_with_dense_oracle(self, degree, alpha):
        # the dense oracle on the mapped rows F D_psi^-1, and the ratio
        # J(u) / |D_psi u|^alpha itself, never below the value, in random directions
        rng = np.random.default_rng(820 + 10 * degree + int(10 * alpha))
        for _ in range(2):
            d = random_balanced_design(rng, a=1.5)
            d_psi = rng.normal(size=(degree + 1, degree + 1))
            f = regressor_matrix(d.xs, degree)
            value = direction_free_info_psi(d, d_psi, alpha, 1.0, degree)
            oracle = dense_oracle(f @ np.linalg.inv(d_psi), d.ws, alpha, starts=4)
            assert value <= oracle * (1.0 + 1e-10)
            assert value == pytest.approx(oracle, rel=1e-8, abs=0)
            us = rng.normal(size=(2000, degree + 1))
            ratios = np.abs(us @ f.T) ** alpha @ d.ws / np.linalg.norm(us @ d_psi.T, axis=1) ** alpha
            assert float(np.min(ratios)) >= value * (1.0 - 1e-10)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_scaled_dpsi_scales_the_value(self, alpha):
        # J(u) / |c D u|^alpha = c^-alpha J(u) / |D u|^alpha, however small
        # the mapped rows' moment matrix gets
        base = direction_free_info_psi(THREE_POINT_06, np.eye(3), alpha, 1.0, 2)
        for c in (1e-6, 1e7):
            scaled = direction_free_info_psi(THREE_POINT_06, c * np.eye(3), alpha, 1.0, 2)
            assert scaled * c**alpha == pytest.approx(base, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_degenerate_design_answers_zero(self, alpha):
        # two points cannot identify a quadratic: exactly 0, as design_info;
        # lambda_min of the mapped rows alone is +-1e-17 at alpha = 2
        skew = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 2.0]])
        for d_psi in (np.eye(3), np.diag([1.0, 2.0, 3.0]), skew):
            assert direction_free_info_psi(TWO_POINT, d_psi, alpha, 1.0, 2) == 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            direction_free_info_psi(TWO_POINT, np.zeros((2, 2)), 1.0, 1.0, 1)

    def test_wrong_columns_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            direction_free_info_psi(TWO_POINT, np.eye(3), 1.0, 1.0, 1)

    @pytest.mark.parametrize("alpha,j_tilde", [(3.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                               (1.5, -1.0), (1.5, math.nan)])
    def test_criterion_domain(self, alpha, j_tilde):
        # alpha = 3 once ran a branch-and-bound whose cell bound needs alpha <= 2
        match = "alpha must lie" if j_tilde == 1.0 else "j_tilde must be positive"
        with pytest.raises(ValueError, match=match):
            direction_free_info_psi(TWO_POINT, np.eye(2), alpha, j_tilde, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_dpsi_named(self, bad):
        # NaN once failed inside the SVD ("did not converge") and inf as "must
        # have full row rank"
        for d_psi in (np.array([[bad, 1.0]]), np.array([[bad, 1.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="d_psi must be finite"):
                direction_free_info_psi(TWO_POINT, d_psi, 1.0, 1.0, 1)


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
        assert sol.info == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9, abs=0)
        sol = optimize_design_cutting_plane(default_grid(1.0), 1.4, 1.0, 1)
        assert sol.info == pytest.approx(2.0 ** (1.4 / 2.0 - 1.0), rel=1e-9, abs=0)

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
        assert recomputed.J == pytest.approx(sol.info, rel=1e-9, abs=0)

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
        assert sol2.info == pytest.approx(3.7 * sol1.info, rel=1e-9, abs=0)

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

    @pytest.mark.parametrize("a,alpha", [(2.0, 1.0), (2.0, 0.5), (1.5, 1.5)])
    def test_every_cut_is_kept(self, monkeypatch, a, alpha):
        # The Kelley loop alternates master LP and oracle call until the
        # spread LP; the master is one live tableau, grown one block of cut
        # rows per oracle call: every offered direction below the master
        # bound at alpha <= 1, the one reported direction otherwise
        sol, _, masters, blocks, values = _record_kelley(monkeypatch, 2, a, alpha, 101)
        bounds = [m.objective for _, m in masters]
        seeds = design_module._seed_directions(3)
        sizes = np.cumsum([len(seeds)] + [len(block) for block in blocks])
        assert [len(lp.b) - 1 for lp, _ in masters] == sizes.tolist()
        cap = design_module._BLOCK_CUTS if alpha <= 1.0 else 1
        assert all(1 <= len(block) <= cap for block in blocks)
        if alpha <= 1.0:
            assert max(len(block) for block in blocks) > 1
        assert all(t1 <= t0 * (1.0 + 1e-12) for t0, t1 in zip(bounds, bounds[1:]))
        # no direction, nor its mirror (the same row), is cut twice
        added = np.vstack(blocks)
        cuts = np.vstack([seeds, added])
        mirrored = cuts * np.array([1.0, -1.0, 1.0])
        overlap = np.maximum(np.abs(added @ cuts.T), np.abs(added @ mirrored.T))
        overlap[np.arange(len(added)), len(seeds) + np.arange(len(added))] = 0.0
        assert overlap.max() <= 1.0 - 1e-12
        assert sol.cuts_used == len(cuts)
        assert sol.info >= (1.0 - 2e-12) * max(values)

    @pytest.mark.parametrize("a,alpha", [(3.0, 1.2), (2.0, 1.0), (1.0, 2.0)])
    def test_finish_keeps_the_verified_best(self, monkeypatch, a, alpha):
        # The finish starts at the spread LP, the first call to solve_lp
        # (the live master never calls it).  It may not report less than the
        # loop verified, and costs at most two oracle calls.
        events = []
        solve_lp = design_module.solve_lp
        search = design_module._sphere_min

        def record_lp(lp):
            events.append(("lp", True))
            return solve_lp(lp)

        def record_info(*args):
            out = search(*args)
            events.append(("info", out[1]))
            return out

        monkeypatch.setattr(design_module, "solve_lp", record_lp)
        monkeypatch.setattr(design_module, "_sphere_min", record_info)
        sol = optimize_design_cutting_plane(default_grid(a), alpha, 1.0, 2)
        split = events.index(("lp", True))
        loop_best = max(e[1] for e in events[:split] if e[0] == "info")
        assert sol.info >= (1.0 - 2e-12) * loop_best
        assert sum(e[0] == "info" for e in events[split:]) <= 2

    def test_master_pivots_stay_few(self, monkeypatch):
        # kernel pivots of the live master over the Kelley loop at (2, 2, 1);
        # re-solving each master from the slack basis took 2,410; 269 now
        pivots = []
        loop_pivots = []
        pivot = lp_module._pivot
        solve_lp = design_module.solve_lp

        def counted(*args):
            pivots.append(1)
            return pivot(*args)

        def spread(lp):
            if Sense.GE in lp.senses:  # the spread LP's target row
                loop_pivots.append(len(pivots))
            return solve_lp(lp)

        monkeypatch.setattr(lp_module, "_pivot", counted)
        monkeypatch.setattr(design_module, "solve_lp", spread)
        optimize_design_cutting_plane(default_grid(2.0), 1.0, 1.0, 2)
        assert loop_pivots[0] <= 600

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
        # the cap must cover the 2 (degree + 1) seed cuts
        for max_cuts in (4, 5):
            cfg = CuttingPlaneConfig(max_cuts=max_cuts)
            with pytest.raises(ValueError, match="max_cuts must be at least 6"):
                optimize_design_cutting_plane(default_grid(1.0, 11), 1.0, 1.0, 2, cfg)
        cfg = CuttingPlaneConfig(max_cuts=4)
        sol = optimize_design_cutting_plane(default_grid(1.0, 11), 1.0, 1.0, 1, cfg)
        assert sol.cuts_used <= 4


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
    # the last three are inputs where a tie-break loop once added its own cuts
    CASES = [(1, 1.0, 1.4), (2, 1.0, 1.0), (2, 2.0, 1.0), (2, 1.0, 2.0), (2, 2.0, 0.5),
             (2, 3.0, 1.2), (2, 2.0, 1.4), (2, 1.5, 1.5)]

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_designs_are_symmetric_and_ascending(self, degree, a, alpha):
        sol = _solve(degree, a, alpha)
        xs = sol.design.xs
        assert np.all(np.diff(xs) > 0.0)
        np.testing.assert_array_equal(xs, -xs[::-1])
        np.testing.assert_array_equal(sol.design.ws, sol.design.ws[::-1])
        assert sol.stop is StopReason.CONVERGED
        assert sol.gap <= 1e-5 * (sol.info + sol.gap)
        recomputed = design_info(sol.design, alpha, 1.0, degree).J
        assert recomputed == pytest.approx(sol.info, rel=1e-12, abs=0)

    # info and stop at grid 101; supports are not pinned, since they still
    # depend on the master LP's vertex path
    PINNED = {
        (2, 2.0, 1.0): 0.7079246302670361,
        (2, 1.5, 1.5): 0.5900809822413203,
        (2, 2.0, 1.4): 0.7223785579589443,
        (2, 1.0, 2.0): 0.19999985151550617,
        (2, 2.0, 0.5): 0.7638656413319247,
        (1, 2.0, 1.4): 1.0,
    }

    @pytest.mark.parametrize("degree,a,alpha", sorted(PINNED))
    def test_pinned_solutions(self, degree, a, alpha):
        sol = _solve(degree, a, alpha)
        assert sol.info == pytest.approx(self.PINNED[degree, a, alpha], rel=1e-10, abs=0)
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
        assert recomputed.J == pytest.approx(sol.info, rel=1e-12, abs=0)
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


def _record_kelley(monkeypatch, degree, a, alpha, size):
    """Solve on ``default_grid(a, size)``.

    Returns the solution, the live master, each master program with its
    solution, the block of directions cut after each oracle call, and the
    value of each oracle call of the loop.  A block is read off the rows the
    master grew by: each row is, bit for bit, the cut of one direction the
    oracle call before it offered (every kink ray at alpha <= 1, else the
    reported direction), and that direction is the one whose cut row it is.
    """
    live, masters, calls, rows = [], [], [], []
    search = design_module._sphere_min
    solve_lp = design_module.solve_lp

    class RecordingMaster(design_module.Tableau):
        def __init__(self, lp):
            super().__init__(lp)
            live.append(self)

        def solve(self, *args):
            return self._record(super().solve(*args))

        def add_row(self, a, b):
            rows.append(-np.atleast_2d(a)[:, :-1])
            return self._record(super().add_row(a, b))

        def _record(self, sol):
            masters.append((self.lp, sol))
            return sol

    def record_search(f, *args):
        out = search(f, *args)
        ties, value, _, kinks = out
        if kinks is None:
            calls.append((value, ties[0], ties[:1], None))
        else:  # each ray with the x of the support points it annihilates
            calls.append((value, ties[0], kinks[0], f[kinks[1], 1]))
        return out

    def spread(lp):
        calls.append(None)  # the loop ends here
        return solve_lp(lp)

    monkeypatch.setattr(design_module, "Tableau", RecordingMaster)
    monkeypatch.setattr(design_module, "_sphere_min", record_search)
    monkeypatch.setattr(design_module, "solve_lp", spread)
    sol = optimize_design_cutting_plane(default_grid(a, size), alpha, 1.0, degree)
    loop = calls[:calls.index(None)]
    assert len(masters) == len(loop) == len(rows) + 1  # the last call adds no cut
    var_xs = default_grid(a, size)[size // 2:]
    blocks = []
    for (_, reported, offered, own), block in zip(loop, rows):
        phi = _cut_rows(offered, var_xs, degree, alpha, own)
        dist = np.abs(block[:, None, :] - phi[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() == 0.0
        blocks.append(offered[dist.argmin(axis=1)])
        np.testing.assert_array_equal(blocks[-1][0], reported)  # most violated first
    return sol, live[0], masters, blocks, [call[0] for call in loop]


def _cut_rows(dirs, var_xs, degree, alpha, own=None):
    """The solver's cut row of each direction: the criterion at u of the
    symmetric design that puts its weight on each +-x pair of ``var_xs``.

    Taken one direction at a time, as the solver does, so that a mirrored
    direction gives its row bit for bit.  ``own`` lists, per kink ray, the x
    of the points it annihilates, where the row holds an exact 0 in place of
    rounding residue (about 1e-8 at alpha = 0.5).
    """
    f_pos = regressor_matrix(var_xs, degree)
    f_neg = regressor_matrix(-var_xs, degree)
    rows = []
    for k, u in enumerate(dirs):
        at_pos, at_neg = np.abs(f_pos @ u), np.abs(f_neg @ u)
        for x in () if own is None else own[k]:
            at_pos[var_xs == x] = 0.0
            at_neg[var_xs == -x] = 0.0
        rows.append(0.5 * (at_pos**alpha + at_neg**alpha))
    return np.array(rows)


def _highs_max(lp):
    from scipy.optimize import linprog

    le = np.array([s is Sense.LE for s in lp.senses])
    bounds = [(0.0, None) if d is Domain.NON_NEGATIVE else (None, None) for d in lp.domains]
    ref = linprog(-lp.c, A_ub=lp.A[le], b_ub=lp.b[le], A_eq=lp.A[~le], b_eq=lp.b[~le],
                  bounds=bounds, method="highs")
    assert ref.status == 0
    return -ref.fun


class TestLiveMaster:
    # the Kelley master is one tableau: its first program is solved by the
    # two-phase simplex, every later one by dual simplex pivots after a
    # block of rows is added; each is checked against solvers that share no
    # code with it
    CASES = [(2, 2.0, 1.0), (2, 1.5, 1.5), (2, 2.0, 0.5)]

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_every_master_matches_highs(self, monkeypatch, degree, a, alpha):
        _, _, masters, _, _ = _record_kelley(monkeypatch, degree, a, alpha, 101)
        for lp, sol in masters:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(_highs_max(lp), rel=1e-10, abs=0)

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_every_master_matches_vertex_enumeration(self, monkeypatch, degree, a, alpha):
        _, _, masters, _, _ = _record_kelley(monkeypatch, degree, a, alpha, 7)
        assert len(masters) >= 4
        for lp, sol in masters:
            status, value = oracle_solve(lp)
            assert status == "optimal"
            assert sol.objective == pytest.approx(value, rel=1e-10, abs=0)

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_duplicate_and_mirror_rows_change_nothing(self, monkeypatch, degree, a, alpha):
        # every cut again as one block, then as one more block the cut of
        # every mirrored direction (u0, -u1, u2), which gives the same row
        # on symmetric weights (here without the exact zeros of a kink
        # ray's own points); a from-scratch solve once broke down on a
        # master of such rows
        _, master, masters, blocks, _ = _record_kelley(monkeypatch, degree, a, alpha, 101)
        _, last = masters[-1]
        n_cuts = len(master.lp.b) - 1
        rows = master.lp.A[[s is Sense.LE for s in master.lp.senses]]
        assert len(rows) == n_cuts
        cuts = np.vstack([design_module._seed_directions(degree + 1)] + blocks)
        phi = _cut_rows(cuts * np.array([1.0, -1.0, 1.0]), default_grid(a)[50:], degree, alpha)
        mirrored = np.column_stack([-phi, np.ones(n_cuts)])
        for block in (rows, mirrored):
            sol = master.add_row(block, np.zeros(n_cuts))
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(last.objective, rel=1e-12, abs=0)
            np.testing.assert_allclose(sol.x, last.x, rtol=0.0, atol=1e-12)
        assert len(master.lp.b) == 1 + 3 * n_cuts


def _ray_master(degree, a, alpha, size):
    """Rows phi_r of the LP max t s.t. t <= phi_r . v for every kink ray r
    of the grid, v in the simplex of symmetric weights (0, then each +-x
    pair).

    At alpha <= 1 the sphere minimum of every design on the grid lies on
    the ray of a pair of its support points (one point at degree 1), so
    this one LP is the max-min design problem on the grid.  Built with
    plain NumPy; the |f'r| of a ray's own points are set to exactly 0.
    """
    xs = np.linspace(-a, a, size)
    f = np.vander(xs, degree + 1, increasing=True)
    if degree == 1:
        rays, own = np.column_stack([-f[:, 1], f[:, 0]]), np.arange(size)[:, None]
    else:
        i, j = np.triu_indices(size, k=1)
        rays, own = np.cross(f[i], f[j]), np.column_stack([i, j])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    proj = np.abs(rays @ f.T)
    np.put_along_axis(proj, own, 0.0, axis=1)
    vals = proj**alpha
    mid = size // 2
    phi = np.column_stack([vals[:, mid]] + [0.5 * (vals[:, mid + k] + vals[:, mid - k])
                                            for k in range(1, mid + 1)])
    # mirror rays give the same row up to rounding
    return np.unique(np.round(phi, 14), axis=0)


class TestExactKinkSolve:
    # at alpha <= 1 each Kelley step cuts every kink ray of the incumbent
    # below the master bound (at most _BLOCK_CUTS of them), so the loop
    # ends on the optimum of the finite LP over all grid rays
    CASES = [(2, 2.0, 1.0), (2, 2.0, 0.8), (2, 2.0, 0.5), (2, 1.0, 1.0), (1, 2.0, 1.0)]

    @pytest.mark.parametrize("degree,a,alpha", CASES)
    def test_info_matches_highs_on_every_ray_row(self, degree, a, alpha):
        linprog = pytest.importorskip("scipy.optimize").linprog
        phi = _ray_master(degree, a, alpha, 101)
        n_rays, g = phi.shape
        ref = linprog(np.append(np.zeros(g), -1.0),
                      A_ub=np.column_stack([-phi, np.ones(n_rays)]), b_ub=np.zeros(n_rays),
                      A_eq=np.append(np.ones(g), 0.0)[None, :], b_eq=[1.0],
                      bounds=[(0.0, None)] * g + [(None, None)], method="highs")
        assert ref.status == 0
        sol = _solve(degree, a, alpha)
        assert sol.info == pytest.approx(-ref.fun, rel=1e-9, abs=0)

    @pytest.mark.parametrize("degree,a,alpha", [(2, 1.0, 1.0), (2, 0.5, 0.5), (1, 2.0, 1.0)])
    def test_info_matches_vertex_enumeration_on_11_points(self, degree, a, alpha):
        phi = _ray_master(degree, a, alpha, 11)
        # a row above another everywhere is implied by it (v >= 0)
        implied = [np.any(np.all(phi <= r, axis=1) & np.any(phi < r, axis=1)) for r in phi]
        low = phi[~np.array(implied)]
        n_rays, g = low.shape
        # v_0 = 1 - (v_1 + ... + v_{g-1}) leaves t <= r_0 + (r_k - r_0) . v_k
        lp = LinearProgram(
            np.append(np.zeros(g - 1), 1.0),
            np.vstack([np.column_stack([low[:, :1] - low[:, 1:], np.ones(n_rays)]),
                       np.append(np.ones(g - 1), 0.0)]),
            np.append(low[:, 0], 1.0),
            [Sense.LE] * (n_rays + 1), [Domain.NON_NEGATIVE] * (g - 1) + [Domain.FREE],
            maximize=True,
        )
        status, value = oracle_solve(lp)
        assert status == "optimal"
        sol = optimize_design_cutting_plane(default_grid(a, 11), alpha, 1.0, degree)
        assert sol.info == pytest.approx(value, rel=1e-9, abs=0)

    def test_oracle_calls_stay_few(self, monkeypatch):
        # each oracle call at alpha <= 1 enumerates the incumbent's kink rays
        # once; at (2, 2, 1) one cut per call took 63 calls, now 11
        calls = []
        candidates = design_module._kink_candidates

        def counted(f):
            calls.append(1)
            return candidates(f)

        monkeypatch.setattr(design_module, "_kink_candidates", counted)
        sol = optimize_design_cutting_plane(default_grid(2.0), 1.0, 1.0, 2)
        assert sol.stop is StopReason.CONVERGED
        assert len(calls) <= 20


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

    # pi_curve rows recorded before the certified cap and the mirror half
    # were added to the branch-and-bound, and before the cut-model search
    # replaced bisection: a slope of the wrong sign at any lattice trial moves pi
    PINNED = {
        1.0: [(1.1, 0.5173301696777344, 0.3533122323501752),
              (1.25, 0.5453605651855469, 0.3470636837918997),
              (1.5, 0.6000022888183594, 0.29906975615612047),
              (1.75, 0.6000022888183594, 0.24456890899076267),
              (1.9, 0.6000022888183594, 0.21675967734074433)],
        1.5: [(1.1, 0.6016197204589844, 0.5448342030734573),
              (1.25, 0.6366157531738281, 0.5686191913335724),
              (1.5, 0.6803398132324219, 0.5872434218653749),
              (1.75, 0.7149467468261719, 0.5795430540825948),
              (1.9, 0.7375984191894531, 0.5669400237546359)],
        2.0: [(1.1, 0.6774330139160156, 0.6552174291245891),
              (1.25, 0.7118415832519531, 0.6853600789016496),
              (1.5, 0.7476539611816406, 0.713742381016116),
              (1.75, 0.7811546325683594, 0.7360956179336738),
              (1.9, 0.8002281188964844, 0.7455631979813256)],
    }

    @pytest.mark.parametrize("a", sorted(PINNED))
    def test_pinned_rows(self, a):
        rows = pi_curve(a, [alpha for alpha, _, _ in self.PINNED[a]])
        for (alpha, pi, f), pinned in zip(rows, self.PINNED[a]):
            assert alpha == pinned[0]
            assert pi == pytest.approx(pinned[1], abs=1e-12)
            assert f == pytest.approx(pinned[2], rel=1e-10, abs=0)

    # (1, 1) and (2, 1) have kinks at alpha = 1, (1, 1.5) and (1, 1.9) sit
    # on the pitchfork plateau, (2, 2) has a double lambda_min
    SEARCH_POINTS = [(1.0, 1.0), (2.0, 1.0), (1.5, 1.1), (2.0, 1.5),
                     (1.0, 1.5), (1.0, 1.9), (2.0, 2.0)]
    BENCH_POINTS = [(1.0, 1.0), (2.0, 1.0), (1.5, 1.1), (1.0, 1.5),
                    (2.0, 1.5), (2.0, 2.0)]

    @pytest.fixture(scope="class")
    def searched(self):
        """pi_curve row and oracle calls (final f included) per search point."""
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            for a, alpha in self.SEARCH_POINTS:
                calls = []

                def counted(a, alpha, calls=calls):
                    f_of_pi = _three_point_inner(a, alpha)

                    def f(pi):
                        calls.append(pi)
                        return f_of_pi(pi)
                    return f

                mp.setattr(design_module, "_three_point_inner", counted)
                (row,) = pi_curve(a, [alpha])
                out[a, alpha] = row, len(calls)
        return out

    @staticmethod
    def bisection(a, alpha):
        """The former pi_curve search: bisection on the slope's sign to 1e-5."""
        f_of_pi = _three_point_inner(a, alpha)
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if f_of_pi(mid)[1] > 0.0:
                lo = mid
            else:
                hi = mid
        pi = 0.5 * (lo + hi)
        return (alpha, pi, f_of_pi(pi)[0])

    @pytest.mark.parametrize("point", SEARCH_POINTS, ids=lambda p: f"{p[0]:g}-{p[1]:g}")
    def test_search_ends_on_the_bisection_cell(self, searched, point):
        a, alpha = point
        row, _ = searched[point]
        assert row == self.bisection(a, alpha)
        # certificate: the lattice cell around pi has the slope's sign change
        f_of_pi = _three_point_inner(a, alpha)
        left, right = row[1] - 2.0**-18, row[1] + 2.0**-18
        assert left == 0.0 or f_of_pi(left)[1] > 0.0
        assert right == 1.0 or f_of_pi(right)[1] <= 0.0

    def test_search_takes_fewer_oracle_calls(self, searched):
        # bisection took 18 calls at every point, 108 over the bench points
        calls = {point: n for point, (_, n) in searched.items()}
        assert max(calls.values()) <= 18, calls
        assert sum(calls[p] for p in self.BENCH_POINTS) <= 45, calls

    @pytest.mark.parametrize("a, bound", [(2.0, 70), (1.0, 150)])
    def test_branch_and_bound_levels_stay_few(self, monkeypatch, a, bound):
        # each _cell_caps call is one level.  At alpha = 1.5, 35 at A = 2 and
        # 98 at the plateau A = 1 over the cut-model search's 6 and 10 calls.
        # Counted by _split_cells calls, which also built the d = 3 start
        # cells on every call before they were cached, these read 53 and
        # 128; 138 and 262 over bisection's 18, 357 at A = 2 before the
        # certified cap and the mirror half
        calls = []
        caps = design_module._cell_caps

        def counted(cells):
            calls.append(cells.shape[2])
            return caps(cells)

        monkeypatch.setattr(design_module, "_cell_caps", counted)
        pi_curve(a, [1.5])
        assert len(calls) <= bound

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
        assert sol.info == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_info_is_lambda_min(self):
        sol = e_optimal_design(1.5, 2)
        f = regressor_matrix(sol.design.xs, 2)
        lam = np.linalg.eigvalsh((f * sol.design.ws[:, None]).T @ f)[0]
        assert sol.info == pytest.approx(lam, rel=1e-6, abs=0)

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

