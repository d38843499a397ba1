import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_oracle import enumerate_vertices
from nonregdesign import estimator
from nonregdesign.design import Design, uniform_design
from nonregdesign.estimator import (
    Dataset,
    EstimationError,
    _certified_fits,
    _envelope,
    _envelope_fit,
    _tied_fits,
    fit_batch,
    load_dataset_csv,
    residuals,
    smith_fit,
)
from nonregdesign.models import ErrorFamily, ErrorModel, RegressionModel
from nonregdesign.sim import SimPlan, mc_risk, realize_design


def simulated_dataset(rng, xs, theta, beta=1.0):
    degree = len(theta) - 1
    y = np.vander(xs, degree + 1, increasing=True) @ np.asarray(theta)
    y = y + rng.gamma(shape=beta, scale=1.0, size=len(xs))
    return Dataset(xs, y, degree)


class TestDataset:
    def test_valid(self):
        d = Dataset([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], 1)
        assert d.n == 3
        assert d.design_matrix().shape == (3, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dataset([0.0, 1.0], [1.0], 1)

    def test_not_enough_observations(self):
        with pytest.raises(ValueError, match="at least"):
            Dataset([0.0, 1.0], [1.0, 2.0], 2)

    def test_rank_deficiency_detected(self):
        # two distinct x values cannot identify three coefficients
        with pytest.raises(ValueError, match="identifiable"):
            Dataset([0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.5, 2.5], 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([0.0, np.nan, 1.0], [1.0, 2.0, 3.0], 1)

    def test_degree_at_least_one(self):
        with pytest.raises(ValueError, match="degree"):
            Dataset([0.0, 1.0], [1.0, 2.0], 0)

    def test_design_matrix_is_increasing_vandermonde(self):
        d = Dataset([2.0, -1.0, 0.0], [0.0, 0.0, 0.0], 2)
        np.testing.assert_allclose(
            d.design_matrix(), [[1, 2, 4], [1, -1, 1], [1, 0, 0]]
        )


class TestSmithFit:
    def test_noiseless_linear_recovery(self):
        xs = np.array([-1.0, 0.0, 1.0])
        data = Dataset(xs, 3.0 + 2.0 * xs, 1)
        theta = smith_fit(data)
        np.testing.assert_allclose(theta, [3.0, 2.0], atol=1e-12)

    def test_noiseless_quadratic_recovery_without_zero(self):
        # no observation at x = 0: the summed-fit objective stays bounded
        xs = np.linspace(-2.0, 2.0, 40)
        theta_true = np.array([2.0, 4.0, 0.8])
        y = np.vander(xs, 3, increasing=True) @ theta_true
        theta = smith_fit(Dataset(xs, y, 2))
        np.testing.assert_allclose(theta, theta_true, atol=1e-10)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_envelope_property_on_simulated_data(self, degree, seed):
        rng = np.random.default_rng(seed)
        xs = np.concatenate([np.linspace(-2, 2, 60), np.zeros(10)])
        theta = [1.0, -0.5, 0.3][: degree + 1]
        data = simulated_dataset(rng, xs, theta, beta=1.0 + 0.3 * seed)
        fit = smith_fit(data)
        assert residuals(data, fit).min() >= -1e-8

    def test_intercept_below_envelope_at_zero(self):
        # with replicates at x = 0 the fitted intercept cannot exceed the
        # smallest observation there
        rng = np.random.default_rng(4)
        xs = np.array([-1.0] * 10 + [0.0] * 10 + [1.0] * 10)
        theta = np.array([5.0, 1.0])
        y = theta[0] + theta[1] * xs + rng.exponential(1.0, xs.size)
        fit = smith_fit(Dataset(xs, y, 1))
        assert fit[0] <= y[xs == 0.0].min() + 1e-10

    def test_at_least_p_plus_one_active_constraints(self):
        rng = np.random.default_rng(9)
        data = simulated_dataset(rng, np.linspace(-1, 1, 50), [2.0, 4.0, 0.8])
        fit = smith_fit(data)
        assert int((residuals(data, fit) < 1e-8).sum()) >= 3

    @given(c=st.floats(-25.0, 25.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_equivariance(self, c):
        rng = np.random.default_rng(7)
        xs = np.linspace(-1, 1, 30)
        y = 1.0 + 0.5 * xs + rng.exponential(1.0, 30)
        base = smith_fit(Dataset(xs, y, 1))
        shifted = smith_fit(Dataset(xs, y + c, 1))
        np.testing.assert_allclose(shifted, base + np.array([c, 0.0]), atol=1e-8)

    @given(c=st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_tilt_equivariance(self, c):
        rng = np.random.default_rng(8)
        xs = np.linspace(-1, 1, 30)
        y = 1.0 + 0.5 * xs + rng.exponential(1.0, 30)
        base = smith_fit(Dataset(xs, y, 1))
        tilted = smith_fit(Dataset(xs, y + c * xs, 1))
        np.testing.assert_allclose(tilted, base + np.array([0.0, c]), atol=1e-8)

    def test_quadratic_slope_is_estimated(self):
        # three-point design: the summed-fit objective pins every component
        # (the intercept-only objective left the slope on an arbitrary
        # vertex of the optimal face)
        rng = np.random.default_rng(12)
        xs = np.array([-2.0] * 20 + [0.0] * 80 + [2.0] * 20)
        theta = np.array([2.0, 4.0, 0.8])
        errs = []
        for _ in range(100):
            y = np.vander(xs, 3, increasing=True) @ theta + rng.exponential(1.0, xs.size)
            errs.append(smith_fit(Dataset(xs, y, 2)) - theta)
        mse = (np.array(errs) ** 2).mean(axis=0)
        assert mse[1] < 0.01  # slope recovered, not defaulted to zero

    @staticmethod
    def repeated_x_data(design, n, theta, seed):
        """Sorted covariates with repeats, as mc_risk builds them, plus the
        distinct points and the smallest observation at each."""
        xs = np.sort(np.repeat(design.xs, realize_design(design, n)))
        rng = np.random.default_rng(seed)
        f = np.vander(xs, len(theta), increasing=True)
        y = f @ np.asarray(theta) + rng.exponential(1.0, xs.size)
        support = np.unique(xs)
        minima = np.array([y[xs == x].min() for x in support])
        return Dataset(xs, y, len(theta) - 1), support, minima

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "design,theta",
        [
            (Design([(-1.0, 0.5), (1.0, 0.5)], 1.0), (6.0, 0.5)),
            (Design([(-2.0, 0.2), (0.0, 0.6), (2.0, 0.2)], 2.0), (2.0, 4.0, 0.8)),
        ],
        ids=["linear-two-point", "quadratic-three-point"],
    )
    def test_repeated_x_square_design_interpolates_point_minima(
        self, design, theta, seed
    ):
        # K = degree + 1 distinct points: the fit is the polynomial through
        # the smallest observation at each point
        data, support, minima = self.repeated_x_data(design, 120, theta, seed)
        want = np.linalg.solve(np.vander(support, len(theta), increasing=True), minima)
        np.testing.assert_allclose(smith_fit(data), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "design,theta",
        [
            (uniform_design(1.0, 15), (6.0, 0.5)),
            (uniform_design(2.0, 5), (2.0, 4.0, 0.8)),
            (
                Design([(-1.0, 0.25), (0.1, 0.5), (0.5, 0.1), (1.0, 0.15)], 1.0),
                (6.0, 0.5),
            ),
        ],
        ids=["linear-uniform15", "quadratic-uniform5", "linear-uneven-counts"],
    )
    def test_repeated_x_objective_matches_vertex_enumeration(
        self, design, theta, seed
    ):
        # K > degree + 1: the optimal face can be an edge, so compare the
        # summed fit with the best vertex of the distinct-point rows, not theta
        data, support, minima = self.repeated_x_data(design, 120, theta, seed)
        rows = np.vander(support, len(theta), increasing=True)
        c = data.design_matrix().sum(axis=0)
        best = max(float(c @ v) for v in enumerate_vertices(rows, minima))
        got = float(c @ smith_fit(data))
        assert got == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_convergence_rate_doubling_study(self):
        # risk at n=120 over risk at n=240 should be near 2^(2/alpha) = 4
        model = RegressionModel(
            degree=1,
            A=1.0,
            theta=(6.0, 0.5),
            error=ErrorModel(ErrorFamily.GAMMA, beta=1.0, sigma=1.0),
        )
        design = Design(A=1.0, points=((-1.0, 0.5), (1.0, 0.5)))
        r120 = mc_risk(SimPlan(design=design, n=120, model=model, replicates=1000, seed=11))
        r240 = mc_risk(SimPlan(design=design, n=240, model=model, replicates=1000, seed=11))
        ratio = r120.total_risk / r240.total_risk
        assert 3.5 <= ratio <= 4.5

# Designs of the batched-kernel tests: K > d with ties on the optimal face
# (uniform5), many bases (uniform15, 105 at d = 2), the quadratic comparator
# whose optimal set is often an edge, and K = d (one dual vertex).
KERNEL_CASES = [
    pytest.param(uniform_design(1.0, 5), (6.0, 0.5), id="linear-uniform5"),
    pytest.param(uniform_design(1.0, 15), (6.0, 0.5), id="linear-uniform15"),
    pytest.param(uniform_design(2.0, 5), (2.0, 4.0, 0.8), id="quadratic-uniform5"),
    pytest.param(Design([(-1.0, 0.5), (1.0, 0.5)], 1.0), (6.0, 0.5), id="two-point"),
]
# No true slope: the tied fits where the simplex often stopped inside the
# optimal edge rather than at a vertex.
NO_SLOPE_CASES = [
    pytest.param(uniform_design(1.0, 5), (6.0, 0.0), id="linear-uniform5-flat"),
    pytest.param(uniform_design(2.0, 5), (2.0, 0.0, 0.0), id="quadratic-uniform5-flat"),
]


def replicate_responses(design, theta, reps, n=120, seed=3):
    """Sorted covariates of the realized design and reps rows of responses."""
    xs = np.sort(np.repeat(design.xs, realize_design(design, n)))
    rng = np.random.default_rng(seed)
    mean = np.vander(xs, len(theta), increasing=True) @ np.asarray(theta)
    return xs, mean + rng.exponential(1.0, (reps, xs.size))


def least_slope_optimum(support, minima, c, degree):
    """By vertex enumeration alone: the optimal face of max c'theta s.t.
    f(x_k)'theta <= minima_k and its point with the smallest |theta_1|, or
    None when the face has more than two vertices or theta_1 is constant on
    it."""
    vertices = enumerate_vertices(np.vander(support, degree + 1, increasing=True), minima)
    values = np.array([float(c @ v) for v in vertices])
    face = []
    for v in np.array(vertices)[values >= values.max() - 1e-9 * np.abs(values).max()]:
        if not any(np.allclose(v, u, rtol=1e-9, atol=1e-12) for u in face):
            face.append(v)
    if len(face) > 2:
        return None
    a, b = min(face, key=lambda v: v[1]), max(face, key=lambda v: v[1])
    if len(face) == 2 and a[1] == b[1]:
        return None
    if a[1] >= 0.0:
        return a
    if b[1] <= 0.0:
        return b
    return a + a[1] / (a[1] - b[1]) * (b - a)


class TestCertifiedFits:
    @pytest.mark.parametrize("design,theta", KERNEL_CASES)
    def test_certified_fits_match_the_simplex(self, design, theta):
        xs, ys = replicate_responses(design, theta, 200)
        env = _envelope(xs, len(theta) - 1)
        fits, certified = _certified_fits(env, ys)
        assert certified.sum() >= 40
        for i in np.flatnonzero(certified):
            want = _envelope_fit(env, ys[i])
            np.testing.assert_allclose(
                fits[i], want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )

    @pytest.mark.parametrize("design,theta", KERNEL_CASES)
    def test_smith_fit_is_the_kernel_or_the_tie_rule(self, design, theta, envelope_solves):
        xs, ys = replicate_responses(design, theta, 200)
        degree = len(theta) - 1
        env = _envelope(xs, degree)
        fits, errors = fit_batch(env, ys)
        assert not errors and not envelope_solves
        kernel, certified = _certified_fits(env, ys)
        np.testing.assert_array_equal(fits[certified], kernel[certified])
        tied, resolved = _tied_fits(env, ys[~certified])
        assert resolved.all()
        np.testing.assert_array_equal(fits[~certified], tied)
        for i, y in enumerate(ys):
            if not certified[i]:
                # on these models the rule lands where the simplex stops
                want = _envelope_fit(env, y)
                np.testing.assert_allclose(
                    fits[i], want, rtol=1e-9, atol=1e-9 * np.abs(want).max()
                )
            np.testing.assert_array_equal(smith_fit(Dataset(xs, y, degree)), fits[i])

    def test_fit_batch_reports_each_failed_row(self, envelope_solves):
        xs, ys = replicate_responses(uniform_design(2.0, 5), (2.0, 4.0, 0.8), 6)
        ys[[1, 4], 3] = np.nan
        fits, errors = fit_batch(_envelope(xs, 2), ys)
        assert list(errors) == [1, 4]
        assert all(isinstance(e, EstimationError) for e in errors.values())
        assert all("finite" in str(e) for e in errors.values())
        assert not envelope_solves  # the finite rows, tied or not, need no simplex
        for i in (0, 2, 3, 5):
            np.testing.assert_array_equal(fits[i], smith_fit(Dataset(xs, ys[i], 2)))

    def test_ties_are_not_certified(self):
        # c/24 = 5/3 f(-2) + 10/3 f(1): the degenerate dual vertex is often
        # optimal and the optimal face is then an edge
        xs, ys = replicate_responses(uniform_design(2.0, 5), (2.0, 4.0, 0.8), 200)
        _, certified = _certified_fits(_envelope(xs, 2), ys)
        assert 50 <= (~certified).sum() <= 180

    @pytest.mark.parametrize("design,theta", KERNEL_CASES + NO_SLOPE_CASES)
    def test_tied_fits_are_the_least_slope_point_of_the_optimal_face(self, design, theta):
        xs, ys = replicate_responses(design, theta, 60)
        degree = len(theta) - 1
        env = _envelope(xs, degree)
        fits, errors = fit_batch(env, ys)
        assert not errors
        support = np.unique(xs)
        c = np.vander(xs, degree + 1, increasing=True).sum(axis=0)
        for i in np.flatnonzero(~_certified_fits(env, ys)[1]):
            minima = np.array([ys[i][xs == x].min() for x in support])
            want = least_slope_optimum(support, minima, c, degree)
            assert want is not None
            assert residuals(Dataset(xs, ys[i], degree), fits[i]).min() >= -1e-8
            assert float(c @ fits[i]) == pytest.approx(float(c @ want), rel=1e-9)
            np.testing.assert_allclose(
                fits[i], want, rtol=1e-9, atol=1e-9 * np.abs(want).max()
            )

    @pytest.mark.parametrize("design,theta", KERNEL_CASES + NO_SLOPE_CASES)
    def test_mirrored_covariates_mirror_every_fit(self, design, theta):
        # x -> -x maps theta_j to (-1)^j theta_j, tied fits included
        xs, ys = replicate_responses(design, theta, 100)
        degree = len(theta) - 1
        fits, _ = fit_batch(_envelope(xs, degree), ys)
        mirrored, _ = fit_batch(_envelope(-xs[::-1], degree), ys[:, ::-1])
        sign = (-1.0) ** np.arange(degree + 1)
        np.testing.assert_allclose(
            mirrored * sign, fits, rtol=1e-9, atol=1e-9 * np.abs(fits).max()
        )

    def test_edge_of_constant_slope_runs_the_simplex(self, envelope_solves):
        # c = 12 (1, 0, 1) = 6 f(-1) + 6 f(1): the optimal edge is
        # theta1 = 0, theta0 + theta2 = 0, theta0 in [-10/3, 0], so the
        # smallest |theta1| does not pick a point of it
        xs = np.array([-2.0, -1, -1, 0, 0, 0, 0, 0, 0, 1, 1, 2])
        y = np.where(np.abs(xs) == 2.0, 10.0, 0.0)
        env = _envelope(xs, 2)
        assert not _certified_fits(env, y[None])[1][0]
        assert not _tied_fits(env, y[None])[1][0]
        fits, errors = fit_batch(env, y[None])
        assert not errors and len(envelope_solves) == 1
        np.testing.assert_array_equal(fits[0], _envelope_fit(env, y))

    def test_face_of_many_near_tied_points_runs_the_simplex(self, envelope_solves):
        # points 1e-8 above a line: more than two basis points of uniform7
        # are optimal within the tie margin but apart by more than its
        # tolerance, so those rows are left to the simplex
        xs, ys = replicate_responses(uniform_design(1.0, 7), (0.3, 0.7), 20)
        ys = 0.3 + 0.7 * xs + 1e-8 * (ys - ys.min())
        env = _envelope(xs, 1)
        certified = _certified_fits(env, ys)[1]
        tied, resolved = _tied_fits(env, ys[~certified])
        assert (~resolved).sum() >= 5
        fits, errors = fit_batch(env, ys)
        assert not errors and len(envelope_solves) == (~resolved).sum()
        left = np.flatnonzero(~certified)[~resolved]
        for i in left:
            np.testing.assert_array_equal(fits[i], _envelope_fit(env, ys[i]))

    def test_a_tie_can_stop_inside_the_optimal_edge(self):
        # The optimal face is theta0 = 0 with slope in [-1, 1].  The tie rule
        # reports the edge's crossing of theta1 = 0: an optimal point of the
        # edge, but not a vertex of it.  The simplex stops there too, since
        # it splits the free slope into two non-negative columns and can
        # leave both at zero.
        data = Dataset([-1, -1, 0, 0, 1, 1], [1.0, 1.5, 0.0, 0.2, 1.0, 1.3], 1)
        theta = smith_fit(data)
        np.testing.assert_array_equal(theta, [0.0, 0.0])
        assert residuals(data, theta).min() >= 0.0
        rows = np.vander([-1.0, 0.0, 1.0], 2, increasing=True)
        vertices = enumerate_vertices(rows, np.array([1.0, 0.0, 1.0]))
        c = data.design_matrix().sum(axis=0)
        best = max(float(c @ v) for v in vertices)
        assert float(c @ theta) == best == 0.0
        optimal = [v for v in vertices if float(c @ v) == best]
        np.testing.assert_allclose(sorted(v[1] for v in optimal), [-1.0, 1.0])
        assert not any(np.allclose(theta, v) for v in vertices)

    def test_degenerate_best_basis_is_not_certified(self):
        # the degenerate dual vertex belongs to three bases, whose equal
        # objectives already fail the tie margin; with one basis per vertex
        # only the degeneracy check keeps its replicates from the kernel
        xs, ys = replicate_responses(uniform_design(2.0, 5), (2.0, 4.0, 0.8), 200)
        env = _envelope(xs, 2)
        vertices = np.zeros((env.bases.shape[0], 5))
        np.put_along_axis(vertices, env.bases, env.lam, axis=1)
        _, first = np.unique(np.round(vertices, 6), axis=0, return_index=True)
        one = dataclasses.replace(
            env,
            bases=env.bases[first],
            lam=env.lam[first],
            inv=env.inv[first],
            degenerate=env.degenerate[first],
        )
        assert one.bases.shape[0] < env.bases.shape[0] and one.degenerate.any()
        np.testing.assert_array_equal(_certified_fits(one, ys)[1], _certified_fits(env, ys)[1])

    def test_near_ties_within_the_margin_are_not_certified(self):
        # points 1e-12 above a line: every dual objective is within roundoff
        # of the others, and none of uniform7's dual vertices is degenerate
        xs, ys = replicate_responses(uniform_design(1.0, 7), (0.3, 0.7), 20)
        ys = 0.3 + 0.7 * xs + 1e-12 * (ys - ys.min())
        env = _envelope(xs, 1)
        assert not env.degenerate.any()
        assert not _certified_fits(env, ys)[1].any()

    @pytest.mark.parametrize("design,theta", KERNEL_CASES)
    def test_noiseless_data_ties_every_vertex(self, design, theta):
        # every point lies on the fit, so all dual objectives are equal and
        # only a single dual vertex (K = d) can certify
        xs, _ = replicate_responses(design, theta, 1)
        ys = np.tile(np.vander(xs, len(theta), increasing=True) @ np.asarray(theta), (3, 1))
        env = _envelope(xs, len(theta) - 1)
        _, certified = _certified_fits(env, ys)
        assert certified.all() == (len(design.points) == len(theta))

    @pytest.mark.parametrize("design,theta", KERNEL_CASES)
    def test_objective_matches_vertex_enumeration(self, design, theta):
        xs, ys = replicate_responses(design, theta, 60)
        degree = len(theta) - 1
        support = np.unique(xs)
        rows = np.vander(support, degree + 1, increasing=True)
        c = np.vander(xs, degree + 1, increasing=True).sum(axis=0)
        for y in ys:
            minima = np.array([y[xs == x].min() for x in support])
            best = max(float(c @ v) for v in enumerate_vertices(rows, minima))
            got = float(c @ smith_fit(Dataset(xs, y, degree)))
            assert got == pytest.approx(best, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("design,theta", KERNEL_CASES + NO_SLOPE_CASES)
    def test_fit_does_not_depend_on_the_batch(self, design, theta, monkeypatch):
        xs, ys = replicate_responses(design, theta, 300)
        env = _envelope(xs, len(theta) - 1)
        whole, cert_whole = _certified_fits(env, ys)
        parts = [_certified_fits(env, ys[:256]), _certified_fits(env, ys[256:])]
        np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), cert_whole)
        np.testing.assert_array_equal(
            np.concatenate([p[0] for p in parts])[cert_whole], whole[cert_whole]
        )
        for i in (0, 255, 256, 299):
            alone, cert = _certified_fits(env, ys[i : i + 1])
            assert cert[0] == cert_whole[i]
            if cert[0]:
                np.testing.assert_array_equal(alone[0], whole[i])
        # every row of fit_batch, tied ones included, and tied rows resolved
        # one at a time
        fits, _ = fit_batch(env, ys)
        np.testing.assert_array_equal(
            np.concatenate([fit_batch(env, ys[:256])[0], fit_batch(env, ys[256:])[0]]), fits
        )
        for i in range(0, 300, 7):
            np.testing.assert_array_equal(fit_batch(env, ys[i : i + 1])[0][0], fits[i])
        monkeypatch.setattr(estimator, "_CHUNK_VALUES", 1)
        np.testing.assert_array_equal(fit_batch(env, ys)[0], fits)

    @pytest.mark.parametrize("design,theta", KERNEL_CASES)
    def test_unsorted_covariates_give_the_same_fit(self, design, theta):
        xs, ys = replicate_responses(design, theta, 20)
        perm = np.random.default_rng(0).permutation(xs.size)
        degree = len(theta) - 1
        for y in ys:
            np.testing.assert_array_equal(
                smith_fit(Dataset(xs[perm], y[perm], degree)),
                smith_fit(Dataset(xs, y, degree)),
            )

    def test_non_finite_rows_are_not_certified(self):
        xs, ys = replicate_responses(uniform_design(1.0, 5), (6.0, 0.5), 3)
        ys[1, 7] = np.inf
        ys[2, 0] = np.nan
        _, certified = _certified_fits(_envelope(xs, 1), ys)
        assert certified.tolist() == [True, False, False]

    def test_design_above_the_basis_cap_has_no_dual_vertices(self):
        # C(60, 3) = 34,220 bases: every fit runs the simplex
        xs, ys = replicate_responses(uniform_design(2.0, 60), (2.0, 4.0, 0.8), 2)
        env = _envelope(xs, 2)
        assert env.bases is None
        assert not _certified_fits(env, ys)[1].any()
        assert _envelope(xs, 1).bases is None  # C(60, 2) = 1,770
        assert _envelope(np.linspace(-2.0, 2.0, 15), 2).bases is not None  # 455

    def test_ill_conditioned_design_has_no_dual_vertices(self):
        # two x values 1e-12 apart: the basis through both is nearly singular
        xs = np.array([-1.0, 0.0, 1e-12, 1.0])
        y = np.array([2.0, 1.0, 1.5, 3.0])
        env = _envelope(xs, 1)
        assert env.bases is None
        np.testing.assert_array_equal(smith_fit(Dataset(xs, y, 1)), _envelope_fit(env, y))


class TestResiduals:
    def test_matches_direct_computation(self):
        data = Dataset([-1.0, 0.0, 2.0], [1.0, 4.0, 9.0], 2)
        theta = np.array([1.0, 2.0, 0.5])
        expected = np.array(data.ys) - data.design_matrix() @ theta
        np.testing.assert_allclose(residuals(data, theta), expected, rtol=1e-15)


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n-1.0,2.5\n0.0,3.5\n1.0,6.25\n")
        data = load_dataset_csv(path, 1)
        assert data.xs == (-1.0, 0.0, 1.0)
        assert data.ys == (2.5, 3.5, 6.25)
        assert data.degree == 1

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset_csv(path, 1)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,two\n3,4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset_csv(path, 1)

    def test_padded_header_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x, y\n-1.0, 2.5\n0.0,3.5\n\n1.0,6.25\n")
        data = load_dataset_csv(path, 1)
        assert data.xs == (-1.0, 0.0, 1.0)
        assert data.ys == (2.5, 3.5, 6.25)

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet programs often export UTF-8 with a leading BOM
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n-1.0,2.5\n0.0,3.5\n1.0,6.25\n")
        data = load_dataset_csv(path, 1)
        assert data.xs == (-1.0, 0.0, 1.0)
        assert data.ys == (2.5, 3.5, 6.25)

    @pytest.mark.parametrize("row", ["1", "1,2,3"])
    def test_wrong_field_count_names_the_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n0,1\n{row}\n3,4\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset_csv(path, 1)
