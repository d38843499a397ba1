import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_oracle import enumerate_vertices
from nonregdesign.design import Design, uniform_design
from nonregdesign.estimator import (
    Dataset,
    EstimationError,
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
        with pytest.raises(ValueError):
            load_dataset_csv(path, 1)
