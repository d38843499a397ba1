import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonregdesign.bounds import (
    BoundInput,
    FiniteModelPair,
    fisher_lower_bound,
    epsilon_diagnostic,
    hellinger_constant,
    two_point_risk_check,
    minimax_lower_bound,
)


# ---------------------------------------------------------------------------
# minimax lower bound


def test_bound_input_validation():
    with pytest.raises(ValueError, match="alpha"):
        BoundInput(alpha=0.0, info_value=1.0)
    with pytest.raises(ValueError, match="alpha"):
        BoundInput(alpha=2.5, info_value=1.0)
    with pytest.raises(ValueError, match="info_value"):
        BoundInput(alpha=1.0, info_value=0.0)
    with pytest.raises(ValueError, match="info_value"):
        BoundInput(alpha=1.0, info_value=-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="info_value must be positive and finite"):
            BoundInput(alpha=1.0, info_value=bad)


def test_constant_value():
    # C(1) = (1/32) * 3^-2 = 1/288; C(2) = (1/32)/3 = 1/96
    assert hellinger_constant(1.0) == pytest.approx(1.0 / 288.0, rel=1e-14, abs=0)
    assert hellinger_constant(2.0) == pytest.approx(1.0 / 96.0, rel=1e-14, abs=0)


def test_alpha1_arithmetic_example():
    # alpha=1, J=9, with constant: (1/32) * 3^-2 * 9^-2 = 1/23328
    got = minimax_lower_bound(BoundInput(alpha=1.0, info_value=9.0))
    assert got == pytest.approx(1.0 / 23328.0, rel=1e-14, abs=0)


def test_alpha1_uniform_scaling():
    # J = n/theta for Unif(0, theta) data: bound proportional to theta^2/n^2
    vals = {}
    for n in (10, 100):
        for theta in (1.0, 2.0):
            b = minimax_lower_bound(BoundInput(alpha=1.0, info_value=n / theta))
            vals[(n, theta)] = b * n**2 / theta**2
    first = next(iter(vals.values()))
    for v in vals.values():
        assert v == pytest.approx(first, rel=1e-12, abs=0)


def test_alpha2_power_law():
    b1 = minimax_lower_bound(BoundInput(alpha=2.0, info_value=5.0))
    b2 = minimax_lower_bound(BoundInput(alpha=2.0, info_value=10.0))
    assert b1 == pytest.approx(2.0 * b2, rel=1e-12, abs=0)


def test_order_only_variant():
    inp = BoundInput(alpha=1.4, info_value=7.0, include_constant=False)
    assert minimax_lower_bound(inp) == pytest.approx(7.0 ** (-2.0 / 1.4), rel=1e-14, abs=0)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=0.2, max_value=2.0),
    j1=st.floats(min_value=0.1, max_value=1e4),
    factor=st.floats(min_value=1.0001, max_value=100.0),
)
def test_strictly_decreasing_in_info(alpha, j1, factor):
    lo = minimax_lower_bound(BoundInput(alpha=alpha, info_value=j1 * factor))
    hi = minimax_lower_bound(BoundInput(alpha=alpha, info_value=j1))
    assert lo < hi


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=0.2, max_value=2.0 - 1e-6),
    j=st.floats(min_value=0.1, max_value=100.0),
)
def test_continuous_in_alpha(alpha, j):
    delta = 1e-8
    b0 = minimax_lower_bound(BoundInput(alpha=alpha, info_value=j))
    b1 = minimax_lower_bound(BoundInput(alpha=alpha + delta, info_value=j))
    assert abs(b1 - b0) <= 1e-4 * b0


def test_epsilon_diagnostic():
    # eps = (3 J)^(-1/alpha)
    assert epsilon_diagnostic(1.0, 3.0) == pytest.approx(1.0 / 9.0, rel=1e-14, abs=0)
    assert epsilon_diagnostic(2.0, 12.0) == pytest.approx(1.0 / 6.0, rel=1e-14, abs=0)
    with pytest.raises(ValueError):
        epsilon_diagnostic(1.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="info_value must be positive and finite"):
            epsilon_diagnostic(1.0, bad)


# ---------------------------------------------------------------------------
# eigenvalue form of the regular bound


def test_identity_case():
    assert fisher_lower_bound(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_identity_psi_gives_inverse_min_eigenvalue():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        a = rng.normal(size=(d, d))
        fisher = a @ a.T + d * np.eye(d)
        got = fisher_lower_bound(fisher, np.eye(d))
        want = 1.0 / np.linalg.eigvalsh(fisher)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_scalar_component_example():
    # I = diag(4, 1), D = (1, 0): D I^-1 D^T = 1/4
    got = fisher_lower_bound(np.diag([4.0, 1.0]), np.array([[1.0, 0.0]]))
    assert got == pytest.approx(0.25, rel=1e-14, abs=0)


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        a = rng.normal(size=(d, d))
        fisher = a @ a.T + 0.5 * np.eye(d)
        d_psi = rng.normal(size=(2, d)) if d > 2 else np.eye(d)
        q_mat, _ = np.linalg.qr(rng.normal(size=(d, d)))
        base = fisher_lower_bound(fisher, d_psi)
        rotated = fisher_lower_bound(q_mat @ fisher @ q_mat.T, d_psi @ q_mat.T)
        assert rotated == pytest.approx(base, abs=1e-10 * max(1.0, base))


def test_singular_fisher_rejected():
    with pytest.raises(ValueError, match="singular"):
        fisher_lower_bound(np.diag([1.0, 0.0]), np.eye(2))


def test_rank_deficient_psi_rejected():
    with pytest.raises(ValueError, match="rank"):
        fisher_lower_bound(np.eye(2), np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_named(bad):
    # NaN once failed inside the SVD ("did not converge") and inf as "must
    # have full row rank"
    with pytest.raises(ValueError, match="d_psi must be finite"):
        fisher_lower_bound(np.eye(2), np.array([[bad, 1.0]]))
    with pytest.raises(ValueError, match="fisher matrix must be finite"):
        fisher_lower_bound(np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2))


def test_ill_conditioned_warns():
    with pytest.warns(RuntimeWarning, match="condition"):
        fisher_lower_bound(np.diag([1.0, 1e-13]), np.eye(2))


def test_nonsymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        fisher_lower_bound(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def test_alpha2_consistency_with_direction_minimization():
    # brute-force inf_u (1/4) u' I u / ||D u||^2 over the circle, then
    # bound_order = 1/info must equal 4 * lambda_max(D I^-1 D')
    rng = np.random.default_rng(11)
    angles = np.linspace(0.0, np.pi, 200_001)
    us = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        fisher = a @ a.T + 0.3 * np.eye(2)
        quad = 0.25 * np.einsum("ij,jk,ik->i", us, fisher, us)
        info = float(np.min(quad))  # D = identity: ||u|| = 1
        order = minimax_lower_bound(
            BoundInput(alpha=2.0, info_value=info, include_constant=False)
        )
        assert order == pytest.approx(4.0 * fisher_lower_bound(fisher, np.eye(2)), rel=1e-8, abs=0)


# ---------------------------------------------------------------------------
# brute-force check of the two-point inequality


def test_pair_validation():
    with pytest.raises(ValueError, match="sums"):
        FiniteModelPair([0.5, 0.4], [0.5, 0.5], [0.0], [1.0])
    with pytest.raises(ValueError, match="negative"):
        FiniteModelPair([1.5, -0.5], [0.5, 0.5], [0.0], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        FiniteModelPair([1.0], [0.5, 0.5], [0.0], [1.0])
    with pytest.raises(ValueError, match="exceeds"):
        p = np.full(7, 1.0 / 7.0)
        FiniteModelPair(p, p, [0.0], [1.0])
    with pytest.raises(ValueError, match="psi"):
        FiniteModelPair([0.5, 0.5], [0.5, 0.5], [0.0], [1.0, 2.0])


def test_identical_distributions_equal_psi():
    pair = FiniteModelPair([0.3, 0.7], [0.3, 0.7], [1.0], [1.0])
    lhs, rhs, holds = two_point_risk_check(pair, np.array([0.0, 2.0]))
    assert rhs == 0.0
    assert lhs >= 0.0
    assert holds


def test_h_zero_uses_sixteenth_branch():
    # same distribution, different psi: rhs = ||delta||^2 / 16
    pair = FiniteModelPair([0.5, 0.5], [0.5, 0.5], [0.0], [2.0])
    lhs, rhs, holds = two_point_risk_check(pair, np.array([0.0, 0.0]))
    assert rhs == pytest.approx(4.0 / 16.0, rel=1e-14, abs=0)
    # T == psi(theta): all loss sits at vartheta, lhs = 4 >= 1/4
    assert lhs == pytest.approx(4.0, rel=1e-14, abs=0)
    assert holds


def test_disjoint_support_negative_branch():
    # h = 2 makes (1-h)/(4h) negative, so the bound is vacuous but valid
    pair = FiniteModelPair([1.0, 0.0], [0.0, 1.0], [0.0], [1.0])
    lhs, rhs, holds = two_point_risk_check(pair, np.array([0.0, 1.0]))
    assert rhs < 0.0
    assert lhs == 0.0
    assert holds


def test_lucky_constant_estimator_still_bounded():
    # guessing psi(theta) exactly cannot beat the bound: risk at vartheta pays
    pair = FiniteModelPair([0.6, 0.4], [0.4, 0.6], [0.0], [1.0])
    t = np.zeros(2)  # constant at psi(theta)
    lhs, rhs, holds = two_point_risk_check(pair, t)
    assert lhs == pytest.approx(1.0, rel=1e-14, abs=0)  # full weight at vartheta
    assert holds


def test_vector_psi_shapes():
    pair = FiniteModelPair([0.5, 0.5], [0.25, 0.75], [0.0, 1.0], [1.0, 0.0])
    t = np.array([[0.5, 0.5], [0.2, 0.8]])
    res = two_point_risk_check(pair, t)
    assert res.holds
    with pytest.raises(ValueError, match="dimension"):
        two_point_risk_check(pair, np.array([0.0, 1.0]))


def _random_instance(rng):
    m = int(rng.integers(2, 7))
    q = int(rng.integers(1, 3))
    p = rng.dirichlet(np.ones(m))
    pv = rng.dirichlet(np.ones(m))
    if rng.random() < 0.1:
        pv = p.copy()  # exercise the h = 0 branch
    psi = rng.normal(scale=2.0, size=q)
    psiv = rng.normal(scale=2.0, size=q)
    pair = FiniteModelPair(p, pv, psi, psiv)
    t = rng.normal(scale=3.0, size=(m, q))
    return pair, t


def test_random_sweep_no_violations():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        pair, t = _random_instance(rng)
        res = two_point_risk_check(pair, t)
        assert res.holds, (pair, t)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_instance_holds_hypothesis(seed):
    rng = np.random.default_rng(seed)
    pair, t = _random_instance(rng)
    assert two_point_risk_check(pair, t).holds
