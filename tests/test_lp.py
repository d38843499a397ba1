import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_oracle import oracle_solve, random_boxed_lp
from nonregdesign import lp as lp_module
from nonregdesign.lp import (
    Domain,
    LinearProgram,
    LpError,
    LpStatus,
    Sense,
    Tableau,
    solve_lp,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_shape_mismatches_rejected():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0], [Sense.LE])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], [1.0, 2.0], [Sense.LE])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], [1.0], [Sense.LE, Sense.LE])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], [1.0], [Sense.LE], domains=[])


def test_size_cap_rejected():
    n = 501
    with pytest.raises(ValueError, match="size"):
        LinearProgram(np.zeros(n), np.zeros((1, n)), [0.0], [Sense.LE])
    m = 2001
    with pytest.raises(ValueError, match="size"):
        LinearProgram([0.0], np.zeros((m, 1)), np.zeros(m), [Sense.LE] * m)


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="finite"):
        LinearProgram([np.nan], [[1.0]], [1.0], [Sense.LE])


def test_sense_strings_accepted():
    lp = LinearProgram([1.0], [[1.0]], [2.0], ["<="], domains=["non-negative"])
    assert lp.senses == (Sense.LE,)
    assert lp.domains == (Domain.NON_NEGATIVE,)


# ---------------------------------------------------------------------------
# hand-checked small programs


def test_simple_max():
    # max x + y on the standard simplex scaled to 1: value 1 on the facet
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [Sense.LE], maximize=True)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_equality_rows():
    # x + y = 1, x - y = 0  =>  x = y = 1/2
    lp = LinearProgram(
        [1.0, 0.0],
        [[1.0, 1.0], [1.0, -1.0]],
        [1.0, 0.0],
        [Sense.EQ, Sense.EQ],
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-10)


def test_ge_rows_need_phase_one():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 6 ; optimum at the crossing
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 2.0], [3.0, 1.0]],
        [4.0, 6.0],
        [Sense.GE, Sense.GE],
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([1.6, 1.2], abs=1e-9)
    assert sol.objective == pytest.approx(2.8, abs=1e-10)


def test_infeasible():
    lp = LinearProgram([1.0], [[1.0]], [-1.0], [Sense.LE])  # x <= -1, x >= 0
    sol = solve_lp(lp)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None and sol.objective is None


def test_unbounded():
    lp = LinearProgram([1.0], [[1.0]], [1.0], [Sense.GE], maximize=True)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.UNBOUNDED


def test_free_variable_goes_negative():
    # min x s.t. x >= -3 with x free
    lp = LinearProgram([1.0], [[1.0]], [-3.0], [Sense.GE], domains=[Domain.FREE])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([-3.0], abs=1e-10)


def test_mixed_senses_and_domains():
    # max 2u + v s.t. u + v = 1, u - v <= 4, v >= -2, u >= 0, v free
    lp = LinearProgram(
        [2.0, 1.0],
        [[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]],
        [1.0, 4.0, -2.0],
        [Sense.EQ, Sense.LE, Sense.GE],
        domains=[Domain.NON_NEGATIVE, Domain.FREE],
        maximize=True,
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    # u + v = 1 with the objective 2u + v = u + 1 pushes u up until u - v = 4
    assert sol.x == pytest.approx([2.5, -1.5], abs=1e-9)
    assert sol.objective == pytest.approx(3.5, abs=1e-10)


def test_redundant_equality_row_dropped():
    # second equality is the double of the first; phase one must not
    # declare infeasibility or leave a stuck artificial
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 1.0], [2.0, 2.0]],
        [1.0, 2.0],
        [Sense.EQ, Sense.EQ],
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-10)


def test_degenerate_beale_terminates():
    # Beale's cycling example: plain Dantzig pricing cycles forever on it
    lp = LinearProgram(
        [-0.75, 150.0, -0.02, 6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
        [Sense.LE, Sense.LE, Sense.LE],
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-10)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(lp_module, "_pivot_cap", lambda T: 1)
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 2.0], [3.0, 1.0]],
        [4.0, 6.0],
        [Sense.GE, Sense.GE],
    )
    with pytest.raises(LpError, match="pivot cap"):
        solve_lp(lp)


# ---------------------------------------------------------------------------
# oracle comparison and invariants


def _check_against_oracle(seed: int) -> None:
    lp = random_boxed_lp(seed)
    want_status, want_value = oracle_solve(lp)
    sol = solve_lp(lp)
    if want_status == "infeasible":
        assert sol.status is LpStatus.INFEASIBLE, f"seed {seed}"
        return
    assert sol.status is LpStatus.OPTIMAL, f"seed {seed}"
    assert sol.objective == pytest.approx(want_value, abs=1e-7), f"seed {seed}"
    # feasibility of the reported point, re-checked outside the solver
    resid = lp.A @ sol.x - lp.b
    assert np.all(resid <= 1e-8)
    assert np.all(sol.x >= -1e-8)


def test_oracle_agreement_sweep():
    for seed in range(300):
        _check_against_oracle(seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_agreement_hypothesis(seed):
    _check_against_oracle(seed)


def test_matches_scipy_on_medium_problems():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for _ in range(20):
        m, n = 80, 25
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = A @ x0 + rng.uniform(0.05, 1.0, size=m)
        c = rng.normal(size=n)
        lp = LinearProgram(c, A, b, [Sense.LE] * m)
        sol = solve_lp(lp)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert sol.status is LpStatus.OPTIMAL
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_deterministic_resolve():
    lp = random_boxed_lp(42)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status is b.status
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


# Kelley master max t s.t. phi_u . w >= t per cut, w in the simplex, of the
# alpha = 1.4 quadratic design solve on the 101-point grid over [-3, 3]: the
# 14 cut directions it held when its ">=" form crashed.  In phase one a ratio
# tie took a 1.1e-10 pivot element over tied ones of 2.6 to 19; the tableau
# drifted after it, and the basis it ended at gave a weight of -8.2e-3.
_TIE_MASTER_CUTS = np.array([
    (0.0, 1.0, 0.0),
    (0.9938715494835256, -1.3017959410459724e-17, -0.1105411377144986),
    (0.45651738511143836, 0.8755317825895268, -0.15822760431296523),
    (0.2930426085220285, 0.950137584352518, -0.10660487977277083),
    (0.5987120306372995, -0.7756535486307251, -0.19976355239814095),
    (0.1787956425935464, -0.9817678417782293, -0.06452924174107784),
    (0.9922996937610705, 1.2255034934006688e-13, -0.12386007331535746),
    (0.34917306951141946, 0.9308473817967717, -0.10770942080462904),
    (0.5507830601294704, -0.8175061801838319, -0.16829042169908665),
    (0.11944530296264602, -0.9921727754220491, -0.036414328381423854),
    (0.2367262819200022, -0.9688741425170576, -0.07241245341906348),
    (0.9932006956149801, 4.1029263320169215e-12, -0.11641468219223729),
    (0.5056926106951714, 0.8464659957549915, -0.1666442363804185),
    (0.6393328750486987, 0.7416151968986675, -0.20312649903672297),
])


def test_ratio_tie_skips_a_tiny_pivot():
    from scipy.optimize import linprog

    xs = np.linspace(-3.0, 3.0, 101)[50:]  # 0 and the positive half
    f_pos = np.vander(xs, 3, increasing=True)
    f_neg = np.vander(-xs, 3, increasing=True)
    alpha = 1.4
    phi = 0.5 * (np.abs(_TIE_MASTER_CUTS @ f_pos.T) ** alpha
                 + np.abs(_TIE_MASTER_CUTS @ f_neg.T) ** alpha)
    n_cuts, g = phi.shape
    A = np.vstack([
        np.hstack([phi, -np.ones((n_cuts, 1))]),
        np.append(np.ones(g), 0.0),
    ])
    b = np.append(np.zeros(n_cuts), 1.0)
    c = np.append(np.zeros(g), 1.0)
    senses = [Sense.GE] * n_cuts + [Sense.EQ]
    domains = [Domain.NON_NEGATIVE] * g + [Domain.FREE]
    sol = solve_lp(LinearProgram(c, A, b, senses, domains, maximize=True))
    ref = linprog(-c, A_ub=-A[:-1], b_ub=-b[:-1], A_eq=A[-1:], b_eq=b[-1:],
                  bounds=[(0.0, None)] * g + [(None, None)], method="highs")
    assert sol.status is LpStatus.OPTIMAL
    assert ref.status == 0
    assert -ref.fun == pytest.approx(0.8436542498, abs=1e-9)
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)


# ---------------------------------------------------------------------------
# a live tableau grown a row at a time


def _split_boxed_lp(seed: int):
    """A random boxed program as its box alone plus the rows to add."""
    lp = random_boxed_lp(seed)
    n = lp.c.size
    m = lp.A.shape[0] - n
    box = LinearProgram(lp.c, lp.A[m:], lp.b[m:], lp.senses[m:], maximize=lp.maximize)
    return box, lp.A[:m], lp.b[:m]


def test_added_rows_match_a_solve_from_scratch():
    for seed in range(200):
        box, rows, rhs = _split_boxed_lp(seed)
        tab = Tableau(box)
        assert tab.solve().status is LpStatus.OPTIMAL
        for k, (row, b) in enumerate(zip(rows, rhs)):
            sol = tab.add_row(row, b)
            partial = LinearProgram(
                box.c, np.vstack([box.A, rows[: k + 1]]), np.append(box.b, rhs[: k + 1]),
                [Sense.LE] * (len(box.b) + k + 1), maximize=box.maximize,
            )
            want_status, want_value = oracle_solve(partial)
            if want_status == "infeasible":
                assert sol.status is LpStatus.INFEASIBLE, f"seed {seed}"
                with pytest.raises(LpError, match="solved"):
                    tab.add_row(row, b)
                break
            assert sol.status is LpStatus.OPTIMAL, f"seed {seed}"
            assert sol.objective == pytest.approx(want_value, abs=1e-7), f"seed {seed}"
            assert sol.objective == pytest.approx(solve_lp(partial).objective, abs=1e-9)
            assert np.all(partial.A @ sol.x - partial.b <= 1e-8)
            assert np.all(sol.x >= -1e-8)


def test_a_block_of_rows_matches_single_adds_and_a_solve_from_scratch():
    checked = 0
    for seed in range(200):
        box, rows, rhs = _split_boxed_lp(seed)
        whole = LinearProgram(box.c, np.vstack([box.A, rows]), np.append(box.b, rhs),
                              [Sense.LE] * (len(box.b) + len(rhs)), maximize=box.maximize)
        scratch = solve_lp(whole)
        block, single = Tableau(box), Tableau(box)
        block.solve()
        single.solve()
        sol = block.add_row(rows, rhs)
        assert sol.status is scratch.status, f"seed {seed}"
        for row, b in zip(rows, rhs):
            one = single.add_row(row, b)
            if one.status is not LpStatus.OPTIMAL:
                break
        assert one.status is scratch.status, f"seed {seed}"
        if scratch.status is LpStatus.OPTIMAL:
            checked += 1
            assert sol.objective == pytest.approx(scratch.objective, rel=1e-12, abs=1e-12)
            assert one.objective == pytest.approx(scratch.objective, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(block.lp.A, whole.A)
            np.testing.assert_array_equal(block.lp.b, whole.b)
    assert checked >= 100


def test_a_block_of_duplicate_rows_changes_nothing():
    # every row of the program again, some twice and some scaled by a
    # positive factor (the same half-space), added as one block
    for seed in range(50):
        lp = random_boxed_lp(seed)
        tab = Tableau(lp)
        first = tab.solve()
        if first.status is not LpStatus.OPTIMAL:
            continue
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(lp.b))
        rows = np.vstack([lp.A, lp.A * scale[:, None], lp.A[:2]])
        rhs = np.concatenate([lp.b, lp.b * scale, lp.b[:2]])
        sol = tab.add_row(rows, rhs)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(first.objective, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(sol.x, first.x, rtol=0.0, atol=1e-12)
        assert len(tab.lp.b) == 3 * len(lp.b) + 2


def test_added_row_after_phase_one():
    # max x + 2y on x + y = 1, y <= 1 needs phase one; the added row
    # x >= 0.25 is repaired by dual pivots, and the artificial column never
    # re-enters
    tab = Tableau(LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0],
                                [Sense.EQ, Sense.LE], ["free", "non-negative"], maximize=True))
    sol = tab.solve()
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
    sol = tab.add_row([-1.0, 0.0], -0.25)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.25, 0.75], atol=1e-12)
    assert sol.objective == pytest.approx(1.75, abs=1e-12)


def test_add_row_needs_a_solved_program():
    lp = LinearProgram([1.0], [[1.0]], [1.0], [Sense.LE], maximize=True)
    with pytest.raises(LpError, match="solved"):
        Tableau(lp).add_row([1.0], 0.5)
    tab = Tableau(lp)
    tab.solve()
    with pytest.raises(ValueError, match="shape"):
        tab.add_row([1.0, 2.0], 0.5)
    with pytest.raises(ValueError, match="shape"):  # a block needs one b per row
        tab.add_row([[1.0], [2.0]], 0.5)
    with pytest.raises(ValueError, match="shape"):
        tab.add_row(np.ones((2, 2)), [0.5, 0.5])
    with pytest.raises(ValueError, match="shape"):
        tab.add_row(np.ones((1, 1, 1)), [0.5])
    with pytest.raises(ValueError, match="finite"):
        tab.add_row([np.inf], 0.5)
