"""Dense two-phase primal simplex for small linear programs.

Deliberately self-contained and deterministic: the design solver's cut
LPs and the envelope estimator's tied fits both need bit-for-bit
reproducible vertices, which rules out threaded or heuristically-perturbed
backends.  The envelope estimator fits most replicates from its LP's dual
vertices (``estimator._certified_fits``) and calls this solver only for
replicates whose optimal face may be more than a vertex and for designs
with too many bases to enumerate.  Scale target is a few hundred variables
and a couple thousand rows, dense.

Standard-form handling: free variables are split into positive and negative
parts, rows are normalised to non-negative right-hand sides, and ``<=`` /
``>=`` / ``=`` rows receive slack, surplus-plus-artificial, and artificial
columns respectively.  Phase one minimises the artificial mass (skipped when
a slack basis is already feasible); phase two runs Dantzig pricing and
switches permanently to Bland's rule after a run of degenerate pivots, which
guarantees termination.  The design solver writes its cut rows as
``t - phi . w <= 0``: they start at their slacks, so phase one carries only
the simplex row and the spread LP's target row.

The ratio test lets the smallest basis label leave among tied rows.  Before
Bland's rule takes over it first passes over tied rows whose pivot element
is below 1e-3 of the largest tied one: any of them keeps the step, and a
tiny pivot would leave a near-singular basis behind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

MAX_VARS = 500
MAX_ROWS = 2000
_PIVOT_TOL = 1e-10  # smallest pivot element and reduced cost acted upon
_FEAS_TOL = 1e-8  # row and sign violation allowed in a reported optimum
_TIE_PIVOT_RATIO = 1e-3  # on a ratio tie, pivots below this share of the largest are passed over


class Sense(enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


class Domain(enum.Enum):
    NON_NEGATIVE = "non-negative"
    FREE = "free"


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


class LpError(RuntimeError):
    """Solver failure that must not be silently returned (e.g. pivot cap)."""


@dataclass(frozen=True)
class LinearProgram:
    """min/max ``c'x`` s.t. ``A x (<=,=,>=) b`` with per-variable domains."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[Sense, ...]
    domains: tuple[Domain, ...]
    maximize: bool = False

    def __init__(self, c, A, b, senses, domains=None, maximize=False) -> None:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        m, n = A.shape
        if c.shape != (n,):
            raise ValueError(f"c has shape {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise ValueError(f"b has shape {b.shape}, expected ({m},)")
        if n > MAX_VARS or m > MAX_ROWS:
            raise ValueError(
                f"problem size {m}x{n} exceeds the supported {MAX_ROWS}x{MAX_VARS}"
            )
        senses = tuple(Sense(s) if not isinstance(s, Sense) else s for s in senses)
        if len(senses) != m:
            raise ValueError(f"{len(senses)} senses for {m} rows")
        if domains is None:
            domains = tuple(Domain.NON_NEGATIVE for _ in range(n))
        else:
            domains = tuple(
                Domain(d) if not isinstance(d, Domain) else d for d in domains
            )
        if len(domains) != n:
            raise ValueError(f"{len(domains)} domains for {n} variables")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("non-finite problem data")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "maximize", bool(maximize))


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _choose_entering(red: np.ndarray, allowed: np.ndarray, bland: bool):
    candidates = np.where(allowed & (red < -_PIVOT_TOL))[0]
    if candidates.size == 0:
        return None
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(red[candidates])])


def _choose_leaving(T: np.ndarray, basis: np.ndarray, col: int, m: int, bland: bool):
    a = T[:m, col]
    rhs = T[:m, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(a > _PIVOT_TOL, rhs / a, np.inf)
    best = np.min(ratios)
    if not np.isfinite(best):
        return None
    ties = np.where(ratios <= best + 1e-12 * max(1.0, abs(best)))[0]
    if ties.size > 1 and not bland:
        # any tied row keeps the step; a tiny pivot element among them
        # would leave a near-singular basis behind
        pivots = a[ties]
        ties = ties[pivots >= _TIE_PIVOT_RATIO * pivots.max()]
    # Bland-compatible tie-break: smallest basis label leaves
    return int(ties[np.argmin(basis[ties])])


def _run_simplex(
    T: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    allowed: np.ndarray,
    max_pivots: int,
) -> tuple[str, int]:
    """Optimise ``cost`` over the canonical tableau in place.

    Returns ("optimal" | "unbounded", pivots).  Appends a working objective
    row to the tableau view internally via a separate reduced-cost vector.
    """
    m = T.shape[0]
    red = cost.copy()
    red -= cost[basis] @ T[:, :-1]
    obj = float(cost[basis] @ T[:, -1])
    degenerate_run = 0
    bland = False
    pivots = 0
    while True:
        col = _choose_entering(red, allowed, bland)
        if col is None:
            return "optimal", pivots
        row = _choose_leaving(T, basis, col, m, bland)
        if row is None:
            return "unbounded", pivots
        _pivot(T, basis, row, col)
        red = cost - cost[basis] @ T[:, :-1]
        new_obj = float(cost[basis] @ T[:, -1])
        if abs(new_obj - obj) <= 1e-12 * max(1.0, abs(obj)):
            degenerate_run += 1
            if degenerate_run >= 10 * m:
                bland = True
        else:
            degenerate_run = 0
        obj = new_obj
        pivots += 1
        if pivots > max_pivots:
            raise LpError(f"pivot cap {max_pivots} exceeded; possible cycling")


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> LpSolution:
    """Solve the program; statuses are Optimal, Infeasible, or Unbounded.

    On Optimal the returned point satisfies every row within 1e-8
    (verified, not assumed) and the reported objective is exact for the
    returned point.
    """
    m, n = lp.A.shape

    # split free variables into x = u - v
    col_of_var: list[tuple[int, int | None]] = []
    cols: list[np.ndarray] = []
    costs: list[float] = []
    sign = -1.0 if lp.maximize else 1.0
    for j in range(n):
        col_of_var.append((len(cols), None))
        cols.append(lp.A[:, j].copy())
        costs.append(sign * lp.c[j])
        if lp.domains[j] is Domain.FREE:
            col_of_var[-1] = (col_of_var[-1][0], len(cols))
            cols.append(-lp.A[:, j])
            costs.append(-sign * lp.c[j])
    A_std = np.column_stack(cols) if cols else np.zeros((m, 0))
    c_std = np.array(costs)
    b_std = lp.b.copy()
    senses = list(lp.senses)

    # normalise to b >= 0
    for i in range(m):
        if b_std[i] < 0.0:
            A_std[i] *= -1.0
            b_std[i] *= -1.0
            if senses[i] is Sense.LE:
                senses[i] = Sense.GE
            elif senses[i] is Sense.GE:
                senses[i] = Sense.LE

    n_struct = A_std.shape[1]
    slack_cols = []
    art_rows = []
    for i, s in enumerate(senses):
        if s is Sense.LE:
            e = np.zeros(m)
            e[i] = 1.0
            slack_cols.append(e)
        elif s is Sense.GE:
            e = np.zeros(m)
            e[i] = -1.0
            slack_cols.append(e)
            art_rows.append(i)
        else:
            art_rows.append(i)
    n_slack = len(slack_cols)
    n_art = len(art_rows)

    blocks = [A_std]
    if n_slack:
        blocks.append(np.column_stack(slack_cols))
    if n_art:
        art_block = np.zeros((m, n_art))
        for k, i in enumerate(art_rows):
            art_block[i, k] = 1.0
        blocks.append(art_block)
    T = np.column_stack(blocks + [b_std])
    n_total = n_struct + n_slack + n_art
    # pristine copy for the final refinement solve (tableau pivots drift)
    A0 = T[:, :-1].copy()
    b0 = T[:, -1].copy()
    rows_idx = np.arange(m)

    # starting basis: slacks on LE rows, artificials elsewhere
    basis = np.full(m, -1, dtype=int)
    slack_idx = 0
    art_idx = 0
    for i, s in enumerate(senses):
        if s is Sense.LE:
            basis[i] = n_struct + slack_idx
        if s in (Sense.LE, Sense.GE):
            slack_idx += 1
    for k, i in enumerate(art_rows):
        basis[i] = n_struct + n_slack + k
    if np.any(basis < 0):  # pragma: no cover - defensive
        raise LpError("failed to build a starting basis")

    if max_pivots is None:
        max_pivots = 2000 + 200 * (m + n_total)

    iterations = 0
    art_mask = np.zeros(n_total, dtype=bool)
    art_mask[n_struct + n_slack :] = True

    if n_art:
        cost1 = np.zeros(n_total + 1)
        cost1[n_struct + n_slack :] = 1.0
        cost1 = cost1[:-1]
        allowed = np.ones(n_total, dtype=bool)
        status, piv = _run_simplex(T, basis, cost1, allowed, max_pivots)
        iterations += piv
        phase1_obj = float(cost1[basis] @ T[:, -1])
        if status != "optimal" or phase1_obj > _FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, iterations)
        # drive remaining artificials out of the basis (they sit at zero)
        drop_rows = []
        for i in range(m):
            if art_mask[basis[i]]:
                pivot_col = None
                for j in range(n_struct + n_slack):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col is None:
                    drop_rows.append(i)  # redundant row
                else:
                    _pivot(T, basis, i, pivot_col)
                    iterations += 1
        if drop_rows:
            keep = np.array([i for i in range(m) if i not in set(drop_rows)])
            T = T[keep]
            basis = basis[keep]
            rows_idx = rows_idx[keep]
            m = T.shape[0]

    cost2 = np.zeros(n_total)
    cost2[:n_struct] = c_std
    allowed = ~art_mask
    status, piv = _run_simplex(T, basis, cost2, allowed, max_pivots)
    iterations += piv
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, iterations)

    x_std = np.zeros(n_total)
    x_basic = T[:, -1]
    # refinement: re-solve the final basis system against the original data,
    # discarding error accumulated across tableau updates
    try:
        refined = np.linalg.solve(A0[np.ix_(rows_idx, basis)], b0[rows_idx])
        if np.all(np.isfinite(refined)):
            x_basic = refined
    except np.linalg.LinAlgError:  # keep tableau values for a singular basis
        pass
    x_std[basis] = x_basic
    x = np.empty(n)
    for j, (pos, neg) in enumerate(col_of_var):
        x[j] = x_std[pos] - (x_std[neg] if neg is not None else 0.0)

    # verify primal feasibility of the reported point
    resid = lp.A @ x - lp.b
    for i, s in enumerate(lp.senses):
        ok = (
            resid[i] <= _FEAS_TOL
            if s is Sense.LE
            else resid[i] >= -_FEAS_TOL
            if s is Sense.GE
            else abs(resid[i]) <= _FEAS_TOL
        )
        if not ok:
            raise LpError(
                f"optimal basis violates row {i} by {resid[i]:.3e}; "
                "numerical breakdown"
            )
    for j in range(n):
        if lp.domains[j] is Domain.NON_NEGATIVE and x[j] < -_FEAS_TOL:
            raise LpError(f"variable {j} negative at {x[j]:.3e}")

    objective = float(lp.c @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective, iterations)
