"""Dense simplex for small linear programs: two-phase primal, and dual
simplex repair after a row is added.

Deliberately self-contained and deterministic: the design solver's cut
LPs and the envelope estimator's fallback fits both need bit-for-bit
reproducible optima, which rules out threaded or heuristically-perturbed
backends.  A reported optimum is a basic solution of the split standard
form below, not always a vertex of the original program: with both
columns of a free variable nonbasic it can sit inside an optimal edge.
The envelope estimator fits replicates from its LP's dual vertices, tied
ones included (``estimator._certified_fits`` and ``_tied_fits``), and calls
this solver only for an optimal face its tie rule cannot order and for
designs with too many bases to enumerate.
Scale target is a few hundred variables and a couple thousand rows, dense.

Standard-form handling: free variables are split into positive and negative
parts, rows are normalised to non-negative right-hand sides, and ``<=`` /
``>=`` / ``=`` rows receive slack, surplus-plus-artificial, and artificial
columns respectively.  Phase one minimises the artificial mass (skipped when
a slack basis is already feasible); phase two runs Dantzig pricing and
switches permanently to Bland's rule after a run of degenerate pivots, which
guarantees termination.  ``solve_lp`` does exactly this on a fresh
``Tableau``.

A ``Tableau`` stays live after it is solved: ``Tableau.add_row`` appends a
block of rows ``A x <= b`` with their slacks basic, subtracts the basic
rows from them, and runs the same pivot kernel as a dual simplex until
every basic value is non-negative, then as the primal for any reduced cost
that roundoff left negative.  Phase one never runs again and the standard
form is never rebuilt.  The design solver's Kelley loop keeps its master
this way: each master is the last one plus a block of cut rows
``t - phi . w <= 0``, so a master costs a few pivots instead of a solve
from the slack basis.  Every solution, first or repaired, is refined
against the original rows and verified to 1e-8 on every row and sign.

The primal ratio test lets the smallest basis label leave among tied rows.
Before Bland's rule takes over it first passes over tied rows whose pivot
element is below 1e-3 of the largest tied one: any of them keeps the step,
and a tiny pivot would leave a near-singular basis behind.  The dual ratio
test lets the most negative basic value leave and, among tied columns,
enters the one with the largest pivot element (under Bland's rule, the
smallest basis label leaves and the smallest column label enters).
"""
from __future__ import annotations

import enum
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


def _pivot_cap(T: np.ndarray) -> int:
    """Pivots allowed to one solve or repair of ``T``; more raise ``LpError``."""
    return 2000 + 200 * (T.shape[0] + T.shape[1] - 1)


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


def _choose_dual_pivot(
    T: np.ndarray, basis: np.ndarray, red: np.ndarray, allowed: np.ndarray, bland: bool
):
    """Dual ratio test: returns (row, col), or (row, None) when ``row`` proves
    the program infeasible, or (None, None) when every basic value is at
    least -1e-10.

    The most negative basic value leaves (under Bland's rule, the smallest
    basis label among the negative ones).  The entering column keeps every
    reduced cost non-negative; among tied columns the largest pivot element
    enters, since reduced costs of zero tie often on a flat optimal face and
    a tiny pivot would throw the basic values far out (under Bland's rule,
    the smallest column label enters).
    """
    rhs = T[:, -1]
    rows = np.where(rhs < -_PIVOT_TOL)[0]
    if rows.size == 0:
        return None, None
    row = int(rows[np.argmin(basis[rows] if bland else rhs[rows])])
    a = T[row, :-1]
    cols = np.where(allowed & (a < -_PIVOT_TOL))[0]
    if cols.size == 0:
        return row, None
    ratios = np.maximum(red[cols], 0.0) / -a[cols]
    best = ratios.min()
    ties = cols[ratios <= best + 1e-12 * max(1.0, best)]
    if bland:
        return row, int(ties[0])
    return row, int(ties[np.argmax(-a[ties])])


def _run_simplex(
    T: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    allowed: np.ndarray,
    max_pivots: int,
    dual: bool = False,
) -> tuple[str, int]:
    """Optimise ``cost`` over the canonical tableau in place.

    The primal simplex returns ("optimal" | "unbounded", pivots); the dual
    simplex, from a basis whose reduced costs are non-negative, returns
    ("optimal" | "infeasible", pivots).  Both switch to Bland's rule after
    a run of degenerate pivots.  Reduced costs are kept in a separate
    vector, not in an objective row of the tableau.
    """
    m = T.shape[0]
    red = cost.copy()
    red -= cost[basis] @ T[:, :-1]
    obj = float(cost[basis] @ T[:, -1])
    degenerate_run = 0
    bland = False
    pivots = 0
    while True:
        if dual:
            row, col = _choose_dual_pivot(T, basis, red, allowed, bland)
            if row is None:
                return "optimal", pivots
            if col is None:
                return "infeasible", pivots
        else:
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


class Tableau:
    """The simplex tableau of one program, kept live so rows can be added.

    ``solve`` runs the two-phase primal simplex from the slack start.
    ``add_row`` then appends a block of rows ``A x <= b`` with their
    slacks basic, reduces them against the current basis, and restores
    feasibility with dual simplex pivots, followed by primal pivots for any
    reduced cost that roundoff left negative; phase one never runs again.
    Both return an ``LpSolution`` refined and verified against the original
    rows, the added ones included.  ``lp`` is the program solved so far,
    added rows last.
    """

    def __init__(self, lp: LinearProgram) -> None:
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

        # starting basis: slacks on LE rows, artificials elsewhere
        basis = np.full(m, -1, dtype=int)
        slack_idx = 0
        for i, s in enumerate(senses):
            if s is Sense.LE:
                basis[i] = n_struct + slack_idx
            if s in (Sense.LE, Sense.GE):
                slack_idx += 1
        for k, i in enumerate(art_rows):
            basis[i] = n_struct + n_slack + k
        if np.any(basis < 0):  # pragma: no cover - defensive
            raise LpError("failed to build a starting basis")

        self.lp = lp
        self._T = T
        self._basis = basis
        # pristine copy for the refinement solve (tableau pivots drift)
        self._A0 = T[:, :-1].copy()
        self._b0 = T[:, -1].copy()
        self._rows = np.arange(m)
        self._pos = np.array([pos for pos, _ in col_of_var], dtype=int)
        self._neg = np.array([neg for _, neg in col_of_var if neg is not None], dtype=int)
        self._free = np.array([neg is not None for _, neg in col_of_var], dtype=bool)
        self._le = np.array([s is Sense.LE for s in lp.senses], dtype=bool)
        self._ge = np.array([s is Sense.GE for s in lp.senses], dtype=bool)
        self._c_std = np.array(costs)
        self._n_struct = n_struct
        self._n_slack = n_slack
        self._n_art = n_art
        self._status: LpStatus | None = None

    def solve(self) -> LpSolution:
        """Two-phase primal simplex from the slack start."""
        T, basis = self._T, self._basis
        m = T.shape[0]
        n_struct, n_slack, n_art = self._n_struct, self._n_slack, self._n_art
        n_total = n_struct + n_slack + n_art
        max_pivots = _pivot_cap(T)

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
                return self._finish(LpStatus.INFEASIBLE, iterations)
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
                T = self._T = T[keep]
                basis = self._basis = basis[keep]
                self._rows = self._rows[keep]

        cost2 = np.zeros(n_total)
        cost2[:n_struct] = self._c_std
        status, piv = _run_simplex(T, basis, cost2, ~art_mask, max_pivots)
        iterations += piv
        if status == "unbounded":
            return self._finish(LpStatus.UNBOUNDED, iterations)
        return self._finish(LpStatus.OPTIMAL, iterations)

    def add_row(self, a, b) -> LpSolution:
        """Add the rows ``a x <= b`` to a solved program and re-optimise.

        ``a`` is one row of n entries or a k x n block, and ``b`` its right
        hand side or k of them.  The block grows the program and the
        tableau once, each new slack basic; the previous optimal basis stays
        dual feasible, so one run of dual simplex pivots restores primal
        feasibility without phase one.  The returned iteration count covers
        this re-optimisation only.
        """
        if self._status is not LpStatus.OPTIMAL:
            raise LpError("rows can only be added to a solved program")
        lp = self.lp
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        k = a.shape[0]
        if a.shape[1:] != lp.c.shape or b.shape != (k,):
            raise ValueError(
                f"rows have shape {a.shape} and right-hand sides {b.shape}, "
                f"expected (k, {lp.c.size}) and (k,)"
            )
        grown = LinearProgram(  # checks the size and finiteness
            lp.c, np.vstack([lp.A, a]), np.append(lp.b, b),
            lp.senses + (Sense.LE,) * k, lp.domains, lp.maximize,
        )
        if self._n_art:
            # artificials are nonbasic after phase one and may never re-enter
            self._T = np.delete(self._T, np.s_[-1 - self._n_art : -1], axis=1)
            self._A0 = self._A0[:, : -self._n_art]
            self._n_art = 0
        T, basis = self._T, self._basis
        m, width = T.shape
        n_cols = width - 1

        rows = np.zeros((k, n_cols + k + 1))
        rows[:, self._pos] = a
        rows[:, self._neg] = -a[:, self._free]
        rows[:, n_cols : n_cols + k] = np.eye(k)  # the new slacks
        rows[:, -1] = b
        m0 = self._A0.shape[0]
        A0 = np.zeros((m0 + k, n_cols + k))
        A0[:m0, :n_cols] = self._A0
        A0[m0:] = rows[:, :-1]
        self._A0 = A0
        self._b0 = np.append(self._b0, b)
        self._rows = np.append(self._rows, np.arange(m0, m0 + k))

        # the new rows in the current basis: subtract the basic columns' rows
        T_new = np.zeros((m + k, n_cols + k + 1))
        T_new[:m, :n_cols] = T[:, :-1]
        T_new[:m, -1] = T[:, -1]
        T_new[m:] = rows - rows[:, basis] @ T_new[:m]
        basis = np.append(basis, np.arange(n_cols, n_cols + k))
        self._T, self._basis = T_new, basis
        self._n_slack += k
        self._le = np.append(self._le, np.ones(k, dtype=bool))
        self._ge = np.append(self._ge, np.zeros(k, dtype=bool))
        self.lp = grown

        cost = np.zeros(n_cols + k)
        cost[: self._n_struct] = self._c_std
        allowed = np.ones(n_cols + k, dtype=bool)
        max_pivots = _pivot_cap(T_new)
        status, piv = _run_simplex(T_new, basis, cost, allowed, max_pivots, dual=True)
        if status == "infeasible":
            return self._finish(LpStatus.INFEASIBLE, piv)
        status, more = _run_simplex(T_new, basis, cost, allowed, max_pivots)
        if status == "unbounded":  # pragma: no cover - a row cannot unbound an optimum
            return self._finish(LpStatus.UNBOUNDED, piv + more)
        return self._finish(LpStatus.OPTIMAL, piv + more)

    def _finish(self, status: LpStatus, iterations: int) -> LpSolution:
        self._status = status
        if status is not LpStatus.OPTIMAL:
            return LpSolution(status, None, None, iterations)
        lp, T, basis = self.lp, self._T, self._basis
        x_std = np.zeros(T.shape[1] - 1)
        x_basic = T[:, -1]
        # refinement: re-solve the final basis system against the original data,
        # discarding error accumulated across tableau updates
        try:
            refined = np.linalg.solve(self._A0[np.ix_(self._rows, basis)], self._b0[self._rows])
            if np.all(np.isfinite(refined)):
                x_basic = refined
        except np.linalg.LinAlgError:  # keep tableau values for a singular basis
            pass
        x_std[basis] = x_basic
        x = x_std[self._pos]
        x[self._free] -= x_std[self._neg]

        # verify primal feasibility of the reported point
        resid = lp.A @ x - lp.b
        ok = np.where(
            self._le,
            resid <= _FEAS_TOL,
            np.where(self._ge, resid >= -_FEAS_TOL, np.abs(resid) <= _FEAS_TOL),
        )
        if not ok.all():
            i = int(np.argmin(ok))
            raise LpError(
                f"optimal basis violates row {i} by {resid[i]:.3e}; "
                "numerical breakdown"
            )
        negative = ~self._free & (x < -_FEAS_TOL)
        if negative.any():
            j = int(np.argmax(negative))
            raise LpError(f"variable {j} negative at {x[j]:.3e}")

        objective = float(lp.c @ x)
        return LpSolution(LpStatus.OPTIMAL, x, objective, iterations)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program; statuses are Optimal, Infeasible, or Unbounded.

    On Optimal the returned point satisfies every row within 1e-8
    (verified, not assumed) and the reported objective is exact for the
    returned point.
    """
    return Tableau(lp).solve()
