"""Brute-force oracle for small linear programs, used only by tests.

Enumerates every basic point of an all-inequality system ``A x <= b`` by
solving each n-subset of rows as equalities (a chunk of subsets per batched
NumPy solve), keeps the feasible ones, and optimises over that finite
vertex list.  Exact up to linear-solve roundoff, and entirely independent
of the simplex implementation under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from nonregdesign.lp import Domain, LinearProgram, Sense

FEAS_TOL = 1e-7


def enumerate_vertices(
    A_ub: np.ndarray, b_ub: np.ndarray, chunk: int = 50_000
) -> list[np.ndarray]:
    m, n = A_ub.shape
    vertices: list[np.ndarray] = []
    combos = itertools.combinations(range(m), n)
    while True:
        # a chunk of n-subsets of rows at a time, each solved as equalities
        rows = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, chunk)),
                           dtype=int).reshape(-1, n)
        if rows.size == 0:
            return vertices
        M = A_ub[rows]
        regular = np.abs(np.linalg.det(M)) >= 1e-9
        v = np.linalg.solve(M[regular], b_ub[rows[regular]][..., None])[..., 0]
        vertices.extend(v[np.all(v @ A_ub.T <= b_ub + FEAS_TOL, axis=1)])


def oracle_solve(lp: LinearProgram) -> tuple[str, float | None]:
    """Return ("optimal", value) or ("infeasible", None).

    Requires a bounded feasible region (callers add a bounding box), so the
    unbounded status never arises here.
    """
    rows = [lp.A.copy()]
    rhs = [lp.b.copy()]
    senses_rows = []
    for i, s in enumerate(lp.senses):
        if s is Sense.LE:
            senses_rows.append((lp.A[i], lp.b[i]))
        elif s is Sense.GE:
            senses_rows.append((-lp.A[i], -lp.b[i]))
        else:  # equality: keep both directions
            senses_rows.append((lp.A[i], lp.b[i]))
            senses_rows.append((-lp.A[i], -lp.b[i]))
    n = lp.A.shape[1]
    for j, d in enumerate(lp.domains):
        if d is Domain.NON_NEGATIVE:
            e = np.zeros(n)
            e[j] = -1.0
            senses_rows.append((e, 0.0))
    A_ub = np.array([r for r, _ in senses_rows])
    b_ub = np.array([v for _, v in senses_rows])
    vertices = enumerate_vertices(A_ub, b_ub)
    if not vertices:
        return "infeasible", None
    values = [float(lp.c @ v) for v in vertices]
    return "optimal", (max(values) if lp.maximize else min(values))


def random_boxed_lp(seed: int) -> LinearProgram:
    """Random small LP with a bounding box so the oracle applies.

    Roughly 70% are built around a known feasible point; the rest get fully
    random right-hand sides and are often infeasible.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    A = rng.normal(size=(m, n))
    if rng.random() < 0.7:
        x0 = rng.uniform(0.0, 2.0, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.5, size=m)
    else:
        b = rng.normal(size=m)
    box = 10.0
    A_full = np.vstack([A, np.eye(n)])
    b_full = np.concatenate([b, np.full(n, box)])
    senses = [Sense.LE] * (m + n)
    c = rng.normal(size=n)
    return LinearProgram(c, A_full, b_full, senses, maximize=bool(rng.random() < 0.5))
