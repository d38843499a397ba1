"""Dense oracle for sphere minima, used only by tests.

Rebuilds min_{|u|=1} sum_i w_i |f_i'u|^alpha from numpy and SciPy alone:
nothing here imports the package under test.  A dense angle (d = 2) or
latitude-longitude (d = 3) grid finds the basins, Powell and Nelder-Mead
polish the lowest of them in tangent coordinates of the sphere, and the
kink rays where |f_i'u|^alpha bends are evaluated as well.  ``cap_samples``
gives dense directions inside a cap, to check a claimed bound on it.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_grid(d: int) -> np.ndarray:
    """Dense angle grid over [0, pi] (d = 2, shape (20001, 2)) or lat-long grid
    over the upper hemisphere (d = 3, shape (241, 960, 3), rows by latitude)."""
    if d == 2:
        t = np.linspace(0.0, math.pi, 20001)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    th, ph = np.meshgrid(
        np.linspace(0.0, 0.5 * math.pi, 241),
        np.linspace(0.0, 2.0 * math.pi, 960, endpoint=False),
        indexing="ij",
    )
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def cap_samples(u, angle: float, n: int = 40) -> np.ndarray:
    """Unit directions within ``angle`` of u: u itself, rings at n radii
    (evenly spaced and geometrically spaced down to 1e-6 of ``angle``, the
    last on the boundary) and, at d = 3, n azimuths per ring."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    tangent = np.linalg.svd(u[None])[2][1:]
    radii = angle * np.concatenate([np.linspace(0.0, 1.0, n), np.geomspace(1e-6, 1.0, n)])
    if len(u) == 2:
        rho = np.concatenate([radii, radii])
        dirs = np.repeat([tangent[0], -tangent[0]], len(radii), axis=0)
    else:
        phi = np.arange(n) * (2.0 * math.pi / n)
        rho = np.repeat(radii, n)
        dirs = np.tile(np.cos(phi)[:, None] * tangent[0] + np.sin(phi)[:, None] * tangent[1],
                       (len(radii), 1))
    return np.cos(rho)[:, None] * u + np.sin(rho)[:, None] * dirs


def grid_values(f, ws, alpha):
    """The grid of ``oracle_grid`` and the criterion at each of its points."""
    us = oracle_grid(f.shape[1])
    flat = us.reshape(-1, f.shape[1])
    vals = np.concatenate([
        np.abs(flat[s:s + 20_000] @ f.T) ** alpha @ ws
        for s in range(0, len(flat), 20_000)
    ])
    return us, vals.reshape(us.shape[:-1])


def grid_oracle(f, ws, alpha) -> float:
    """Smallest criterion value over the dense grid."""
    return float(np.min(grid_values(f, ws, alpha)[1]))


def kink_oracle(f, ws, alpha) -> float:
    """Smallest objective value over the null directions of the rows (d = 2)
    or their pairwise cross products (d = 3).  The rows a ray annihilates
    are left out of its sum, so rounding residue does not enter |.|^alpha."""
    n = len(f)
    if f.shape[1] == 2:
        rays = [(np.array([-f[k, 1], f[k, 0]]), {k}) for k in range(n)]
    else:
        rays = [
            (np.cross(f[i], f[j]), {i, j}) for i in range(n) for j in range(i + 1, n)
        ]
    best = math.inf
    for u, zero in rays:
        u = u / np.linalg.norm(u)
        value = sum(ws[k] * abs(f[k] @ u) ** alpha for k in range(n) if k not in zero)
        best = min(best, value)
    return best


def dense_oracle(f, ws, alpha, starts=12) -> float:
    """Sphere minimum of the objective: the dense grid of ``grid_values``,
    then a polish from the lowest grid point of each basin (a point no
    higher than its grid neighbours), and the kink rays of ``kink_oracle``.
    Nelder-Mead and Powell alternate until a round gains nothing: either
    alone can stall in the narrow valley along a kink circle f_i'u = 0, and
    both stall short of a minimum on a kink ray at alpha < 1."""
    from scipy.optimize import minimize

    us, vals = grid_values(f, ws, alpha)
    if f.shape[1] == 2:
        basin = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    else:
        padded = np.pad(vals, ((1, 1), (0, 0)), mode="edge")
        basin = (vals <= padded[:-2]) & (vals <= padded[2:])
        basin &= (vals <= np.roll(vals, 1, axis=1)) & (vals <= np.roll(vals, -1, axis=1))
        basin[0, 1:] = False  # the pole row is a single direction
    cands, cand_vals = us[basin], vals[basin]
    order = np.argsort(cand_vals, kind="stable")[:starts]

    def g(v):
        u = v / np.linalg.norm(v)
        return float(ws @ np.abs(f @ u) ** alpha)

    def polish(u, method, options):
        # tangent coordinates at u: in R^d the objective is constant along
        # rays, a flat direction that can hold Nelder-Mead to its cap
        basis = np.linalg.svd(u[None])[2][1:]
        res = minimize(lambda s: g(u + s @ basis), np.zeros(len(basis)),
                       method=method, options=options)
        v = u + res.x @ basis
        return v / np.linalg.norm(v), float(res.fun)

    best = min(float(np.min(vals)), kink_oracle(f, ws, alpha))
    methods = [
        ("Powell", {"xtol": 1e-14, "ftol": 1e-17, "maxfev": 5_000}),
        ("Nelder-Mead", {"xatol": 1e-13, "fatol": 1e-17, "maxiter": 2_000}),
    ]
    for u in cands[order]:
        value = g(u)
        for _ in range(10):
            start = value
            for method, options in methods:
                v, fun = polish(u, method, options)
                if fun < value:
                    u, value = v, fun
            if not value < start:
                break
        best = min(best, value)
    return best
