"""No routine of the package loads SciPy, a test-only dependency.

Each check runs in a fresh interpreter, because an earlier test in this
process has usually loaded SciPy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""

BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter on the package source; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_load_no_scipy(tmp_path):
    # SciPy costs about 0.7 s of every run's start-up; none of these needs it
    code = """
import sys

import nonregdesign
from nonregdesign import cli
from nonregdesign.design import (
    default_grid,
    e_optimal_design,
    optimize_design_cutting_plane,
    pi_curve,
    uniform_design,
)
from nonregdesign.models import ErrorFamily, ErrorModel, RegressionModel
from nonregdesign.sim import SimPlan, mc_risk
""" + NO_SCIPY + """
model = RegressionModel(1, 1.0, (1.0, 2.0), ErrorModel(ErrorFamily.GAMMA, 1.5))
mc_risk(SimPlan(design=uniform_design(1.0, 5), n=30, model=model, replicates=10, seed=3))
pi_curve(1.0, [1.0])
optimize_design_cutting_plane(default_grid(1.0), alpha=1.4, j_tilde=1.0, degree=1)
e_optimal_design(1.0, 2)
assert cli.main([
    "simulate", "--degree", "1", "--A", "1", "--theta", "1,2", "--alpha", "1.5",
    "--designs", "optimal,uniform5", "--n", "30", "--reps", "10", "--seed", "3",
    "--out", sys.argv[1],
]) == 0
""" + NO_SCIPY
    run_fresh(code, str(tmp_path / "risk.csv"))
    assert (tmp_path / "risk.csv").is_file()


def test_design_information_loads_no_scipy():
    # design_info at degree 1 and 2, on each of the four sphere paths
    code = """
import sys

from nonregdesign.design import Design, design_info

design = Design([(-1.0, 0.2), (0.0, 0.6), (1.0, 0.2)], 1.0)
two = Design([(-1.0, 0.5), (1.0, 0.5)], 1.0)
for degree in (1, 2):
    methods = {design_info(design, alpha, 1.0, degree).method.value for alpha in (0.5, 1.5, 2.0)}
    assert methods == {"kink_enumeration", "branch_and_bound", "eigenvalue"}, methods
    assert design_info(design, 1.0, 1.0, degree).J > 0.0
assert design_info(two, 1.5, 1.0, 2).method.value == "sphere_search"
""" + NO_SCIPY
    run_fresh(code)


def test_closed_form_ladder_fit_loads_no_scipy():
    code = """
import sys

from nonregdesign.hellinger import estimate_alpha_and_J, uniform_h_fn
from nonregdesign.models import UniformModel, UniformVariant

fit = estimate_alpha_and_J(uniform_h_fn(UniformModel(UniformVariant.SCALE, 2.0)), 2.0)
assert abs(fit.alpha - 1.0) < 0.01, fit
""" + NO_SCIPY
    run_fresh(code)


def test_elementary_error_members_load_no_scipy(tmp_path):
    # Gamma comes from math, and every family's beta = 1 member is the
    # exponential, whose CDF, h and information are elementary
    code = """
import sys

import numpy as np

from nonregdesign import cli
from nonregdesign.hellinger import estimate_alpha_and_J, location_h_fn, location_info
from nonregdesign.models import ErrorFamily, ErrorModel

for family in ErrorFamily:
    m = ErrorModel(family, 1.0)
    estimate_alpha_and_J(location_h_fn(m), 0.0)
    assert location_info(m).J == 1.0
    assert m.cdf(0.5) > 0.0
    assert m.log_density_diff(np.array([0.5, 2.0]), 0.1).shape == (2,)
for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
    for beta in (1.3, 1.9):
        m = ErrorModel(family, beta)
        assert m.density(0.3) > 0.0
        assert m.density(np.array([0.3, 1.0])).shape == (2,)
        assert m.mean() > 0.0 and m.small_y_constant() > 0.0
estimate_alpha_and_J(location_h_fn(ErrorModel(ErrorFamily.WEIBULL, 1.6)), 0.0)
assert cli.main(["info", "--family", "gamma", "--beta", "1"]) == 0
assert cli.main([
    "design-opt", "--degree", "2", "--A", "1", "--alpha", "1", "--grid-size", "21",
    "--out-dir", sys.argv[1],
]) == 0
""" + NO_SCIPY
    run_fresh(code, str(tmp_path))
    assert (tmp_path / "design.json").is_file()


def test_location_information_loads_no_scipy(tmp_path):
    # r(beta) has a closed form in math.gamma, so the information commands
    # need no SciPy at any beta
    code = """
import sys

from nonregdesign import cli

for family in ("gamma", "weibull"):
    assert cli.main(["info", "--family", family, "--beta", "1.5"]) == 0
assert cli.main(["rbeta", "--beta", "1.2,1.8"]) == 0
assert cli.main([
    "design-opt", "--degree", "2", "--A", "1", "--alpha", "1.5", "--grid-size", "21",
    "--out-dir", sys.argv[1],
]) == 0
""" + NO_SCIPY
    run_fresh(code, str(tmp_path))
    assert (tmp_path / "design.json").is_file()


def test_former_scipy_users_run_with_scipy_blocked():
    # The gamma CDF at beta != 1 once took scipy.special.gammainc and generic
    # h scipy.integrate.quad; the 16 fits are those of the info-ladder
    # benchmark.  A finder at the head of sys.meta_path fails every import
    # of scipy, so a lazy import that survives anywhere on these paths fails.
    code = BLOCK_SCIPY + """
import math

import numpy as np

from nonregdesign.hellinger import (
    DensitySpec,
    estimate_alpha_and_J,
    fisher_quadratic_check,
    hellinger_sq_numeric,
    location_h_fn,
    normal_density,
    uniform_h_fn,
)
from nonregdesign.models import ErrorFamily, ErrorModel, UniformModel, UniformVariant

BETAS = (1.0, 1.3, 1.6, 1.9)
gamma = ErrorModel(ErrorFamily.GAMMA, 1.5)
assert 0.0 < gamma.cdf(0.3) < gamma.cdf(np.array([3.0]))[0] < 1.0
assert gamma.density(0.3) > 0.0 and ErrorModel(ErrorFamily.WEIBULL, 1.5).mean() > 0.0
assert hellinger_sq_numeric(normal_density(0.0, 1.0), normal_density(0.5, 1.2)) > 0.0
fit, quarter = fisher_quadratic_check((0.0, 1.0), (1.0, 0.0))
assert abs(fit.J / quarter - 1.0) < 0.01

for family in (ErrorFamily.GAMMA, ErrorFamily.WEIBULL):
    for beta in BETAS:
        fit = estimate_alpha_and_J(location_h_fn(ErrorModel(family, beta)), 0.7)
        assert abs(fit.alpha - beta) < 1e-3, fit


def shifted_h(model):
    def spec(loc):
        return DensitySpec(lambda y: model.density(y - loc), (loc, math.inf))

    return lambda t1, t2: hellinger_sq_numeric(spec(t1[0]), spec(t2[0]))


for beta in BETAS:
    fit = estimate_alpha_and_J(shifted_h(ErrorModel(ErrorFamily.GAMMA, beta)), -1.3)
    assert abs(fit.alpha - beta) < 1e-3, fit
for variant, theta, u in [
    ("scale", 2.0, None),
    ("reciprocal", 2.0, None),
    ("power_pair", 2.0, None),
    ("loc_scale", (0.3, 1.5), (0.6, 0.8)),
]:
    h = uniform_h_fn(UniformModel(UniformVariant(variant), theta))
    assert abs(estimate_alpha_and_J(h, theta, u).alpha - 1.0) < 1e-3
""" + NO_SCIPY
    run_fresh(code)
