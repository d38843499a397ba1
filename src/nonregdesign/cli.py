"""Command-line front end for the non-regular design toolkit.

Subcommands
-----------
info        Hellinger information of a location or uniform family.
rbeta       Information integral r(beta) of the one-sided location model.
design-opt  Max-min optimal symmetric design via the cutting-plane solver.
pi-curve    Weight-at-zero curve for the symmetric three-point design.
simulate    Monte Carlo risk of the envelope estimator under named designs.
bound       Minimax risk lower bound from an information value.
e-optimal   E-optimal (minimum-eigenvalue) comparator design.

Exit codes: 0 success, 2 validation error, 3 design solver stopped before
its gap met the tolerance (at the cut cap, or on a repeated cut at grid
resolution; stderr names which), 4 simulation failure.  Floats are printed
with 12 significant digits and output files depend only on flags and seed,
so reruns are byte-for-byte identical.  ``--config FILE`` supplies a JSON
object whose keys mirror the long flags ('-' or '_' spelled either way);
each value goes through its flag's type and choices, explicit flags
override the file and unknown keys are rejected.  The
``NONREGDESIGN_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from .bounds import BoundInput, fisher_lower_bound, epsilon_diagnostic, minimax_lower_bound
from .design import (
    _GRID_SIZE,
    CuttingPlaneConfig,
    Design,
    DesignSolution,
    StopReason,
    default_grid,
    e_optimal_design,
    optimize_design_cutting_plane,
    pi_curve,
    uniform_design,
)
from .hellinger import location_info, r_beta, uniform_info
from .models import ErrorFamily, ErrorModel, RegressionModel, UniformModel, UniformVariant
from .sim import SimPlan, SimulationError, mc_risk, write_risk_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GAP = 3
EXIT_SIM_FAILURE = 4

SEED_ENV = "NONREGDESIGN_SEED"
_MONOTONE_TOL = 1e-6


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload))


def _parse_floats(text, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag}: could not parse {text!r} as floats") from exc


def _parse_matrix(text, flag: str) -> np.ndarray:
    rows = [_parse_floats(row, flag) for row in str(text).split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{flag}: rows have unequal lengths")
    return np.array(rows, dtype=float)


def _parse_alpha_grid(text) -> np.ndarray:
    """Either 'start:stop:step' (inclusive endpoints) or a comma list."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--alphas: expected start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ValueError("--alphas: need step > 0 and stop >= start")
        steps = (stop - start) / step
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"--alphas: step {step:g} does not divide stop - start")
        return np.linspace(start, stop, int(round(steps)) + 1)
    return np.array(_parse_floats(text, "--alphas"))


def _require(args: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            raise ValueError(f"--{dest.replace('_', '-')} is required")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV}={raw!r} is not an integer") from exc


def _error_model(args: argparse.Namespace) -> ErrorModel:
    try:
        family = ErrorFamily(args.family)
    except ValueError as exc:
        raise ValueError(f"--family: unknown error family {args.family!r}") from exc
    return ErrorModel(family, beta=args.beta, sigma=args.sigma)


def _default_j_tilde(alpha: float, sigma: float = 1.0) -> float:
    """Location-model information at beta = alpha; 1 in the regular limit."""
    if alpha >= 2.0:
        return 1.0
    return location_info(ErrorModel(ErrorFamily.GAMMA, beta=alpha, sigma=sigma)).J


def _write_solution(sol: DesignSolution, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    design_path = os.path.join(out_dir, "design.json")
    summary_path = os.path.join(out_dir, "summary.csv")
    payload = {
        "A": _round12(sol.design.A),
        "points": [
            {"x": _round12(x), "w": _round12(w)} for x, w in sol.design.points
        ],
    }
    with open(design_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["info", "gap", "cuts", "worst_direction"])
        writer.writerow(
            [
                _fmt(sol.info),
                _fmt(sol.gap),
                sol.cuts_used,
                " ".join(_fmt(v) for v in sol.worst_direction),
            ]
        )
    return design_path, summary_path


def _finish_design_command(sol: DesignSolution, out_dir: str, gap_tol: float) -> int:
    design_path, summary_path = _write_solution(sol, out_dir)
    _print_json(
        {
            "info": _round12(sol.info),
            "gap": _round12(sol.gap),
            "cuts": sol.cuts_used,
            "design": design_path,
            "summary": summary_path,
        }
    )
    if sol.stop is not StopReason.CONVERGED:
        print(
            f"error: solver stopped on {sol.stop.value} before converging: "
            f"gap {sol.gap:.3e}, relative tolerance {gap_tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_GAP
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    if (args.family is None) == (args.uniform is None):
        raise ValueError("provide exactly one of --family and --uniform")
    if args.family is not None:
        _require(args, "beta")
        res = location_info(_error_model(args))
    else:
        _require(args, "theta")
        try:
            variant = UniformVariant(args.uniform)
        except ValueError as exc:
            raise ValueError(f"--uniform: unknown variant {args.uniform!r}") from exc
        model = UniformModel(variant, _parse_floats(args.theta, "--theta"))
        direction = (
            None
            if args.direction is None
            else _parse_floats(args.direction, "--direction")
        )
        res = uniform_info(model, direction)
    _print_json(
        {
            "alpha": _round12(res.alpha),
            "J": _round12(res.J),
            "direction": None
            if res.direction is None
            else [_round12(v) for v in res.direction],
            "method": res.method.value,
        }
    )
    return EXIT_OK


def _cmd_rbeta(args: argparse.Namespace) -> int:
    _require(args, "beta")
    for beta in _parse_floats(args.beta, "--beta"):
        _print_json({"beta": _round12(beta), "r": _round12(r_beta(beta))})
    return EXIT_OK


def _cmd_design_opt(args: argparse.Namespace) -> int:
    _require(args, "degree", "A", "alpha")
    j_tilde = args.jtilde
    if j_tilde is None:
        if args.alpha < 1.0:
            raise ValueError(
                f"--alpha {args.alpha:g} needs --jtilde: the default information "
                "scale exists only for alpha in [1, 2]"
            )
        j_tilde = _default_j_tilde(args.alpha)
    config = CuttingPlaneConfig(gap_tol=args.gap_tol, max_cuts=args.max_cuts)
    grid = default_grid(args.A, args.grid_size)
    sol = optimize_design_cutting_plane(
        grid,
        alpha=args.alpha,
        j_tilde=j_tilde,
        degree=args.degree,
        config=config,
    )
    return _finish_design_command(sol, args.out_dir, config.gap_tol)


def _cmd_pi_curve(args: argparse.Namespace) -> int:
    a_values = _parse_floats(args.A, "--A")
    alphas = _parse_alpha_grid(args.alphas)
    rows = []  # (A, alpha, pi, f)
    for a in a_values:
        for alpha, pi, f in pi_curve(a, alphas):
            rows.append((a, alpha, pi, f))

    lines = ["A,alpha,pi,f"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    for a in a_values:
        pis = [r[2] for r in rows if r[0] == a]
        steps = np.diff(pis)
        ok = bool(steps.size == 0 or steps.min() >= -_MONOTONE_TOL)
        worst = 0.0 if steps.size == 0 else float(steps.min())
        lines.append(
            f"# monotone_in_alpha A={_fmt(a)}: {str(ok).lower()} (min step {_fmt(worst)})"
        )
    by_alpha_ok, worst_a_step = True, np.inf
    for alpha in alphas:
        pis = [r[2] for r in rows if r[1] == float(alpha)]
        steps = np.diff(pis)  # a_values order as given
        if steps.size:
            worst_a_step = min(worst_a_step, float(steps.min()))
            by_alpha_ok &= bool(steps.min() >= -_MONOTONE_TOL)
    if not np.isfinite(worst_a_step):
        worst_a_step = 0.0
    lines.append(
        f"# monotone_in_A: {str(by_alpha_ok).lower()} (min step {_fmt(worst_a_step)})"
    )
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _named_design(name: str, degree: int, a: float, alpha: float) -> Design:
    name = name.strip()
    if name == "optimal":
        if degree == 1:
            return Design([(-a, 0.5), (a, 0.5)], a)
        if degree == 2:
            _, pi, _ = pi_curve(a, [alpha])[0]
            return Design([(-a, 0.5 * (1 - pi)), (0.0, pi), (a, 0.5 * (1 - pi))], a)
        raise ValueError(f"--designs: no optimal design for degree {degree}")
    if name == "regular-optimal":
        return e_optimal_design(a, degree).design
    if name.startswith("uniform"):
        try:
            k = int(name[len("uniform"):])
        except ValueError as exc:
            raise ValueError(f"--designs: bad uniform design name {name!r}") from exc
        return uniform_design(a, k)
    raise ValueError(
        f"--designs: unknown design {name!r} (expected optimal, "
        "regular-optimal, or uniformK)"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "degree", "n", "theta", "designs", "reps")
    theta = _parse_floats(args.theta, "--theta")
    if len(theta) != args.degree + 1:
        raise ValueError(
            f"--theta: expected {args.degree + 1} coefficients, got {len(theta)}"
        )
    model = RegressionModel(args.degree, args.A, theta, _error_model(args))
    names = [tok.strip() for tok in str(args.designs).split(",") if tok.strip()]
    if not names:
        raise ValueError("--designs: empty design list")
    t0 = time.perf_counter()
    results = {}
    for name in names:
        design = _named_design(name, args.degree, args.A, args.beta)
        plan = SimPlan(
            design=design,
            n=args.n,
            model=model,
            replicates=args.reps,
            seed=args.seed,
        )
        results[name] = mc_risk(plan)
    write_risk_csv(args.out, results, args.seed)
    elapsed = time.perf_counter() - t0
    print(
        f"simulated {len(names)} designs x {args.reps} replicates "
        f"in {elapsed:.2f} s -> {args.out}"
    )
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    _require(args, "alpha")
    if (args.info is None) == (args.fisher is None):
        raise ValueError("provide exactly one of --info and --fisher")
    if args.dpsi is not None and args.fisher is None:
        raise ValueError("--dpsi applies only with --fisher")
    if args.fisher is not None:
        if args.alpha != 2.0:
            raise ValueError("--fisher: the Fisher-matrix path requires --alpha 2")
        fisher = _parse_matrix(args.fisher, "--fisher")
        d_psi = (
            np.eye(fisher.shape[0])
            if args.dpsi is None
            else _parse_matrix(args.dpsi, "--dpsi")
        )
        # the quadratic Hellinger expansion h^2 ~ (eps^2/4) u'Iu pins the
        # alpha = 2 information at lambda_min-type values / 4
        info_value = 1.0 / (4.0 * fisher_lower_bound(fisher, d_psi))
    else:
        info_value = args.info
    inp = BoundInput(alpha=args.alpha, info_value=info_value)
    _print_json(
        {
            "bound_with_constant": _round12(minimax_lower_bound(inp)),
            "bound_order": _round12(
                minimax_lower_bound(
                    BoundInput(args.alpha, info_value, include_constant=False)
                )
            ),
            "epsilon_diag": _round12(epsilon_diagnostic(args.alpha, info_value)),
        }
    )
    return EXIT_OK


def _cmd_e_optimal(args: argparse.Namespace) -> int:
    _require(args, "degree", "A")
    config = CuttingPlaneConfig(gap_tol=args.gap_tol, max_cuts=args.max_cuts)
    sol = e_optimal_design(args.A, args.degree, config, grid_size=args.grid_size)
    return _finish_design_command(sol, args.out_dir, config.gap_tol)


_HANDLERS = {
    "info": _cmd_info,
    "rbeta": _cmd_rbeta,
    "design-opt": _cmd_design_opt,
    "pi-curve": _cmd_pi_curve,
    "simulate": _cmd_simulate,
    "bound": _cmd_bound,
    "e-optimal": _cmd_e_optimal,
}

_CUTS = CuttingPlaneConfig()
_DESIGN_DEFAULTS = {"grid_size": _GRID_SIZE, "gap_tol": _CUTS.gap_tol,
                    "max_cuts": _CUTS.max_cuts, "out_dir": "."}
# hard defaults applied after the config file is merged; None means required
_DEFAULTS: dict[str, dict[str, object]] = {
    "info": {"sigma": 1.0},
    "rbeta": {},
    "design-opt": _DESIGN_DEFAULTS,
    "pi-curve": {"A": "1,1.5,2", "alphas": "1:2:0.05"},
    "simulate": {
        "A": 1.0,
        "beta": 1.0,
        "family": "gamma",
        "sigma": 1.0,
        "out": "risk.csv",
    },
    "bound": {},
    "e-optimal": _DESIGN_DEFAULTS,
}


def _flag_map(p: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Normalized long-flag name -> argparse action, for config-file merging."""
    out = {}
    for action in p._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and action.dest not in ("help", "config"):
                out[opt[2:].replace("-", "_")] = action
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    parser = argparse.ArgumentParser(
        prog="nonregdesign",
        description="Hellinger-information optimal designs for non-regular "
        "polynomial regression.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    flag_maps: dict[str, dict[str, argparse.Action]] = {}

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file whose keys mirror the long flags")
        return p

    p = add("info", "Hellinger information of a location or uniform family")
    p.add_argument("--family", choices=[f.value for f in ErrorFamily],
                   help="one-sided error family (location model)")
    p.add_argument("--beta", type=float, help="regularity index in [1, 2)")
    p.add_argument("--sigma", type=float, help="scale parameter (default 1)")
    p.add_argument("--uniform", choices=[v.value for v in UniformVariant],
                   help="uniform family with parameter-dependent support")
    p.add_argument("--theta", help="parameter value(s), comma separated")
    p.add_argument("--direction", help="unit direction u1,u2 (loc_scale only)")
    flag_maps["info"] = _flag_map(p)

    p = add("rbeta", "information integral r(beta) of the location model")
    p.add_argument("--beta", help="beta value or comma list in [1, 2)")
    flag_maps["rbeta"] = _flag_map(p)

    p = add("design-opt", "max-min optimal symmetric design (cutting-plane solver)")
    p.add_argument("--degree", type=int, help="polynomial degree (1 or 2)")
    p.add_argument("--A", type=float, help="design interval half-width")
    p.add_argument("--alpha", type=float, help="regularity index in (0, 2]")
    p.add_argument("--jtilde", type=float,
                   help="information scale (default, for alpha in [1, 2] only: "
                   "location model at beta=alpha)")
    p.add_argument("--grid-size", type=int, help="candidate grid size (default 101)")
    p.add_argument("--gap-tol", type=float, help="relative gap tolerance (default 1e-5)")
    p.add_argument("--max-cuts", type=int, help="cutting-plane cap (default 500)")
    p.add_argument("--out-dir", help="directory for design.json and summary.csv")
    flag_maps["design-opt"] = _flag_map(p)

    p = add("pi-curve", "weight-at-zero curve of the three-point design")
    p.add_argument("--A", help="interval half-widths, comma separated")
    p.add_argument("--alphas", help="alpha grid start:stop:step or comma list")
    p.add_argument("--out", help="output CSV path (default stdout)")
    flag_maps["pi-curve"] = _flag_map(p)

    p = add("simulate", "Monte Carlo risk of named designs")
    p.add_argument("--degree", type=int, help="polynomial degree (1 or 2)")
    p.add_argument("--A", type=float, help="design interval half-width (default 1)")
    p.add_argument("--alpha", dest="beta", type=float,
                   help="error regularity index beta (default 1)")
    p.add_argument("--family", choices=[f.value for f in ErrorFamily],
                   help="error family (default gamma)")
    p.add_argument("--sigma", type=float, help="error scale (default 1)")
    p.add_argument("--n", type=int, help="observations per replicate")
    p.add_argument("--theta", help="true coefficients, comma separated")
    p.add_argument("--designs",
                   help="comma list: optimal, regular-optimal, uniformK")
    p.add_argument("--reps", type=int, help="Monte Carlo replicates")
    p.add_argument("--seed", type=int,
                   help=f"base seed (default ${SEED_ENV} or 0)")
    p.add_argument("--out", help="risk CSV path (default risk.csv)")
    flag_maps["simulate"] = _flag_map(p)

    p = add("bound", "minimax risk lower bound")
    p.add_argument("--alpha", type=float, help="regularity index in (0, 2]")
    p.add_argument("--info", type=float, help="direction-free information value")
    p.add_argument("--fisher", help="Fisher matrix rows 'a,b;c,d' (alpha=2 path)")
    p.add_argument("--dpsi", help="interest-parameter Jacobian rows (default identity)")
    flag_maps["bound"] = _flag_map(p)

    p = add("e-optimal", "E-optimal comparator design")
    p.add_argument("--degree", type=int, help="polynomial degree (1 or 2)")
    p.add_argument("--A", type=float, help="design interval half-width")
    p.add_argument("--grid-size", type=int, help="candidate grid size (default 101)")
    p.add_argument("--gap-tol", type=float, help="relative gap tolerance (default 1e-5)")
    p.add_argument("--max-cuts", type=int, help="cutting-plane cap (default 500)")
    p.add_argument("--out-dir", help="directory for design.json and summary.csv")
    flag_maps["e-optimal"] = _flag_map(p)

    return parser, flag_maps


def _config_value(key: str, value, action: argparse.Action):
    """A --config value read as its text given as the flag would be, through
    the flag's ``type`` and ``choices``.  A JSON list stands for a comma list
    and is taken only by a flag without a type."""
    items = value if isinstance(value, list) and action.type is None else [value]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        raise ValueError(f"--config: field {key!r} must be a string or a number, "
                         f"got {json.dumps(value)}")
    text = ",".join(str(v) for v in items)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError(f"--config: field {key!r}: invalid "
                         f"{action.type.__name__} value {text!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"--config: field {key!r}: invalid choice {converted!r} "
                         f"(choose from {', '.join(action.choices)})")
    return converted


def _merge_config(args: argparse.Namespace, flags: dict[str, argparse.Action]) -> None:
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"--config: cannot read {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("--config: top level must be a JSON object")
    for key, value in payload.items():
        action = flags.get(str(key).replace("-", "_"))
        if action is None:
            raise ValueError(f"--config: unknown field {key!r}")
        value = _config_value(key, value, action)
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _apply_defaults(args: argparse.Namespace) -> None:
    for dest, value in _DEFAULTS[args.cmd].items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    if "seed" in vars(args) and args.seed is None:
        args.seed = _default_seed()


def main(argv=None) -> int:
    parser, flag_maps = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, flag_maps[args.cmd])
        _apply_defaults(args)
        return _HANDLERS[args.cmd](args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIM_FAILURE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
