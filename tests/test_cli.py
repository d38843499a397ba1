import json
import math

import pytest

from nonregdesign.cli import main
from nonregdesign.hellinger import r_beta


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    comments = [l for l in lines if l.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in data[1:]]
    return rows, comments


class TestInfo:
    def test_gamma_beta1(self, capsys):
        code, out, _ = run(capsys, "info", "--family", "gamma", "--beta", "1",
                           "--sigma", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 1.0
        assert payload["J"] == pytest.approx(1.0, rel=1e-10)
        assert payload["method"] == "closed_form"
        assert payload["direction"] is None

    def test_uniform_scale(self, capsys):
        code, out, _ = run(capsys, "info", "--uniform", "scale", "--theta", "2")
        assert code == 0
        assert json.loads(out)["J"] == pytest.approx(0.5, rel=1e-12)

    def test_loc_scale_needs_direction(self, capsys):
        code, _, err = run(capsys, "info", "--uniform", "loc_scale",
                           "--theta", "0,2")
        assert code == 2
        assert "direction" in err

    def test_loc_scale_with_direction(self, capsys):
        code, out, _ = run(capsys, "info", "--uniform", "loc_scale",
                           "--theta", "0,2", "--direction", "1,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["J"] == pytest.approx(1.0, rel=1e-12)
        assert payload["direction"] == [1.0, 0.0]

    def test_regular_regime_rejected(self, capsys):
        code, _, err = run(capsys, "info", "--family", "gamma", "--beta", "2.5")
        assert code == 2
        assert "regular regime" in err

    def test_exactly_one_model_required(self, capsys):
        assert run(capsys, "info")[0] == 2
        assert run(capsys, "info", "--family", "gamma", "--beta", "1",
                   "--uniform", "scale", "--theta", "2")[0] == 2


class TestRbeta:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "rbeta", "--beta", "1,1.5")
        assert code == 0
        lines = json_lines(out)
        assert lines[0] == {"beta": 1.0, "r": 0.0}
        assert lines[1]["r"] == pytest.approx(r_beta(1.5), rel=1e-10)

    def test_domain(self, capsys):
        assert run(capsys, "rbeta", "--beta", "2")[0] == 2


class TestDesignOpt:
    def test_linear_alpha14(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design-opt", "--degree", "1", "--A", "1",
                           "--alpha", "1.4", "--out-dir", str(tmp_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["info"] == pytest.approx(0.767970938573, rel=1e-6)
        design = json.loads((tmp_path / "design.json").read_text())
        assert design["A"] == 1.0
        weights = {p["x"]: p["w"] for p in design["points"]}
        assert set(weights) == {-1.0, 1.0}
        assert weights[1.0] == pytest.approx(0.5, abs=1e-4)
        rows, _ = read_csv_rows(tmp_path / "summary.csv")
        assert float(rows[0]["info"]) == pytest.approx(summary["info"], rel=1e-10)
        assert len(rows[0]["worst_direction"].split()) == 2

    @pytest.mark.parametrize("extra", [
        ("--A", "3", "--alpha", "1.4"),
        ("--A", "3", "--alpha", "1.2", "--grid-size", "51"),
        ("--A", "4", "--alpha", "1.6"),
    ])
    def test_quadratic_masters_that_once_crashed(self, capsys, tmp_path, extra):
        # the master LP with ">=" cut rows raised LpError on these inputs
        code, out, err = run(capsys, "design-opt", "--degree", "2", *extra,
                             "--out-dir", str(tmp_path))
        assert code == 0, err
        assert json.loads(out)["info"] > 0.0

    def test_jtilde_override(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design-opt", "--degree", "1", "--A", "1",
                           "--alpha", "1.4", "--jtilde", "1",
                           "--out-dir", str(tmp_path))
        assert code == 0
        # sum of |(1, +-1)'u|^1.4 / 2 minimized at u = (1, 0), value 2^(0.7-1)... at
        # the antipodal kink direction: 2^(alpha/2 - 1)
        assert json.loads(out)["info"] == pytest.approx(2 ** (1.4 / 2 - 1), rel=1e-6)

    def test_gap_at_cut_cap_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "design-opt", "--degree", "2", "--A", "1",
                             "--alpha", "1", "--max-cuts", "8",
                             "--out-dir", str(tmp_path))
        assert code == 3
        assert "gap" in err
        assert (tmp_path / "design.json").exists()  # partial result still written

    def test_gap_error_names_the_stop_reason(self, capsys, tmp_path):
        code, _, err = run(capsys, "design-opt", "--degree", "2", "--A", "1",
                           "--alpha", "1", "--max-cuts", "8",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "max_cuts" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "degree": 1, "A": 1, "alpha": 1.4, "jtilde": 1,
            "out-dir": str(tmp_path / "out"),
        }))
        code, out, _ = run(capsys, "design-opt", "--config", str(cfg),
                           "--alpha", "1")
        assert code == 0
        # flag --alpha 1 overrides the file's 1.4: info = jtilde * A/sqrt(1+A^2)
        assert json.loads(out)["info"] == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-6
        )

    def test_config_unknown_field_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": 1, "A": 1, "alpha": 1, "bogus": 3}))
        code, _, err = run(capsys, "design-opt", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(capsys, "design-opt", "--config", str(cfg))[0] == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "design-opt", "--degree", "1", "--A", "1")
        assert code == 2
        assert "--alpha" in err

    def test_alpha_below_one_needs_jtilde(self, capsys):
        code, _, err = run(capsys, "design-opt", "--degree", "2", "--A", "2",
                           "--alpha", "0.5")
        assert code == 2
        assert "--jtilde" in err

    def test_alpha_below_one_with_jtilde(self, capsys, tmp_path):
        code, _, _ = run(capsys, "design-opt", "--degree", "1", "--A", "1",
                         "--alpha", "0.5", "--jtilde", "1",
                         "--out-dir", str(tmp_path))
        assert code == 0

    def test_alpha_below_one_jtilde_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jtilde": 1, "out-dir": str(tmp_path / "out")}))
        code, _, _ = run(capsys, "design-opt", "--config", str(cfg),
                         "--degree", "1", "--A", "1", "--alpha", "0.5")
        assert code == 0

    def test_degree_below_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "design-opt", "--degree", "0", "--A", "2",
                           "--alpha", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "degree" in err
        code, _, err = run(capsys, "design-opt", "--degree", "3", "--A", "2",
                           "--alpha", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "degree" in err

    def test_bad_solver_settings_are_named(self, capsys, tmp_path):
        # nan once passed every "<= 0" check: design-opt printed "info": NaN
        # (not JSON) and e-optimal exited 3 on a "relative tolerance nan"
        for cmd, flag, value, name in [
            ("design-opt", "--gap-tol", "0", "gap_tol"),
            ("design-opt", "--max-cuts", "3", "max_cuts"),
            ("design-opt", "--jtilde", "nan", "j_tilde"),
            ("e-optimal", "--gap-tol", "nan", "gap_tol"),
        ]:
            extra = ["--alpha", "1"] if cmd == "design-opt" else []
            code, _, err = run(capsys, cmd, "--degree", "1", "--A", "1", *extra,
                               flag, value, "--out-dir", str(tmp_path))
            assert code == 2
            assert name in err

    def test_idempotent_outputs(self, capsys, tmp_path):
        args = ("design-opt", "--degree", "1", "--A", "1", "--alpha", "1",
                "--out-dir", str(tmp_path))
        run(capsys, *args)
        first = (tmp_path / "design.json").read_bytes()
        first_summary = (tmp_path / "summary.csv").read_bytes()
        run(capsys, *args)
        assert (tmp_path / "design.json").read_bytes() == first
        assert (tmp_path / "summary.csv").read_bytes() == first_summary


class TestPiCurve:
    def test_endpoint_rows_and_comments(self, capsys, tmp_path):
        out_path = tmp_path / "pi.csv"
        code, _, _ = run(capsys, "pi-curve", "--A", "1", "--alphas", "1,2",
                         "--out", str(out_path))
        assert code == 0
        rows, comments = read_csv_rows(out_path)
        assert [r["alpha"] for r in rows] == ["1", "2"]
        assert float(rows[0]["pi"]) == pytest.approx(0.5, abs=2e-4)
        assert float(rows[0]["f"]) == pytest.approx(2.0 ** -1.5, abs=1e-4)
        assert float(rows[1]["pi"]) == pytest.approx(0.6, abs=2e-4)
        assert float(rows[1]["f"]) == pytest.approx(0.2, abs=1e-4)
        assert any("monotone_in_alpha" in c and "true" in c for c in comments)
        assert any("monotone_in_A" in c for c in comments)

    def test_writes_to_stdout_without_out(self, capsys):
        code, out, _ = run(capsys, "pi-curve", "--A", "1", "--alphas", "2")
        assert code == 0
        assert out.startswith("A,alpha,pi,f")

    def test_bad_alpha_grid(self, capsys):
        assert run(capsys, "pi-curve", "--A", "1", "--alphas", "1:2")[0] == 2

    @pytest.mark.parametrize("grid", ["1:2:0.3", "1:1.05:0.1"])
    def test_step_must_divide_the_range(self, capsys, grid):
        code, out, err = run(capsys, "pi-curve", "--A", "1", "--alphas", grid)
        assert code == 2
        assert out == ""
        assert "--alphas" in err and "does not divide" in err

    def test_range_grid_matches_comma_list(self, capsys, tmp_path):
        ranged, listed = tmp_path / "ranged.csv", tmp_path / "listed.csv"
        run(capsys, "pi-curve", "--A", "1", "--alphas", "1:2:0.25",
            "--out", str(ranged))
        run(capsys, "pi-curve", "--A", "1", "--alphas", "1,1.25,1.5,1.75,2",
            "--out", str(listed))
        assert ranged.read_bytes() == listed.read_bytes()


class TestSimulate:
    BASE = ("simulate", "--degree", "1", "--alpha", "1", "--n", "20",
            "--theta", "6,0.5", "--reps", "20")

    def test_linear_runs_and_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "risk.csv"
        code, out, _ = run(capsys, *self.BASE, "--designs", "optimal,uniform5",
                           "--seed", "7", "--out", str(out_path))
        assert code == 0
        assert "2 designs" in out
        rows, _ = read_csv_rows(out_path)
        assert len(rows) == 6  # 2 designs x (2 components + total)
        assert {r["design_id"] for r in rows} == {"optimal", "uniform5"}
        assert all(r["seed"] == "7" for r in rows)
        totals = {r["design_id"]: float(r["mse"]) for r in rows
                  if r["component"] == "total"}
        comps = {(r["design_id"], r["component"]): float(r["mse"]) for r in rows}
        assert totals["optimal"] == pytest.approx(
            comps[("optimal", "0")] + comps[("optimal", "1")], rel=1e-9
        )

    def test_env_var_supplies_seed(self, capsys, tmp_path, monkeypatch):
        flagged = tmp_path / "a.csv"
        env = tmp_path / "b.csv"
        run(capsys, *self.BASE, "--designs", "optimal", "--seed", "11",
            "--out", str(flagged))
        monkeypatch.setenv("NONREGDESIGN_SEED", "11")
        run(capsys, *self.BASE, "--designs", "optimal", "--out", str(env))
        assert flagged.read_bytes() == env.read_bytes()

    def test_single_replicate_runs_with_wide_se(self, capsys, tmp_path):
        out_path = tmp_path / "risk.csv"
        code, _, _ = run(capsys, "simulate", "--degree", "1", "--n", "20",
                         "--theta", "6,0.5", "--reps", "1", "--seed", "3",
                         "--designs", "optimal", "--out", str(out_path))
        assert code == 0
        rows, _ = read_csv_rows(out_path)
        assert all(r["mc_se"] == "inf" for r in rows)

    def test_degenerate_design_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--degree", "2", "--n", "20",
                           "--theta", "2,4,0.8", "--reps", "20", "--seed", "3",
                           "--designs", "uniform2",
                           "--out", str(tmp_path / "r.csv"))
        assert code == 4
        assert "replicates failed" in err

    def test_theta_length_checked(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--degree", "2", "--n", "20",
                           "--theta", "6,0.5", "--reps", "5", "--seed", "3",
                           "--designs", "optimal",
                           "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "--theta" in err

    def test_unknown_design_name(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.BASE, "--designs", "bestest",
                           "--seed", "3", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "bestest" in err

    def test_quadratic_named_designs(self, capsys, tmp_path):
        out_path = tmp_path / "risk.csv"
        code, _, _ = run(capsys, "simulate", "--degree", "2", "--alpha", "1",
                         "--A", "1", "--n", "30", "--theta", "2,4,0.8",
                         "--reps", "10", "--seed", "7",
                         "--designs", "optimal,regular-optimal",
                         "--out", str(out_path))
        assert code == 0
        rows, _ = read_csv_rows(out_path)
        assert len(rows) == 8  # 2 designs x (3 components + total)


class TestBound:
    def test_power_law(self, capsys):
        code, out, _ = run(capsys, "bound", "--alpha", "1", "--info", "120")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_order"] == pytest.approx(120.0 ** -2, rel=1e-10)
        assert payload["bound_with_constant"] == pytest.approx(
            (1 / 32) * 3.0 ** -2 * 120.0 ** -2, rel=1e-10
        )
        assert payload["epsilon_diag"] == pytest.approx(1 / 360, rel=1e-10)

    def test_fisher_matrix_path(self, capsys):
        code, out, _ = run(capsys, "bound", "--alpha", "2",
                           "--fisher", "2,0;0,5")
        assert code == 0
        payload = json.loads(out)
        # identity psi: info = lambda_min/4 = 0.5, so the order term is
        # 4 * (1/lambda_min), the regular eigenvalue bound
        assert payload["bound_order"] == pytest.approx(2.0, rel=1e-10)

    def test_fisher_with_dpsi(self, capsys):
        code, out, _ = run(capsys, "bound", "--alpha", "2",
                           "--fisher", "2,0;0,5", "--dpsi", "0,1")
        assert code == 0
        # D I^-1 D' = 1/5; info = 1/(4/5)/... = 1/(4*0.2); order = 0.8
        assert json.loads(out)["bound_order"] == pytest.approx(0.8, rel=1e-10)

    def test_zero_info_rejected(self, capsys):
        assert run(capsys, "bound", "--alpha", "1", "--info", "0")[0] == 2

    def test_fisher_requires_alpha_2(self, capsys):
        code, _, err = run(capsys, "bound", "--alpha", "1",
                           "--fisher", "2,0;0,5")
        assert code == 2
        assert "alpha 2" in err

    def test_non_finite_matrices_are_named(self, capsys):
        # --dpsi nan,1 once exited 2 with "SVD did not converge"
        for flag, value, name in [
            ("--dpsi", "nan,1", "d_psi must be finite"),
            ("--dpsi", "inf,1", "d_psi must be finite"),
            ("--fisher", "nan,0;0,3", "fisher matrix must be finite"),
        ]:
            args = {"--fisher": "2,0;0,3", "--dpsi": "0,1", flag: value}
            code, out, err = run(capsys, "bound", "--alpha", "2",
                                 "--fisher", args["--fisher"], "--dpsi", args["--dpsi"])
            assert code == 2
            assert out == ""
            assert name in err

    def test_dpsi_needs_fisher(self, capsys):
        code, out, err = run(capsys, "bound", "--alpha", "1", "--info", "120",
                             "--dpsi", "0,1")
        assert code == 2
        assert out == ""
        assert "--dpsi applies only with --fisher" in err

    def test_exactly_one_info_source(self, capsys):
        assert run(capsys, "bound", "--alpha", "1")[0] == 2
        assert run(capsys, "bound", "--alpha", "2", "--info", "1",
                   "--fisher", "1,0;0,1")[0] == 2


class TestEOptimal:
    def test_linear(self, capsys, tmp_path):
        code, out, _ = run(capsys, "e-optimal", "--degree", "1", "--A", "1",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["info"] == pytest.approx(1.0, rel=1e-6)
        design = json.loads((tmp_path / "design.json").read_text())
        weights = {p["x"]: p["w"] for p in design["points"]}
        assert weights[1.0] == pytest.approx(0.5, abs=1e-6)

    def test_quadratic_a2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "e-optimal", "--degree", "2", "--A", "2",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["info"] == pytest.approx(0.75, abs=1e-5)
        design = json.loads((tmp_path / "design.json").read_text())
        weights = {p["x"]: p["w"] for p in design["points"]}
        assert weights[0.0] == pytest.approx(0.8125, abs=1e-3)

    def test_quadratic_a1_converges(self, capsys, tmp_path):
        # the tie-break once accepted a candidate up to one tolerance below the
        # incumbent, leaving a final gap above gap_tol after a converged loop
        code, out, err = run(capsys, "e-optimal", "--degree", "2", "--A", "1",
                             "--out-dir", str(tmp_path))
        assert code == 0, err
        summary = json.loads(out)
        assert summary["gap"] <= 1e-5 * (summary["info"] + summary["gap"])
        design = json.loads((tmp_path / "design.json").read_text())
        weights = {p["x"]: p["w"] for p in design["points"]}
        assert weights[0.0] == pytest.approx(0.6, abs=1e-3)


class TestParserContract:
    SPEC_FLAGS = {
        "info": ["--family", "--beta", "--sigma", "--uniform", "--theta",
                 "--direction", "--config"],
        "rbeta": ["--beta", "--config"],
        "design-opt": ["--degree", "--A", "--alpha", "--jtilde", "--grid-size",
                       "--gap-tol", "--max-cuts", "--out-dir",
                       "--config"],
        "pi-curve": ["--A", "--alphas", "--out", "--config"],
        "simulate": ["--degree", "--A", "--alpha", "--family", "--sigma",
                     "--n", "--theta", "--designs", "--reps", "--seed",
                     "--out", "--config"],
        "bound": ["--alpha", "--info", "--fisher", "--dpsi", "--config"],
        "e-optimal": ["--degree", "--A", "--grid-size", "--gap-tol",
                      "--max-cuts", "--out-dir", "--config"],
    }

    def test_top_level_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in self.SPEC_FLAGS:
            assert cmd in out

    @pytest.mark.parametrize("cmd", sorted(SPEC_FLAGS))
    def test_subcommand_help_lists_every_flag(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in self.SPEC_FLAGS[cmd]:
            assert flag in out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--no-such-flag", "1"])
        assert exc.value.code == 2
