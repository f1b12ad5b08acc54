import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

import strongstab.cli as cli
from strongstab.cli import main
from strongstab.config import ConfigError, load_problem
from strongstab.rational import PoleEvaluationError
from strongstab.synthesis import ClosedLoopSingular, FactorizationError, InterpolationError

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
EX1 = str(CONFIG_DIR / "example1.json")
EX2 = str(CONFIG_DIR / "example2.json")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _with_search(tmp_path, config, key, value):
    """A copy of `config` with options.search[key] = value."""
    doc = json.loads(pathlib.Path(config).read_text())
    doc["options"]["search"][key] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


def _with_raw(tmp_path, path, raw):
    """A copy of example 1 whose field at dotted `path` is the JSON text
    `raw`; a key that indexes a list, like options.gamma_bracket.0, sets
    that entry."""
    doc = json.loads(pathlib.Path(EX1).read_text())
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[int(last) if isinstance(node, list) else last] = "@@"
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(doc).replace('"@@"', raw))
    return bad


def _first_difference(got, want, path):
    """Dotted path of the first report key at which `got` and `want` differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    return None if got == want else path


def _check_golden(name, out, plots):
    """The run's report bytes against golden/<name>.json, its CSVs against the
    sha256 manifest golden/csv_sha256.json.

    A change that moves a report field or a CSV on purpose regenerates these
    files (and the `gamma-opt` outputs) with `tests/golden/regen.py` and
    names what moved.
    """
    want = (GOLDEN / f"{name}.json").read_text()
    got = out.read_text()
    if got != want:
        key = _first_difference(json.loads(got), json.loads(want), "report")
        pytest.fail(f"{name}: report differs from the golden file at {key or 'its formatting'}")
    manifest = json.loads((GOLDEN / "csv_sha256.json").read_text())[name]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in plots.glob("*.csv")}
    for csv_name in sorted(manifest.keys() | digests.keys()):
        if digests.get(csv_name) != manifest.get(csv_name):
            pytest.fail(f"{name}: {csv_name} differs from the golden manifest")


@pytest.fixture(scope="module")
def ex1_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("ex1run")
    out = d / "report.json"
    plots = d / "plots"
    rc = main(["stabilize", EX1, "--rho", "0.814",
               "--emit-plots", str(plots), "--out", str(out)])
    assert rc == 0
    _check_golden("ex1_rho0.814", out, plots)
    return json.loads(out.read_text()), plots, out


@pytest.fixture(scope="module")
def ex2_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("ex2run")
    out = d / "report.json"
    plots = d / "plots"
    rc = main(["stabilize", EX2, "--rho", "1.9454",
               "--emit-plots", str(plots), "--out", str(out)])
    assert rc == 0
    _check_golden("ex2_rho1.9454", out, plots)
    return json.loads(out.read_text()), plots, out


class TestConfigErrors:
    def test_missing_field_path_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"plant": {"h": 0.1}}')
        rc = main(["stabilize", str(bad), "--rho", "1.0"])
        assert rc == 2
        assert "config.plant.M" in capsys.readouterr().err

    def test_negative_delay(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "plant": {"h": -1, "M": {"num": [1], "den": [1]},
                      "m_d": {"num": [1], "den": [1]},
                      "N_o": {"num": [1], "den": [1]}},
            "weights": {"W1": {"num": [1], "den": [1]}, "W2": "zero"},
        }))
        rc = main(["stabilize", str(bad), "--rho", "1.0"])
        assert rc == 2
        assert "config.plant.h" in capsys.readouterr().err

    def test_invalid_inner_factor_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "plant": {"h": 0.1, "M": {"num": [1.0, 1.0], "den": [1.0, 2.0]},
                      "m_d": {"num": [1], "den": [1]},
                      "N_o": {"num": [1], "den": [1]}},
            "weights": {"W1": {"num": [1.0, 0.6], "den": [1.0, 1.0]}, "W2": "zero"},
        }))
        rc = main(["stabilize", str(bad), "--rho", "1.0"])
        assert rc == 2
        assert "plant.M" in capsys.readouterr().err

    def test_rho_below_optimal_rejected(self, capsys):
        rc = main(["stabilize", EX1, "--rho", "0.5"])
        assert rc == 2
        assert "must exceed the optimal level" in capsys.readouterr().err

    @pytest.mark.parametrize("config, rho, key, value", [
        (EX1, "0.814", "uinf_step", 0),
        (EX2, "1.9454", "q_step", 0),
        (EX2, "1.9454", "q_step", "x"),
        (EX2, "1.9454", "integer_bound", -1),
        (EX1, "0.814", "up_grid", ["x"]),
        (EX1, "0.814", "up_grid", [float("nan")]),
        (EX1, "0.814", "uz_grid", 0.5),
        (EX2, "1.9454", "mu_schedule", [70.0, None]),
        (EX1, "0.814", "scan_budget", 0),
        (EX1, "0.814", "scan_budget", True),
        (EX1, "0.814", "up_grid", [True]),
    ], ids=lambda v: pathlib.Path(v).stem if v in (EX1, EX2) else None)
    def test_out_of_range_search_option_exits_2(self, tmp_path, capsys, config, rho, key, value):
        rc = main(["stabilize", str(_with_search(tmp_path, config, key, value)), "--rho", rho])
        assert rc == 2
        assert f"config.options.search.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ['"x"', "NaN", "1e999", "true"])
    @pytest.mark.parametrize("field, named", [
        ("a", "config.options.a"),
        ("interp_a", "config.options.interp_a"),
        ("gamma_bracket.0", "config.options.gamma_bracket[0]"),
        ("gamma_bracket.1", "config.options.gamma_bracket[1]"),
        ("grid.lo", "config.options.grid.lo"),
        ("grid.hi", "config.options.grid.hi"),
        ("grid.points", "config.options.grid.points"),
    ])
    def test_non_numeric_option_exits_2(self, tmp_path, capsys, field, named, raw):
        rc = main(["gamma-opt", str(_with_raw(tmp_path, f"options.{field}", raw))])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"input error: {named}: expected")

    def test_fractional_grid_points_exit_2(self, tmp_path, capsys):
        assert main(["gamma-opt", str(_with_raw(tmp_path, "options.grid.points", "4000.5"))]) == 2
        assert "config.options.grid.points" in capsys.readouterr().err

    def test_non_finite_delay_named(self, tmp_path, capsys):
        assert main(["gamma-opt", str(_with_raw(tmp_path, "plant.h", "NaN"))]) == 2
        assert "config.plant.h" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_exits_2_before_gamma_opt(self, rho, monkeypatch, capsys):
        def boom(*a, **k):
            raise AssertionError("gamma_opt ran")

        monkeypatch.setattr(cli, "gamma_opt", boom)
        assert main(["stabilize", EX1, "--rho", rho]) == 2
        assert capsys.readouterr().err == "input error: --rho: expected a finite number\n"

    @pytest.mark.parametrize("rho, why", [
        ("1e300", "its square is not a finite number"),   # level^2 overflows
        ("1e20", "vanishes or has a pole at both gain points"),   # R cancels to zero
    ])
    def test_huge_rho_exits_3(self, rho, why, capsys):
        assert main(["stabilize", EX1, "--rho", rho]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and why in err

    def test_boolean_coefficient_named(self, tmp_path, capsys):
        assert main(["gamma-opt", str(_with_raw(tmp_path, "weights.W1.num.1", "true"))]) == 2
        assert "config.weights.W1.num" in capsys.readouterr().err

    def test_non_finite_coefficient_named(self, tmp_path, capsys):
        doc = json.loads(pathlib.Path(EX1).read_text())
        doc["weights"]["W1"]["num"][0] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["gamma-opt", str(bad)]) == 2
        assert "config.weights.W1.num" in capsys.readouterr().err

    def test_negative_uinf_step_rejected_on_load(self, tmp_path):
        # a negative step would make the u_inf grid's while loop run forever
        with pytest.raises(ConfigError) as exc:
            load_problem(_with_search(tmp_path, EX1, "uinf_step", -1e-3))
        assert exc.value.path == "config.options.search.uinf_step"


class TestGammaOpt:
    def test_values_and_determinism(self, capsys):
        rc = main(["gamma-opt", EX1])
        assert rc == 0
        first = capsys.readouterr().out
        doc = json.loads(first)
        assert doc["gamma_opt"] == pytest.approx(0.8108, abs=1e-3)
        rc = main(["gamma-opt", EX1])
        assert rc == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical

    def test_ex2_value(self, capsys):
        rc = main(["gamma-opt", EX2])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_opt"] == pytest.approx(1.9452, abs=1e-3)

    @pytest.mark.parametrize("config", [EX1, EX2], ids=["example1", "example2"])
    def test_stdout_matches_golden(self, config, capsys):
        # sigma_min (about 1e-13) is rounding noise, so its 12 digits move
        # with any bit of any sigma_min evaluation on the way to the optimum
        assert main(["gamma-opt", config]) == 0
        name = pathlib.Path(config).stem
        assert capsys.readouterr().out == (GOLDEN / f"gamma_opt_{name}.json").read_text()


class TestStabilizeReports:
    def test_ex1_report(self, ex1_run):
        rep, _, _ = ex1_run
        assert rep["branch"] == "infinite-search"
        assert rep["pole_class"] == "infinite"
        res = rep["result"]
        assert res["u_inf"] == pytest.approx(-0.813, abs=2e-3)
        assert res["stable"] is True
        assert rep["certificates"]["scan_clean"] is True
        assert rep["certificates"]["norm_ok"] is True

    def test_ex2_report(self, ex2_run):
        rep, _, _ = ex2_run
        assert rep["branch"] == "finite-search"
        assert rep["pole_class"] == "finite"
        res = rep["result"]
        assert res["stable"] is True
        assert res["U_norm"] <= 1.0
        assert res["mu_opt"] == pytest.approx(60.374, abs=1e-2)
        assert rep["certificates"]["scan_clean"] is True

    def test_reports_have_no_timing_by_default(self, ex1_run):
        rep, _, _ = ex1_run
        assert "timing_s" not in rep

    def test_timing_flag_is_gone(self):
        with pytest.raises(SystemExit) as info:
            main(["stabilize", EX1, "--rho", "0.814", "--timing"])
        assert info.value.code == 2

    def test_stabilize_report_byte_identical(self, ex1_run, tmp_path):
        _, _, out = ex1_run
        again = tmp_path / "again.json"
        rc = main(["stabilize", EX1, "--rho", "0.814", "--out", str(again)])
        assert rc == 0
        assert again.read_bytes() == pathlib.Path(out).read_bytes()


class TestCSVs:
    def test_fig1_columns(self, ex1_run):
        _, plots, _ = ex1_run
        with open(plots / "fig1_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {"u_inf", "omega_max", "eta_max"} == set(rows[0])
        us = [float(r["u_inf"]) for r in rows]
        assert min(us) == pytest.approx(-0.9909, abs=5e-3)
        assert max(us) == pytest.approx(-0.6668, abs=5e-3)
        wm = [float(r["omega_max"]) for r in rows if r["omega_max"]]
        assert min(wm) == pytest.approx(19.47, abs=0.5)

    def test_fig2_covers_scan_window(self, ex1_run):
        rep, plots, _ = ex1_run
        with open(plots / "fig2_zgrid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {"sigma", "omega", "absZ"} == set(rows[0])
        sigs = [float(r["sigma"]) for r in rows]
        oms = [float(r["omega"]) for r in rows]
        assert max(sigs) == pytest.approx(rep["result"]["scan_sigma_max"], rel=1e-9)
        assert max(oms) == pytest.approx(rep["result"]["scan_omega_bound"], rel=1e-9)

    def test_central_stable_branch_emits_fig5(self, tmp_path):
        # the central design carries no branch integers; the fig-5 lattice
        # takes the Pick optimum's tuple (a coarse grid keeps the run short)
        cfg = json.loads(pathlib.Path(EX2).read_text())
        cfg["options"]["grid"]["points"] = 400
        cfg["options"]["search"]["integer_bound"] = 3
        p = tmp_path / "ex2_coarse.json"
        p.write_text(json.dumps(cfg))
        out, plots = tmp_path / "report.json", tmp_path / "plots"
        rc = main(["stabilize", str(p), "--rho", "1.96",
                   "--emit-plots", str(plots), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["branch"] == "central-stable"
        with open(plots / "fig5_ranges.csv") as fh:
            assert len(list(csv.DictReader(fh))) > 0

    def test_fig3_fig4_fig5(self, ex2_run):
        _, plots, _ = ex2_run
        with open(plots / "fig3_mu.csv") as fh:
            rows3 = list(csv.DictReader(fh))
        assert {"n2", "mu_min"} == set(rows3[0])
        feasible = {int(r["n2"]): float(r["mu_min"]) for r in rows3 if r["mu_min"]}
        assert min(feasible, key=lambda k: feasible[k]) == 0
        with open(plots / "fig4_umag.csv") as fh:
            rows4 = list(csv.DictReader(fh))
        assert {"omega", "absU"} == set(rows4[0])
        assert max(float(r["absU"]) for r in rows4) <= 1.0 + 1e-6
        with open(plots / "fig5_ranges.csv") as fh:
            rows5 = list(csv.DictReader(fh))
        assert {"mu", "u_inf", "U_norm", "stable"} == set(rows5[0])
        assert any(r["stable"] == "true" for r in rows5)


class TestExitCodes:
    def test_exhausted_search_exits_3(self, tmp_path, capsys):
        cfg = json.loads(pathlib.Path(EX2).read_text())
        cfg["options"]["search"]["mu_schedule"] = [61.0]
        p = tmp_path / "ex2_tight.json"
        p.write_text(json.dumps(cfg))
        rc = main(["stabilize", str(p), "--rho", "1.9454"])
        assert rc == 3
        assert "exhausted" in capsys.readouterr().err

    def test_certificate_contradiction_exits_4(self, monkeypatch, capsys):
        from strongstab.synthesis import CertificateContradiction
        import strongstab.cli as cli

        def boom(*a, **k):
            raise CertificateContradiction("forced for the exit-code contract")

        monkeypatch.setattr(cli, "stabilize_infinite", boom)
        rc = main(["stabilize", EX1, "--rho", "0.814"])
        assert rc == 4
        assert "contradiction" in capsys.readouterr().err

    def test_non_contracting_scan_edge_exits_3(self, monkeypatch, capsys):
        from strongstab.synthesis import Controller

        # |loop gain| = 1 everywhere: no right edge makes the delay contract it
        monkeypatch.setattr(
            Controller, "loop_gain",
            lambda self, s: np.ones_like(np.asarray(s), dtype=complex),
        )
        rc = main(["stabilize", EX1, "--rho", "0.814"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "doublings" in err

    @pytest.mark.parametrize("field", ["rho", "branch", "result"])
    def test_report_missing_field_exits_2(self, field, ex1_run, tmp_path, capsys):
        rep, _, _ = ex1_run
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({k: v for k, v in rep.items() if k != field}))
        rc = main(["verify", EX1, "--report", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and f"report.{field}" in err

    @pytest.mark.parametrize("rho", [-1.0, 0.0, float("nan"), 1e300])
    def test_report_rho_not_a_level_exits_2(self, rho, ex1_run, tmp_path, capsys):
        rep, _, _ = ex1_run
        p = tmp_path / "bad_rho.json"
        p.write_text(json.dumps({**rep, "rho": rho}))
        assert main(["verify", EX1, "--report", str(p)]) == 2
        assert capsys.readouterr().err == (
            "input error: report.rho: expected a number > 0 whose square is finite\n")

    @pytest.mark.parametrize("run, field, value", [
        ("ex1", "u_inf", None),
        ("ex1", "u_inf", True),
        ("ex2", "q", True),
        ("ex2", "mu", False),
        ("ex2", "integers", ["x", "y"]),
        ("ex2", "integers", [[0], [0]]),
        ("ex2", "integers", [0]),           # one integer for two Pick nodes
        ("ex2", "integers", [0.5, -0.5]),
        ("ex2", "integers", [False, False]),
        ("ex2", "conformal_a", -1.0),
        ("ex2", "conformal_a", 0.0),
        ("ex2", "conformal_a", True),
    ])
    def test_non_numeric_report_field_exits_2(self, run, field, value, request, tmp_path,
                                              capsys):
        rep, _, _ = request.getfixturevalue(f"{run}_run")
        bad = json.loads(json.dumps(rep))
        bad["result"][field] = value
        p = tmp_path / "non_numeric.json"
        p.write_text(json.dumps(bad))
        rc = main(["verify", EX1 if run == "ex1" else EX2, "--report", str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"input error: report.result.{field}: expected")

    def test_unreadable_report_exits_2(self, tmp_path, capsys):
        p = tmp_path / "truncated.json"
        p.write_text("{")
        assert main(["verify", EX1, "--report", str(p)]) == 2
        assert main(["verify", EX1, "--report", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.count("input error:") == 2

    @pytest.mark.parametrize("exc", [
        FactorizationError("forced"),
        InterpolationError("forced"),
        PoleEvaluationError("forced", 0.0),
        ClosedLoopSingular("forced"),
    ], ids=lambda e: type(e).__name__)
    def test_numerical_failures_exit_3(self, exc, ex1_run, monkeypatch, capsys):
        def boom(*a, **k):
            raise exc

        monkeypatch.setattr(cli, "build_context", boom)
        rc = main(["verify", EX1, "--report", str(ex1_run[2])])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical failure: forced")

    def test_repeated_plant_poles_exit_3(self, tmp_path, capsys):
        cfg = json.loads(pathlib.Path(EX1).read_text())
        cfg["plant"]["m_d"] = {"num": [1.0, -2.0, 1.0], "den": [1.0, 2.0, 1.0]}
        p = tmp_path / "double_pole.json"
        p.write_text(json.dumps(cfg))
        rc = main(["gamma-opt", str(p)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "plant poles" in err


class TestVerify:
    def test_ex1_pass(self, ex1_run, capsys):
        _, _, out = ex1_run
        rc = main(["verify", EX1, "--report", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("pass")

    def test_ex2_pass(self, ex2_run, capsys):
        _, _, out = ex2_run
        rc = main(["verify", EX2, "--report", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("pass")

    def test_ex2_double_root_level(self, tmp_path, capsys):
        # at this level the spectral factor's double root x = 5 used to split
        # into a non-conjugate pair and stop stabilize with a traceback
        out = tmp_path / "report.json"
        rc = main(["stabilize", EX2, "--rho", "1.945398944586238", "--out", str(out)])
        assert rc == 0
        rc = main(["verify", EX2, "--report", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("pass:")

    def test_auto_falls_back_when_finite_branch_cannot_scan(self, tmp_path, capsys):
        # example 1 at 0.85: the central controller has finitely many poles,
        # but P1 and P2 are not delay-dominated, so the finite branch cannot
        # scan them; the infinite branch finds a design
        out = tmp_path / "report.json"
        assert main(["stabilize", EX1, "--rho", "0.85", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["branch"] == "infinite-search"
        assert main(["verify", EX1, "--report", str(out)]) == 0
        assert capsys.readouterr().out.startswith("pass:")

    def test_tampered_u_fails_with_pole_class_diagnostic(self, ex1_run, tmp_path,
                                                         capsys):
        rep, _, _ = ex1_run
        bad = json.loads(json.dumps(rep))
        bad["result"]["u_inf"] = -0.5
        p = tmp_path / "tampered.json"
        p.write_text(json.dumps(bad))
        rc = main(["verify", EX1, "--report", str(p)])
        assert rc == 1
        assert "infinite-pole class" in capsys.readouterr().out

    def test_non_finite_stored_u_exits_3(self, ex2_run, tmp_path, capsys):
        # a NaN residual parameter makes U non-finite on the whole grid
        rep, _, _ = ex2_run
        bad = json.loads(json.dumps(rep))
        bad["result"]["q"] = "nan"
        p = tmp_path / "nan_q.json"
        p.write_text(json.dumps(bad))
        rc = main(["verify", EX2, "--report", str(p)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("search exhausted:")
