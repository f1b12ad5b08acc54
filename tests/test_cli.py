import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

import strongstab.cli as cli
from strongstab import finite, stability
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


def _with_delay(tmp_path, config, h, bracket=None):
    """A copy of `config` with plant.h = h and, if given, that gamma_bracket."""
    doc = json.loads(pathlib.Path(config).read_text())
    doc["plant"]["h"] = h
    if bracket:
        doc["options"]["gamma_bracket"] = bracket
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


def _golden_run(tmp_path_factory, name, config, rho):
    """`stabilize --emit-plots` checked against golden/<name>.json and its CSV
    hashes: (report, plot directory, report path)."""
    d = tmp_path_factory.mktemp(name)
    out = d / "report.json"
    plots = d / "plots"
    rc = main(["stabilize", config, "--rho", rho,
               "--emit-plots", str(plots), "--out", str(out)])
    assert rc == 0
    _check_golden(name, out, plots)
    return json.loads(out.read_text()), plots, out


@pytest.fixture(scope="module")
def ex1_run(tmp_path_factory):
    return _golden_run(tmp_path_factory, "ex1_rho0.814", EX1, "0.814")


@pytest.fixture(scope="module")
def ex2_run(tmp_path_factory):
    return _golden_run(tmp_path_factory, "ex2_rho1.9454", EX2, "1.9454")


@pytest.fixture(scope="module")
def ex2_central_run(tmp_path_factory):
    return _golden_run(tmp_path_factory, "ex2_rho1.96", EX2, "1.96")


@pytest.fixture(scope="module")
def ex2_infinite_run(tmp_path_factory):
    """`stabilize --method infinite` on example 2 at 1.96: (report, report path)."""
    out = tmp_path_factory.mktemp("ex2_infinite") / "report.json"
    assert main(["stabilize", EX2, "--rho", "1.96", "--method", "infinite",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text()), out


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

    @pytest.mark.parametrize("argv", [["gamma-opt", "{dir}"],
                                      ["verify", EX1, "--report", "{dir}"]],
                             ids=["gamma-opt-config", "verify-report"])
    def test_directory_as_input_file_exits_2(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {tmp_path}: cannot read")

    def test_invalid_json_report_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_bytes(b"\xff{")
        assert main(["verify", EX1, "--report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {bad}: invalid JSON")

    @pytest.mark.parametrize("flag, target", [("--out", "missing/report.json"),
                                              ("--emit-plots", "plain_file")])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, flag, target):
        # the path is checked before any search: gamma_opt is never reached
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "gamma_opt", no_search)
        (tmp_path / "plain_file").write_text("")
        assert main(["stabilize", EX1, "--rho", "0.814", flag, str(tmp_path / target)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {flag}: cannot write")

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

    @pytest.mark.parametrize("config, gamma", [(EX1, 0.8108), (EX2, 1.9452)],
                             ids=["example1", "example2"])
    def test_default_bracket_finds_the_anchor(self, config, gamma, tmp_path, capsys):
        # without options.gamma_bracket the bracket comes from |W1| on the
        # grid: 0.810810833625 and 1.94522813829
        doc = json.loads(pathlib.Path(config).read_text())
        del doc["options"]["gamma_bracket"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["gamma-opt", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_opt"] == pytest.approx(gamma, abs=1e-3)

    def test_flat_weight_without_a_bracket_exits_1(self, tmp_path, capsys):
        doc = json.loads(pathlib.Path(EX1).read_text())
        del doc["options"]["gamma_bracket"]
        doc["weights"]["W1"] = {"num": [2.0], "den": [1.0]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["gamma-opt", str(path)]) == 1
        assert "weight magnitude is nearly flat" in capsys.readouterr().err

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

    def test_ex2_central_report(self, ex2_central_run):
        rep, _, _ = ex2_central_run
        assert rep["branch"] == "central-stable"
        res = rep["result"]
        assert res["central"] is True and res["integers"] == []
        assert res["mu_opt"] == 1
        assert rep["certificates"]["scan_clean"] is True
        assert rep["certificates"]["norm_ok"] is True

    def test_central_mu_opt_needs_no_pick_search(self, monkeypatch, capsys):
        # a central design's mu_opt is 1 in closed form: no Pick search runs
        def boom(*a, **k):
            raise AssertionError("mu_opt_search called on the central branch")

        monkeypatch.setattr(finite, "mu_opt_search", boom)
        assert main(["stabilize", EX2, "--rho", "1.96"]) == 0
        out = capsys.readouterr().out
        assert '"branch": "central-stable"' in out
        assert '"mu_opt": 1\n' in out

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

    def test_central_stable_branch_emits_fig5(self, ex2_central_run):
        # the central design carries no branch integers; the fig-5 lattice
        # takes the zero tuple at the level's mu_opt = 1
        _, plots, _ = ex2_central_run
        assert sorted(p.name for p in plots.glob("*.csv")) == [
            "fig2_zgrid.csv", "fig3_mu.csv", "fig5_ranges.csv"]
        with open(plots / "fig5_ranges.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 0
        assert float(rows[0]["mu"]) == pytest.approx(1.02, rel=1e-12)

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

    @pytest.mark.parametrize("config, golden", [(EX1, "ex1_rho0.814"), (EX2, "ex2_rho1.96")])
    def test_subnormal_level_square_is_a_documented_failure(self, config, golden,
                                                            tmp_path, capsys):
        # a level below about 1.5e-154 squares to a subnormal number, so E's
        # normalised row is not finite: a factorization failure.  A bracket
        # of such levels holds no feasible singular level (exit 1), and
        # `verify` at such a level is a numerical failure (exit 3).
        doc = json.loads(pathlib.Path(config).read_text())
        doc["options"]["gamma_bracket"] = [1e-160, 1e-150]
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(doc))
        assert main(["gamma-opt", str(tiny)]) == 1
        assert capsys.readouterr().err.startswith("gamma search failed: no singular level")
        rep = json.loads((GOLDEN / f"{golden}.json").read_text())
        rep["rho"] = 1e-160
        report = tmp_path / "report.json"
        report.write_text(json.dumps(rep))
        assert main(["verify", config, "--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: level 1e-160: its normalised ratio is not finite\n")

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

    def test_ex2_central_pass(self, ex2_central_run, capsys):
        _, _, out = ex2_central_run
        rc = main(["verify", EX2, "--report", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("pass")

    def test_design_with_a_zero_in_its_window_fails(self, ex2_run, tmp_path, capsys):
        # U = 0 at 1.9454, where P1 has two RHP zeros: the central controller
        # is unstable
        rep, _, _ = ex2_run
        bad = json.loads(json.dumps(rep))
        bad["branch"] = "central-stable"
        p = tmp_path / "central.json"
        p.write_text(json.dumps(bad))
        assert main(["verify", EX2, "--report", str(p)]) == 1
        assert capsys.readouterr().out == "fail: scan found 2 residual RHP zero(s)\n"

    def test_design_over_the_norm_bound_fails(self, ex2_run, monkeypatch, capsys):
        _, _, out = ex2_run
        monkeypatch.setattr(stability, "verify_performance", lambda c, w, g: (2.5, False))
        assert main(["verify", EX2, "--report", str(out)]) == 1
        bound = 1.9454 * (1 + cli.NORM_SLACK)
        assert capsys.readouterr().out == f"fail: performance norm 2.500000 exceeds {bound:.6f}\n"

    @pytest.mark.parametrize("rho", ["2.030", "2.334"])
    def test_ex2_central_sweep_levels_pass(self, rho, tmp_path, capsys):
        # the first and last example-2 sweep levels whose central design was
        # lost to a report-only Pick enumeration (7^pairs branch-integer
        # tuples) that ran out of memory after the design was certified
        out = tmp_path / "report.json"
        assert main(["stabilize", EX2, "--rho", rho, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["branch"] == "central-stable"
        assert rep["result"]["mu_opt"] == 1
        assert main(["verify", EX2, "--report", str(out)]) == 0
        assert capsys.readouterr().out.startswith("pass:")

    def test_ex2_double_root_level(self, tmp_path, capsys):
        # at this level the spectral factor's double root x = 5 used to split
        # into a non-conjugate pair and stop stabilize with a traceback
        out = tmp_path / "report.json"
        rc = main(["stabilize", EX2, "--rho", "1.945398944586238", "--out", str(out)])
        assert rc == 0
        rc = main(["verify", EX2, "--report", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("pass:")

    @pytest.mark.parametrize("config, rho", [
        # sweep levels gamma_opt (1 + eps) of tests/sweep.py: the two example-2
        # levels certify once the P2 march samples the delay's period
        pytest.param(EX2, rho, id=f"ex2-{rho}")
        for rho in ("2.126843289826658", "2.2470270839893844")
    ] + [
        pytest.param(EX1, "0.8129742574", id="ex1-0.8129742574",
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "item 2(a): verify exits 3, its scan reads a negative winding"))),
    ])
    def test_sweep_level_stabilizes_and_verifies(self, config, rho, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["stabilize", config, "--rho", rho, "--out", str(out)]) == 0
        assert main(["verify", config, "--report", str(out)]) == 0
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", ["u_inf", "u_z", "u_p"])
    def test_non_finite_stored_first_order_u_exits_3(self, field, value, ex2_infinite_run,
                                                     tmp_path, capsys):
        # a non-finite parameter of a first-order U ends as a non-finite q
        # does, before any root extraction sees it
        rep, _ = ex2_infinite_run
        bad = json.loads(json.dumps(rep))
        bad["result"][field] = value
        p = tmp_path / "non_finite_u.json"
        p.write_text(json.dumps(bad))
        assert main(["verify", EX2, "--report", str(p)]) == 3
        assert capsys.readouterr() == (
            "", f"search exhausted: stored U is not finite: {field} is {value}\n")

    @pytest.mark.parametrize("field, value", [("scan_omega_bound", 0), ("scan_sigma_max", -1)])
    @pytest.mark.parametrize("run", ["ex2_run", "ex2_central_run"])
    def test_report_window_is_not_read(self, run, field, value, request, tmp_path, capsys):
        # the scan window is derived from the design, as stabilize derives
        # it: a window of zero height or negative width in the report changes
        # nothing
        rep, _, out = request.getfixturevalue(run)
        assert main(["verify", EX2, "--report", str(out)]) == 0
        want = capsys.readouterr().out
        bad = json.loads(json.dumps(rep))
        bad["result"][field] = value
        p = tmp_path / "window.json"
        p.write_text(json.dumps(bad))
        assert main(["verify", EX2, "--report", str(p)]) == 0
        assert capsys.readouterr().out == want and want.startswith("pass:")

    def test_ex2_infinite_method_verifies(self, ex2_infinite_run, capsys):
        rep, out = ex2_infinite_run
        assert rep["branch"] == "infinite-search"
        assert main(["verify", EX2, "--report", str(out)]) == 0
        assert capsys.readouterr().out == "pass: scan clean, norm 1.955627 <= 1.961960\n"

    @pytest.mark.parametrize("u_inf, u_z, u_p, norm", [
        (1.5, 0.0, 0.0, "1.500000"),
        (0.5, 3.0, 1.0, "1.500000"),    # peak |u_inf| u_z / u_p
        (0.5, 0.3, -1.0, "inf"),        # a pole in the right half plane
    ])
    def test_stored_u_outside_the_ball_fails(self, u_inf, u_z, u_p, norm, ex2_infinite_run,
                                             tmp_path, capsys):
        rep, _ = ex2_infinite_run
        bad = json.loads(json.dumps(rep))
        bad["result"].update(u_inf=u_inf, u_z=u_z, u_p=u_p)
        p = tmp_path / "outside.json"
        p.write_text(json.dumps(bad))
        assert main(["verify", EX2, "--report", str(p)]) == 1
        assert capsys.readouterr() == (f"fail: free-parameter norm {norm} exceeds one\n", "")

    def test_central_design_with_only_the_artifact_p2_zero(self, tmp_path, capsys):
        # example 2 with h = 0.5 at 1.44, just above gamma_opt 1.43562905665:
        # P2's one RHP zero is the interp_a artifact, so there is no Pick data
        # to report or plot, and U = 0 certifies
        cfg = str(_with_delay(tmp_path, EX2, 0.5, [1.01, 2.2]))
        out, plots = tmp_path / "report.json", tmp_path / "plots"
        assert main(["stabilize", cfg, "--rho", "1.44", "--emit-plots", str(plots),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["branch"] == "central-stable"
        assert rep["result"]["node_roots"] == [] and len(rep["result"]["artifact_roots"]) == 1
        assert not {"z_points", "w_points", "mu_opt"} & set(rep["result"])
        assert [p.name for p in plots.glob("*.csv")] == ["fig2_zgrid.csv"]
        assert main(["verify", cfg, "--report", str(out)]) == 0
        assert capsys.readouterr().out == "pass: scan clean, norm 1.437624 <= 1.441440\n"

    @pytest.mark.parametrize("config, rho, branch, sigma_max, verdict", [
        pytest.param(EX1, "0.9", "infinite-search", 15.2947071935, "norm 0.893665 <= 0.900900",
                     id="ex1-0.9"),
        pytest.param(EX2, "1.5", "central-stable", 5, "norm 1.208624 <= 1.501500",
                     id="ex2-1.5"),
    ])
    def test_delay_free_plant(self, config, rho, branch, sigma_max, verdict, tmp_path,
                              capsys):
        # h = 0: the infinite branch's window is (5 + 10 eta_max, ...) with no
        # delay to contract the loop gain
        cfg = str(_with_delay(tmp_path, config, 0.0))
        out = tmp_path / "report.json"
        assert main(["stabilize", cfg, "--rho", rho, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["branch"] == branch
        assert rep["result"]["scan_sigma_max"] == sigma_max
        if branch == "infinite-search":
            assert sigma_max == pytest.approx(5 + 10 * rep["result"]["eta_max"], rel=1e-11)
        assert main(["verify", cfg, "--report", str(out)]) == 0
        assert capsys.readouterr().out == f"pass: scan clean, {verdict}\n"

    def test_finite_method_needs_delay_dominated_quasipolys(self, capsys):
        # example 1 at 0.814: P1 and P2 are not delay-dominated, so the
        # finite branch cannot scan them
        assert main(["stabilize", EX1, "--rho", "0.814", "--method", "finite"]) == 3
        assert capsys.readouterr().err == (
            "search exhausted: quasipolynomial is not delay-dominated\n")
