import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from strongstab.report import render_json
from workloads import RHO_JITTER, WORKLOADS, check_plots, check_report, check_verify

EX2 = WORKLOADS["ex2-figures"]


def ex2_report(**changes):
    doc = {
        "schema": "strongstab-report/1", "command": "stabilize", "rho": 1.9454,
        "gamma_opt": 1.94522813831, "branch": "finite-search",
        "result": {"central": False, "mu": 72.448345983, "integers": [0, 0],
                   "q": -0.854, "U_norm": 0.9810504017, "residual_zeros": [],
                   "z_points": [[0.66, 0.74], [0.66, -0.74]]},
        "certificates": {"scan_clean": True, "norm_ok": True, "norm_slack": 1e-3},
    }
    for path, value in changes.items():
        *outer, key = path.split(".")
        node = doc
        for part in outer:
            node = node[part]
        node[key] = value
    return (render_json(doc) + "\n").encode()


def test_untouched_report_passes():
    data = ex2_report()
    assert check_report(EX2, 0, 1.9454, 0, data, None) == []
    assert check_report(EX2, 0, 1.9454, 0, data, data) == []


@pytest.mark.parametrize("change", [
    {"certificates.scan_clean": False},
    {"certificates.norm_ok": False},
    {"branch": "central-stable"},
    {"result.q": -0.853},
    {"result.mu": 72.5},
])
def test_tampered_report_fails(change):
    good = ex2_report()
    bad = ex2_report(**change)
    assert check_report(EX2, 0, 1.9454, 0, bad, None)      # seed-0 anchors or flags
    assert check_report(EX2, 3, 1.9454, 0, bad, good)      # differs from round 1


def test_exit_code_and_node_count_are_checked():
    assert check_report(EX2, 0, 1.9454, 3, b"", None) == ["stabilize exit 3"]
    central = WORKLOADS["ex2-central"]
    data = ex2_report(**{"branch": "central-stable", "rho": 1.96})
    assert check_report(central, 5, 1.96, 0, data, None) == ["2 Pick nodes (expected 4)"]


def test_verify_and_plot_checks():
    assert check_verify(0, "pass: scan clean, norm 1.9 <= 1.95\n") == []
    assert check_verify(1, "fail: scan found 1 residual RHP zero(s)\n")
    assert check_verify(0, "fail: something\n")
    figs = {n: b"h\n1\n" for n in ("fig2_zgrid.csv", "fig3_mu.csv",
                                   "fig4_umag.csv", "fig5_ranges.csv")}
    assert check_plots(figs, figs) == []
    assert check_plots({**figs, "fig5_ranges.csv": b"h\n2\n"}, figs)
    assert check_plots({k: v for k, v in figs.items() if k != "fig3_mu.csv"}, None)


def test_levels_follow_the_seed():
    for wl in WORKLOADS.values():
        assert wl.levels_for(0) == [wl.rho] * wl.levels
        assert wl.levels_for(7) == wl.levels_for(7)
        assert wl.levels_for(7) != wl.levels_for(8)
        assert all(abs(r / wl.rho - 1) <= RHO_JITTER for r in wl.levels_for(7))


def test_tampered_report_counts_as_failed_in_a_real_round(tmp_path):
    from run import Bench

    wl = WORKLOADS["ex1-infinite"]
    bench = Bench(ROOT, wl, 0, tmp_path)
    with bench.clock:
        times = bench.round()
    assert bench.failed == 0 and bench.attempted == 7 * wl.levels
    assert all(scaled > 0 for _, scaled in times["stabilize_s"])

    report = tmp_path / "report.json"
    good = report.read_bytes()
    doc = json.loads(good)
    doc["certificates"]["scan_clean"] = False
    flipped = (render_json(doc) + "\n").encode()
    bench._record("stabilize", lambda: check_report(wl, 0, wl.rho, 0, flipped, good))
    assert bench.failed == 1

    doc["result"]["u_inf"] = 0.999          # outside the finite-pole range
    report.write_text(render_json(doc) + "\n")
    with bench.clock:
        rc, text, _ = bench.call(["verify", bench.cfg, "--report", str(report)], None)
    bench._record("verify", lambda: check_verify(rc, text))
    assert bench.failed == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ex1-infinite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
