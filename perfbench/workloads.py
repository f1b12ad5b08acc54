"""Benchmark workloads: the problem, the level picked by the seed, and the
checks every command's output must pass."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Seeds other than 0 move rho by at most this share.  Wider moves change the
# search path on example 2 (the accepted mu step and tuple shift), and that
# path change, not the code, would then set the spread between seeds.  Within
# this window, seeds 1-7 gave the same example-2 counters as seed 0.
RHO_JITTER = 1e-6

REPORT = "report.json"
FINITE_PLOTS = ("fig2_zgrid.csv", "fig3_mu.csv", "fig4_umag.csv", "fig5_ranges.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # problem file, relative to the checkout root
    rho: float               # level at seed 0 (the paper's level where it has one)
    branch: str              # branch stabilize must report
    gamma: float             # tier-1 anchor for gamma-opt, +- 1e-3
    emit_plots: bool = False
    nodes: int | None = None  # interpolation node count to keep (z_points)
    anchors: tuple = ()       # seed-0 (result field, value, tolerance)
    levels: int = 1           # levels stabilized in each round

    def levels_for(self, seed):
        """The rho values of a run; seed 0 is the paper level."""
        if seed == 0:
            return [self.rho] * self.levels
        rng = random.Random(seed)
        return [self.rho * (1.0 + RHO_JITTER * rng.uniform(-1.0, 1.0))
                for _ in range(self.levels)]


EX2_ANCHORS = (("mu", 72.4483, 1e-3), ("q", -0.854, 1e-9), ("U_norm", 0.98105, 1e-5))

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ex1-infinite", "configs/example1.json", 0.814, "infinite-search", 0.8108,
        anchors=(("u_inf", -0.814, 1e-9), ("omega_max", 19.47, 0.5)),
        # Near 0.814 the candidate ranking flips between one and two scanned
        # candidates for level changes of 1e-9 (about a third of levels scan
        # two, +12% stabilize time), so each round stabilizes at five levels.
        levels=5,
    ),
    Workload(
        "ex2-central", "configs/example2.json", 1.96, "central-stable", 1.9452,
        nodes=4,
    ),
    # A separate ex2-finite workload (the same run without --emit-plots) was
    # dropped: within the run-time budget it allowed 15 s runs only, whose
    # medians spread 10-12% on the shared host, against 3% for 30 s runs.
    # Its q sweep, gamma_opt and verify work all run here too.
    Workload(
        "ex2-figures", "configs/example2.json", 1.9454, "finite-search", 1.9452,
        emit_plots=True, anchors=EX2_ANCHORS,
    ),
)}


def check_gamma(wl, rc, text, first):
    """Problems with one gamma-opt output; `first` is the round-1 text."""
    if rc != 0:
        return [f"gamma-opt exit {rc}"]
    problems = []
    g = json.loads(text)["gamma_opt"]
    if abs(g - wl.gamma) > 1e-3:
        problems.append(f"gamma_opt {g} vs anchor {wl.gamma} +- 1e-3")
    if first is not None and text != first:
        problems.append("gamma-opt output differs from round 1")
    return problems


def check_report(wl, seed, rho, rc, data, first):
    """Problems with one stabilize report (bytes); `first` is round 1's."""
    if rc != 0:
        return [f"stabilize exit {rc}"]
    problems = []
    rep = json.loads(data)
    res = rep["result"]
    if rep["branch"] != wl.branch:
        problems.append(f"branch {rep['branch']} (expected {wl.branch})")
    if rep["rho"] != float(f"{rho:.12g}"):
        problems.append(f"report rho {rep['rho']} (asked for {rho!r})")
    for cert in ("scan_clean", "norm_ok"):
        if rep["certificates"][cert] is not True:
            problems.append(f"{cert} is not true")
    if wl.nodes is not None and len(res.get("z_points", [])) != wl.nodes:
        problems.append(f"{len(res.get('z_points', []))} Pick nodes (expected {wl.nodes})")
    if seed == 0:
        for key, want, tol in wl.anchors:
            got = res.get(key)
            if not isinstance(got, (int, float)) or abs(got - want) > tol:
                problems.append(f"{key}={got} vs anchor {want} +- {tol}")
    if first is not None and data != first:
        problems.append("report bytes differ from round 1")
    return problems


def check_plots(plots, first):
    """Problems with the --emit-plots CSVs ({file name: bytes})."""
    problems = []
    for name in FINITE_PLOTS:
        data = plots.get(name)
        if data is None or data.count(b"\n") < 2:
            problems.append(f"{name} missing or without data rows")
        elif first is not None and data != first.get(name):
            problems.append(f"{name} differs from round 1")
    return problems


def check_verify(rc, text):
    if rc != 0 or not text.startswith("pass:"):
        return [f"verify exit {rc}: {text.strip()[:120]}"]
    return []
