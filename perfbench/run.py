"""Benchmark of the strongstab command line: gamma-opt, stabilize and verify.

Usage (from the repository root):

    python3 perfbench/run.py --workload ex1-infinite --seed 0 --seconds 25 --trace 0

One process, one caller, closed loop: each command starts when the previous
one has returned.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is the
result object; see perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    REPORT, WORKLOADS, check_gamma, check_plots, check_report, check_verify,
)

# The run re-executes itself once with these set, before numpy is loaded.
# BLAS/OpenMP pools are pinned to one thread: the matrices are at most a few
# dozen rows, and one thread leaves the second core to the rest of the
# machine instead of making the two compete.  A fixed hash seed removes the
# dict/set layout lottery between processes: with random seeds the median
# gamma-opt time of separate runs spread 5%, with seed 0 it spread 1.6%.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_ENV = {"PYTHONHASHSEED": "0", **{v: "1" for v in THREAD_VARS}}
ADDR_NO_RANDOMIZE = 0x0040000
SETUP_SAMPLES = 7     # fresh interpreters timed per run, after one warm-up
VERIFY_REPEATS = 5    # verify is short, so each round times it this often

SETUP_CODE = (
    "import time\n"
    "import strongstab.cli\n"
    "from strongstab.config import load_problem\n"
    "load_problem({cfg!r})\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

E2E_UNITS = {"setup_s": "s", "gamma_opt_s": "s", "stabilize_s": "s",
             "verify_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("frac", "ratio", "yield")):
        return "ratio"
    return "count"


def summary(samples):
    """Median, sample count and tail (the maximum: runs hold too few samples
    for a percentile with ten samples beyond it)."""
    return {"median": statistics.median(samples), "n": len(samples),
            "max": max(samples), "samples": samples}


def timing_summary(pairs):
    """Summary of scaled times, with the raw wall times beside it."""
    out = summary([scaled for _, scaled in pairs])
    out["wall"] = summary([wall for wall, _ in pairs])
    return out


class Bench:
    """One workload at one seed: runs command rounds and checks every output."""

    def __init__(self, root, wl, seed, out):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.levels = wl.levels_for(seed)
        self.out = out
        self.cfg = str(root / wl.config)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}
        self.clock = SpeedClock()

    def _record(self, what, check):
        self.attempted += 1
        try:
            problems = check()
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def setup_once(self):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        mark = self.clock.start()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(cfg=self.cfg)],
            env=env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            return None, proc.stderr.strip()[-200:]
        wall, scaled = self.clock.stop(mark)
        ready = float(proc.stdout.split()[-1]) - t0
        return (ready, ready * scaled / wall), None

    def measure_setup(self):
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            dt, err = self.setup_once()
            self._record("setup", lambda: [err] if err else [])
            if dt is not None and i > 0:   # the first one writes bytecode caches
                samples.append(dt)
        return samples

    def call(self, argv, tracer):
        from strongstab.cli import main

        out, err = io.StringIO(), io.StringIO()
        # Start every command from the collector state of a fresh process:
        # garbage of earlier commands would otherwise trigger full
        # collections at random points inside later ones.  Objects alive
        # after the imports are frozen once, so these collections stay cheap.
        gc.collect()
        if not gc.get_freeze_count():
            gc.freeze()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mark = self.clock.start()
            try:
                if tracer is None:
                    rc = main(argv)
                else:
                    with tracer.command(f"cli.{argv[0]}"):
                        rc = main(argv)
            except Exception:
                rc = "exception"
                err.write(traceback.format_exc())
            dt = self.clock.stop(mark)
        if rc != 0:
            self.problems.append(f"{argv[0]} stderr: {err.getvalue().strip()[-300:]}")
        return rc, out.getvalue(), dt

    def round(self, tracer=None):
        """At each level: gamma-opt, stabilize, verify x VERIFY_REPEATS.

        Returns (wall, scaled) time pairs per metric; the stabilize sample is
        the round's mean time per stabilize over the levels.
        """
        wl, first = self.wl, self.first
        times = {"gamma_opt_s": [], "stabilize_s": [], "verify_s": []}
        for rho in self.levels:
            rc, text, dt = self.call(["gamma-opt", self.cfg], tracer)
            self._record("gamma-opt", lambda: check_gamma(wl, rc, text, first.get("gamma")))
            first.setdefault("gamma", text)
            times["gamma_opt_s"].append(dt)
            times["stabilize_s"].append(self.stabilize(rho, tracer))
            for _ in range(VERIFY_REPEATS):
                rc, text, dt = self.call(
                    ["verify", self.cfg, "--report", str(self.out / REPORT)], tracer)
                self._record("verify", lambda: check_verify(rc, text))
                times["verify_s"].append(dt)
        stab = times["stabilize_s"]
        times["stabilize_s"] = [tuple(sum(col) / len(stab) for col in zip(*stab))]
        return times

    def stabilize(self, rho, tracer):
        wl, first = self.wl, self.first
        report = self.out / REPORT
        plots = self.out / "plots"
        report.unlink(missing_ok=True)
        shutil.rmtree(plots, ignore_errors=True)
        argv = ["stabilize", self.cfg, "--rho", repr(rho), "--out", str(report)]
        if wl.emit_plots:
            argv += ["--emit-plots", str(plots)]
        rc, _, dt = self.call(argv, tracer)
        data = report.read_bytes() if report.is_file() else b""
        self._record("stabilize", lambda: check_report(
            wl, self.seed, rho, rc, data, first.get(("report", rho))))
        first.setdefault(("report", rho), data)
        if wl.emit_plots:
            figs = {p.name: p.read_bytes() for p in plots.glob("*.csv")}
            self._record("plots", lambda: check_plots(figs, first.get(("plots", rho))))
            first.setdefault(("plots", rho), figs)
        return dt

    def untraced(self, seconds):
        with self.clock:
            setup = self.measure_setup()
        samples = {}
        start = time.perf_counter()
        with self.clock:
            while not samples or time.perf_counter() - start < seconds:
                for k, v in self.round().items():
                    samples.setdefault(k, []).extend(v)
        detail = {k: timing_summary(v) for k, v in samples.items()}
        if setup:
            detail["setup_s"] = timing_summary(setup)
        metrics = {k: d["median"] for k, d in detail.items()}
        detail["probe_ms_median"] = 1e3 * statistics.median(d for _, d in self.clock.probes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, detail

    def traced(self, seconds):
        tracer = Tracer()
        plain, traced, per_round = [], [], []
        start = time.perf_counter()
        with self.clock:
            while not traced or time.perf_counter() - start < seconds:
                plain.append(self.round()["stabilize_s"][0])
                first_span, before = len(tracer.spans), tracer.counters.copy()
                with tracer.installed():
                    traced.append(self.round(tracer)["stabilize_s"][0])
                per_round.append(layer_metrics(
                    tracer.spans[first_span:], tracer.counters - before))
        counts = [{k: v for k, v in m.items() if unit_of(k) == "count"} for m in per_round]
        if any(c != counts[0] for c in counts[1:]):
            self.failed += 1
            self.problems.append("traced rounds disagree on counters")
        metrics = {k: v if unit_of(k) == "count" else float(statistics.median(m[k] for m in per_round))
                   for k, v in per_round[0].items()}
        untraced_s, traced_s = timing_summary(plain), timing_summary(traced)
        metrics["trace.overhead_frac"] = traced_s["median"] / untraced_s["median"] - 1.0
        detail = {"stabilize_s.untraced": untraced_s,
                  "stabilize_s.traced": traced_s,
                  "rounds": per_round}
        commands = [(sp.cmd, sp.name) for sp in tracer.spans if sp.parent is None]
        tracer.write_jsonl(self.out / "trace.jsonl", commands)
        return metrics, detail


def reexec_pinned(argv):
    """Re-execute once with PINNED_ENV and address-space randomisation off
    for this process, so memory layout is the same in every run."""
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)
    layout_fixed = persona == -1 or persona & ADDR_NO_RANDOMIZE or (
        libc.personality(persona | ADDR_NO_RANDOMIZE) == -1)
    if layout_fixed and all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def environment(load_at_start):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "aslr_off": bool(ctypes.CDLL(None).personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "strongstab" / "cli.py").is_file():
        print(f"perfbench: no strongstab sources under {root / 'src'}", file=sys.stderr)
        return 2
    reexec_pinned(argv)
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(root / "src"))

    wl = WORKLOADS[args.workload]
    out = root / ".perfbench" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(root, wl, args.seed, out)
    if args.trace:
        metrics, detail = bench.traced(args.seconds)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics, detail = bench.untraced(args.seconds)
        units = E2E_UNITS

    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"perfbench: no samples for {missing}: {bench.problems[:5]}", file=sys.stderr)
        return 1
    env = environment(load_at_start)
    record = {"workload": wl.name, "seed": args.seed, "rho": bench.levels,
              "trace": args.trace, "env": env, "detail": detail,
              "problems": bench.problems}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in bench.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(f"workload: {wl.name} seed {args.seed} rho {bench.levels}")
    for k, d in detail.items():
        if isinstance(d, dict):
            line = f"{k}: median {d['median']:.6g} n {d['n']} max {d['max']:.6g}"
            if "wall" in d:
                line += f" (wall median {d['wall']['median']:.6g} max {d['wall']['max']:.6g})"
            print(line)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
