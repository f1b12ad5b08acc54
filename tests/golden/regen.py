"""Rewrite the golden files of this directory from the current code.

    PYTHONPATH=src python tests/golden/regen.py

Runs `stabilize --emit-plots` for each golden report (example 1 at 0.814,
example 2 at 1.9454) and `gamma-opt` on both configs, then writes
`<name>.json`, the CSV sha256 manifest `csv_sha256.json` and
`gamma_opt_<config>.json`.  Run it only in a change that moves a report
field, a CSV or the `gamma-opt` output on purpose, and name in that change
what moved: `git diff tests/golden` shows it.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from strongstab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent
CONFIGS = GOLDEN.parent.parent / "configs"

# golden report name -> (config, rho)
REPORTS = {
    "ex1_rho0.814": ("example1", "0.814"),
    "ex2_rho1.9454": ("example2", "1.9454"),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"{' '.join(argv)} exited with {rc}")
    return out.getvalue()


def regenerate():
    manifest = {}
    for name, (config, rho) in REPORTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            report, plots = tmp / "report.json", tmp / "plots"
            _run(["stabilize", str(CONFIGS / f"{config}.json"), "--rho", rho,
                  "--emit-plots", str(plots), "--out", str(report)])
            (GOLDEN / f"{name}.json").write_text(report.read_text())
            manifest[name] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(plots.glob("*.csv"))
            }
    (GOLDEN / "csv_sha256.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for config in sorted({config for config, _ in REPORTS.values()}):
        text = _run(["gamma-opt", str(CONFIGS / f"{config}.json")])
        (GOLDEN / f"gamma_opt_{config}.json").write_text(text)


if __name__ == "__main__":
    regenerate()
