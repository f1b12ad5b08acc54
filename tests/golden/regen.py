"""Rewrite the golden files of this directory from the current code.

    PYTHONPATH=src python tests/golden/regen.py

Runs `stabilize --emit-plots` for each golden report (example 1 at 0.814,
example 2 at 1.9454 and at the central-stable level 1.96), `gamma-opt` on
both configs and `tests/sweep.py --in-process`, then writes
`<name>.json`, the CSV sha256 manifest `csv_sha256.json`,
`gamma_opt_<config>.json` and `sweep_in_process.txt` (the sweep's 80 level
lines and two class-count lines, which `tests/test_sweep.py` compares its
levels to).  Run it only in a change that moves a report field, a CSV, the
`gamma-opt` output or a sweep line on purpose, and name in that change what
moved.

For each golden file whose bytes change, and each CSV whose sha256 changes,
it prints the number of changed lines, the largest relative move of any
number on them and, when there are at most 20, their line numbers.  The
CSVs are kept only as hashes, so their previous bytes come from running the
committed sources (`git archive HEAD src`) in a subprocess; a CSV whose
committed bytes do not match the previous manifest is reported as changed
without that comparison.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tarfile
import tempfile

from strongstab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
CONFIGS = ROOT / "configs"

# golden report name -> (config, rho)
REPORTS = {
    "ex1_rho0.814": ("example1", "0.814"),
    "ex2_rho1.9454": ("example2", "1.9454"),
    "ex2_rho1.96": ("example2", "1.96"),
}

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")
LISTED_LINES = 20


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"{' '.join(argv)} exited with {rc}")
    return out.getvalue()


def _stabilize_argv(config, rho, report, plots):
    return ["stabilize", str(CONFIGS / f"{config}.json"), "--rho", rho,
            "--emit-plots", str(plots), "--out", str(report)]


def _relative_move(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else math.inf


def _moves(old, new):
    """(changed line numbers, largest relative move of a number on them) of
    two texts; a changed line whose numbers do not pair up moves by inf."""
    changed, worst = [], 0.0
    lines = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    for k, (a, b) in enumerate(lines, start=1):
        if a == b:
            continue
        changed.append(k)
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if len(xs) != len(ys) or NUMBER.sub("#", a) != NUMBER.sub("#", b):
            worst = math.inf
        else:
            worst = max([worst] + [_relative_move(float(x), float(y)) for x, y in zip(xs, ys)])
    return changed, worst


def _print_moves(name, old, new):
    changed, worst = _moves(old, new)
    listed = f", lines {changed}" if len(changed) <= LISTED_LINES else ""
    print(f"{name}: {len(changed)} changed lines, largest relative move {worst:.3g}{listed}")


def _committed_csvs(config, rho, dest):
    """Emit into `dest` the CSVs of the committed sources (`git archive HEAD
    src`, run in a subprocess); False when that fails."""
    with tempfile.TemporaryDirectory() as tree:
        try:
            tar = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD", "src"],
                                 capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
                tf.extractall(tree, filter="data")
            subprocess.run([sys.executable, "-m", "strongstab.cli",
                            *_stabilize_argv(config, rho, dest / "report.json", dest)],
                           env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
                           capture_output=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return False
    return True


def _csv_digests(name, config, rho, plots, old_digests):
    """sha256 of each CSV in `plots`, printing the moves of those whose hash
    differs from `old_digests`."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(plots.glob("*.csv"))}
    moved = sorted(n for n in old_digests.keys() | digests.keys()
                   if old_digests.get(n) != digests.get(n))
    if not moved:
        return digests
    with tempfile.TemporaryDirectory() as tmp:
        before = pathlib.Path(tmp)
        committed = _committed_csvs(config, rho, before)
        for csv_name in moved:
            old_csv, new_csv = before / csv_name, plots / csv_name
            if (committed and old_csv.exists() and new_csv.exists() and
                    hashlib.sha256(old_csv.read_bytes()).hexdigest() == old_digests.get(csv_name)):
                _print_moves(f"{name}/{csv_name}", old_csv.read_text(), new_csv.read_text())
            else:
                print(f"{name}/{csv_name}: sha256 changed (previous bytes not available)")
    return digests


def _write_golden(path, text):
    old = path.read_text() if path.exists() else ""
    if old != text:
        _print_moves(path.name, old, text)
    path.write_text(text)


def regenerate():
    manifest_path = GOLDEN / "csv_sha256.json"
    old_manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    manifest = {}
    for name, (config, rho) in REPORTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            report, plots = tmp / "report.json", tmp / "plots"
            _run(_stabilize_argv(config, rho, report, plots))
            _write_golden(GOLDEN / f"{name}.json", report.read_text())
            manifest[name] = _csv_digests(name, config, rho, plots, old_manifest.get(name, {}))
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    for config in sorted({config for config, _ in REPORTS.values()}):
        text = _run(["gamma-opt", str(CONFIGS / f"{config}.json")])
        _write_golden(GOLDEN / f"gamma_opt_{config}.json", text)
    sweep = subprocess.run([sys.executable, str(GOLDEN.parent / "sweep.py"), "--in-process"],
                           capture_output=True, text=True, check=True).stdout
    _write_golden(GOLDEN / "sweep_in_process.txt", sweep)


if __name__ == "__main__":
    regenerate()
