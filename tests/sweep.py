"""Level sweep: `stabilize`, then `verify`, at 40 levels above gamma_opt.

    PYTHONPATH=src python tests/sweep.py [--in-process] [example1 | example2 ...]

For each config (both by default) it reads gamma_opt from `gamma-opt`'s
output and runs, at each level rho = gamma_opt (1 + eps) with eps on 40
geometric points in [1e-5, 0.2], `stabilize --rho rho` and, when that exits
0, `verify` on its report.  Every command is a subprocess of this
interpreter, under a 2 GB address-space limit and a 60 s timeout.

One line per level: the two exit codes ("timeout" for a command that ran
out of time, "-" for a `verify` that did not run), the first 16 hex digits
of the report's sha256, the first line `verify` printed and the last line of
the standard error of the command that failed.  The lines hold no timing, so
comparing two versions of the code is one diff:

    diff <(PYTHONPATH=/path/to/parent/src python tests/sweep.py) \\
         <(PYTHONPATH=src python tests/sweep.py)

The whole sweep takes about a minute on a 2-core host.

With `--in-process` every command runs through `strongstab.cli.main` in this
interpreter instead (`in_process`: no memory limit, no timeout), which takes
seconds, prints the same lines, and ends each config with its count of
levels per class (`classify`).  tests/test_sweep.py runs a subset of the
levels this way, and every level the subprocess way under `--runslow`.
"""

import collections
import contextlib
import hashlib
import io
import json
import pathlib
import resource
import subprocess
import sys
import tempfile
import traceback

import numpy as np

from strongstab.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
EPS = np.geomspace(1e-5, 0.2, 40)
ADDRESS_SPACE = 2 << 30
TIMEOUT = 60
CLASSES = ("certified", "refused", "numerical", "broken")


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _cli(*args):
    """(exit code or "timeout", stdout, stderr) of one command."""
    try:
        p = subprocess.run([sys.executable, "-m", "strongstab.cli", *args],
                           capture_output=True, text=True, timeout=TIMEOUT,
                           preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return p.returncode, p.stdout, p.stderr


def in_process(*args):
    """(exit code, stdout, stderr) of one command run by `cli.main` in this
    interpreter; an exception that escapes `main` reads as exit 1 with the
    last line of its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(args))
        except Exception as exc:
            rc = 1
            err.write("".join(traceback.format_exception_only(exc)))
    return rc, out.getvalue(), err.getvalue()


def _last(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def classify(rc1, rc2, err):
    """The class of a level from the exit codes of `stabilize` and `verify`
    and the standard error of the command that failed: "certified" (both
    exit 0), "refused" (exit 3, search exhausted), "numerical" (exit 3,
    numerical failure) or "broken" (anything else: a report `verify`
    rejects, exit 1, 2 or 4, a timeout or a traceback)."""
    if (rc1, rc2) == (0, 0):
        return "certified"
    heads = {line.split(":")[0] for line in err.splitlines()}
    if rc1 == 3 and "search exhausted" in heads:
        return "refused"
    if rc1 == 3 and "numerical failure" in heads:
        return "numerical"
    return "broken"


def gamma_of(config, run=_cli):
    """gamma_opt of `config` as `gamma-opt` prints it; None, after printing
    the failure's line, when the command fails."""
    rc, out, err = run("gamma-opt", str(CONFIGS / f"{config}.json"))
    if rc != 0:
        print(f"{config} gamma-opt={rc} stderr={_last(err)!r}")
        return None
    return json.loads(out)["gamma_opt"]


def commands(cfg, rho, report, run=_cli):
    """`stabilize` at level `rho` (a string) of the problem file `cfg`, then
    `verify` when it exits 0: the two exit codes ("-" for a `verify` that
    did not run), the first 16 hex digits of the report's sha256 ("" for
    none), the first line `verify` printed and the standard error of the
    command that failed.  `report` is the path `stabilize` writes."""
    report.unlink(missing_ok=True)
    rc1, _, err = run("stabilize", cfg, "--rho", rho, "--out", str(report))
    rc2, verdict, digest = "-", "", ""
    if report.exists():
        digest = hashlib.sha256(report.read_bytes()).hexdigest()[:16]
    if rc1 == 0:
        rc2, out, err = run("verify", cfg, "--report", str(report))
        verdict = out.strip().splitlines()[0] if out.strip() else ""
        err = "" if rc2 == 0 else err
    return rc1, rc2, digest, verdict, err


def level(config, i, gamma, report, run=_cli):
    """The line and the class of level `i` of `config`, whose gamma_opt is
    `gamma`; `report` is the path `stabilize` writes."""
    rho = repr(float(gamma * (1 + EPS[i])))
    rc1, rc2, digest, verdict, err = commands(str(CONFIGS / f"{config}.json"), rho, report, run)
    line = (f"{config} {i:2d} rho={rho} stabilize={rc1} verify={rc2} "
            f"report={digest or '-'} verdict={verdict!r} stderr={_last(err)!r}")
    return line, classify(rc1, rc2, err)


def sweep(config, run=_cli):
    """Print the line of every level of `config`; the count per class."""
    classes = collections.Counter()
    gamma = gamma_of(config, run)
    if gamma is None:
        return classes
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(len(EPS)):
            line, cls = level(config, i, gamma, pathlib.Path(tmp) / "report.json", run)
            print(line, flush=True)
            classes[cls] += 1
    return classes


if __name__ == "__main__":
    args = sys.argv[1:]
    run = in_process if "--in-process" in args else _cli
    for name in [a for a in args if a != "--in-process"] or ["example1", "example2"]:
        classes = sweep(name, run)
        if run is in_process:
            print(f"{name} classes: " + " ".join(f"{c}={classes[c]}" for c in CLASSES))
