"""Level sweep: `stabilize`, then `verify`, at 40 levels above gamma_opt.

    PYTHONPATH=src python tests/sweep.py [example1 | example2 ...]

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

The whole sweep takes a few minutes.
"""

import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import tempfile

import numpy as np

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
EPS = np.geomspace(1e-5, 0.2, 40)
ADDRESS_SPACE = 2 << 30
TIMEOUT = 60


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


def _last(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def sweep(config):
    cfg = str(CONFIGS / f"{config}.json")
    rc, out, err = _cli("gamma-opt", cfg)
    if rc != 0:
        print(f"{config} gamma-opt={rc} stderr={_last(err)!r}")
        return
    gamma = json.loads(out)["gamma_opt"]
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        for i, eps in enumerate(EPS):
            rho = repr(float(gamma * (1 + eps)))
            report.unlink(missing_ok=True)
            rc1, _, err = _cli("stabilize", cfg, "--rho", rho, "--out", str(report))
            rc2, verdict, digest = "-", "", ""
            if report.exists():
                digest = hashlib.sha256(report.read_bytes()).hexdigest()[:16]
            if rc1 == 0:
                rc2, out, err = _cli("verify", cfg, "--report", str(report))
                verdict = out.strip().splitlines()[0] if out.strip() else ""
                err = "" if rc2 == 0 else err
            print(f"{config} {i:2d} rho={rho} stabilize={rc1} verify={rc2} "
                  f"report={digest or '-'} verdict={verdict!r} stderr={_last(err)!r}",
                  flush=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or ["example1", "example2"]:
        sweep(name)
