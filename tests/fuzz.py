"""Seeded problem fuzzer: perturbed example problems through every command.

    PYTHONPATH=src python tests/fuzz.py [--seed N] [--problems N] [--limit SECONDS]

Problem k is `configs/example1.json` or `configs/example2.json` with one or
two fields redrawn from a fixed menu (`MENU`): the plant's delay `h`, an
all-pass `M = (s - z)/(s + z)`, an inner `m_d = (s^2 - 2 zeta w s + w^2) /
(s^2 + 2 zeta w s + w^2)` (a complex pair of unstable plant poles), an outer
factor `N_o = 1/(s + p)`, the W1 zero and pole or a second-order biproper W1
(numerator and denominator each s^2 + 2 zeta w s + w^2; the config's
`gamma_bracket` is then dropped, so `gamma-opt` derives one from W1), `W2`
("zero" or first order) and `options.interp_a`.  Each w is log-uniform in
[0.25, 4] and each zeta uniform in [0.1, 0.9].
Its draws come from a generator seeded by (seed, k) alone, so the first N
problems of a seed are the same for every `--problems` above N.

Each problem runs `gamma-opt`, then, at rho = gamma_opt f for each f of
`LEVELS` (rho printed to 12 digits), `stabilize` and, when that exits 0,
`verify`, all through `sweep.in_process`.  A command still running after
`--limit` seconds of wall clock is stopped, its level's class is "slow",
and its stderr field names the function of the package it was in (such
as "slow in strongstab.finite._design_tuples"); the other classes come
from `sweep.classify`.  It prints one line
per problem (the fields it changed, as JSON, and gamma_opt), one line per
level and the count of levels per class.  The lines hold no timing, so a
seed's output is the same on every run, except for a command whose time
is close to the limit.

A problem that fools a sampling rule or trips a bug becomes a case in
`tests/fooling/`: the example's config with the printed fields set.
"""

import argparse
import collections
import functools
import json
import pathlib
import signal
import sys
import tempfile

import numpy as np

import sweep

CLASSES = (*sweep.CLASSES, "slow")
LEVELS = (1.001, 1.05, 1.3)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# Each menu entry draws new values for `doc` (a parsed example config):
# {dotted JSON path: value}, with None for a key to delete.

def _delay(doc, rng):
    return {"plant.h": doc["plant"]["h"] * _log_uniform(rng, 0.5, 2.0)}


def _allpass(doc, rng):
    z = _log_uniform(rng, 0.25, 4.0)
    return {"plant.M": {"num": [-z, 1.0], "den": [z, 1.0]}}


def _outer_pole(doc, rng):
    return {"plant.N_o": {"num": [1.0], "den": [_log_uniform(rng, 0.25, 4.0), 1.0]}}


def _quadratic(rng):
    """Ascending coefficients of s^2 + 2 zeta w s + w^2 for a drawn w and zeta."""
    w, z = _log_uniform(rng, 0.25, 4.0), float(rng.uniform(0.1, 0.9))
    return [w * w, 2 * z * w, 1.0]


def _inner_md(doc, rng):
    c0, c1, c2 = _quadratic(rng)
    return {"plant.m_d": {"num": [c0, -c1, c2], "den": [c0, c1, c2]}}


def _w1(doc, rng):
    num, den = doc["weights"]["W1"]["num"], doc["weights"]["W1"]["den"]
    return {"weights.W1": {"num": [num[0] * _log_uniform(rng, 0.5, 2.0), num[1]],
                           "den": [den[0] * _log_uniform(rng, 0.5, 2.0), den[1]]},
            "options.gamma_bracket": None}


def _w1_second_order(doc, rng):
    return {"weights.W1": {"num": _quadratic(rng), "den": _quadratic(rng)},
            "options.gamma_bracket": None}


def _w2(doc, rng):
    if doc["weights"]["W2"] != "zero" and rng.random() < 0.5:
        return {"weights.W2": "zero"}
    return {"weights.W2": {"num": [_log_uniform(rng, 0.3, 3.0), _log_uniform(rng, 0.1, 1.0)]}}


def _interp_a(doc, rng):
    return {"options.interp_a": doc["options"]["interp_a"] * _log_uniform(rng, 0.5, 2.0)}


MENU = (_delay, _allpass, _inner_md, _outer_pole, _w1, _w1_second_order, _w2, _interp_a)


def problem(seed, k):
    """(example name, {path: value} of the fields changed, config document)
    of problem `k` of `seed`."""
    rng = np.random.default_rng([seed, k])
    name = ("example1", "example2")[rng.integers(2)]
    doc = json.loads((sweep.CONFIGS / f"{name}.json").read_text())
    changes = {}
    for i in rng.choice(len(MENU), size=rng.integers(1, 3), replace=False):
        changes.update(MENU[i](doc, rng))
    for path, value in changes.items():
        *keys, last = path.split(".")
        node = functools.reduce(dict.__getitem__, keys, doc)
        if value is None:
            node.pop(last, None)
        else:
            node[last] = value
    return name, changes, doc


class _Slow(BaseException):
    """Raised by the alarm; not an `Exception`, so no handler of the
    program and not `sweep.in_process` takes it."""


def _where(frame):
    """`module.function` of the innermost frame of the package in the stack
    from `frame` outward; None when there is none."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("strongstab."):
            return f"{module}.{getattr(frame.f_code, 'co_qualname', frame.f_code.co_name)}"
        frame = frame.f_back
    return None


def limited(limit):
    """`sweep.in_process`, with exit code "slow" for a command still
    running after `limit` seconds, and as its standard error "slow in"
    the function of the package that was running then."""
    def alarm(signum, frame):
        raise _Slow(_where(frame))

    def run(*args):
        old = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return sweep.in_process(*args)
        except _Slow as exc:
            return "slow", "", f"slow in {exc.args[0]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--problems", type=int, default=100)
    ap.add_argument("--limit", type=float, default=10.0,
                    help="wall-clock seconds per command (default 10)")
    args = ap.parse_args(argv)
    run = limited(args.limit)
    classes, no_gamma = collections.Counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg, report = pathlib.Path(tmp) / "problem.json", pathlib.Path(tmp) / "report.json"
        for k in range(args.problems):
            name, changes, doc = problem(args.seed, k)
            cfg.write_text(json.dumps(doc))
            rc, out, err = run("gamma-opt", str(cfg))
            gamma = json.loads(out)["gamma_opt"] if rc == 0 else None
            fields = " ".join(f"{p}=" + ("dropped" if v is None else json.dumps(v))
                              for p, v in changes.items())
            print(f"{k:3d} {name} {fields} gamma-opt={rc} gamma_opt={gamma} "
                  f"stderr={sweep._last(err)!r}", flush=True)
            if gamma is None:
                no_gamma += 1
                continue
            for f in LEVELS:
                rho = f"{gamma * f:.12g}"
                rc1, rc2, digest, verdict, err = sweep.commands(str(cfg), rho, report, run)
                cls = "slow" if "slow" in (rc1, rc2) else sweep.classify(rc1, rc2, err)
                classes[cls] += 1
                print(f"{k:3d} x{f} rho={rho} stabilize={rc1} verify={rc2} "
                      f"report={digest or '-'} class={cls} verdict={verdict!r} "
                      f"stderr={sweep._last(err)!r}", flush=True)
    print("classes: " + " ".join(f"{c}={classes[c]}" for c in CLASSES)
          + f" gamma-opt-failed={no_gamma}")


if __name__ == "__main__":
    sys.exit(main())
