"""Command-line pipeline: optimal-level computation, stabilization, re-verification.

Exit codes: 0 success, 1 `verify` failed or the optimal-level search found no
singular level in the bracket, 2 input/problem error (including a `--rho`
that is not finite, and a `verify` report that lacks a field or whose `rho`
is not a number > 0 with a finite square), 3 search exhausted or numerical
failure (a zero scan or root extraction that did not converge, a spectral
factorization or interpolation system that broke down, also at a level whose
square overflows, an evaluation at a pole, or a closed-loop denominator that
vanished on the axis), 4 certificate contradiction (a correctness alarm: a
design that the theory makes stable, U in the unit ball or the finite
branch's central U = 0, failed its certificate).  Reports are deterministic
JSON; plot data goes to CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import report as rpt
from .config import ConfigError, _need, _number, _positive, _read_json, load_problem
from .finite import (
    FiniteSearchError,
    FiniteU,
    PickProblem,
    build_p1p2,
    np_interpolant,
    p1p2_quasipolys,
    pick_points,
    stabilize_finite,
)
from .infinite import SearchExhausted, stabilize_infinite
from .rational import FrequencyGrid, PoleEvaluationError, RootConvergenceError
from .stability import (
    ScanError,
    certify,
    finitely_many_poles,
    peak_data,
    properness_criterion,
)
from .synthesis import (
    CertificateContradiction,
    ClosedLoopSingular,
    FactorizationError,
    GammaSearchError,
    InterpolationError,
    NORM_SLACK,
    UParam,
    build_context,
    gamma_opt,
)

__all__ = ["main"]


def _default_bracket(weights, grid: FrequencyGrid):
    om = grid.omegas()
    mags = np.abs(weights.W1(1j * om))
    lo, hi = float(mags.min()), float(mags.max())
    if hi / lo < 1.01:
        raise GammaSearchError(
            "weight magnitude is nearly flat; supply options.gamma_bracket"
        )
    return lo * 1.02, hi * 0.98


def _complex_pairs(zs):
    return [[z.real, z.imag] for z in zs]


def _report_number(doc, key, path):
    """doc[key] as a float: a number or a string that float() reads, not a bool."""
    v = _need(doc, key, path)
    try:
        if not isinstance(v, bool):
            return float(v)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}.{key}", "expected a number")


@contextlib.contextmanager
def _writing(flag):
    """A block whose OSError is an input error naming the option `flag`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(flag, f"cannot write: {exc}")


def _check_outputs(args):
    """Exit 2 before any search where `stabilize` cannot write its output:
    --out must name a file in an existing directory, and the nearest
    existing path of --emit-plots (whose directories are made as needed) must
    be a directory.  `_writing` still maps the errors of the writes."""
    if args.out:
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise ConfigError("--out", f"cannot write: no directory {parent}")
        if os.path.isdir(args.out):
            raise ConfigError("--out", f"cannot write: {args.out} is a directory")
    if args.emit_plots:
        path = os.path.abspath(args.emit_plots)
        while not os.path.exists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise ConfigError("--emit-plots", f"cannot write: {path} is not a directory")


def cmd_gamma_opt(args):
    plant, weights, opts = load_problem(args.config)
    bracket = opts.gamma_bracket or _default_bracket(weights, opts.grid)
    res = gamma_opt(plant, weights, bracket)
    doc = {
        "schema": rpt.SCHEMA,
        "command": "gamma-opt",
        "gamma_opt": res.gamma,
        "sigma_min": res.sigma_min,
        "L_opt": {"L1": list(res.L1.c), "L2": list(res.L2.c)},
        "bracket": list(res.diagnostics["bracket"]),
        "dips_inspected": res.diagnostics["dips"],
        "infeasible_points": [
            {"gamma": g, "reason": why} for g, why in res.infeasible_points
        ],
    }
    print(rpt.render_json(doc))
    return 0


def _run_infinite(plant, weights, ctx, opts):
    res = stabilize_infinite(plant, weights, ctx, opts)
    scan = res.cert.scan
    payload = {
        "u_inf": res.u.u_inf,
        "u_z": res.u.u_z,
        "u_p": res.u.u_p,
        "omega_max": res.peak.omega_max,
        "eta_max": res.peak.eta_max,
        "f_inf": res.asym.f_inf,
        "k": res.asym.k,
        "scan_sigma_max": scan.sigma_max,
        "scan_omega_bound": scan.omega_bound,
        "excluded_zeros": _complex_pairs(scan.excluded),
        "residual_zeros": _complex_pairs(scan.zeros),
        "candidates_tried": res.candidates_tried,
        "U_norm": res.cert.u_norm,
        "verified_norm": res.cert.norm,
        "stable": res.cert.stable,
    }
    return payload, res


def _run_finite(plant, weights, ctx, opts):
    res = stabilize_finite(plant, weights, ctx, opts)
    p1p2, scan = res.p1p2, res.cert.scan
    payload = {
        "central": res.central,
        "mu": res.mu,
        "integers": list(res.integers),
        "q": res.q,
        "conformal_a": opts.a,
        "U_norm": res.U_norm,
        "verified_norm": res.cert.norm,
        "stable": res.cert.stable,
        "p_roots": _complex_pairs(p1p2.p_roots),
        "s_roots": _complex_pairs(p1p2.s_roots),
        "node_roots": _complex_pairs(p1p2.node_roots),
        "artifact_roots": _complex_pairs(p1p2.artifact_roots),
        "scan_sigma_max": scan.sigma_max,
        "scan_omega_bound": scan.omega_bound,
        "residual_zeros": _complex_pairs(scan.zeros),
    }
    if p1p2.node_roots:
        z, w = pick_points(p1p2, opts.a)
        payload["z_points"] = _complex_pairs(z)
        payload["w_points"] = _complex_pairs(w)
        payload["mu_opt"] = res.mu_opt
    return payload, res


def cmd_stabilize(args):
    if not math.isfinite(args.rho):
        raise ConfigError("--rho", "expected a finite number")
    _check_outputs(args)
    plant, weights, opts = load_problem(args.config)
    bracket = opts.gamma_bracket or _default_bracket(weights, opts.grid)
    gres = gamma_opt(plant, weights, bracket)
    if args.rho <= gres.gamma:
        print(
            f"input error: rho={args.rho:g} must exceed the optimal level "
            f"{gres.gamma:.6g}",
            file=sys.stderr,
        )
        return 2
    ctx = build_context(plant, weights, args.rho, opts.interp_a)
    crit = properness_criterion(weights, plant)
    central_finite = finitely_many_poles(ctx, UParam(0.0))
    pole_class = "finite" if central_finite else "infinite"
    if args.method == "auto":
        # the finite branch needs F strictly proper or a central controller
        # with finitely many poles, and quasi-polynomials it can scan
        finite = crit == "guaranteed-finite" or central_finite
        finite = finite and all(q.delay_dominated for q in p1p2_quasipolys(plant, ctx))
        branch = "finite" if finite else "infinite"
    else:
        branch = args.method
    if branch == "infinite":
        payload, res = _run_infinite(plant, weights, ctx, opts)
        branch_name = "infinite-search"
    else:
        payload, res = _run_finite(plant, weights, ctx, opts)
        branch_name = "central-stable" if res.central else "finite-search"
    if args.emit_plots:
        with _writing("--emit-plots"):
            rpt.write_figures(args.emit_plots, ctx, opts, res)
    doc = {
        "schema": rpt.SCHEMA,
        "command": "stabilize",
        "rho": args.rho,
        "gamma_opt": gres.gamma,
        "pole_class": pole_class,
        "properness": crit,
        "branch": branch_name,
        "result": payload,
        "certificates": {
            "scan_clean": res.cert.stable,
            "norm_ok": res.cert.norm_ok,
            "norm_slack": NORM_SLACK,
        },
    }
    text = rpt.render_json(doc)
    if args.out:
        with _writing("--out"), open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args):
    plant, weights, opts = load_problem(args.config)
    rep = _read_json(args.report)
    rho = _report_number(rep, "rho", "report")
    if not (rho > 0 and math.isfinite(rho * rho)):
        raise ConfigError("report.rho", "expected a number > 0 whose square is finite")
    branch = _need(rep, "branch", "report")
    result = _need(rep, "result", "report", dict)

    def number(key):
        v = _report_number(result, key, "report.result")
        if not math.isfinite(v):
            raise FiniteSearchError(f"stored U is not finite: {key} is {v}")
        return v

    dense = FrequencyGrid(opts.grid.lo, opts.grid.hi, opts.grid.points * 2)
    ctx = build_context(plant, weights, rho, opts.interp_a)
    # only the design is read from the report; `certify` derives its window
    peak = None
    if branch == "infinite-search":
        u = UParam(number("u_inf"), number("u_z"), number("u_p"))
        if not finitely_many_poles(ctx, u):
            print("fail: stored U lies in the infinite-pole class "
                  "(limit of |F L_U| exceeds one)")
            return 1
        peak = peak_data(ctx, [u])[0]
    elif branch in ("finite-search", "central-stable"):
        if branch == "central-stable":
            u = UParam(0.0)
        else:
            a = _positive(_need(result, "conformal_a", "report.result"),
                          "report.result.conformal_a")
            p1p2 = build_p1p2(plant, ctx)
            z, w = pick_points(p1p2, a)
            ints = _need(result, "integers", "report.result", list)
            each = f"{len(z)} integers, one per Pick node"
            if len(ints) != len(z):
                raise ConfigError("report.result.integers", f"expected {each}")
            n = tuple(_number(k, "report.result.integers", lambda k: isinstance(k, int), each)
                      for k in ints)
            pp = PickProblem(z=z, w=w, n=n, mu=number("mu"))
            u = FiniteU(p1p2, np_interpolant(pp), pp.mu, number("q"), a)
    else:
        print(f"fail: unknown branch {branch!r}")
        return 1
    # twice the stabilize window on each side
    cert = certify(plant, weights, ctx, u, dense, peak, widen=2)
    if np.isnan(cert.u_norm):
        raise FiniteSearchError("stored U is not finite on the frequency grid")
    bound = rho * (1 + NORM_SLACK)
    if not cert.u_ok:
        print(f"fail: free-parameter norm {cert.u_norm:.6f} exceeds one")
    elif not cert.stable:
        print(f"fail: scan found {len(cert.scan.zeros)} residual RHP zero(s)")
    elif not cert.norm_ok:
        print(f"fail: performance norm {cert.norm:.6f} exceeds {bound:.6f}")
    else:
        print(f"pass: scan clean, norm {cert.norm:.6f} <= {bound:.6f}")
        return 0
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="strongstab",
        description="Stable suboptimal H-infinity controller synthesis for "
                    "SISO dead-time plants",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    g = sub.add_parser("gamma-opt", help="compute the optimal performance level")
    g.add_argument("config")
    s = sub.add_parser("stabilize", help="search for a stable suboptimal controller")
    s.add_argument("config")
    s.add_argument("--rho", type=float, required=True,
                   help="suboptimal performance level (> gamma_opt)")
    s.add_argument("--method", choices=("auto", "infinite", "finite"), default="auto")
    s.add_argument("--emit-plots", metavar="DIR", default=None)
    s.add_argument("--out", metavar="FILE", default=None)
    v = sub.add_parser("verify", help="re-certify a stabilize report from scratch")
    v.add_argument("config")
    v.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    try:
        if args.cmd == "gamma-opt":
            return cmd_gamma_opt(args)
        if args.cmd == "stabilize":
            return cmd_stabilize(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (SearchExhausted, FiniteSearchError) as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        frontier = getattr(exc, "frontier", None)
        if frontier:
            for row in frontier[:10]:
                print(f"  frontier: {row}", file=sys.stderr)
        return 3
    except (ScanError, RootConvergenceError, FactorizationError, InterpolationError,
            PoleEvaluationError, ClosedLoopSingular) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CertificateContradiction as exc:
        print(f"certificate contradiction: {exc}", file=sys.stderr)
        return 4
    except GammaSearchError as exc:
        print(f"gamma search failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
