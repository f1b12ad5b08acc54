"""Spans and counters around the public functions of each strongstab layer.

A `Tracer` rebinds public names in every loaded ``strongstab.*`` module
namespace (so ``from .finite import certify_u_norm`` copies are covered too)
for the duration of `Tracer.installed()`, and puts every original back on
exit.  Spans are kept in memory and written out as JSON Lines at the end of a
run; `layer_metrics` turns one command round of spans into the per-layer
numbers the benchmark prints.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter

# Functions that get a span: (module, public name).
SPANNED = [
    ("config", "load_problem"),
    ("rational", "poly_roots"),
    ("synthesis", "gamma_opt"),
    ("synthesis", "interpolation_rows"),
    ("synthesis", "build_context"),
    ("synthesis", "verify_performance"),
    ("stability", "peak_data"),
    ("stability", "rhp_zero_scan"),
    ("infinite", "stabilize_infinite"),
    ("finite", "build_p1p2"),
    ("finite", "mu_opt_search"),
    ("finite", "certify_u_norm"),
    ("finite", "stabilize_finite"),
    ("report", "render_json"),
    ("report", "write_fig1_sweep"),
    ("report", "write_fig2_zgrid"),
    ("report", "write_fig3_mu"),
    ("report", "write_fig4_umag"),
    ("report", "write_fig5_ranges"),
]

# Hot inner calls that only bump a counter, so that their cost stays in the
# self time of the span that loops over them: (module, class or None, name,
# counter name, what to add per call).
COUNTED = [
    ("finite", "NPInterpolant", "g", "finite.NPInterpolant.g.calls", "calls"),
    ("finite", None, "pick_min_eig", "finite.pick_min_eig.calls", "calls"),
    ("synthesis", "Controller", "loop_denominator",
     "synthesis.Controller.loop_denominator.points", "points"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "cmd", "error", "info")

    def __init__(self, id, name, start, parent, cmd):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cmd = cmd
        self.error = False
        self.info = None

    def as_dict(self, t0=0):
        d = {"id": self.id, "name": self.name, "start_ns": self.start - t0,
             "end_ns": self.end - t0, "parent": self.parent, "cmd": self.cmd,
             "error": self.error}
        if self.info:
            d["info"] = self.info
        return d


def _scan_info(scan):
    return {"cells": scan.cells_scanned, "clean": not scan.zeros}


def _gamma_info(res):
    return {"infeasible": len(res.infeasible_points)}


def _finite_info(res):
    return {"accepted": res.U is not None}


# Facts a span keeps about its function's result, for ratios and sums.
RESULT_INFO = {
    "stability.rhp_zero_scan": _scan_info,
    "synthesis.gamma_opt": _gamma_info,
    "finite.stabilize_finite": _finite_info,
}


class Tracer:
    """In-memory spans and counters; one command id per traced CLI call."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.cmd = 0
        self.t0 = clock()

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        sp = Span(len(self.spans), name, self.clock(), parent, self.cmd)
        self.spans.append(sp)
        self.stack.append(sp.id)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = self.clock()
            self.stack.pop()

    @contextlib.contextmanager
    def command(self, name):
        """Root span of one CLI command; spans inside share its id."""
        self.cmd += 1
        with self.span(name) as sp:
            yield sp

    def wrap(self, name, fn):
        info = RESULT_INFO.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if info is not None:
                    sp.info = info(out)
                return out

        traced.__wrapped__ = fn
        return traced

    def count(self, key, how, fn):
        counters = self.counters

        if how == "points":
            def counted(self_, s, *args, **kwargs):
                counters[key] += getattr(s, "size", 1)
                return fn(self_, s, *args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names; restore every original on exit."""
        patches = []
        try:
            for modname, name in SPANNED:
                mod = importlib.import_module(f"strongstab.{modname}")
                orig = getattr(mod, name)
                _rebind_everywhere(orig, self.wrap(f"{modname}.{name}", orig), patches)
            for modname, clsname, name, key, how in COUNTED:
                mod = importlib.import_module(f"strongstab.{modname}")
                if clsname is None:
                    orig = getattr(mod, name)
                    _rebind_everywhere(orig, self.count(key, how, orig), patches)
                else:
                    cls = getattr(mod, clsname)
                    orig = cls.__dict__[name]
                    patches.append((cls, name, orig))
                    setattr(cls, name, self.count(key, how, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def write_jsonl(self, path, commands):
        with open(path, "w") as fh:
            for cmd_id, name in commands:
                fh.write(json.dumps({"cmd": cmd_id, "command": name}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict(self.t0)) + "\n")


def _rebind_everywhere(orig, replacement, patches):
    for mod in [m for n, m in list(sys.modules.items())
                if m is not None and (n == "strongstab" or n.startswith("strongstab."))]:
        for attr in [a for a, v in vars(mod).items() if v is orig]:
            patches.append((mod, attr, orig))
            setattr(mod, attr, replacement)


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered, reach = 0, sp.start
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def _under(sp, name, by_id):
    p = sp.parent
    while p is not None:
        anc = by_id[p]
        if anc.name == name:
            return True
        p = anc.parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters):
    """Per-layer numbers of one traced command round (times in seconds)."""
    counters = Counter(counters)
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)
    self_s, calls, failed = Counter(), Counter(), Counter()
    for sp in spans:
        self_s[sp.name] += selfs[sp.id] / 1e9
        calls[sp.name] += 1
        failed[sp.name] += sp.error

    gamma_spans = [sp for sp in spans if sp.name == "synthesis.gamma_opt"]
    sigma_evals = sum(
        1 for sp in spans if sp.name == "synthesis.interpolation_rows"
        and not sp.error and _under(sp, "synthesis.gamma_opt", by_id)
    )
    infeasible = sum(sp.info["infeasible"] for sp in gamma_spans if sp.info)
    inf_scans = [sp for sp in spans if sp.name == "stability.rhp_zero_scan"
                 and sp.info and _under(sp, "infinite.stabilize_infinite", by_id)]
    accepted = sum(1 for sp in spans
                   if sp.name == "finite.stabilize_finite" and sp.info
                   and sp.info["accepted"])
    write_figs = sum(v for k, v in self_s.items() if k.startswith("report.write_fig"))
    return {
        "synthesis.gamma_opt.self_s": self_s["synthesis.gamma_opt"],
        "synthesis.gamma_opt.sigma_evals": sigma_evals,
        "synthesis.gamma_opt.infeasible_frac": _ratio(infeasible, sigma_evals + infeasible),
        "synthesis.build_context.self_s": self_s["synthesis.build_context"],
        "synthesis.verify_performance.self_s": self_s["synthesis.verify_performance"],
        "rational.poly_roots.calls": calls["rational.poly_roots"],
        "rational.poly_roots.self_s": self_s["rational.poly_roots"],
        "rational.poly_roots.failed": failed["rational.poly_roots"],
        "stability.peak_data.calls": calls["stability.peak_data"],
        "stability.peak_data.self_s": self_s["stability.peak_data"],
        "stability.rhp_zero_scan.calls": calls["stability.rhp_zero_scan"],
        "stability.rhp_zero_scan.self_s": self_s["stability.rhp_zero_scan"],
        "stability.rhp_zero_scan.cells": sum(
            sp.info["cells"] for sp in spans
            if sp.name == "stability.rhp_zero_scan" and sp.info),
        "synthesis.Controller.loop_denominator.points":
            counters["synthesis.Controller.loop_denominator.points"],
        "infinite.stabilize_infinite.self_s": self_s["infinite.stabilize_infinite"],
        "infinite.candidates": sum(
            1 for sp in spans if sp.name == "stability.peak_data"
            and _under(sp, "infinite.stabilize_infinite", by_id)),
        "infinite.scan_yield": _ratio(
            sum(sp.info["clean"] for sp in inf_scans), len(inf_scans)),
        "finite.stabilize_finite.self_s": self_s["finite.stabilize_finite"],
        "finite.NPInterpolant.g.calls": counters["finite.NPInterpolant.g.calls"],
        "finite.mu_opt_search.self_s": self_s["finite.mu_opt_search"],
        "finite.pick_min_eig.calls": counters["finite.pick_min_eig.calls"],
        "finite.certify_u_norm.calls": calls["finite.certify_u_norm"],
        "finite.certify_u_norm.self_s": self_s["finite.certify_u_norm"],
        "finite.build_p1p2.self_s": self_s["finite.build_p1p2"],
        "finite.q_accept_ratio": _ratio(accepted, calls["finite.certify_u_norm"]),
        "report.render_json.self_s": self_s["report.render_json"],
        "report.write_figs.self_s": write_figs,
        "config.load_problem.self_s": self_s["config.load_problem"],
    }
