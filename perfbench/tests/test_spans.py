import importlib
import sys

import pytest

from spans import COUNTED, SPANNED, Span, Tracer, layer_metrics, self_times


def span(id, name, start, end, parent=None, info=None):
    sp = Span(id, name, start, parent, 1)
    sp.end = end
    sp.info = info
    return sp


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 40, parent=0),
        span(2, "a.inner", 15, 35, parent=1),
        span(3, "b", 50, 60, parent=0),
    ]
    got = self_times(spans)
    assert got == {0: 100 - 30 - 10, 1: 30 - 20, 2: 20, 3: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "root", 0, 100),
        span(1, "x", 10, 50, parent=0),
        span(2, "y", 30, 70, parent=0),
        span(3, "z", 90, 120, parent=0),   # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_tracer_links_parents_and_commands():
    ticks = iter(range(0, 1000, 10))
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("m.inner", lambda x: x + 1)
    outer = tr.wrap("m.outer", lambda x: inner(x) * 2)
    with tr.command("cli.one"):
        assert outer(1) == 4
    with tr.command("cli.two"):
        with pytest.raises(ZeroDivisionError):
            tr.wrap("m.bad", lambda: 1 / 0)()
    names = [(s.name, s.parent, s.cmd, s.error) for s in tr.spans]
    assert names == [
        ("cli.one", None, 1, False), ("m.outer", 0, 1, False),
        ("m.inner", 1, 1, False), ("cli.two", None, 2, False),
        ("m.bad", 3, 2, True),
    ]
    assert tr.stack == []


def _strongstab_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "strongstab" or name.startswith("strongstab."):
            out.update({(name, a): v for a, v in vars(mod).items()})
    for modname, clsname, attr, _, _ in COUNTED:
        if clsname:
            cls = getattr(importlib.import_module(f"strongstab.{modname}"), clsname)
            out[(clsname, attr)] = cls.__dict__[attr]
    return out


def test_rebound_names_are_restored():
    import strongstab.cli as cli
    from strongstab import finite

    before = _strongstab_bindings()
    original = cli.gamma_opt
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert cli.gamma_opt is not original
            assert cli.gamma_opt.__wrapped__ is original
            assert finite.NPInterpolant.__dict__["g"].__wrapped__ is not None
            raise RuntimeError("leave the block early")
    after = _strongstab_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert len(SPANNED) == len({n for _, n in SPANNED})


def test_traced_command_counts_and_restores(tmp_path):
    from conftest import ROOT
    from strongstab.cli import main

    before = _strongstab_bindings()
    tr = Tracer()
    with tr.installed():
        with tr.command("cli.gamma-opt"):
            assert main(["gamma-opt", str(ROOT / "configs" / "example1.json")]) == 0
    assert _strongstab_bindings() == before
    m = layer_metrics(tr.spans, tr.counters)
    assert m["synthesis.gamma_opt.sigma_evals"] > 200
    assert m["rational.poly_roots.calls"] > m["synthesis.gamma_opt.sigma_evals"]
    assert m["config.load_problem.self_s"] > 0
    assert m["finite.certify_u_norm.calls"] == 0
    tr.write_jsonl(tmp_path / "t.jsonl", [(1, "cli.gamma-opt")])
    assert (tmp_path / "t.jsonl").read_text().count("\n") == len(tr.spans) + 1


def test_layer_ratios_use_their_bases():
    spans = [
        span(0, "cli.stabilize", 0, 100),
        span(1, "infinite.stabilize_infinite", 1, 90, parent=0),
        span(2, "stability.peak_data", 2, 3, parent=1),
        span(3, "stability.peak_data", 3, 4, parent=1),
        span(4, "stability.rhp_zero_scan", 5, 10, parent=1, info={"cells": 7, "clean": False}),
        span(5, "stability.rhp_zero_scan", 10, 12, parent=1, info={"cells": 1, "clean": True}),
        span(6, "stability.peak_data", 95, 96, parent=0),
    ]
    m = layer_metrics(spans, {})
    assert m["infinite.candidates"] == 2
    assert m["stability.peak_data.calls"] == 3
    assert m["infinite.scan_yield"] == 0.5
    assert m["stability.rhp_zero_scan.cells"] == 8
    assert m["finite.q_accept_ratio"] == 0.0
