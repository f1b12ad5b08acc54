"""Every exported and every benchmark-traced name resolves.

The benchmark's tracer (`perfbench/spans.py`) rebinds the names it lists in
`SPANNED` and `COUNTED`; a deletion or rename in `strongstab` that leaves one
of them dangling would only fail there, in a traced run.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import strongstab

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


MODULES = [m.name for m in pkgutil.iter_modules(strongstab.__path__)]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(f"strongstab.{modname}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


def test_traced_names_resolve():
    spans = _spans()
    missing = []
    for modname, name in spans.SPANNED:
        if not callable(getattr(importlib.import_module(f"strongstab.{modname}"), name, None)):
            missing.append((modname, name))
    for modname, clsname, name, _, _ in spans.COUNTED:
        mod = importlib.import_module(f"strongstab.{modname}")
        # class methods are looked up in the class dict, as the tracer does
        owner = vars(getattr(mod, clsname, object)) if clsname else vars(mod)
        if not callable(owner.get(name)):
            missing.append((modname, clsname, name))
    assert len(spans.SPANNED) > 0 and len(spans.COUNTED) > 0
    assert missing == []
