"""Every exported and every benchmark-traced name resolves, and no exported
signature defaults a search setting.

The benchmark's tracer (`perfbench/spans.py`) rebinds the names it lists in
`SPANNED` and `COUNTED`; a deletion or rename in `strongstab` that leaves one
of them dangling would only fail there, in a traced run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import pytest

import strongstab
from strongstab.config import Options

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


# Below the CLI a setting comes from the caller's Options or from a named
# module constant, never from a parameter default that copies Options'.
SETTING_NAMES = {f.name for f in dataclasses.fields(Options)} | {"step"}


def _signatures(mod):
    """(qualified name, signature) of every function and class named in
    mod.__all__, and of every method the class defines."""
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if obj is Options:
            continue
        fns = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            fns += [(f"{name}.{attr}", getattr(m, "__func__", m))
                    for attr, m in vars(obj).items()]
        for qual, fn in fns:
            try:
                yield qual, inspect.signature(fn)
            except (TypeError, ValueError):
                pass    # a builtin constructor (an exception class) or not a callable


@pytest.mark.parametrize("modname", MODULES)
def test_no_parameter_defaults_a_setting(modname):
    mod = importlib.import_module(f"strongstab.{modname}")
    defaulted = [
        f"{qual}({p.name}={p.default!r})"
        for qual, sig in _signatures(mod)
        for p in sig.parameters.values()
        if p.name in SETTING_NAMES and p.default is not inspect.Parameter.empty
    ]
    assert defaulted == []
