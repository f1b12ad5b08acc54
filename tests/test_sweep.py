"""Every fourth level of the level sweep (tests/sweep.py), run in-process:
no level is broken, and the levels certified today stay certified."""

import functools

import pytest
import sweep

# levels 2, 6, ..., 38 of each config
SUBSET = range(2, len(sweep.EPS), 4)
CERTIFIED = {"example1": {26, 30, 34, 38}, "example2": {2, 6, 10, 14, 18, 22, 26, 30, 34}}
BROKEN = {
    ("example1", 22): "item 2(a): stabilize exits 0 at 0.8129742573682219, and "
                      "verify exits 3: its scan reads a negative winding",
}


@functools.cache
def _gamma(config):
    return sweep.gamma_of(config, sweep.in_process)


@pytest.mark.parametrize("config, i", [
    pytest.param(config, i, id=f"{config}-{i}", marks=[
        pytest.mark.xfail(strict=True, raises=AssertionError, reason=BROKEN[config, i])
    ] if (config, i) in BROKEN else [])
    for config in CERTIFIED for i in SUBSET
])
def test_sweep_level_keeps_its_class(config, i, tmp_path):
    line, cls = sweep.level(config, i, _gamma(config), tmp_path / "report.json",
                            sweep.in_process)
    assert cls == "certified" if i in CERTIFIED[config] else cls != "broken", line
