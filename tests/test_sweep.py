"""The level sweep (tests/sweep.py).  Every fourth level, run in-process: no
level is broken, and the levels certified today stay certified.  Every level
as subprocesses (marked slow, run with --runslow): no level is broken."""

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
def _gamma(config, run):
    return sweep.gamma_of(config, run)


def _levels(indices):
    return [
        pytest.param(config, i, id=f"{config}-{i}", marks=[
            pytest.mark.xfail(strict=True, raises=AssertionError, reason=BROKEN[config, i])
        ] if (config, i) in BROKEN else [])
        for config in CERTIFIED for i in indices
    ]


@pytest.mark.parametrize("config, i", _levels(SUBSET))
def test_sweep_level_keeps_its_class(config, i, tmp_path):
    line, cls = sweep.level(config, i, _gamma(config, sweep.in_process),
                            tmp_path / "report.json", sweep.in_process)
    assert cls == "certified" if i in CERTIFIED[config] else cls != "broken", line


@pytest.mark.slow
@pytest.mark.parametrize("config, i", _levels(range(len(sweep.EPS))))
def test_subprocess_sweep_level_is_not_broken(config, i, tmp_path):
    # every level as `tests/sweep.py` runs it by default: each command a
    # subprocess under the 2 GB address-space cap and the 60 s timeout
    line, cls = sweep.level(config, i, _gamma(config, sweep._cli),
                            tmp_path / "report.json", sweep._cli)
    assert cls != "broken", line
