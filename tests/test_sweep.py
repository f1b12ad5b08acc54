"""The level sweep (tests/sweep.py).  Every fourth level, run in-process: its
line is the golden one, no level is broken, and the levels certified today
stay certified.  Every level as subprocesses (marked slow, run with
--runslow): its line is the golden one, and no level is broken.

The golden lines, golden/sweep_in_process.txt, are what `tests/sweep.py
--in-process` prints; `tests/golden/regen.py` rewrites them.  A command that
`tests/fuzz.py` stops as slow names the function it was in."""

import functools
import pathlib

import fuzz
import pytest
import sweep

# levels 2, 6, ..., 38 of each config
SUBSET = range(2, len(sweep.EPS), 4)
CERTIFIED = {"example1": {26, 30, 34, 38}, "example2": {2, 6, 10, 14, 18, 22, 26, 30, 34, 38}}
BROKEN = {
    ("example1", 22): "item 2(a): stabilize exits 0 at 0.8129742573682219, and "
                      "verify exits 3: its scan reads a negative winding",
}


@functools.cache
def _gamma(config, run):
    return sweep.gamma_of(config, run)


@functools.cache
def _golden():
    """The golden line of each level, by its "<config> <index>" head."""
    text = (pathlib.Path(__file__).resolve().parent / "golden" / "sweep_in_process.txt").read_text()
    return {line.split(" rho=")[0]: line for line in text.splitlines() if " rho=" in line}


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
    assert line == _golden()[f"{config} {i:2d}"]
    assert cls == "certified" if i in CERTIFIED[config] else cls != "broken", line


@pytest.mark.slow
@pytest.mark.parametrize("config, i", _levels(range(len(sweep.EPS))))
def test_subprocess_sweep_level_is_not_broken(config, i, tmp_path):
    # every level as `tests/sweep.py` runs it by default: each command a
    # subprocess under the 2 GB address-space cap and the 60 s timeout
    line, cls = sweep.level(config, i, _gamma(config, sweep._cli),
                            tmp_path / "report.json", sweep._cli)
    assert line == _golden()[f"{config} {i:2d}"]
    assert cls != "broken", line


def test_slow_command_names_the_function_it_was_in():
    # example 2's stabilize at 1.9454 runs about 0.12 s in-process
    rc, out, err = fuzz.limited(0.05)("stabilize", str(sweep.CONFIGS / "example2.json"),
                                      "--rho", "1.9454")
    assert (rc, out) == ("slow", "")
    assert err.startswith("slow in strongstab."), err
