"""Metamorphic relations: the whole pipeline checked against itself.

Weight scaling (ROADMAP item 9(a)): multiplying W1's and W2's numerators by k
multiplies every weighted closed-loop norm, and so gamma_opt, by k.  With the
level and the gamma bracket scaled too, the normalized problem is the same
one, and for a power of two (k = 2 and k = 1/2) every floating-point step
scales exactly.  So every byte
of the `gamma-opt` output and of the `stabilize` report equals the unscaled
golden file, except the numbers that carry the level: `rho`, `gamma_opt`,
`verified_norm` and the `gamma-opt` bracket, which equal k times the golden
values to the 12 printed digits.

A common factor (item 9(c)): multiplying the numerator and the denominator of
M, m_d, N_o, W1 and W2 by 2 changes no transfer function, and every
denominator is normalized to be monic, so every byte of both outputs equals
the golden files.
"""

import json
import pathlib
import re

import pytest

from strongstab.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

LEVEL_FIELD = re.compile(r'("(?:rho|gamma_opt|verified_norm|bracket)": )(\[[^\]]*\]|[^,\n]+)')


def _scaled_config(tmp_path, name, K):
    """configs/<name>.json with both weights' numerators and the gamma
    bracket multiplied by K."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for w in ("W1", "W2"):
        if doc["weights"][w] != "zero":
            doc["weights"][w]["num"] = [K * c for c in doc["weights"][w]["num"]]
    doc["options"]["gamma_bracket"] = [K * g for g in doc["options"]["gamma_bracket"]]
    path = tmp_path / f"{name}_scaled.json"
    path.write_text(json.dumps(doc))
    return path


def _common_factor_config(tmp_path, name, K):
    """configs/<name>.json with the numerator and the denominator of each
    plant factor and weight multiplied by K."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for group, keys in (("plant", ("M", "m_d", "N_o")), ("weights", ("W1", "W2"))):
        for key in keys:
            fn = doc[group][key]
            if fn != "zero":
                fn["den"] = fn.get("den", [1.0])
                for part in ("num", "den"):
                    fn[part] = [K * c for c in fn[part]]
    path = tmp_path / f"{name}_factor.json"
    path.write_text(json.dumps(doc))
    return path


def _level_split(text):
    """`text` with the level fields' values blanked, and those values."""
    values = [json.loads(m.group(2)) for m in LEVEL_FIELD.finditer(text)]
    values = [v for value in values for v in (value if isinstance(value, list) else [value])]
    return LEVEL_FIELD.sub(r"\1#", text), values


def _assert_scaled(got, want, K):
    got_rest, got_levels = _level_split(got)
    want_rest, want_levels = _level_split(want)
    assert got_rest == want_rest
    assert len(got_levels) == len(want_levels) > 0
    assert got_levels == pytest.approx([K * v for v in want_levels], rel=1e-11)


@pytest.mark.parametrize("name, rho, golden, K", [
    ("example1", 0.814, "ex1_rho0.814", 2.0),
    ("example2", 1.9454, "ex2_rho1.9454", 2.0),
    ("example1", 0.814, "ex1_rho0.814", 0.5),
    ("example2", 1.9454, "ex2_rho1.9454", 0.5),
], ids=["example1", "example2", "example1-k0.5", "example2-k0.5"])
def test_weight_scaling_scales_only_the_level(tmp_path, capsys, name, rho, golden, K):
    cfg = _scaled_config(tmp_path, name, K)
    assert main(["gamma-opt", str(cfg)]) == 0
    _assert_scaled(capsys.readouterr().out, (GOLDEN / f"gamma_opt_{name}.json").read_text(), K)
    out = tmp_path / "report.json"
    assert main(["stabilize", str(cfg), "--rho", repr(K * rho), "--out", str(out)]) == 0
    _assert_scaled(out.read_text(), (GOLDEN / f"{golden}.json").read_text(), K)


@pytest.mark.parametrize("name, rho, golden", [
    ("example1", "0.814", "ex1_rho0.814"),
    ("example2", "1.9454", "ex2_rho1.9454"),
], ids=["example1", "example2"])
def test_common_factor_changes_no_byte(tmp_path, capsys, name, rho, golden):
    cfg = _common_factor_config(tmp_path, name, 2.0)
    assert main(["gamma-opt", str(cfg)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"gamma_opt_{name}.json").read_text()
    out = tmp_path / "report.json"
    assert main(["stabilize", str(cfg), "--rho", rho, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"{golden}.json").read_text()
