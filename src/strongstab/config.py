"""Problem-file loading and validation.

A problem is a JSON document with the plant factorization, the weight pair and
solver options.  Polynomial coefficient arrays are ascending, so ``[-1, 1]``
is ``s - 1``.  Validation failures name the offending field path so the CLI
can report exactly what was rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .rational import FrequencyGrid, Poly, RationalFn
from .synthesis import DelayPlant, PlantValidationError, WeightPair

__all__ = ["ConfigError", "Options", "load_problem"]


class ConfigError(ValueError):
    def __init__(self, path, msg):
        super().__init__(f"{path}: {msg}")
        self.path = path


@dataclass
class Options:
    a: float = 1.0                    # conformal map parameter (finite branch)
    interp_a: float = 1.0             # extra interpolation point (suboptimal L1/L2)
    grid: FrequencyGrid = field(default_factory=FrequencyGrid)
    gamma_bracket: tuple | None = None
    uinf_step: float = 1e-3
    scan_budget: int = 25
    up_grid: tuple = (0.0,)
    uz_grid: tuple = (0.0,)
    mu_schedule: tuple | None = None
    q_step: float = 1e-3
    integer_bound: int = 20


def _need(d, key, path, typ=None):
    """d[key], a JSON object or array when `typ` is dict or list."""
    if not isinstance(d, dict) or key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    v = d[key]
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(f"{path}.{key}",
                          f"expected {'an object' if typ is dict else 'an array'}")
    return v


def _number(v, path, ok, expected):
    """`v` when it is a finite number (not a bool) passing `ok`, else a
    ConfigError naming `path`."""
    # the comparison also rejects the NaN and Infinity that json accepts
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not -float("inf") < v < float("inf") or not ok(v)):
        raise ConfigError(path, f"expected {expected}")
    return v


def _coeffs(v, path):
    expected = "a nonempty array of finite numbers"
    if not isinstance(v, list) or not v:
        raise ConfigError(path, f"expected {expected}")
    return [float(_number(x, path, lambda x: True, expected)) for x in v]


def _positive(v, path):
    """`v` as a float when it is a finite number > 0, else a ConfigError."""
    return float(_number(v, path, lambda v: v > 0, "a finite number > 0"))


def _rational(d, path, allow_zero=False):
    if allow_zero and d == "zero":
        return RationalFn.zero()
    num = _coeffs(_need(d, "num", path), f"{path}.num")
    den = _coeffs(_need(d, "den", path), f"{path}.den") if "den" in d else [1.0]
    if all(x == 0 for x in den):
        raise ConfigError(f"{path}.den", "denominator is identically zero")
    return RationalFn(Poly(num), Poly(den))


def _read_json(path):
    """The JSON document in the file `path`; a ConfigError naming `path`
    when the file cannot be read or holds no valid UTF-8 JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc.strerror or exc}")
    except ValueError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")


def load_problem(path):
    """(DelayPlant, WeightPair, Options) from a JSON problem file."""
    doc = _read_json(path)

    pd = _need(doc, "plant", "config", dict)
    h = _number(_need(pd, "h", "config.plant"), "config.plant.h", lambda v: v >= 0,
                "a nonnegative number")
    plant = DelayPlant(
        h=float(h),
        M=_rational(_need(pd, "M", "config.plant", dict), "config.plant.M"),
        m_d=_rational(_need(pd, "m_d", "config.plant", dict), "config.plant.m_d"),
        N_o=_rational(_need(pd, "N_o", "config.plant", dict), "config.plant.N_o"),
    )
    wd = _need(doc, "weights", "config", dict)
    weights = WeightPair(
        W1=_rational(_need(wd, "W1", "config.weights", dict), "config.weights.W1"),
        W2=_rational(_need(wd, "W2", "config.weights"), "config.weights.W2",
                     allow_zero=True),
    )
    try:
        weights.validate()
        plant.validate(weights)
    except PlantValidationError as exc:
        raise ConfigError(f"config.{exc.check}", str(exc))

    opts = Options()
    od = doc.get("options", {})
    if not isinstance(od, dict):
        raise ConfigError("config.options", "expected an object")
    for key in ("a", "interp_a"):
        if key in od:
            setattr(opts, key, _positive(od[key], f"config.options.{key}"))
    if "grid" in od:
        path = "config.options.grid"
        g = od["grid"]
        lo, hi = (_positive(_need(g, k, path), f"{path}.{k}") for k in ("lo", "hi"))
        points = _number(_need(g, "points", path), f"{path}.points",
                         lambda v: isinstance(v, int) and v >= 16, "an integer >= 16")
        if not lo < hi:
            raise ConfigError(path, "need 0 < lo < hi")
        opts.grid = FrequencyGrid(lo=lo, hi=hi, points=points)
    if "gamma_bracket" in od:
        path = "config.options.gamma_bracket"
        gb = od["gamma_bracket"]
        if not isinstance(gb, list) or len(gb) != 2:
            raise ConfigError(path, "expected [lo, hi] with 0 < lo < hi")
        lo, hi = (_positive(v, f"{path}[{i}]") for i, v in enumerate(gb))
        if not lo < hi:
            raise ConfigError(path, "expected [lo, hi] with 0 < lo < hi")
        opts.gamma_bracket = (lo, hi)
    sd = od.get("search", {})
    if not isinstance(sd, dict):
        raise ConfigError("config.options.search", "expected an object")
    for key in ("uinf_step", "q_step"):
        if key in sd:
            setattr(opts, key, _positive(sd[key], f"config.options.search.{key}"))
    for key, least in (("scan_budget", 1), ("integer_bound", 0)):
        if key in sd:
            setattr(opts, key, _number(sd[key], f"config.options.search.{key}",
                                       lambda v: isinstance(v, int) and v >= least,
                                       f"an integer >= {least}"))
    for key in ("up_grid", "uz_grid", "mu_schedule"):
        if key in sd:
            setattr(opts, key, tuple(_coeffs(sd[key], f"config.options.search.{key}")))
    return plant, weights, opts
