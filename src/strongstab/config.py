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
    if not isinstance(d, dict) or key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    v = d[key]
    if typ is not None and not isinstance(v, typ):
        raise ConfigError(f"{path}.{key}", f"expected {typ}")
    return v


def _coeffs(v, path):
    # the comparison also rejects the NaN and Infinity that json accepts
    if not isinstance(v, list) or not v or not all(
        isinstance(x, (int, float)) and -float("inf") < x < float("inf") for x in v
    ):
        raise ConfigError(path, "expected a nonempty array of finite numbers")
    return [float(x) for x in v]


def _search_value(sd, key, ok, expected):
    """`sd[key]` when it is a number passing `ok`, else a ConfigError naming it."""
    v = sd[key]
    if not isinstance(v, (int, float)) or not ok(v):
        raise ConfigError(f"config.options.search.{key}", f"expected {expected}")
    return v


def _rational(d, path, allow_zero=False):
    if allow_zero and d == "zero":
        return RationalFn.zero()
    num = _coeffs(_need(d, "num", path), f"{path}.num")
    den = _coeffs(_need(d, "den", path), f"{path}.den") if "den" in d else [1.0]
    if all(x == 0 for x in den):
        raise ConfigError(f"{path}.den", "denominator is identically zero")
    return RationalFn(Poly(num), Poly(den))


def load_problem(path):
    """(DelayPlant, WeightPair, Options) from a JSON problem file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")

    pd = _need(doc, "plant", "config", dict)
    h = _need(pd, "h", "config.plant")
    if not isinstance(h, (int, float)) or h < 0:
        raise ConfigError("config.plant.h", "expected a nonnegative number")
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
    if "a" in od:
        opts.a = float(od["a"])
        if opts.a <= 0:
            raise ConfigError("config.options.a", "must be positive")
    if "interp_a" in od:
        opts.interp_a = float(od["interp_a"])
        if opts.interp_a <= 0:
            raise ConfigError("config.options.interp_a", "must be positive")
    if "grid" in od:
        g = od["grid"]
        opts.grid = FrequencyGrid(
            lo=float(_need(g, "lo", "config.options.grid")),
            hi=float(_need(g, "hi", "config.options.grid")),
            points=int(_need(g, "points", "config.options.grid")),
        )
        if not (0 < opts.grid.lo < opts.grid.hi) or opts.grid.points < 16:
            raise ConfigError("config.options.grid", "need 0 < lo < hi, points >= 16")
    if "gamma_bracket" in od:
        gb = od["gamma_bracket"]
        if (not isinstance(gb, list) or len(gb) != 2
                or not 0 < float(gb[0]) < float(gb[1])):
            raise ConfigError("config.options.gamma_bracket", "expected [lo, hi] with 0 < lo < hi")
        opts.gamma_bracket = (float(gb[0]), float(gb[1]))
    sd = od.get("search", {})
    if not isinstance(sd, dict):
        raise ConfigError("config.options.search", "expected an object")
    for key in ("uinf_step", "q_step"):
        if key in sd:
            # NaN fails both comparisons
            step = _search_value(sd, key, lambda v: 0 < v < float("inf"),
                                 "a finite number > 0")
            setattr(opts, key, float(step))
    if "scan_budget" in sd:
        opts.scan_budget = _search_value(
            sd, "scan_budget", lambda v: isinstance(v, int) and v >= 1, "an integer >= 1")
    if "integer_bound" in sd:
        opts.integer_bound = _search_value(
            sd, "integer_bound", lambda v: isinstance(v, int) and v >= 0, "an integer >= 0")
    for key in ("up_grid", "uz_grid", "mu_schedule"):
        if key in sd:
            setattr(opts, key, tuple(_coeffs(sd[key], f"config.options.search.{key}")))
    return plant, weights, opts
