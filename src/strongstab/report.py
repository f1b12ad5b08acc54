"""Deterministic report serialization and CSV plot-data emitters.

Reports must be byte-identical across runs for identical inputs: keys keep
insertion order, floats are rendered with 12 significant digits, and nothing
run-dependent (timing, hostnames) enters.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

__all__ = [
    "SCHEMA",
    "render_json",
    "fmt",
    "write_fig1_sweep",
    "write_fig2_zgrid",
    "write_fig3_mu",
    "write_fig4_umag",
    "write_fig5_ranges",
]

SCHEMA = "strongstab-report/1"


def fmt(x):
    """Canonical 12-significant-digit rendering of a float."""
    if type(x) is float and math.isfinite(x):
        return f"{x:.12g}"
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return f"{v:.12g}"


def render_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        return "[" + ", ".join(render_json(v, indent) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return "[" + fmt(obj.real) + ", " + fmt(obj.imag) + "]"
    return fmt(obj)


def _write(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else fmt(v) for v in row) + "\n")


def write_fig1_sweep(directory, rows):
    """(u_inf, omega_max, eta_max) sweep; omega_max empty when no crossing."""
    _write(os.path.join(directory, "fig1_sweep.csv"), "u_inf,omega_max,eta_max", rows)


def write_fig2_zgrid(directory, zfun, sigma_max, omega_bound, ns=81, nw=161):
    """|Z| over the certification window [0, sigma_max] x [0, omega_bound]."""
    sigs = np.linspace(0.0, sigma_max, ns)
    oms = np.linspace(0.0, omega_bound, nw)
    vals = np.abs(zfun(sigs[:, None] + 1j * oms)).tolist()
    rows = [(sg, om, v) for sg, row in zip(sigs.tolist(), vals)
            for om, v in zip(oms.tolist(), row)]
    _write(os.path.join(directory, "fig2_zgrid.csv"), "sigma,omega,absZ", rows)


def write_fig3_mu(directory, table):
    """(n2, mu_min) feasibility profile."""
    rows = [(tup[-1], mu) for tup, mu in table]
    _write(os.path.join(directory, "fig3_mu.csv"), "n2,mu_min", rows)


def write_fig4_umag(directory, ufun, grid):
    om = grid.omegas()
    vals = np.abs(ufun(1j * om))
    _write(os.path.join(directory, "fig4_umag.csv"), "omega,absU",
           zip(om.tolist(), vals.tolist()))


def write_fig5_ranges(directory, rows):
    """(mu, u_inf, U_norm, stable-flag) over the (mu, Q) search lattice."""
    _write(os.path.join(directory, "fig5_ranges.csv"), "mu,u_inf,U_norm,stable", rows)
