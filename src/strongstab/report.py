"""Deterministic report serialization and CSV plot-data emitters.

Reports must be byte-identical across runs for identical inputs: keys keep
insertion order, floats are rendered with 12 significant digits, and nothing
run-dependent (timing, hostnames) enters.  `write_figures`, the one
`--emit-plots` step, computes the report-only figure data after the search.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .finite import fig3_tuples, fig5_lattice, pick_points, pick_thresholds
from .infinite import InfSearchResult, sweep_report

__all__ = [
    "SCHEMA",
    "render_json",
    "fmt",
    "write_figures",
    "write_fig1_sweep",
    "write_fig2_zgrid",
    "write_fig3_mu",
    "write_fig4_umag",
    "write_fig5_ranges",
]

SCHEMA = "strongstab-report/1"
# Sigma and omega samples of the fig-2 |Z| grid.
FIG2_NS = 81
FIG2_NW = 161


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


def _line(row):
    return ",".join("" if v is None else fmt(v) for v in row)


def _write(path, header, lines):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


def write_fig1_sweep(directory, rows):
    """(u_inf, omega_max, eta_max) sweep; omega_max empty when no crossing."""
    _write(os.path.join(directory, "fig1_sweep.csv"), "u_inf,omega_max,eta_max", map(_line, rows))


def write_fig2_zgrid(directory, zfun, sigma_max, omega_bound):
    """|Z| over the certification window [0, sigma_max] x [0, omega_bound]."""
    sigs = np.linspace(0.0, sigma_max, FIG2_NS)
    oms = np.linspace(0.0, omega_bound, FIG2_NW)
    vals = np.abs(zfun(sigs[:, None] + 1j * oms)).tolist()
    om_text = [fmt(om) for om in oms.tolist()]     # each sigma and omega formatted once
    lines = (f"{sg},{om},{fmt(v)}" for sg, row in zip(map(fmt, sigs.tolist()), vals)
             for om, v in zip(om_text, row))
    _write(os.path.join(directory, "fig2_zgrid.csv"), "sigma,omega,absZ", lines)


def write_fig3_mu(directory, table):
    """(n2, mu_min) feasibility profile."""
    rows = [(tup[-1], mu) for tup, mu in table]
    _write(os.path.join(directory, "fig3_mu.csv"), "n2,mu_min", map(_line, rows))


def write_fig4_umag(directory, ufun, grid):
    om = grid.omegas()
    vals = np.abs(ufun(1j * om))
    _write(os.path.join(directory, "fig4_umag.csv"), "omega,absU",
           map(_line, zip(om.tolist(), vals.tolist())))


def write_fig5_ranges(directory, rows):
    """(mu, u_inf, U_norm, stable-flag) over the (mu, Q) search lattice."""
    _write(os.path.join(directory, "fig5_ranges.csv"), "mu,u_inf,U_norm,stable", map(_line, rows))


def write_figures(directory, ctx, opts, res):
    """The `stabilize --emit-plots` CSVs of the search result `res`: fig 2;
    fig 1 for the infinite branch; for the finite one figs 3 and 5 when P2 has
    node zeros (RHP zeros besides the interp_a artifact), and fig 4 when U is
    not central.  A central design has no branch integers, so fig 5 takes the
    zero tuple, where mu_opt = 1 sits."""
    os.makedirs(directory, exist_ok=True)
    scan = res.cert.scan
    write_fig2_zgrid(directory, res.cert.controller.loop_denominator,
                     scan.sigma_max, scan.omega_bound)
    if isinstance(res, InfSearchResult):
        write_fig1_sweep(directory, sweep_report(ctx, opts, res.peaks))
        return
    if not res.p1p2.node_roots:
        return
    z, w = pick_points(res.p1p2, opts.a)
    tuples = fig3_tuples(z, opts.integer_bound)
    write_fig3_mu(directory, zip(tuples, pick_thresholds(z, w, tuples)))
    if res.U is not None:
        write_fig4_umag(directory, res.U, opts.grid)
    integers = (0,) * len(z) if res.central else res.integers
    rows = fig5_lattice(res.p1p2, z, w, res.mu_opt, integers, opts.a, opts.grid)
    write_fig5_ranges(directory, rows)
