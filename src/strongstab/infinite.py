"""Search for a stable suboptimal controller via a first-order free parameter.

Used when the optimal/central controllers carry an infinite chain of unstable
poles: sweep the admissible high-frequency gains u_inf (optionally with
first-order pole/zero grids), keep the candidates whose L_1U polynomial is
Hurwitz, rank them by how early and how weakly the loop gain exceeds one, and
certify the best candidates with the argument-principle scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Options
from .rational import or_raise
from .stability import (
    AsymptoticData,
    Certificate,
    PeakData,
    _lu_rows,
    _roots_of_nonzero,
    _u_rows,
    admissible_uinf,
    asymptotics,
    certify,
    peak_data,
    U_NORM_MAX,
)
from .synthesis import CertificateContradiction, SynthesisContext, UParam

__all__ = [
    "InfSearchResult",
    "SearchExhausted",
    "l1u_stability_range",
    "stabilize_infinite",
    "sweep_report",
]


class SearchExhausted(RuntimeError):
    def __init__(self, reason, frontier=None):
        super().__init__(reason)
        self.reason = reason
        self.frontier = frontier or []


@dataclass
class InfSearchResult:
    u: UParam
    peak: PeakData
    cert: Certificate
    candidates_tried: int
    asym: AsymptoticData
    peaks: dict     # UParam -> PeakData of every candidate whose peak data was computed


def l1u_stability_range(ctx: SynthesisContext, step: float):
    """Largest interval of constant u_inf in [-1, 1] keeping L_1U Hurwitz."""
    us = np.arange(-1.0, 1.0 + step / 2, step)
    ok = np.array(_l1u_hurwitz(ctx, [UParam(float(u)) for u in us]))
    if not ok.any():
        return None
    runs = []
    start = None
    for i, good in enumerate(ok):
        if good and start is None:
            start = i
        if not good and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(us) - 1))
    lo, hi = max(runs, key=lambda r: r[1] - r[0])
    return float(us[lo]), float(us[hi])


def _l1u_hurwitz(ctx: SynthesisContext, us):
    """Per U of `us`, whether its L_1U = L1 (u_p + s) + u_inf (u_z + s) L2~,
    cleared of U's denominator (`stability._lu_rows`), is Hurwitz.

    All roots come from one stacked `poly_roots` call; the first failed
    extraction, in row order, raises.
    """
    L1U = _lu_rows(ctx, *_u_rows(us))[1]
    return [bool(row.any()) and all(r.real < 0 for r in or_raise(rs))
            for row, rs in zip(L1U, _roots_of_nonzero(L1U))]


def _interval_grid(intervals, step):
    # march on round multiples of the step, keeping both endpoints
    pts = []
    for lo, hi in intervals:
        start = np.ceil(lo / step) * step
        pts.append(lo)
        k = 0
        while start + k * step < hi - 1e-15:
            pts.append(start + k * step)
            k += 1
        pts.append(hi)
    return np.array(sorted(set(np.round(pts, 12))))


def _u_grid(intervals, step, ups, uzs):
    """Every U(u_inf, u_z, u_p) with ||U|| <= U_NORM_MAX over u_p in `ups`,
    u_z in `uzs` and u_inf on `_interval_grid(intervals, step)`."""
    uis = _interval_grid(intervals, step)
    us = [UParam(float(ui), float(uz), float(up)) for up in ups for uz in uzs for ui in uis]
    return [u for u in us if u.sup_norm() <= U_NORM_MAX]


def _rank_key(entry):
    u, pk = entry
    wm = pk.omega_max if pk.omega_max is not None else 0.0
    return (wm, pk.eta_max, abs(u.u_inf), u.u_p)


def _candidates(ctx, opts: Options, intervals, peaks):
    """(u, PeakData) of every grid U with ||U|| <= U_NORM_MAX, a Hurwitz L_1U
    and a finite crossing.

    All grid U go through one stacked Hurwitz test, and the Hurwitz ones
    through one `peak_data` call; a failure raises at the first failed check,
    every L_1U row before any peak row.  Every PeakData computed, also of a U
    dropped for its infinite crossing, goes into the dict `peaks`.
    """
    us = _u_grid(intervals, opts.uinf_step, opts.up_grid, opts.uz_grid)
    stable = [u for u, h in zip(us, _l1u_hurwitz(ctx, us)) if h]
    found = list(zip(stable, peak_data(ctx, stable)))
    peaks.update(found)
    return [(u, pk) for u, pk in found if pk.omega_max is None or np.isfinite(pk.omega_max)]


def stabilize_infinite(plant, weights, ctx: SynthesisContext,
                       opts: Options) -> InfSearchResult:
    """Run the full first-order-U search at level ctx.level.

    Raises SearchExhausted when no admissible u_inf exists or when every
    scanned candidate has residual right-half-plane zeros; the frontier of the
    best (omega_max, eta_max) candidates, each with the count of its scan
    window's zeros (`certify` counts, it does not locate), is attached for
    diagnosis.
    """
    asym = asymptotics(ctx)
    intervals = admissible_uinf(asym)
    if not intervals:
        raise SearchExhausted(
            "empty admissible set: no high-frequency gain keeps the "
            "unstable-pole count finite"
        )

    peaks = {}
    candidates = _candidates(ctx, opts, intervals, peaks)
    if not candidates:
        raise SearchExhausted("no candidate passed the L_1U stability filter")

    candidates.sort(key=_rank_key)
    frontier = []
    for u, pk in candidates[: opts.scan_budget]:
        cert = certify(plant, weights, ctx, u, opts.grid, pk)
        frontier.append((u, pk, len(cert.scan.zeros)))
        if not cert.stable:
            continue
        if not cert.norm_ok:
            raise CertificateContradiction(
                f"scan certified stability at u_inf={u.u_inf:.4g} but the "
                f"closed-loop norm {cert.norm:.6g} exceeded the level"
            )
        return InfSearchResult(u=u, peak=pk, cert=cert,
                               candidates_tried=len(frontier), asym=asym, peaks=peaks)
    raise SearchExhausted(
        "all scanned candidates kept right-half-plane zeros",
        frontier=[(u.u_inf, pk.omega_max, pk.eta_max, nz) for u, pk, nz in frontier],
    )


def sweep_report(ctx: SynthesisContext, opts: Options, peaks):
    """(u_inf, omega_max, eta_max) over the admissible constant-U range.

    `peaks` (UParam -> PeakData, as `InfSearchResult.peaks` holds them) gives
    rows already computed; only the others go through `peak_data`.
    """
    # one grid per interval (the fig-1 rows), not `_candidates`' merged grid
    us = [u for iv in admissible_uinf(asymptotics(ctx))
          for u in _u_grid([iv], opts.uinf_step, (0.0,), (0.0,))]
    known = dict(peaks)     # a copy: the caller's search result stays as it was
    todo = [u for u in us if u not in known]
    known.update(zip(todo, peak_data(ctx, todo)))
    rows = []
    for u in us:
        pk = known[u]
        wm = pk.omega_max
        rows.append((u.u_inf, None if wm is None else float(wm), pk.eta_max))
    return rows
