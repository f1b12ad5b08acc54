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
    _cleared_lu_polys,
    _roots_of_nonzero,
    admissible_uinf,
    asymptotics,
    certify,
    peak_data,
    scan_window_for,
)
from .synthesis import CertificateContradiction, SynthesisContext, UParam

__all__ = [
    "InfSearchResult",
    "SearchExhausted",
    "l1u_stability_range",
    "stabilize_infinite",
    "sweep_report",
]


# Candidates per stacked root extraction.  The chunk bounds what the stacks
# keep alive at once: on example 1, chunks of 64 read 0.18 MB more peak RSS
# than chunks of 16 in the benchmark, for 6% less stabilize time.
_CHUNK = 16


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
    ok = np.array([
        h for chunk in _chunks([UParam(float(u)) for u in us])
        for h in map(or_raise, _l1u_hurwitz(ctx, chunk))
    ])
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
    """Per U in `us`: is the cleared L_1U = L1 (u_p + s) + u_inf (u_z + s) L2~ Hurwitz?

    All roots come from one stacked `poly_roots` call; a failed extraction is
    returned as its exception in place of the flag.
    """
    dens = [_cleared_lu_polys(ctx, u)[1] for u in us]
    return [
        rs if isinstance(rs, Exception)
        else not p.is_zero and all(r.real < 0 for r in rs.expanded())
        for p, rs in zip(dens, _roots_of_nonzero(dens))
    ]


def _chunks(seq):
    return [seq[i : i + _CHUNK] for i in range(0, len(seq), _CHUNK)]


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


def _rank_key(entry):
    u, pk = entry
    wm = pk.omega_max if pk.omega_max is not None else 0.0
    return (wm, pk.eta_max, abs(u.u_inf), u.u_p)


def _candidates(ctx, opts: Options, intervals, peaks):
    """(u, PeakData) of every grid U with ||U|| <= 1, a Hurwitz L_1U and a finite crossing.

    Candidates go in chunks of `_CHUNK` through the stacked Hurwitz test and
    `peak_data`; a failed root extraction raises the error that a loop over
    the candidates one at a time would meet first.  Every PeakData computed,
    also of a U dropped for its infinite crossing, goes into the dict `peaks`.
    """
    us = []
    for up in opts.up_grid:
        for uz in opts.uz_grid:
            for ui in _interval_grid(intervals, opts.uinf_step):
                u = UParam(float(ui), float(uz), float(up))
                if u.sup_norm() <= 1.0:
                    us.append(u)
    candidates = []
    for chunk in _chunks(us):
        hurwitz = _l1u_hurwitz(ctx, chunk)
        # a loop over single candidates stops at the first failed L_1U
        # extraction, or before it in an earlier candidate's peak data: rank
        # the candidates before it, then raise it
        n = next((i for i, h in enumerate(hurwitz) if isinstance(h, Exception)),
                 len(chunk))
        stable = [u for u, h in zip(chunk[:n], hurwitz) if h]
        for u, pk in zip(stable, peak_data(ctx, stable)):
            peaks[u] = pk
            if pk.omega_max is not None and not np.isfinite(pk.omega_max):
                continue
            candidates.append((u, pk))
        if n < len(chunk):
            raise hurwitz[n]
    return candidates


def stabilize_infinite(plant, weights, ctx: SynthesisContext,
                       opts: Options) -> InfSearchResult:
    """Run the full first-order-U search at level ctx.level.

    Raises SearchExhausted when no admissible u_inf exists or when every
    scanned candidate has residual right-half-plane zeros; the frontier of the
    best (omega_max, eta_max) candidates is attached for diagnosis.
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
        window = scan_window_for(ctx, plant, u, pk)
        cert = certify(plant, weights, ctx, u, opts.grid, window)
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
    asym = asymptotics(ctx)
    us = []
    for lo, hi in admissible_uinf(asym):
        for ui in _interval_grid([(lo, hi)], opts.uinf_step):
            u = UParam(float(ui))
            if u.sup_norm() <= 1.0:
                us.append(u)
    known = dict(peaks)     # a copy: the caller's search result stays as it was
    for chunk in _chunks([u for u in us if u not in known]):
        known.update(zip(chunk, peak_data(ctx, chunk)))
    rows = []
    for u in us:
        pk = known[u]
        wm = pk.omega_max
        rows.append((u.u_inf, None if wm is None else float(wm), pk.eta_max))
    return rows
