"""Search for a stable suboptimal controller via a first-order free parameter.

Used when the optimal/central controllers carry an infinite chain of unstable
poles: sweep the admissible high-frequency gains u_inf (optionally with
first-order pole/zero grids), keep the candidates whose L_1U polynomial is
Hurwitz, rank them by how early and how weakly the loop gain exceeds one, and
certify the best candidates with the argument-principle scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rational import FrequencyGrid, poly_roots
from .stability import (
    AsymptoticData,
    Certificate,
    PeakData,
    admissible_uinf,
    asymptotics,
    certify,
    peak_data,
    scan_window_for,
)
from .synthesis import CertificateContradiction, SynthesisContext, UParam, build_context

__all__ = [
    "InfSearchConfig",
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
class InfSearchConfig:
    rho: float
    uinf_step: float = 1e-3
    up_grid: tuple = (0.0,)
    uz_grid: tuple = (0.0,)
    scan_budget: int = 25
    interp_a: float = 1.0
    grid: FrequencyGrid = field(default_factory=FrequencyGrid)


@dataclass
class InfSearchResult:
    u: UParam
    peak: PeakData
    cert: Certificate
    candidates_tried: int
    asym: AsymptoticData
    ctx: SynthesisContext


def l1u_stability_range(ctx: SynthesisContext, step=1e-3):
    """Largest interval of constant u_inf in [-1, 1] keeping L_1U Hurwitz."""
    us = np.arange(-1.0, 1.0 + step / 2, step)
    ok = np.zeros(len(us), dtype=bool)
    L1, L2m = ctx.L1, ctx.L2.mirror()
    for i, u in enumerate(us):
        p = L1 + L2m * float(u)
        if p.degree == 0:
            ok[i] = p.c[0] != 0.0
            continue
        ok[i] = all(r.real < 0 for r in poly_roots(p).expanded())
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


def _lu_den_stable(ctx, u: UParam):
    from .stability import _cleared_lu_polys

    _, L1U = _cleared_lu_polys(ctx, u)
    if L1U.is_zero:
        return False
    if L1U.degree == 0:
        return True
    return all(r.real < 0 for r in poly_roots(L1U).expanded())


def _rank_key(entry):
    u, pk = entry
    wm = pk.omega_max if pk.omega_max is not None else 0.0
    return (wm, pk.eta_max, abs(u.u_inf), u.u_p)


def stabilize_infinite(plant, weights, cfg: InfSearchConfig,
                       ctx: SynthesisContext | None = None) -> InfSearchResult:
    """Run the full first-order-U search at level cfg.rho.

    Raises SearchExhausted when no admissible u_inf exists or when every
    scanned candidate has residual right-half-plane zeros; the frontier of the
    best (omega_max, eta_max) candidates is attached for diagnosis.
    """
    ctx = ctx or build_context(plant, weights, cfg.rho, "suboptimal", cfg.interp_a)
    asym = asymptotics(ctx)
    intervals = admissible_uinf(asym)
    if not intervals:
        raise SearchExhausted(
            "empty admissible set: no high-frequency gain keeps the "
            "unstable-pole count finite"
        )

    candidates = []
    for up in cfg.up_grid:
        for uz in cfg.uz_grid:
            for ui in _interval_grid(intervals, cfg.uinf_step):
                u = UParam(float(ui), float(uz), float(up))
                if u.sup_norm() > 1.0:
                    continue
                if not _lu_den_stable(ctx, u):
                    continue
                pk = peak_data(ctx, u)
                if pk.omega_max is not None and not np.isfinite(pk.omega_max):
                    continue
                candidates.append((u, pk))
    if not candidates:
        raise SearchExhausted("no candidate passed the L_1U stability filter")

    candidates.sort(key=_rank_key)
    frontier = []
    for u, pk in candidates[: cfg.scan_budget]:
        window = scan_window_for(ctx, plant, u, pk)
        cert = certify(plant, weights, ctx, u, window, cfg.grid)
        frontier.append((u, pk, len(cert.scan.zeros)))
        if not cert.stable:
            continue
        if not cert.norm_ok:
            raise CertificateContradiction(
                f"scan certified stability at u_inf={u.u_inf:.4g} but the "
                f"closed-loop norm {cert.norm:.6g} exceeded the level"
            )
        return InfSearchResult(
            u=u, peak=pk, cert=cert, candidates_tried=len(frontier), asym=asym,
            ctx=ctx,
        )
    raise SearchExhausted(
        "all scanned candidates kept right-half-plane zeros",
        frontier=[(u.u_inf, pk.omega_max, pk.eta_max, nz) for u, pk, nz in frontier],
    )


def sweep_report(plant, weights, cfg: InfSearchConfig,
                 ctx: SynthesisContext | None = None):
    """(u_inf, omega_max, eta_max) over the admissible constant-U range."""
    ctx = ctx or build_context(plant, weights, cfg.rho, "suboptimal", cfg.interp_a)
    asym = asymptotics(ctx)
    rows = []
    for lo, hi in admissible_uinf(asym):
        for ui in _interval_grid([(lo, hi)], cfg.uinf_step):
            u = UParam(float(ui))
            if u.sup_norm() > 1.0:
                continue
            pk = peak_data(ctx, u)
            wm = pk.omega_max
            rows.append((float(ui), None if wm is None else float(wm), pk.eta_max))
    return rows
