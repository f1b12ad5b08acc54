"""Unstable-pole analysis for the delay loop 1 + e^{-hs} M F L_U.

Four layers: leading-coefficient asymptotics (finite/infinite pole class and
the admissible range of the free parameter's high-frequency gain), exact
crossing/peak data for |F L_U| on the imaginary axis, a rigorous
argument-principle scan that counts and locates right-half-plane zeros of an
analytic callable on a rectangle, with known cancelling zeros deflated out,
and `certify`, the one acceptance test every design passes: a clean scan of
the loop denominator, then the closed-loop norm bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rational import Poly, poly_roots
from .synthesis import (
    Controller, DelayPlant, SynthesisContext, UParam, WeightPair, build_controller,
    verify_performance,
)

__all__ = [
    "AsymptoticData",
    "Certificate",
    "PeakData",
    "RegionScan",
    "ScanError",
    "asymptotics",
    "certify",
    "fl_limit_at_infinity",
    "finitely_many_poles",
    "admissible_uinf",
    "peak_data",
    "chain_abscissa",
    "properness_criterion",
    "rhp_zero_scan",
    "scan_window_for",
]


class ScanError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@dataclass
class AsymptoticData:
    f_inf: float
    k: float               # may be +-inf when deg L2 > deg L1
    parity_odd: bool       # parity of n1 + l (the suboptimal L degree)
    degree: int


def _f_infinity(ctx: SynthesisContext) -> float:
    """lim |F(jw)| from the spectral ratio's leading coefficients."""
    num_x = ctx.R.num.even_part_coeffs()
    den_x = ctx.R.den.even_part_coeffs()
    dn, dd = len(num_x) - 1, len(den_x) - 1
    # |F|^2 = den_R / num_R on the axis
    if dd < dn:
        return 0.0
    if dd > dn:
        return float(np.inf)
    return float(np.sqrt(abs(den_x[-1] / num_x[-1])))


def asymptotics(ctx: SynthesisContext) -> AsymptoticData:
    if ctx.L1.is_zero:
        raise ValueError("L1 is identically zero")
    degree = max(ctx.L1.degree, ctx.L2.degree)
    c1 = ctx.L1.c[degree] if ctx.L1.degree == degree else 0.0
    c2 = ctx.L2.c[degree] if ctx.L2.degree == degree else 0.0
    if c1 == 0.0:
        k = np.inf if c2 > 0 else -np.inf
    else:
        k = c2 / c1
    return AsymptoticData(
        f_inf=_f_infinity(ctx), k=float(k),
        parity_odd=(ctx.n1 + ctx.ell) % 2 == 1, degree=degree,
    )


def _cleared_lu_polys(ctx: SynthesisContext, u: UParam):
    """(L2U, L1U) as polynomials after clearing the U denominator."""
    L1, L2 = ctx.L1, ctx.L2
    if u.is_constant:
        return (L2 + L1.mirror() * u.u_inf, L1 + L2.mirror() * u.u_inf)
    up = Poly([u.u_p, 1.0])
    uz = Poly([u.u_z, 1.0]) * u.u_inf
    return (L2 * up + L1.mirror() * uz, L1 * up + L2.mirror() * uz)


def fl_limit_at_infinity(ctx: SynthesisContext, u: UParam) -> float:
    """lim_{w->inf} |F(jw) L_U(jw)| from leading coefficients only."""
    return _fl_limit(_f_infinity(ctx), *_cleared_lu_polys(ctx, u))


def _fl_limit(f_inf, L2U, L1U):
    d = max(L2U.degree, L1U.degree)
    c2 = L2U.c[d] if L2U.degree == d else 0.0
    c1 = L1U.c[d] if L1U.degree == d else 0.0
    if c1 == 0.0:
        return float(np.inf) if c2 != 0 else f_inf  # degenerate both-zero: d lowers
    return f_inf * abs(c2 / c1)


def finitely_many_poles(ctx: SynthesisContext, u: UParam) -> bool:
    return fl_limit_at_infinity(ctx, u) <= 1.0 + 1e-12


def admissible_uinf(asym: AsymptoticData):
    """Intervals of u_inf in [-1, 1] giving finitely many unstable poles.

    Solves f_inf |k + v| <= |1 + k v| with v = (-1)^degree * u_inf; squaring
    gives a single quadratic whose discriminant is the perfect square
    (f_inf (1 - k^2))^2, so the admissible set is one or two exact intervals.
    """
    f = asym.f_inf
    if f <= 1.0:
        return [(-1.0, 1.0)]
    k = asym.k
    if not np.isfinite(k):
        return []  # |v| >= f_inf > 1 has no admissible point in [-1, 1]
    a = f * f - k * k
    b = 2.0 * k * (f * f - 1.0)
    c = f * f * k * k - 1.0
    # discriminant b^2 - 4ac collapses to (2 f (1 - k^2))^2 exactly
    sq = 2.0 * f * abs(1.0 - k * k)
    if abs(a) < 1e-14:
        # linear: b v + c <= 0
        if abs(b) < 1e-14:
            return [(-1.0, 1.0)] if c <= 0 else []
        vcut = -c / b
        vints = [(-np.inf, vcut)] if b > 0 else [(vcut, np.inf)]
    else:
        v1 = (-b - sq) / (2 * a)
        v2 = (-b + sq) / (2 * a)
        vlo, vhi = min(v1, v2), max(v1, v2)
        if a > 0:
            vints = [(vlo, vhi)]
        else:
            vints = [(-np.inf, vlo), (vhi, np.inf)]
    sigma = -1.0 if asym.degree % 2 == 1 else 1.0
    out = []
    for lo, hi in vints:
        ulo, uhi = sorted((sigma * lo, sigma * hi))
        ulo, uhi = max(ulo, -1.0), min(uhi, 1.0)
        if ulo <= uhi:
            out.append((float(ulo), float(uhi)))
    return sorted(out)


# ---------------------------------------------------------------------------
# peak data (exact crossings of |F L_U| through 1)
# ---------------------------------------------------------------------------

@dataclass
class PeakData:
    omega_max: float | None
    eta_max: float


def _even_to_x(p: Poly):
    """p even in s -> q with p(jw) = q(w^2)."""
    cx = p.even_part_coeffs()
    return Poly(cx * (-1.0) ** np.arange(len(cx)))


def _abs2_to_x(p: Poly):
    """|p(jw)|^2 as a polynomial in x = w^2."""
    return _even_to_x(p * p.mirror())


def peak_data(ctx: SynthesisContext, us) -> list[PeakData]:
    """Largest |F L_U| = 1 crossing and the supremum over [0, inf), per U in `us`.

    Everything is rational on the axis, so crossings and stationary points are
    polynomial roots in x = w^2; no frequency grid is involved.  When the
    controller has infinitely many unstable poles the crossing frequency is
    reported as +inf.  The crossing and stationary-point polynomials of all
    candidates are solved in two stacked `poly_roots` calls; a failed
    extraction raises the error the first failing candidate meets.
    """
    numR_x = _even_to_x(ctx.R.num)
    denR_x = _even_to_x(ctx.R.den)
    f_inf = _f_infinity(ctx)
    cands = []
    for u in us:
        L2U, L1U = _cleared_lu_polys(ctx, u)
        N_x = denR_x * _abs2_to_x(L2U)     # |F L_U|^2 = N_x / D_x
        D_x = numR_x * _abs2_to_x(L1U)
        T = N_x - D_x                      # crossings: sign changes of N - D
        Q = N_x.deriv() * D_x - N_x * D_x.deriv()   # stationary points of N/D
        cands.append((N_x, D_x, T, Q, _fl_limit(f_inf, L2U, L1U)))
    t_roots = _roots_of_nonzero([c[2] for c in cands])
    q_roots = _roots_of_nonzero([c[3] for c in cands])

    out = []
    for (N_x, D_x, T, Q, lim), t_rs, q_rs in zip(cands, t_roots, q_roots):
        crossings = []
        for r in _roots_or_raise(t_rs):
            if abs(r.imag) < 1e-7 * (1 + abs(r)) and r.real > 1e-12:
                x = r.real
                dx = 1e-6 * (1 + x)
                if (T(x - dx).real) * (T(x + dx).real) < 0:
                    crossings.append(np.sqrt(x))
        omega_max = max(crossings) if crossings else None
        if lim > 1.0 + 1e-12:
            omega_max = float(np.inf)

        # supremum: stationary points of N/D plus x = 0 and the limit
        xs = [0.0]
        for r in _roots_or_raise(q_rs):
            if abs(r.imag) < 1e-7 * (1 + abs(r)) and r.real > 0:
                xs.append(r.real)
        eta = max(np.sqrt(max(N_x(x).real / D_x(x).real, 0.0)) for x in xs)
        eta = max(eta, lim)
        out.append(PeakData(
            omega_max=float(omega_max) if omega_max is not None else None,
            eta_max=float(eta),
        ))
    return out


def _roots_of_nonzero(polys):
    """`poly_roots` per poly (RootSet or exception), the zero polynomial counted root-free."""
    return poly_roots([Poly([1.0]) if p.is_zero else p for p in polys])


def _roots_or_raise(rs):
    if isinstance(rs, Exception):
        raise rs
    return rs.roots


def chain_abscissa(h: float, fl_limit: float):
    """Abscissa of the asymptotic unstable-zero chain: e^{-h s}|FL| = 1."""
    if fl_limit <= 1.0 or h <= 0:
        return None
    return float(np.log(fl_limit) / h)


def properness_criterion(weights: WeightPair, plant: DelayPlant) -> str:
    """'guaranteed-finite' when F must be strictly proper, else 'possibly-infinite'."""
    if weights.W1.relative_degree() < 0:
        return "possibly-infinite"
    if weights.W2.is_zero:
        phi_plant = (
            plant.M.relative_degree()
            + plant.N_o.relative_degree()
            - plant.m_d.relative_degree()
        )
        return "guaranteed-finite" if phi_plant > 0 else "possibly-infinite"
    return "guaranteed-finite" if weights.W2.relative_degree() < 0 else "possibly-infinite"


# ---------------------------------------------------------------------------
# argument-principle scan
# ---------------------------------------------------------------------------

@dataclass
class RegionScan:
    sigma_max: float
    omega_bound: float
    zeros: list
    excluded: list
    winding_total: int
    cells_scanned: int = 0
    notes: list = field(default_factory=list)


def _edge_arg_change(f, z0, z1, init_n=64, max_n=60000, small_tol=1e-9):
    """Total argument change of f along the straight segment z0 -> z1."""
    ts = np.linspace(0.0, 1.0, init_n)
    vals = np.asarray(f(z0 + (z1 - z0) * ts), dtype=complex)
    for _ in range(40):
        mags = np.abs(vals)
        if np.any(~np.isfinite(mags)) or mags.min() <= small_tol * max(mags.max(), 1e-30):
            at = z0 + (z1 - z0) * ts[int(np.argmin(mags))]
            raise ScanError(f"contour passes too close to a zero near s={at:.6g}")
        dph = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dph) > np.pi / 2
        if not bad.any():
            return float(dph.sum())
        if len(ts) > max_n:
            raise ScanError("edge refinement exceeded the sample budget")
        mid_ts = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        mid_vals = np.asarray(f(z0 + (z1 - z0) * mid_ts), dtype=complex)
        idx = np.searchsorted(ts, mid_ts)
        ts = np.insert(ts, idx, mid_ts)
        vals = np.insert(vals, idx, mid_vals)
    raise ScanError("edge refinement did not settle")


def _winding_rect(f, slo, shi, wlo, whi):
    corners = [
        (complex(slo, wlo), complex(shi, wlo)),
        (complex(shi, wlo), complex(shi, whi)),
        (complex(shi, whi), complex(slo, whi)),
        (complex(slo, whi), complex(slo, wlo)),
    ]
    total = sum(_edge_arg_change(f, a, b) for a, b in corners)
    w = total / (2 * np.pi)
    wi = int(np.rint(w))
    if abs(w - wi) > 0.1:
        raise ScanError(f"winding number did not converge to an integer: {w:.4f}")
    return wi


def _newton_zero(f, z0, tol=1e-11, iters=80):
    z = z0
    for _ in range(iters):
        dz = 1e-7 * (1.0 + abs(z))
        d = (f(np.array([z + dz]))[0] - f(np.array([z - dz]))[0]) / (2 * dz)
        if d == 0:
            break
        step = f(np.array([z]))[0] / d
        z = z - step
        if abs(step) < tol * (1 + abs(z)):
            return z
    return z


def _safe_cut(f, lo, hi, fixed, vertical, avoid=()):
    """Pick a cut coordinate between lo and hi whose line the phase march can
    traverse; the march itself aborts when a zero sits on the line, so a
    successful traversal certifies the cut.  Coordinates near `avoid` values
    are skipped: on such lines (the real axis, where a real-coefficient
    function is real-valued) an even number of zeros between samples produces
    no observable phase change, defeating the refinement criterion."""
    for frac in (0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7):
        cut = lo + frac * (hi - lo)
        if any(abs(cut - av) < 0.02 * (hi - lo) for av in avoid):
            continue
        if vertical:
            z0, z1 = complex(cut, fixed[0]), complex(cut, fixed[1])
        else:
            z0, z1 = complex(fixed[0], cut), complex(fixed[1], cut)
        try:
            _edge_arg_change(f, z0, z1)
        except ScanError:
            continue
        return cut
    raise ScanError("could not place a subdivision cut away from zeros")


def _subdivide(f, slo, shi, wlo, whi, depth, out, counter, loc_tol=1e-6, max_depth=60):
    wind = _winding_rect(f, slo, shi, wlo, whi)
    counter[0] += 1
    if wind < 0:
        raise ScanError("negative winding: the function has poles in the region")
    if wind == 0:
        return
    if max(shi - slo, whi - wlo) < loc_tol or (wind >= 1 and max(shi - slo, whi - wlo) < 1e-4):
        z0 = complex(0.5 * (slo + shi), 0.5 * (wlo + whi))
        z = _newton_zero(f, z0)
        out.extend([z] * wind)
        return
    if depth > max_depth:
        raise ScanError("subdivision depth exceeded")
    if (shi - slo) >= (whi - wlo):
        cut = _safe_cut(f, slo, shi, (wlo, whi), vertical=True)
        _subdivide(f, slo, cut, wlo, whi, depth + 1, out, counter, loc_tol, max_depth)
        _subdivide(f, cut, shi, wlo, whi, depth + 1, out, counter, loc_tol, max_depth)
    else:
        avoid = (0.0,) if wlo < 0.0 < whi else ()
        cut = _safe_cut(f, wlo, whi, (slo, shi), vertical=False, avoid=avoid)
        _subdivide(f, slo, shi, wlo, cut, depth + 1, out, counter, loc_tol, max_depth)
        _subdivide(f, slo, shi, cut, whi, depth + 1, out, counter, loc_tol, max_depth)


def rhp_zero_scan(f, sigma_max: float, omega_bound: float, excluded=(),
                  sigma_min: float = 0.0, omega_min: float | None = None) -> RegionScan:
    """Count and locate zeros of `f` in [sigma_min, sigma_max] x [om_min, om_bound].

    `excluded` lists known zeros (for example the cancelled zeros of E and m_d
    on or near the contour); they are divided out pointwise before the winding
    computation, which both removes them from the count and keeps the contour
    away from vanishing values.
    """
    if omega_min is None:
        omega_min = -omega_bound
    excluded = [complex(z) for z in excluded]

    def fd(s):
        s = np.asarray(s, dtype=complex)
        v = np.asarray(f(s), dtype=complex)
        for z0 in excluded:
            v = v / (s - z0)
        return v

    zeros = []
    counter = [0]
    _subdivide(fd, sigma_min, sigma_max, omega_min, omega_bound, 0, zeros, counter)
    inside = [
        z for z in excluded
        if sigma_min < z.real < sigma_max and omega_min < z.imag < omega_bound
    ]
    return RegionScan(
        sigma_max=sigma_max, omega_bound=omega_bound,
        zeros=sorted(zeros, key=lambda z: (z.real, z.imag)),
        excluded=excluded, winding_total=len(zeros) + len(inside),
        cells_scanned=counter[0],
    )


def scan_window_for(ctx: SynthesisContext, plant: DelayPlant, u: UParam,
                    peak: PeakData | None = None):
    """Sound truncation window for the loop-denominator scan.

    Beyond sigma_max the delay factor contracts the loop gain below one, and
    beyond the omega bound |F L_U| stays below one, so no zeros are lost.
    """
    peak = peak or peak_data(ctx, [u])[0]
    if peak.omega_max is not None and not np.isfinite(peak.omega_max):
        raise ScanError("infinitely many unstable poles: no finite window exists")
    eta = max(peak.eta_max, 1.0)
    h = plant.h
    if h > 0:
        sigma_max = max(5.0, 3.0 * np.log(eta) / h + 1.0)
        omega_bound = (peak.omega_max or 0.0) * 1.1 + 2 * np.pi / h + 2.0
    else:
        sigma_max = 5.0 + 10.0 * eta
        omega_bound = (peak.omega_max or 0.0) * 1.1 + 10.0
    return float(sigma_max), float(omega_bound)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

# The right edge of a scan window may move out this many times (doubling
# sigma_max each time) before the window is declared unsound.
EDGE_DOUBLINGS = 6


@dataclass
class Certificate:
    """Both checks of one design.

    `scan` holds the window actually scanned and the excluded zeros; `norm`
    and `norm_ok` stay None/False when the scan found zeros, because the norm
    check then has nothing left to decide.
    """

    controller: Controller
    scan: RegionScan
    norm: float | None = None
    norm_ok: bool = False

    @property
    def stable(self):
        return not self.scan.zeros


def _probe_window(controller: Controller):
    """(5, omega_bound) with omega_bound half again past the last axis
    frequency where |e^{-hs} M F L_U| >= 0.95, plus 5."""
    om = np.logspace(-3, 4, 1500)
    mag = np.abs(controller.loop_gain(1j * om))
    above = np.nonzero(mag >= 0.95)[0]
    return 5.0, (om[above[-1]] * 1.5 + 5.0 if len(above) else 5.0)


def _contracting_edge(controller: Controller, sigma_max, omega_bound):
    """Move the right edge out until the delay contracts the loop gain below
    one along it, so no zero lies beyond the window."""
    for _ in range(EDGE_DOUBLINGS + 1):
        edge = sigma_max + 1j * np.linspace(0.0, omega_bound, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            gain = np.abs(controller.loop_gain(edge))
        if gain.max() < 1.0:
            return sigma_max
        sigma_max *= 2.0
    raise ScanError(
        f"loop gain still reaches one on the right edge sigma={sigma_max / 2:g} "
        f"after {EDGE_DOUBLINGS} doublings"
    )


def certify(plant: DelayPlant, weights: WeightPair, ctx: SynthesisContext, u,
            window=None, grid=None) -> Certificate:
    """Build the controller for `u`, scan its loop denominator for RHP zeros
    and, only when the scan is clean, check the closed-loop norm on `grid`.

    `window` is (sigma_max, omega_bound); None takes the bound from a probe of
    the loop gain on the axis.  Either way the right edge is then pushed out
    until the loop gain contracts along it (ScanError when it never does).
    """
    controller = build_controller(plant, weights, ctx, u)
    sigma_max, omega_bound = window or _probe_window(controller)
    sigma_max = _contracting_edge(controller, sigma_max, omega_bound)
    scan = rhp_zero_scan(controller.loop_denominator, sigma_max, omega_bound,
                         excluded=ctx.excluded_zeros())
    if scan.zeros:
        return Certificate(controller, scan)
    return Certificate(controller, scan, *verify_performance(controller, weights, grid))
