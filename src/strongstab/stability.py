"""Unstable-pole analysis for the delay loop 1 + e^{-hs} M F L_U.

Four layers: leading-coefficient asymptotics (finite/infinite pole class and
the admissible range of the free parameter's high-frequency gain), exact
crossing/peak data for |F L_U| on the imaginary axis, a rigorous
argument-principle scan that counts right-half-plane zeros of an analytic
callable on a rectangle and, on request, locates them (subdivision until
Newton pins each zero alone in a cell), with known cancelling zeros deflated
out and each contour segment (subdivision cuts included) marched once per
scan, and `certify`, the
one place a design is judged: the free parameter in the unit ball, then no
zero counted in the loop denominator's window, then the closed-loop norm
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import (
    FrequencyGrid, _conv_rows, _deriv_rows, _even_rows, _horner, _mirror, _stacked,
    _top, or_raise, poly_roots,
)
from .synthesis import (
    Controller, DelayPlant, SynthesisContext, UParam, WeightPair, verify_performance,
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
    "U_NORM_MAX",
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
    return AsymptoticData(f_inf=_f_infinity(ctx), k=float(k), degree=degree)


def _u_rows(us):
    """(num, den) of each U in `us`, as rows of two (K, 2) coefficient arrays:
    (u_inf (u_z + s), u_p + s), or (u_inf, 1) for a constant U."""
    nd = np.array([(u.u_inf, 0.0, 1.0, 0.0) if u.is_constant
                   else (u.u_z * u.u_inf, u.u_inf, u.u_p, 1.0) for u in us]).reshape(-1, 4)
    return nd[:, :2], nd[:, 2:]


def _lu_rows(ctx: SynthesisContext, num, den):
    """The pair (L2U, L1U) cleared of the U denominator, shape (2, K, width):
    row k is L2 den + L1~ num and L1 den + L2~ num for U = num[k] / den[k].
    All-zero columns are cut off (one is kept for K = 0)."""
    L = _stacked([ctx.L2.c, ctx.L1.c])[:, None]
    LU = 0.0 + _conv_rows(L, den) + _conv_rows(_mirror(L[::-1]), num)
    return LU[..., : max(_top(LU.any(axis=(0, 1))), 0) + 1]


def fl_limit_at_infinity(ctx: SynthesisContext, u: UParam) -> float:
    """lim_{w->inf} |F(jw) L_U(jw)| from leading coefficients only."""
    return float(_fl_limits(_f_infinity(ctx), _lu_rows(ctx, *_u_rows([u])))[0])


def _fl_limits(f_inf, LU):
    """lim |F L_U| per row of the pair LU = (L2U, L1U): f_inf |c2 / c1| at
    the pair's leading degree."""
    d = _top(LU.any(axis=0))     # -1 in an all-zero row reads a zero column
    c2, c1 = LU[:, np.arange(len(d)), d]
    lim = f_inf * np.abs(c2 / np.where(c1 != 0.0, c1, 1.0))
    # degenerate both-zero: d lowers
    return np.where(c1 != 0.0, lim, np.where(c2 != 0, np.inf, f_inf))


# The limit of |F L_U| at infinity up to which the unstable poles are finite.
FL_LIMIT_MAX = 1.0 + 1e-12


def finitely_many_poles(ctx: SynthesisContext, u: UParam) -> bool:
    return fl_limit_at_infinity(ctx, u) <= FL_LIMIT_MAX


def admissible_uinf(asym: AsymptoticData):
    """Intervals of u_inf in [-1, 1] giving finitely many unstable poles.

    Solves f_inf |k + v| <= |1 + k v| with v = (-1)^degree * u_inf; squaring
    gives a single quadratic whose discriminant is the perfect square
    (f_inf (1 - k^2))^2, so the admissible set is one or two exact intervals.
    """
    f, k = asym.f_inf, asym.k
    if not np.isfinite(k):
        # divided by |k| -> infinity the inequality reads f_inf <= |v|
        return [] if f > 1.0 else [(-1.0, 1.0)] if f == 0.0 else [(-1.0, -f), (f, 1.0)]
    if f <= 1.0 and abs(k) <= 1.0:
        return [(-1.0, 1.0)]    # f_inf |k + v| <= |k + v| <= |1 + k v| for |v| <= 1
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


def _to_x(S):
    """Rows p even in s as rows q in x = w^2 with p(jw) = q(w^2), and per row
    whether p fails the evenness test of `_even_rows`."""
    even, odd = _even_rows(S)
    return _mirror(even), odd


def _root_matrix(lists):
    """The root lists `lists`, NaN-padded into one complex array."""
    R = np.full((len(lists), max(map(len, lists), default=0)), np.nan + 0j)
    for row, rs in zip(R, lists):
        row[: len(rs)] = rs
    return R


def _real_above(R, lo):
    """R.real, and where the root is real (to 1e-7 relative) and above `lo`."""
    x = R.real
    return x, (np.abs(R.imag) < 1e-7 * (1 + np.abs(R))) & (x > lo)


def _nd_rows(ctx: SynthesisContext, LU):
    """|F L_U|^2 = N / D in x = w^2 per row of the pair LU = (L2U, L1U),
    stacked as (N, D), and per row whether |L2U|^2 or |L1U|^2 fails the
    evenness test."""
    R_x, odd = _to_x(_stacked([ctx.R.den.c, ctx.R.num.c]))
    if odd.any():
        raise ValueError("polynomial is not even in s")
    A, odd = _to_x(_conv_rows(LU, _mirror(LU)))     # |L2U|^2, |L1U|^2
    return _conv_rows(R_x[:, None], A), odd


def peak_data(ctx: SynthesisContext, us) -> list[PeakData]:
    """Largest |F L_U| = 1 crossing and the supremum over [0, inf), per U in `us`.

    Everything is rational on the axis, so crossings and stationary points are
    polynomial roots in x = w^2; no frequency grid is involved.  When the
    controller has infinitely many unstable poles the crossing frequency is
    reported as +inf.  The polynomials of all U are rows of stacked arrays,
    solved in one `poly_roots` call and evaluated at their NaN-padded roots
    at once; a failure raises at the first failed check, the crossing rows of
    all U (in order) before their stationary-point rows.
    """
    LU = _lu_rows(ctx, *_u_rows(us))
    lim = _fl_limits(_f_infinity(ctx), LU)
    ND, odd = _nd_rows(ctx, LU)
    N, D = ND                                   # |F L_U|^2 = N / D
    T = 0.0 + N - D                             # crossings: sign changes of N - D
    dN, dD = _deriv_rows(ND)
    Q = 0.0 + _conv_rows(dN, D) - _conv_rows(N, dD)     # stationary points of N/D
    # both kinds in one root extraction: rows of one length share an eigensolve
    TQ = np.zeros((2, len(T), max(T.shape[1], Q.shape[1])))
    TQ[0, :, : T.shape[1]], TQ[1, :, : Q.shape[1]] = T, Q
    roots = _roots_of_nonzero(TQ.reshape(2 * len(T), TQ.shape[2]))
    if odd.any():
        raise ValueError("polynomial is not even in s")
    roots = [or_raise(rs) for rs in roots]
    t_roots, q_roots = roots[: len(T)], roots[len(T) :]

    x, cross = _real_above(_root_matrix(t_roots), 1e-12)
    dx = 1e-6 * (1 + x)
    cross &= _horner(T, x - dx) * _horner(T, x + dx) < 0
    omega = np.sqrt(x, out=np.full_like(x, -np.inf), where=cross).max(axis=1, initial=-np.inf)
    omega = np.where(lim > FL_LIMIT_MAX, np.inf, omega)

    # supremum: N/D at x = 0, at its stationary points (x = 0 again in the
    # padding) and in the limit
    xq, stat = _real_above(_root_matrix(q_roots), 0.0)
    Nv, Dv = _horner(ND, np.hstack([np.zeros((len(xq), 1)), np.where(stat, xq, 0.0)]))
    if (Dv == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    eta = np.maximum(np.sqrt(np.maximum(Nv / Dv, 0.0)).max(axis=1), lim)
    return [PeakData(omega_max=None if w == -np.inf else w, eta_max=e)
            for w, e in zip(omega.tolist(), eta.tolist())]


def _roots_of_nonzero(C):
    """`poly_roots` per row of C (root list or exception), a zero row counted root-free."""
    C = C.copy()
    C[~C.any(axis=1), 0] = 1.0
    return poly_roots(C)


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
    cells_scanned: int = 0


_MARCH_MIN_N = 64      # samples of a segment's first march, at least
_SMALL_TOL = 1e-9   # a sample this small relative to the segment's largest is a zero on it
_MARCH_MAX_N = 60000   # samples one segment's march, refinement included, may take
_NEWTON_TOL = 1e-11    # relative step at which a cell's Newton iteration settles
_NEWTON_ITERS = 80
_MAX_DEPTH = 60        # subdivision levels below the scan window
_POLES = "negative winding: the function has poles in the region"


def _refine_march(f, z0, z1, ts, vals):
    """Argument change of f along the segment z0 -> z1 from its samples
    `vals` at `ts`, bisecting each step whose phase jumps by over pi/2."""
    for _ in range(40):
        mags = np.abs(vals)
        if np.any(~np.isfinite(mags)) or mags.min() <= _SMALL_TOL * max(mags.max(), 1e-30):
            at = z0 + (z1 - z0) * ts[int(np.argmin(mags))]
            raise ScanError(f"contour passes too close to a zero near s={at:.6g}")
        dph = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dph) > np.pi / 2
        if not bad.any():
            return float(dph.sum())
        if len(ts) > _MARCH_MAX_N:
            raise ScanError("edge refinement exceeded the sample budget")
        mid_ts = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        mid_vals = np.asarray(f(z0 + (z1 - z0) * mid_ts), dtype=complex)
        idx = np.searchsorted(ts, mid_ts)
        ts = np.insert(ts, idx, mid_ts)
        vals = np.insert(vals, idx, mid_vals)
    raise ScanError("edge refinement did not settle")


def _march(f, memo, segs, h=0.0):
    """Argument change of f along each segment (z0, z1) of `segs`, or the
    ScanError its march raised.  `memo` keeps each good march of one scan (a
    reversed segment reads negated).  A segment takes max(64, 2h|z1 - z0|/pi
    + 1) samples, so e^{-hs} turns by at most pi/2 between two of them, and
    one over `_MARCH_MAX_N` fails.  The first samples of all new segments go
    through f in one call, each sample count checked as one block; only rows
    failing `_refine_march`'s checks are refined."""
    new = {}
    for seg in segs:
        if seg not in memo and seg[::-1] not in memo and seg[::-1] not in new:
            new[seg] = None
    if new:
        z0, z1 = np.array(list(new)).T
        ns = np.maximum(_MARCH_MIN_N, np.ceil(2 * h * np.abs(z1 - z0) / np.pi).astype(int) + 1)
        groups = {}
        for k, (seg, n) in enumerate(zip(new, ns.tolist())):
            if n > _MARCH_MAX_N:
                new[seg] = ScanError(
                    f"a segment needs {n} samples, over the budget of {_MARCH_MAX_N}")
            else:
                groups.setdefault(n, []).append(k)
        ts = {n: np.linspace(0.0, 1.0, n) for n in groups}
        pts = [(z0[ks, None] + (z1 - z0)[ks, None] * ts[n]).ravel() for n, ks in groups.items()]
        vals = np.asarray(f(np.concatenate(pts)), dtype=complex) if pts else None
        start, segs_new = 0, list(new)
        for n, ks in groups.items():
            rows = vals[start:start + n * len(ks)].reshape(len(ks), n)
            start += n * len(ks)
            mags = np.abs(rows)
            with np.errstate(divide="ignore", invalid="ignore"):
                dph = np.angle(rows[:, 1:] / rows[:, :-1])
                ok = (np.isfinite(mags).all(axis=1)
                      & (mags.min(axis=1) > _SMALL_TOL * np.maximum(mags.max(axis=1), 1e-30))
                      & (np.abs(dph) <= np.pi / 2).all(axis=1))
            for k, row, d, good in zip(ks, rows, dph, ok):
                seg = segs_new[k]
                try:
                    memo[seg] = float(d.sum()) if good else _refine_march(f, *seg, ts[n], row)
                except ScanError as err:
                    new[seg] = err
    return [memo[s] if s in memo else -memo[s[::-1]] if s[::-1] in memo
            else new.get(s) or new[s[::-1]] for s in segs]


def _windings(f, memo, cells, h=0.0):
    """Winding number of f around each cell (slo, shi, wlo, whi) of `cells`,
    all edges in one `_march` (delay h); raises the first failed edge, then
    the first winding more than 0.1 off an integer."""
    corners = [(complex(a, c), complex(b, c), complex(b, d), complex(a, d))
               for a, b, c, d in cells]
    changes = [or_raise(c) for c in
               _march(f, memo, [(q[k], q[(k + 1) % 4]) for q in corners for k in range(4)], h)]
    ws = [sum(changes[i:i + 4]) / (2 * np.pi) for i in range(0, len(changes), 4)]
    off = next((w for w in ws if abs(w - np.rint(w)) > 0.1), None)
    if off is not None:
        raise ScanError(f"winding number did not converge to an integer: {off:.4f}")
    return [int(np.rint(w)) for w in ws]


def _newton_zeros(f, cells):
    """Newton's method from the centre of each cell of `cells`: its zero, or
    the ScanError of a zero derivative, of no settling in `_NEWTON_ITERS`
    steps or of leaving the cell (a leaf may step out and back; only its
    settled point must be inside).  Each iteration is one f call for all
    unsettled cells; the step arithmetic is each cell's own, in scalars."""
    zs = [complex(0.5 * (slo + shi), 0.5 * (wlo + whi)) for slo, shi, wlo, whi in cells]
    out = [None] * len(cells)
    live = list(range(len(cells)))
    for _ in range(_NEWTON_ITERS):
        if not live:
            break
        dzs = [1e-7 * (1.0 + abs(zs[i])) for i in live]
        pts = [p for i, dz in zip(live, dzs) for p in (zs[i] + dz, zs[i] - dz, zs[i])]
        vals = np.asarray(f(np.array(pts)), dtype=complex).reshape(-1, 3)
        still = []
        for i, dz, (up, down, v) in zip(live, dzs, vals):
            d = (up - down) / (2 * dz)
            if d == 0:
                out[i] = ScanError(f"zero derivative in a leaf cell near s={zs[i]:.6g}")
                continue
            step = v / d
            z = zs[i] = zs[i] - step
            slo, shi, wlo, whi = cells[i]
            settled = abs(step) < _NEWTON_TOL * (1 + abs(z))
            if not (slo <= z.real <= shi and wlo <= z.imag <= whi) and (
                    settled or not _is_leaf(cells[i])):
                out[i] = ScanError(f"Newton left its leaf cell for s={z:.6g}")
            elif settled:
                out[i] = z
            else:
                still.append(i)
        live = still
    for i in live:
        out[i] = ScanError(f"Newton did not converge in a leaf cell near s={zs[i]:.6g}")
    return out


_FRACS = (0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7)


def _cut_lines(cell):
    """Candidate cuts of `cell` across its longer side, in `_FRACS` order,
    each as (segment, its two halves).  Lines near the real axis are skipped:
    a real-coefficient f is real there, and an even number of zeros between
    samples shows no phase change."""
    slo, shi, wlo, whi = cell
    wide = shi - slo >= whi - wlo
    lo, hi = (slo, shi) if wide else (wlo, whi)
    for frac in _FRACS:
        c = lo + frac * (hi - lo)
        if wide:
            yield (complex(c, wlo), complex(c, whi)), [(slo, c, wlo, whi), (c, shi, wlo, whi)]
        elif not (wlo < 0.0 < whi and abs(c) < 0.02 * (whi - wlo)):
            yield (complex(slo, c), complex(shi, c)), [(slo, shi, wlo, c), (slo, shi, c, whi)]


def _split(f, memo, cells, h=0.0):
    """The two halves of each cell of `cells` at its first `_cut_lines`
    candidate that the march (delay h) traverses (a zero on the line fails
    it, so a traversed cut is certified); a ScanError when a cell runs out.
    Each round is one `_march` of every unsplit cell's next candidate."""
    out = [None] * len(cells)
    lines = {i: _cut_lines(cell) for i, cell in enumerate(cells)}
    while lines:
        tries = {i: next(cuts, None) for i, cuts in lines.items()}
        if None in tries.values():
            raise ScanError("could not place a subdivision cut away from zeros")
        marched = _march(f, memo, [seg for seg, _ in tries.values()], h)
        for (i, (_, halves)), change in zip(tries.items(), marched):
            if not isinstance(change, ScanError):
                out[i] = halves
                del lines[i]
    return out


def _is_leaf(cell):
    return max(cell[1] - cell[0], cell[3] - cell[2]) < 1e-4


def _leaf(cell, z):
    """The leaf holding `z`, halving `cell` at each first `_cut_lines`
    candidate; None if one passes within `_SMALL_TOL` of its length from `z`,
    where its march may fail."""
    while not _is_leaf(cell):
        (a, b), (lo, hi) = next(_cut_lines(cell))
        t = (z - a).real if a.real == b.real else (z - a).imag
        if abs(t) <= _SMALL_TOL * abs(b - a):
            return None
        cell = hi if t > 0 else lo
    return cell


def _subdivide(f, memo, window, wind, h):
    """The zeros in `window` of winding `wind`, each polished in a leaf
    below 1e-4, and the number of cells wound below the window (marched with
    delay h).

    Level-synchronous: each depth checks its cells in order (a zero winding
    is dropped; a negative winding or a cell past `_MAX_DEPTH` raises) and
    runs Newton in all its other winding-1 cells at once.  Where Newton
    settles, the winding says the point is the cell's one zero, and `_leaf`
    finds its leaf without a march.  The other cells are split and their
    halves wound in one `_windings` call; two halves that do not wind to
    their cell's winding raise.  The leaves are polished together
    at the end, from their centres.  Each step raises its first failure.
    """
    live, leaves, cells = [(window, wind)], [], 0
    for depth in range(_MAX_DEPTH + 2):
        parents = []
        for cell, w in live:
            if w == 0:
                continue
            if w < 0:
                raise ScanError(_POLES)
            if _is_leaf(cell):
                leaves.append((cell, w))
            elif depth > _MAX_DEPTH:
                raise ScanError("subdivision depth exceeded")
            else:
                parents.append((cell, w))
        ones = [cell for cell, w in parents if w == 1]
        found = {c: _leaf(c, z) for c, z in zip(ones, _newton_zeros(f, ones))
                 if not isinstance(z, ScanError)}
        leaves += [(leaf, 1) for leaf in found.values() if leaf]
        split = [(c, w) for c, w in parents if not found.get(c)]
        halves = [half for pair in _split(f, memo, [c for c, _ in split], h) for half in pair]
        cells += len(halves)
        live = list(zip(halves, _windings(f, memo, halves, h)))
        for (cell, w), (_, w0), (_, w1) in zip(split, live[::2], live[1::2]):
            if w0 + w1 != w:
                raise ScanError(f"winding not conserved: a cell of winding {w} "
                                f"splits into {w0} + {w1} at {cell}")
        if not live:
            break
    zs = _newton_zeros(f, [cell for cell, _ in leaves])
    return [or_raise(z) for (_, w), z in zip(leaves, zs) for _ in range(w)], cells


def _deflated(f, excluded):
    """f with the zeros `excluded` divided out pointwise."""
    def fd(s):
        s = np.asarray(s, dtype=complex)
        v = np.asarray(f(s), dtype=complex)
        for z0 in excluded:
            v = v / (s - z0)
        return v
    return fd


def rhp_zero_scan(f, sigma_max: float, omega_bound: float, excluded=(),
                  locate=True, h=0.0) -> RegionScan:
    """Count and locate zeros of `f` in [0, sigma_max] x [-omega_bound, omega_bound].

    `excluded` lists known zeros (such as the cancelled zeros of E and m_d);
    dividing them out pointwise removes them from the count and keeps the
    contour away from vanishing values.

    The count is the window's winding number.  With `locate` (for `f`
    analytic in the window), `_subdivide` locates each zero; without, the
    scan stops at the count and `zeros` holds one NaN per zero counted.
    Every contour segment is marched once per scan, sampled densely enough
    for a factor e^{-hs} of `f` (`_march`; h = 0 for none).  A failed march
    moves a cut to its next candidate; any other failure raises, the first
    one met.
    """
    excluded = [complex(z) for z in excluded]
    fd = _deflated(f, excluded)
    memo = {}
    window = (0.0, sigma_max, -omega_bound, omega_bound)
    [wind] = _windings(fd, memo, [window], h)
    if wind < 0:
        raise ScanError(_POLES)
    if locate:
        zeros, cells = _subdivide(fd, memo, window, wind, h)
    else:
        zeros, cells = [complex(np.nan, np.nan)] * wind, 0
    return RegionScan(
        sigma_max=sigma_max, omega_bound=omega_bound,
        zeros=sorted(zeros, key=lambda z: (z.real, z.imag)),
        excluded=excluded, cells_scanned=1 + cells,
    )


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

# The right edge of a scan window may move out this many times (doubling
# sigma_max each time) before the window is declared unsound.
EDGE_DOUBLINGS = 6

# U is inside the unit ball when its norm is at most U_NORM_MAX.
U_NORM_MAX = 1.0 + 1e-9


@dataclass
class Certificate:
    """The three checks of one design, in the order `certify` makes them.

    `u_norm` is ||U||_inf (NaN when U is not finite on the grid); `scan` holds
    the window scanned, the excluded zeros and one NaN per zero counted.  A
    check runs only when the one before it passed (`scan` None outside the
    unit ball, `norm`/`norm_ok` None/False when the scan counted zeros).
    """

    controller: Controller
    u_norm: float
    scan: RegionScan | None = None
    norm: float | None = None
    norm_ok: bool = False

    @property
    def u_ok(self):
        """||U||_inf <= U_NORM_MAX (False for a NaN norm)."""
        return self.u_norm <= U_NORM_MAX

    @property
    def stable(self):
        return self.scan is not None and not self.scan.zeros


def _scan_window(controller: Controller, peak: PeakData | None, widen):
    """(sigma_max, omega_bound) of the loop-denominator scan, both sides
    times `widen`, with the right edge then pushed out (doubling sigma_max)
    until the delay contracts the loop gain below one along it, so no zero
    lies beyond the window (ScanError when it never does).

    With an infinite-branch U's `peak`, beyond sigma_max the delay factor
    contracts the loop gain below one, and beyond the omega bound |F L_U|
    stays below one.  Without, the window is (5, omega_bound), omega_bound
    half again past the last axis frequency where |e^{-hs} M F L_U| >= 0.95,
    plus 5.
    """
    if peak is None:
        om = np.logspace(-3, 4, 1500)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.abs(controller.loop_gain(1j * om))
        above = np.nonzero(mag >= 0.95)[0]
        sigma_max, omega_bound = 5.0, (om[above[-1]] * 1.5 + 5.0 if len(above) else 5.0)
    elif peak.omega_max is not None and not np.isfinite(peak.omega_max):
        raise ScanError("infinitely many unstable poles: no finite window exists")
    else:
        eta, h, om = max(peak.eta_max, 1.0), controller.plant.h, peak.omega_max or 0.0
        if h > 0:
            sigma_max = max(5.0, 3.0 * np.log(eta) / h + 1.0)
            omega_bound = om * 1.1 + 2 * np.pi / h + 2.0
        else:
            sigma_max, omega_bound = 5.0 + 10.0 * eta, om * 1.1 + 10.0
    sigma_max, omega_bound = float(sigma_max) * widen, float(omega_bound) * widen
    for _ in range(EDGE_DOUBLINGS + 1):
        edge = sigma_max + 1j * np.linspace(0.0, omega_bound, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            gain = np.abs(controller.loop_gain(edge))
        if gain.max() < 1.0:
            return sigma_max, omega_bound
        sigma_max *= 2.0
    raise ScanError(
        f"loop gain still reaches one on the right edge sigma={sigma_max / 2:g} "
        f"after {EDGE_DOUBLINGS} doublings"
    )


def certify(plant: DelayPlant, weights: WeightPair, ctx: SynthesisContext, u,
            grid: FrequencyGrid, peak: PeakData | None = None, widen=1) -> Certificate:
    """Judge the design of `u` (a `UParam` or a `finite.FiniteU`), as both
    searches and `verify` do: ||U||_inf <= U_NORM_MAX (`sup_norm`, or
    `grid_norm` on `grid`), then no RHP zero of the loop denominator counted
    in the scan window, then the closed-loop norm on `grid`; each check only
    when the one before it passed.

    The window is `_scan_window`'s: from `peak` (an infinite-branch U's
    `PeakData`) or, by default, the axis probe, `widen` times on each side
    (1 in both searches, 2 in `verify`).
    """
    controller = Controller(plant, ctx, u)
    u_norm = u.sup_norm() if isinstance(u, UParam) else u.grid_norm(grid)
    cert = Certificate(controller, u_norm)
    if not cert.u_ok:
        return cert
    sigma_max, omega_bound = _scan_window(controller, peak, widen)
    cert.scan = rhp_zero_scan(controller.loop_denominator, sigma_max, omega_bound,
                              excluded=ctx.excluded_zeros(), locate=False, h=plant.h)
    if cert.stable:
        cert.norm, cert.norm_ok = verify_performance(controller, weights, grid)
    return cert
