"""Real-coefficient polynomial and rational-function algebra.

Everything downstream (weighting filters, inner/outer plant factors, spectral
factors, interpolation data) is carried by `Poly` and `RationalFn`.  Polynomial
coefficients are stored in ascending order, so ``Poly([1.0, 0.6])`` is
``1 + 0.6 s``.  Roots are the eigenvalues of the companion matrix (as in
`np.roots`; a real matrix gives exact conjugate pairs, Edelman & Murakami
1995), polished by at most three guarded Newton steps that stop as soon as no
root improves; degrees in this problem class never exceed roughly a dozen.
`poly_roots` also takes a list: polynomials of one length and one count of
low-order zeros then share one stacked eigensolve and one array polish, and
each gets bitwise the roots it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Poly",
    "RationalFn",
    "RootSet",
    "FrequencyGrid",
    "RootConvergenceError",
    "PoleEvaluationError",
    "poly_roots",
    "or_raise",
    "poly_from_roots",
    "reduced_from_roots",
    "blaschke",
    "grid_peaks",
    "grid_sup",
]

# Two roots are "the same" when they differ by less than this, relative to
# their size.  Example data in this domain is printed at four decimals, so the
# tolerance is far tighter than anything that has to be matched.
ROOT_MATCH_TOL = 1e-8
# Roots with a relatively tiny imaginary part are snapped to the real axis so
# reconstructed coefficients stay real.
REAL_SNAP_TOL = 1e-9


class RootConvergenceError(RuntimeError):
    """Root extraction failed its residual or pairing check; carries the worst value."""

    def __init__(self, msg, worst_residual=None):
        super().__init__(msg)
        self.worst_residual = worst_residual


class PoleEvaluationError(ZeroDivisionError):
    """Rational evaluation requested too close to a pole."""

    def __init__(self, msg, at=None):
        super().__init__(msg)
        self.at = at


class Poly:
    """Real polynomial with ascending coefficients, trailing zeros trimmed."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        nz = np.nonzero(c)[0]
        if len(nz) == 0:
            c = np.zeros(1)
        else:
            c = c[: nz[-1] + 1]
        self.c = c

    # -- basic structure ---------------------------------------------------
    @property
    def degree(self):
        return len(self.c) - 1

    @property
    def is_zero(self):
        return len(self.c) == 1 and self.c[0] == 0.0

    def __call__(self, s):
        s = np.asarray(s)
        r = np.zeros_like(s, dtype=complex)
        for a in self.c[::-1]:
            r = r * s + a
        return r if r.ndim else complex(r)

    def scale_at(self, s):
        """Sum of |c_k| |s|^k, the natural magnitude for residual tests."""
        a = np.abs(np.asarray(s))
        r = np.zeros_like(a, dtype=float)
        for ck in np.abs(self.c[::-1]):
            r = r * a + ck
        return r if r.ndim else float(r)

    def deriv(self):
        if self.degree == 0:
            return Poly([0.0])
        return Poly(self.c[1:] * np.arange(1, len(self.c)))

    def mirror(self):
        """p(-s)."""
        signs = (-1.0) ** np.arange(len(self.c))
        return Poly(self.c * signs)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        a, b = self.c, _as_poly(other).c
        n = max(len(a), len(b))
        out = np.zeros(n)
        out[: len(a)] += a
        out[: len(b)] += b
        return Poly(out)

    def __sub__(self, other):
        return self + (_as_poly(other) * -1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self.c * float(other))
        b = _as_poly(other).c
        return Poly(np.convolve(self.c, b))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Poly({list(self.c)})"

    def even_part_coeffs(self):
        """Coefficients in x = s^2 for an even polynomial; error otherwise."""
        scale = np.abs(self.c).max()
        odd = self.c[1::2]
        if len(odd) and np.abs(odd).max() > 1e-9 * max(scale, 1.0):
            raise ValueError("polynomial is not even in s")
        return np.array(self.c[0::2])


def _as_poly(p):
    if isinstance(p, Poly):
        return p
    if np.isscalar(p):
        return Poly([float(p)])
    return Poly(p)


@dataclass
class RootSet:
    """Roots of a real polynomial; complex roots occur in conjugate pairs."""

    roots: list
    multiplicities: list = field(default_factory=list)

    def __post_init__(self):
        if not self.multiplicities:
            self.multiplicities = [1] * len(self.roots)

    def expanded(self):
        out = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return out

    def to_poly(self, leading=1.0):
        return poly_from_roots(self.expanded(), leading)

    def __len__(self):
        return len(self.roots)


def poly_from_roots(roots, leading=1.0):
    """Expand a conjugate-closed root list into a real monic-times-leading Poly."""
    c = np.array([1.0 + 0.0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0.0j]))
    if np.abs(c.imag).max() > 1e-8 * max(1.0, np.abs(c).max()):
        raise ValueError("root list is not closed under conjugation")
    return Poly(c.real * leading)


def poly_roots(p, tol_root=1e-12):
    """Roots of `p` with conjugate symmetry enforced by explicit pairing.

    `p` may also be a sequence of polynomials.  The result is then a list
    holding, per polynomial, its `RootSet` or the exception its extraction
    raised (returned, not raised, so that a caller looping over candidates
    can raise the one it would have met first).  Polynomials of one length
    and one count of low-order zeros share one stacked eigensolve and
    polish; each row's roots are bitwise those it gets alone.  Only an
    eigensolver failure (`np.linalg.LinAlgError`, say for a non-finite
    coefficient) is raised for the whole call.
    """
    ps = [p] if isinstance(p, Poly) else list(p)
    out = [None] * len(ps)
    stacks = {}
    for i, q in enumerate(ps):
        if q.is_zero:
            out[i] = ValueError("cannot extract roots of the zero polynomial")
        else:
            key = (len(q.c), int(np.flatnonzero(q.c)[0]))
            stacks.setdefault(key, []).append(i)
    for (_, low), idx in stacks.items():
        rows = _stacked_roots(np.array([ps[i].c for i in idx]), low, tol_root)
        for i, res in zip(idx, rows):
            out[i] = res
    return out if not isinstance(p, Poly) else or_raise(out[0])


def or_raise(res):
    """One entry of a list call's result (a list call of `poly_roots`
    returns each item's exception in its place), raised when it is an
    exception and returned otherwise."""
    if isinstance(res, Exception):
        raise res
    return res


def _horner(C, Z):
    """Row k of C (ascending coefficients) evaluated at row k of Z, as `Poly.__call__`."""
    r = np.zeros_like(Z)
    for k in range(C.shape[1] - 1, -1, -1):
        r = r * Z + C[:, k : k + 1]
    return r


def _stacked_roots(C, low, tol_root):
    """RootSet or exception per row of C, whose rows share `low` low-order zeros.

    The companion matrices are those of `np.roots` (zero roots appended), and
    one `eigvals` call solves the stack.  The guarded Newton polish keeps a
    step only where it lowers |p|, since Newton overshoots at multiple roots;
    a step that improves no entry leaves every later step the same, so the
    polish stops there.
    """
    K, m = C.shape
    if m == 1:
        return [RootSet([], []) for _ in range(K)]
    Z = np.zeros((K, m - 1), dtype=complex)
    n = m - 1 - low
    if n:
        A = np.zeros((K, n, n))
        A[:, 0, :] = -C[:, low:-1][:, ::-1] / C[:, -1:]
        A[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        Z[:, :n] = np.linalg.eigvals(A)
    Cd = C[:, 1:] * np.arange(1, m)
    pv = _horner(C, Z)
    for _ in range(3):
        dv = _horner(Cd, Z)
        zn = Z - pv / np.where(dv == 0, 1.0, dv)
        pn = _horner(C, zn)
        better = (dv != 0) & (np.abs(pn) < np.abs(pv))
        if not better.any():
            break
        Z, pv = np.where(better, zn, Z), np.where(better, pn, pv)
    worst = (np.abs(pv) / np.maximum(_horner(np.abs(C), np.abs(Z)), 1e-300)).max(axis=1)
    # snap near-real roots
    Z = np.where(np.abs(Z.imag) < REAL_SNAP_TOL * (1 + np.abs(Z.real)), Z.real + 0j, Z)
    out = []
    for k in range(K):
        w = float(worst[k])
        if w > tol_root * 1e3:
            out.append(RootConvergenceError(
                f"root extraction failed its residual check (worst {w:.3e})", w
            ))
            continue
        try:
            out.append(_paired_roots(Z[k]))
        except RootConvergenceError as exc:
            out.append(exc)
    return out


def _paired_roots(z):
    """Pair complex roots with their conjugates, then cluster multiplicities."""
    used = np.zeros(len(z), dtype=bool)
    roots = []
    for i in np.argsort(z.real):
        if used[i]:
            continue
        zi = z[i]
        if zi.imag == 0:
            roots.append(complex(zi))
            used[i] = True
            continue
        # find closest conjugate partner
        best, bestd = -1, np.inf
        for j in range(len(z)):
            if j == i or used[j] or z[j].imag == 0:
                continue
            d = abs(z[j] - np.conj(zi))
            if d < bestd:
                best, bestd = j, d
        if best < 0 or bestd > 1e-6 * (1 + abs(zi)):
            # clustered (multiple) real roots split across the axis by the
            # eigensolver's noise floor; absorb them rather than failing
            if abs(zi.imag) < 1e-6 * (1 + abs(zi)):
                roots.append(complex(zi.real))
                used[i] = True
                continue
            raise RootConvergenceError(
                f"conjugate pairing failed for root {zi}", bestd
            )
        paired = 0.5 * (zi + np.conj(z[best]))
        roots.append(complex(paired))
        roots.append(complex(np.conj(paired)))
        used[i] = used[best] = True

    # cluster for multiplicities
    out_roots, out_mult = [], []
    for r in roots:
        for k, rr in enumerate(out_roots):
            if abs(r - rr) <= ROOT_MATCH_TOL * (1 + abs(rr)):
                out_mult[k] += 1
                break
        else:
            out_roots.append(r)
            out_mult.append(1)
    return RootSet(out_roots, out_mult)


class RationalFn:
    """Ratio of two real polynomials, stored with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, normalize=True):
        num = _as_poly(num)
        den = _as_poly(den if den is not None else [1.0])
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        if normalize and not num.is_zero:
            lead = den.c[-1]
            num = Poly(num.c / lead)
            den = Poly(den.c / lead)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls([0.0], [1.0])

    @classmethod
    def one(cls):
        return cls([1.0], [1.0])

    @property
    def is_zero(self):
        return self.num.is_zero

    def __call__(self, s):
        dv = self.den(s)
        scale = self.den.scale_at(s)
        bad = np.abs(np.asarray(dv)) <= 1e-12 * np.maximum(np.asarray(scale), 1e-300)
        if np.any(bad):
            at = np.asarray(s)[bad] if np.asarray(s).ndim else s
            raise PoleEvaluationError(f"evaluation at/near a pole: s={at}", at)
        return self.num(s) / dv

    def __mul__(self, other):
        if np.isscalar(other):
            return RationalFn(self.num * float(other), self.den, normalize=False)
        other = _as_rational(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __add__(self, other):
        other = _as_rational(other)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (_as_rational(other) * -1.0)

    def __neg__(self):
        return self * -1.0

    def mirror(self):
        return RationalFn(self.num.mirror(), self.den.mirror())

    def relative_degree(self):
        if self.num.is_zero:
            raise ValueError("relative degree of the zero function is undefined")
        return self.den.degree - self.num.degree

    def reduced(self):
        """Cancel common num/den roots (see `reduced_from_roots`)."""
        if self.num.is_zero or self.num.degree == 0 or self.den.degree == 0:
            return self
        zn, zd = (or_raise(rs).expanded() for rs in poly_roots([self.num, self.den]))
        out = reduced_from_roots(zn, zd, self.num.c[-1] / self.den.c[-1])
        return self if out.den.degree == self.den.degree else out

    def __repr__(self):
        return f"RationalFn({list(self.num.c)}, {list(self.den.c)})"


def reduced_from_roots(zn, zd, lead):
    """lead prod(s - zn) / prod(s - zd), with the common roots cancelled.

    Each root of `zd`, in order, cancels the first remaining root of `zn`
    within ROOT_MATCH_TOL; both lists are conjugate-closed.
    """
    keep_n, keep_d = list(zn), []
    for rd in zd:
        hit = next((k for k, rn in enumerate(keep_n)
                    if abs(rd - rn) <= ROOT_MATCH_TOL * (1 + abs(rd))), None)
        if hit is None:
            keep_d.append(rd)
        else:
            keep_n.pop(hit)
    return RationalFn(poly_from_roots(_reclose(keep_n), lead),
                      poly_from_roots(_reclose(keep_d), 1.0))


def _reclose(roots):
    """Force a nearly conjugate-closed root list to be exactly closed."""
    roots = sorted(roots, key=lambda r: (round(r.real, 12), abs(r.imag), r.imag))
    out, used = [], [False] * len(roots)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        if abs(r.imag) < REAL_SNAP_TOL * (1 + abs(r.real)):
            out.append(complex(r.real))
            used[i] = True
            continue
        best, bestd = -1, np.inf
        for j in range(i + 1, len(roots)):
            if used[j]:
                continue
            d = abs(roots[j] - np.conj(r))
            if d < bestd:
                best, bestd = j, d
        if best < 0:
            raise ValueError("cannot close root list under conjugation")
        rr = 0.5 * (r + np.conj(roots[best]))
        out.extend([rr, np.conj(rr)])
        used[i] = used[best] = True
    return out


def _as_rational(f):
    if isinstance(f, RationalFn):
        return f
    if isinstance(f, Poly):
        return RationalFn(f, [1.0])
    if np.isscalar(f):
        return RationalFn([float(f)], [1.0])
    raise TypeError(f"cannot interpret {f!r} as a rational function")


def blaschke(roots) -> RationalFn:
    """Inner product of factors (s - r)/(s + r) over a conjugate-closed set.

    The denominator is built as the mirrored numerator so that the modulus on
    the imaginary axis is one to machine precision.
    """
    roots = list(roots)
    num = poly_from_roots(roots, 1.0)
    den = num.mirror() * ((-1.0) ** len(roots))
    return RationalFn(num, den)


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmic frequency grid; `grid_sup` takes axis suprema on it."""

    lo: float = 1e-3
    hi: float = 1e4
    points: int = 4000

    def omegas(self):
        return np.logspace(np.log10(self.lo), np.log10(self.hi), self.points)


# grid_sup's peak refinement: each of ZOOM_STAGES `point` calls samples every
# row's bracket at ZOOM_POINTS evenly spaced interior points, and the next
# bracket is the best sample's two neighbours, so each stage shrinks the
# bracket by 2 / (ZOOM_POINTS + 1): the last samples are 3e-8 of the first
# bracket apart.  Of 15 x 8, 23 x 7, 31 x 6 and 63 x 5, measured on both
# examples' `verify` and example 2's fig-5 lattice, 31 x 6 ran fastest.
ZOOM_POINTS = 31
ZOOM_STAGES = 6


# (row, point) values per evaluation in grid_peaks; larger blocks raise peak
# memory and run no faster.
_BLOCK = 1 << 12


def grid_peaks(rows, n, size):
    """(argmax, max) of |rows| for each of n rows of `size` points each;
    (-1, inf) for a row that is not finite at some point.

    `rows(k0, k1)` returns the responses of rows k0 .. k1-1 as a
    (k1 - k0, size) array.  It is called in blocks of at most _BLOCK values,
    so each row equals its evaluation alone.
    """
    at = np.full(n, -1)
    peak = np.full(n, np.inf)
    step = max(1, _BLOCK // size)
    for k in range(0, n, step):
        vals = np.abs(rows(k, min(k + step, n)))
        i = np.argmax(vals, axis=1)
        ok = np.isfinite(vals).all(axis=1)
        at[k:k + step][ok] = i[ok]
        peak[k:k + step][ok] = vals[ok, i[ok]]
    return at, peak


def grid_sup(rows, point, n, om):
    """Sup of |response| over the frequencies om for each of n rows; NaN
    for a row that is not finite at some frequency of om.

    `rows` gives the responses on om as in `grid_peaks`, and `point(w, k)`
    those of rows k at the frequencies w: `w` has shape (len(k), m), row i's
    frequencies for row k[i], and the result has the same shape.  Each grid
    maximum is refined in the bracket of its argmax's two neighbours (one
    neighbour at a grid end), all rows in lock-step: ZOOM_STAGES calls of
    `point`, each with ZOOM_POINTS evenly spaced interior points per row,
    and the next bracket is the best sample's two neighbours.  The sup is the
    largest of the grid maximum and the samples: a NaN sample is skipped and
    an infinite one makes the sup infinite.
    """
    at, peak = grid_peaks(rows, n, len(om))
    ok = np.flatnonzero(at >= 0)
    sup = np.full(n, np.nan)
    if ok.size:
        i, last, r = at[ok], len(om) - 1, np.arange(ok.size)
        lo, hi, best = om[np.maximum(i - 1, 0)], om[np.minimum(i + 1, last)], peak[ok]
        t = np.arange(ZOOM_POINTS + 2) / (ZOOM_POINTS + 1)
        for _ in range(ZOOM_STAGES):
            w = lo[:, None] + t * (hi - lo)[:, None]
            w[:, -1] = hi       # exactly, so brackets never creep past hi
            v = np.abs(point(w[:, 1:-1], ok))
            j = 1 + np.argmax(np.where(np.isnan(v), -np.inf, v), axis=1)
            best = np.fmax(best, v[r, j - 1])
            lo, hi = w[r, j - 1], w[r, j + 1]
        sup[ok] = best
    return sup
