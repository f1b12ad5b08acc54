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

The arithmetic itself is a set of row functions (`_horner`, `_mirror`,
`_deriv_rows`, `_sum_rows`, `_mul_rows`, `_even_rows`, `_normalized`, `_at`)
on stacks of polynomials: arrays of coefficient rows, ascending along the
last axis and zero-padded to one width, with any leading axes.  Each row's
result is bitwise what the row gets alone, and `Poly` and `RationalFn` are
the one-row case: their methods call the row functions on their own
coefficients.
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
# A root extraction fails when some |p(z)| exceeds this much of the sum of
# |c_k| |z|^k at its polished roots z.
ROOT_RESIDUAL_TOL = 1e-9


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
        r = _horner(self.c, np.asarray(s, dtype=complex))
        return r if r.ndim else complex(r)

    def scale_at(self, s):
        """Sum of |c_k| |s|^k, the natural magnitude for residual tests."""
        r = _horner(np.abs(self.c), np.abs(np.asarray(s)))
        return r if r.ndim else float(r)

    def deriv(self):
        return Poly(_deriv_rows(self.c))

    def mirror(self):
        """p(-s)."""
        return Poly(_mirror(self.c))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return Poly(_sum_rows(self.c[None], _as_poly(other).c[None])[0])

    def __sub__(self, other):
        return self + (_as_poly(other) * -1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self.c * float(other))
        return Poly(_mul_rows(self.c[None], _as_poly(other).c[None])[0])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Poly({list(self.c)})"

    def even_part_coeffs(self):
        """Coefficients in x = s^2 for an even polynomial; error otherwise."""
        even, odd = _even_rows(self.c)
        if odd:
            raise ValueError("polynomial is not even in s")
        return even.copy()


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

    def __len__(self):
        return len(self.roots)


def poly_from_roots(roots, leading=1.0):
    """Expand a conjugate-closed root list into a real monic-times-leading Poly."""
    c, open_ = _from_roots_rows([roots], np.array([leading]))
    if open_[0]:
        raise ValueError("root list is not closed under conjugation")
    return Poly(c[0])


def _from_roots_rows(root_lists, leading):
    """`poly_from_roots(roots, lead).c` per list of `root_lists` and entry of
    `leading`, as zero-padded rows, and per row whether the list fails the
    conjugate-closure check.  Each factor s - r multiplies in as
    `np.convolve` multiplies it: end coefficients by one-term, the others by
    two-term dots, through numpy's vector dot (matmul of 1 x n by n x 1
    stacks).  Shorter lists are padded with the factor 1 + 0 s."""
    f = np.zeros((len(root_lists), max(map(len, root_lists), default=0), 2), complex)
    f[..., 0] = 1.0
    for row, roots in zip(f, root_lists):
        row[: len(roots), 0], row[: len(roots), 1] = [-r for r in roots], 1.0
    c = f[:, 0] if f.shape[1] else np.ones((len(f), 1), complex)    # 1 times the first
    for j in range(1, f.shape[1]):
        m, fj = c.shape[1], f[:, j]
        out = np.empty((len(f), m + 1), complex)
        out[:, 0], out[:, m] = _dot_rows(c[:, :1], fj[:, :1]), _dot_rows(c[:, -1:], fj[:, 1:])
        pairs, fs = np.empty((len(f), m - 1, 2), complex), np.empty((len(f), m - 1, 2), complex)
        pairs[..., 0], pairs[..., 1] = c[:, :-1], c[:, 1:]
        fs[..., 0], fs[..., 1] = fj[:, 1:], fj[:, :1]
        out[:, 1:m] = _dot_rows(pairs, fs)
        c = out
    open_ = np.abs(c.imag).max(axis=1) > 1e-8 * np.fmax(1.0, np.abs(c).max(axis=1))
    return c.real * np.asarray(leading, dtype=float)[:, None], open_


def _dot_rows(X, Y):
    """The dot products of X and Y along their last axis."""
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def poly_roots(p):
    """Roots of `p` with conjugate symmetry enforced by explicit pairing.

    `p` may also be a sequence of polynomials, or a 2-D array whose rows are
    ascending coefficients (each row trimmed of its trailing zeros).  The
    result is then a list holding, per polynomial, its `RootSet` or the
    exception its extraction raised (returned, not raised, so that each
    failure stays with its polynomial; `or_raise` raises it).
    Polynomials of one length and one count of low-order zeros share one
    stacked eigensolve and polish; each row's roots are bitwise those it gets
    alone.  Only an eigensolver failure (`np.linalg.LinAlgError`, say for a
    non-finite coefficient) is raised for the whole call.
    """
    C = p if isinstance(p, np.ndarray) else _stacked(
        [q.c for q in ([p] if isinstance(p, Poly) else p)])
    lens = _top(C) + 1
    lows = (C != 0).argmax(axis=1)
    out = [None] * len(C)
    stacks = {}
    for i, key in enumerate(zip(lens.tolist(), lows.tolist())):
        if key[0]:
            stacks.setdefault(key, []).append(i)
        else:
            out[i] = ValueError("cannot extract roots of the zero polynomial")
    for (n, low), idx in stacks.items():
        for i, res in zip(idx, _stacked_roots(C[idx, :n], low)):
            out[i] = res
    return or_raise(out[0]) if isinstance(p, Poly) else out


def _stacked(cs):
    """The coefficient arrays `cs` (vectors, or stacks of rows of one shape
    but for the last axis) zero-padded along their last axis and stacked
    along a new first one."""
    lead = np.shape(cs[0])[:-1] if len(cs) else ()
    out = np.zeros((len(cs),) + lead + (max((np.shape(c)[-1] for c in cs), default=1),))
    for row, c in zip(out, cs):
        row[..., : np.shape(c)[-1]] = c
    return out


def or_raise(res):
    """One entry of a list call's result (a list call of `poly_roots`
    returns each item's exception in its place), raised when it is an
    exception and returned otherwise."""
    if isinstance(res, Exception):
        raise res
    return res


def _batched(fn, items):
    """fn(items), for a function `fn` of a list of items that raises at its
    first failed check.  Where a batch of two or more items raises,
    fn([item]) for each item in order, so that the error raised is the first
    one a loop over the items meets (the batch's own error where no item
    alone raises)."""
    try:
        return fn(items)
    except Exception as exc:
        if len(items) < 2:
            raise
        failed = exc
    for item in items:
        fn([item])
    raise failed


# Row functions (see the module docstring).  Sums are formed as 0.0 + a + b,
# so that even the signs of zero coefficients are those of one row alone.

def _horner(C, Z):
    """The polynomials C at the points Z by Horner's rule, in Z's dtype: a
    single row (1-D C) at every point of Z, and row k of a stack at row k of
    Z (leading axes broadcast)."""
    terms = C[::-1] if C.ndim == 1 else [C[..., k : k + 1] for k in range(C.shape[-1] - 1, -1, -1)]
    r = np.zeros_like(Z)
    for a in terms:
        r = r * Z + a
    return r


def _mirror(C):
    """p(-s) per row."""
    return C * (-1.0) ** np.arange(C.shape[-1])


def _deriv_rows(C):
    """The derivative of each row (one zero coefficient for a constant)."""
    if C.shape[-1] == 1:
        return np.zeros_like(C)
    return C[..., 1:] * np.arange(1, C.shape[-1])


def _conv_rows(a, B):
    """Row-wise product of the rows of `a` and of B (broadcast against each
    other), summed in ascending index of `a`: bitwise `np.convolve` when
    either factor has at most two coefficients."""
    terms = [a[..., i, None] * B for i in range(a.shape[-1])]
    out = np.zeros(terms[0].shape[:-1] + (len(terms) + B.shape[-1] - 1,))
    for i, t in enumerate(terms):
        out[..., i : i + B.shape[-1]] += t
    return out


def _mul_rows(A, B):
    """Row-wise products of the 2-D rows A and B: `_conv_rows` when a factor
    has at most two columns, else `np.convolve` of each pair of trimmed
    rows."""
    if min(A.shape[1], B.shape[1]) <= 2:
        return _conv_rows(A, B)
    out = np.zeros((len(A), A.shape[1] + B.shape[1] - 1))
    for row, a, b, na, nb in zip(out, A, B, _top(A), _top(B)):
        p = np.convolve(a[: max(na, 0) + 1], b[: max(nb, 0) + 1])
        row[: len(p)] = p
    return out


def _sum_rows(*rows):
    """0.0 + a + b + ... of 2-D rows of any widths."""
    out = np.zeros((max(len(r) for r in rows), max(r.shape[1] for r in rows)))
    for r in rows:
        out[:, : r.shape[1]] += r
    return out


def _even_rows(S):
    """The even-index coefficients of each row, and per row whether it fails
    the evenness test: an odd-index coefficient above 1e-9 of the row's
    largest (or of one)."""
    scale = np.maximum(np.abs(S).max(axis=-1), 1.0)
    odd = np.abs(S[..., 1::2]).max(axis=-1, initial=0.0) > 1e-9 * scale
    return S[..., 0::2], odd


def _top(C):
    """Index of the last nonzero entry along the last axis of C, -1 where
    there is none."""
    nz = C != 0
    return np.where(nz.any(axis=-1), nz.shape[-1] - 1 - nz[..., ::-1].argmax(axis=-1), -1)


def _normalized(num, den):
    """The 2-D rows num and den of ratios, both divided by den's leading
    coefficient where num is not zero (a monic denominator)."""
    lead = np.where(num.any(axis=1), den[np.arange(len(den)), _top(den)], 1.0)[:, None]
    return num / lead, den / lead


def _near_pole(dv, scale):
    """Where a denominator's value dv is at most 1e-12 of its `scale` (the
    sum of |c_k| |s|^k): an evaluation at or near a pole."""
    return np.abs(dv) <= 1e-12 * np.maximum(scale, 1e-300)


def _at(num, den, Z):
    """num(z) / den(z) per row at its points Z (row k's rows at row k of Z),
    as `RationalFn.__call__` computes it at one point (NaN where that call
    raises), and the exception it raises at each point (None where it raises
    none).  num, den and the scale of den (|den| at |z|) take one Horner
    pass together; the quotient is Python's, whose complex division is not
    numpy's bit for bit."""
    C = np.zeros((3,) + num.shape[:-1] + (max(num.shape[-1], den.shape[-1]),))
    C[0, ..., : num.shape[-1]], C[1, ..., : den.shape[-1]] = num, den
    C[2] = np.abs(C[1])
    nv, dv, scale = _horner(C, np.stack([Z, Z, np.abs(Z)]))
    pole = _near_pole(dv, scale.real).ravel().tolist()
    errs = [PoleEvaluationError(f"evaluation at/near a pole: s={z}", z) if p
            else ZeroDivisionError("complex division by zero") if d == 0 else None
            for p, d, z in zip(pole, dv.ravel().tolist(), np.ravel(Z).tolist())]
    quot = [n / d if e is None else np.nan
            for n, d, e in zip(nv.ravel().tolist(), dv.ravel().tolist(), errs)]
    return (np.array(quot, dtype=dv.dtype).reshape(dv.shape),
            np.array(errs, dtype=object).reshape(dv.shape))


def _stacked_roots(C, low):
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
    Cd = _deriv_rows(C)
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
        if w > ROOT_RESIDUAL_TOL:
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
        if normalize:
            n, d = _normalized(num.c[None], den.c[None])
            num, den = Poly(n[0]), Poly(d[0])
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
        bad = _near_pole(dv, self.den.scale_at(s))
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

    def mirror(self):
        return RationalFn(self.num.mirror(), self.den.mirror())

    def relative_degree(self):
        if self.num.is_zero:
            raise ValueError("relative degree of the zero function is undefined")
        return self.den.degree - self.num.degree

    def reduced(self):
        """Cancel common num/den roots (`_cancelled`), then expand both from
        their reclosed root lists."""
        if self.num.is_zero or self.num.degree == 0 or self.den.degree == 0:
            return self
        zn, zd = (or_raise(rs).expanded() for rs in poly_roots([self.num, self.den]))
        keep_n, keep_d = _cancelled(zn, zd)
        out = RationalFn(poly_from_roots(_reclose(keep_n), self.num.c[-1] / self.den.c[-1]),
                         poly_from_roots(_reclose(keep_d), 1.0))
        return self if out.den.degree == self.den.degree else out

    def __repr__(self):
        return f"RationalFn({list(self.num.c)}, {list(self.den.c)})"


def _cancelled(zn, zd):
    """The root lists `zn` and `zd` (both conjugate-closed) with the common
    roots cancelled: each root of `zd`, in order, cancels the first remaining
    root of `zn` within ROOT_MATCH_TOL."""
    keep_n, keep_d = list(zn), []
    for rd in zd:
        hit = next((k for k, rn in enumerate(keep_n)
                    if abs(rd - rn) <= ROOT_MATCH_TOL * (1 + abs(rd))), None)
        if hit is None:
            keep_d.append(rd)
        else:
            keep_n.pop(hit)
    return keep_n, keep_d


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
