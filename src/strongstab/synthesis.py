"""Level-parameterized synthesis objects for the weighted mixed-sensitivity problem.

Given a dead-time plant and the weight pair, this module builds, at a chosen
performance level, the auxiliary function E, the stable minimum-phase spectral
factor G of (1 - (W2 W2~/level^2 - 1) E)^(-1), the all-pass-completed factor F,
and the polynomial pair (L1, L2) fixed by the interpolation conditions at the
right-half-plane zeros of E and poles of the plant.  The optimal level is the
largest one at which the homogeneous interpolation system becomes singular.

Sign convention: `spectral_factor` returns G with G(0) > 0, but the completed
factor F is normalized so that F(0) > 0 (the sign is carried jointly by G and
F).  Both benchmark problems print their data in this orientation, and the
downstream search coordinates (k, u_inf ranges) depend on it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .rational import (
    FrequencyGrid,
    Poly,
    RationalFn,
    _at,
    _cancelled,
    _even_rows,
    _from_roots_rows,
    _mul_rows,
    _normalized,
    _reclose,
    _stacked,
    _sum_rows,
    _top,
    grid_sup,
    or_raise,
    poly_roots,
)

__all__ = [
    "PlantValidationError",
    "FactorizationError",
    "InterpolationError",
    "GammaSearchError",
    "CertificateContradiction",
    "ClosedLoopSingular",
    "DelayPlant",
    "WeightPair",
    "UParam",
    "SynthesisContext",
    "Controller",
    "build_E",
    "spectral_ratio",
    "spectral_factor",
    "build_F",
    "eta_mirror_poles",
    "interpolation_rows",
    "solve_interpolation",
    "LevelBuilder",
    "build_context",
    "gamma_opt",
    "GammaOptResult",
    "verify_performance",
    "NORM_SLACK",
]

# Relative slack of the closed-loop norm check: a design passes at level rho
# when its grid norm is at most rho (1 + NORM_SLACK).
NORM_SLACK = 1e-3
# Largest deviation of |f(jw)| from one on the grid for an inner factor.
INNER_TOL = 1e-8
# Levels of the coarse sigma_min grid that `gamma_opt` walks down the bracket.
GAMMA_COARSE = 200
# Coarse levels `gamma_opt` builds together (`LevelBuilder.prefetch`).
GAMMA_BLOCK = 16
# `_refine_dip`'s golden ratio (its safeguard step) and its stopping width:
# that of DIP_ITERS golden-section steps, 0.618^50 ~ 3.5e-11 of the bracket.
DIP_GOLDEN = (math.sqrt(5.0) - 1) / 2
DIP_ITERS = 50


class PlantValidationError(ValueError):
    def __init__(self, check, msg):
        super().__init__(f"{check}: {msg}")
        self.check = check


class FactorizationError(RuntimeError):
    pass


class InterpolationError(RuntimeError):
    pass


class GammaSearchError(RuntimeError):
    pass


class ClosedLoopSingular(RuntimeError):
    """The closed-loop denominator nearly vanished on the imaginary axis."""


class CertificateContradiction(RuntimeError):
    """The analytic sufficient condition and the independent scan disagreed."""


# ---------------------------------------------------------------------------
# plant and weights
# ---------------------------------------------------------------------------

def _is_inner(f: RationalFn, grid: FrequencyGrid):
    om = grid.omegas()
    vals = np.abs(f(1j * om))
    return np.abs(vals - 1.0).max() <= INNER_TOL


def _roots_strictly_lhp(p: Poly):
    if p.degree == 0:
        return True
    return all(r.real < 0 for r in poly_roots(p).expanded())


@dataclass
class DelayPlant:
    """P(s) = e^{-h s} M(s) N_o(s) / m_d(s): delay, inner factors, outer factor."""

    h: float
    M: RationalFn
    m_d: RationalFn
    N_o: RationalFn

    def validate(self, weights: WeightPair):
        grid = FrequencyGrid()
        if self.h < 0:
            raise PlantValidationError("plant.h", "delay must be nonnegative")
        for name, f in (("plant.M", self.M), ("plant.m_d", self.m_d)):
            if not _roots_strictly_lhp(f.den):
                raise PlantValidationError(name, "inner factor has unstable poles")
            if not _is_inner(f, grid):
                raise PlantValidationError(name, "|f(jw)| deviates from 1 on the grid")
        if not (_roots_strictly_lhp(self.N_o.num) and _roots_strictly_lhp(self.N_o.den)):
            raise PlantValidationError(
                "plant.N_o", "outer factor must have poles and zeros in Re s < 0"
            )
        if not weights.W2.is_zero:
            prod = weights.W2 * self.N_o
            if not (_roots_strictly_lhp(prod.num) and _roots_strictly_lhp(prod.den)):
                raise PlantValidationError(
                    "weights.W2", "W2*N_o or its inverse is not stable"
                )
        return self

    def mn(self, s):
        """e^{-hs} M(s)."""
        return np.exp(-self.h * np.asarray(s)) * self.M(s)

    def alpha_roots(self):
        """Right-half-plane poles of the plant (= RHP zeros of m_d)."""
        if self.m_d.num.degree == 0:
            return []
        return [r for r in poly_roots(self.m_d.num).expanded() if r.real > 0]


@dataclass
class WeightPair:
    W1: RationalFn
    W2: RationalFn

    def validate(self):
        if self.W1.is_zero:
            raise PlantValidationError("weights.W1", "W1 must be nonzero")
        if self.W1.relative_degree() < 0:
            raise PlantValidationError("weights.W1", "W1 must be proper")
        if not self.W2.is_zero and self.W2.relative_degree() > 0:
            raise PlantValidationError(
                "weights.W2", "W2 must be biproper or improper when nonzero"
            )
        return self


# ---------------------------------------------------------------------------
# E, G, F of a block of levels
# ---------------------------------------------------------------------------

def _para(W: RationalFn) -> RationalFn:
    """W(-s) W(s), reduced over a common denominator."""
    return RationalFn(W.num * W.num.mirror(), W.den * W.den.mirror())


# A block of levels is built as coefficient rows, one per level, with the
# row functions of `rational`; a failed check raises for the whole block.
_NUMERATOR, _DENOMINATOR = "spectral factor numerator", "spectral factor denominator"


class _Level:
    """One level's E, R, G and F as (num, den) coefficient rows, the roots of
    E.num (a RootSet, None for a constant, or the exception its extraction
    returned; see `_betas`) and, once `LevelBuilder` has solved its optimal
    system, `sigma`: (sigma_min, null vector, degree)."""

    __slots__ = ("E", "R", "G", "F", "roots", "sigma")


def _fn(rows) -> RationalFn:
    num, den = rows
    return RationalFn(Poly(num), Poly(den), normalize=False)


def _square(level):
    """level**2 after the level checks.  The power (C `pow`) can differ from
    level * level in the last bit, and every level's build takes the power."""
    if level <= 0:
        raise ValueError("level must be positive")
    if not math.isfinite(float(level) * float(level)):
        raise FactorizationError(f"level {level:g}: its square is not a finite number")
    return level**2


def _over_level(para: RationalFn, g2):
    """(num, den) rows of para / level^2 - 1 over the common denominator
    level^2 para.den, one per level square in `g2`."""
    den = para.den.c * g2[:, None]
    return _sum_rows(para.num.c[None], den * -1.0), den


def _cmul(a, b):
    """a * b entrywise as numpy's complex scalars multiply it (no fused
    multiply-add, unlike the array loops)."""
    out = np.empty(np.broadcast(a, b).shape, complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _halves(rows, flags):
    """The two halves of a stack of 2K rows and of its per-row flags."""
    K = len(rows) // 2
    return (rows[:K], rows[K:]), np.reshape(flags, (2, K))


def _raise_any(errs):
    """Raise the first exception of the object array `errs` (None where a
    point raised none), in C order."""
    for e in np.ravel(errs):
        if e is not None:
            raise e


def _stable_half(rs, what: str):
    """Stable (Re < 0) half of the roots of an even polynomial in s, given
    the roots `rs` of its half in x = s^2.

    Each x-root contributes the pair +-sqrt(x).  Purely imaginary pairs
    (x < 0) cannot be split and raise, except when the x-multiplicity is
    even, in which case half goes to each side.
    """
    if or_raise(rs) is None:
        return []
    stable = []
    for x, mult in zip(rs.roots, rs.multiplicities):
        # x < 0 means the s-pair sits on the imaginary axis
        if x.imag == 0 and x.real < 0:
            if mult % 2 != 0:
                raise FactorizationError(
                    f"{what}: imaginary-axis zero pair at s=+-{np.sqrt(-x.real):.6g}j "
                    "of odd multiplicity obstructs the factorization"
                )
            w = np.sqrt(-x.real)
            stable.extend([1j * w] * (mult // 2))
            stable.extend([-1j * w] * (mult // 2))
            continue
        s = np.sqrt(complex(x))
        if s.real > 0:
            s = -s
        if s.real == 0:
            # numerically ambiguous; treat as axis obstruction
            raise FactorizationError(f"{what}: zero pair on the imaginary axis")
        stable.extend([s] * mult)
    return stable


def _betas(rs):
    """One representative per mirror pair of RHP zeros of E (Im >= 0 on the
    axis), from the roots `rs` of E.num (None for a constant)."""
    if or_raise(rs) is None:
        return []
    reps = []
    for r in rs.expanded():
        if r.real > 1e-9 * (1 + abs(r)):
            reps.append(r)
        elif abs(r.real) <= 1e-9 * (1 + abs(r)) and r.imag > 0:
            reps.append(complex(0.0, r.imag))
    return reps


def _ratios(w1para, w2para, levels):
    """(E, R), each as (num, den) rows with one row per level of `levels`,
    given W1(-s)W1(s) and W2(-s)W2(s) (None for W2 = 0):
    E = W1(-s)W1(s)/level^2 - 1 and R = 1 - (W2(-s)W2(s)/level^2 - 1) E, by
    row-wise sums and products."""
    g2 = np.array([_square(g) for g in levels], dtype=float)

    def ratio(num, den):
        """The rows of RationalFn(num, den); FactorizationError at the first
        level whose normalised row is not finite (a level square too small
        for floating point)."""
        if not den.any(axis=1).all():
            raise ZeroDivisionError("denominator is identically zero")
        num, den = _normalized(num, den)
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            ok = np.isfinite(num).all(axis=1) & np.isfinite(den).all(axis=1)
            raise FactorizationError(
                f"level {levels[np.argmin(ok)]:g}: its normalised ratio is not finite")
        return num, den

    with np.errstate(all="ignore"):
        E = ratio(*_over_level(w1para, g2))
        if w2para is None:
            return E, ratio(_sum_rows(*E), E[1])
        V = ratio(*_over_level(w2para, g2))
        VE = ratio(_mul_rows(V[0], E[0]), _mul_rows(V[1], E[1]))
        return E, ratio(_sum_rows(VE[1], VE[0] * -1.0), VE[1])


def _build_levels(w1para, w2para, etas, levels):
    """The `_Level` of each of `levels`, given W1(-s)W1(s), W2(-s)W2(s) (None
    for W2 = 0) and the mirrored W1 poles `etas`; raises at the first failed
    check, so that for one level it raises what a one-level build meets first.

    E and R come from `_ratios`.  The halves in x = s^2 of R.den and R.num and
    E.num of all levels take their roots in one `poly_roots` call.  The stable
    halves are G's zeros and poles; E.num's roots are kept for the betas.  G
    (gain from R at s = 0, or at 0.37913 where R or G has a pole there;
    G(0) > 0) and F = G prod (s - eta)/(s + eta) (common roots cancelled as in
    `RationalFn.reduced`: G's zeros hold the -etas; both negated so that
    F(0) > 0) are expanded from their root lists row-wise.
    """
    K = len(levels)
    E, R = _ratios(w1para, w2para, levels)
    with np.errstate(all="ignore"):
        # one root extraction: R.den's and R.num's halves in x = s^2 and E.num
        halves, odd = _even_rows(_stacked(R[::-1]))
        rows = _stacked([*halves, E[0]]).transpose(1, 0, 2)
        odd = np.append(odd, np.zeros((1, K), dtype=bool), axis=0).T
        want = (_top(rows) >= 1) & ~odd
        found = iter(poly_roots(rows[want]) if want.any() else [])
        roots = [[next(found) if w else ValueError("polynomial is not even in s") if o else None
                  for w, o in zip(*wo)] for wo in zip(want.tolist(), odd.tolist())]

        # G's zeros and poles, then G expanded from them and its gain fixed
        zeros, poles = [], []
        for rs in roots:
            zeros.append([complex(r) for r in _stable_half(rs[0], _NUMERATOR)])
            poles.append([complex(r) for r in _stable_half(rs[1], _DENOMINATOR)])
        (Gn, Gd), open_ = _halves(*_from_roots_rows(zeros + poles, np.ones(2 * K)))
        if open_.any():
            raise ValueError("root list is not closed under conjugation")
        S = np.broadcast_to([0.0, 0.37913], (K, 2))
        (q, g), errs = _at(_stacked([R[0], Gn]), _stacked([R[1], Gd]),
                           np.broadcast_to(S, (2, K, 2)))
        ok = np.equal(errs, None).all(axis=0) & (q != 0)
        if not ok.any(axis=1).all():
            raise FactorizationError("R or G vanishes or has a pole at both gain points")
        at = np.arange(K), np.argmax(ok, axis=1)       # s = 0 where it serves
        target, g0 = 1.0 / q[at], g[at]
        if (g0 * g0 == 0).any():
            raise ZeroDivisionError("complex division by zero")
        c2 = target / (g0 * g0)
        if (c2 <= 0).any():
            raise FactorizationError("factorization produced a non-real gain")
        Gn = Gn * np.sqrt(c2)[:, None]
        sign, errs = _at(Gn, Gd, S[:, :1])
        _raise_any(errs)
        Gn = np.where(sign < 0, Gn * -1.0, Gn)

        # F from G's root lists, the etas and the -etas
        Fn, Fd = Gn, Gd
        if etas:
            kept = [_cancelled(z + etas, p + [-e for e in etas]) for z, p in zip(zeros, poles)]
            num = [_reclose(n) for n, _ in kept]
            den = [_reclose(d) for _, d in kept]
            lead = Gn[np.arange(K), _top(Gn)]
            (Fn, Fd), open_ = _halves(*_from_roots_rows(num + den, np.append(lead, np.ones(K))))
            if open_.any():
                raise ValueError("root list is not closed under conjugation")
            # F(0) > 0; with no etas F is G, whose G(0) > 0 already holds
            sign, errs = _at(Fn, Fd, S[:, :1])
            _raise_any(errs)
            flip = sign < 0
            Fn, Gn = np.where(flip, Fn * -1.0, Fn), np.where(flip, Gn * -1.0, Gn)

    out = []
    for k in range(K):
        lv = _Level()
        lv.E, lv.R, lv.G, lv.F = ((X[0][k], X[1][k]) for X in (E, R, (Gn, Gd), (Fn, Fd)))
        lv.roots, lv.sigma = roots[k][2], None
        out.append(lv)
    return out


def _one_level(level, W1, W2, etas):
    """The `_Level` of one level."""
    w2para = None if W2.is_zero else _para(W2)
    return _build_levels(_para(W1), w2para, etas, [level])[0]


def build_E(level: float, W1: RationalFn) -> RationalFn:
    """E = W1(-s) W1(s) / level^2 - 1, reduced over a common denominator."""
    num, den = _ratios(_para(W1), None, [level])[0]
    return _fn((num[0], den[0]))


def spectral_ratio(level: float, W1: RationalFn, W2: RationalFn) -> RationalFn:
    """R = 1 - (W2(-s)W2(s)/level^2 - 1) E; G G(-s) = 1/R."""
    num, den = _ratios(_para(W1), None if W2.is_zero else _para(W2), [level])[1]
    return _fn((num[0], den[0]))


def spectral_factor(level: float, W1: RationalFn, W2: RationalFn) -> RationalFn:
    """Stable, minimum-phase G with G(s)G(-s) = R(s)^{-1} and G(0) > 0."""
    return _fn(_one_level(level, W1, W2, []).G)


def eta_mirror_poles(W1: RationalFn):
    """RHP poles of W1(-s): the mirrored (stable) poles of the weight."""
    if W1.den.degree == 0:
        return []
    return [-r for r in poly_roots(W1.den).expanded()]


def build_F(level: float, W1: RationalFn, W2: RationalFn):
    """(F, etas, G): F = G * prod (s - eta)/(s + eta), oriented so F(0) > 0."""
    etas = eta_mirror_poles(W1)
    lv = _one_level(level, W1, W2, etas)
    return _fn(lv.F), etas, _fn(lv.G)


# ---------------------------------------------------------------------------
# interpolation system
# ---------------------------------------------------------------------------

def _reject_repeated(points, what):
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if abs(a - b) <= 1e-8 * (1 + abs(a)):
                raise InterpolationError(
                    f"repeated interpolation point {a:.6g} in {what}; "
                    "multiplicity > 1 is not supported"
                )


def interpolation_rows(plant: DelayPlant, F, betas, alphas, degrees):
    """Real matrices of the homogeneous interpolation conditions of a block of
    levels, one per level; raises at the first failure.

    Level k's conditions sit at betas[k] (its E zeros, see `_betas`) and
    `alphas` (the plant poles, already checked for repeats), with its F given
    as the rows F[k] = (num, den).  Unknown vector: [L1 coefficients
    (ascending), L2 coefficients], each of length degrees[k] + 1.  Complex
    conditions contribute their real and imaginary parts as separate rows
    (the imaginary one where it is not zero); redundant conjugate rows are
    harmless since the solve goes through an SVD.  Levels with as many points
    and the same degree are evaluated together.
    """
    out, groups = [None] * len(F), {}
    for k, b in enumerate(betas):
        _reject_repeated(b, "E zeros")
        groups.setdefault((len(b), degrees[k]), []).append(k)
    for (nb, degree), idx in groups.items():
        pts = [betas[k] + alphas for k in idx]
        P = np.array(pts, dtype=complex).reshape(len(idx), nb + len(alphas))
        M = [np.broadcast_to(c, (len(idx), len(c))) for c in (plant.M.num.c, plant.M.den.c)]
        (mv, fv), errs = _at(_stacked([M[0], _stacked([F[k][0] for k in idx])]),
                             _stacked([M[1], _stacked([F[k][1] for k in idx])]),
                             np.broadcast_to(P, (2,) + P.shape))
        _raise_any(errs.transpose(1, 2, 0))     # per level and point: M's, then F's
        # L1(p) + W L2(p) = 0 and L2(-p) + W L1(-p) = 0, W = e^{-hp} M(p) F(p)
        W = _cmul(_cmul(np.exp(-plant.h * P), mv), fv)[..., None]
        n = degree + 1
        pw = np.array([[[q**i for i in range(n)] for p in row for q in (p, -p)] for row in pts],
                      complex).reshape(P.shape + (2, n))
        pw, pwm = pw[..., 0, :], pw[..., 1, :]
        r1, r2 = np.concatenate([pw, W * pw], axis=-1), np.concatenate([W * pwm, pwm], axis=-1)
        rows = np.stack([r1.real, r1.imag, r2.real, r2.imag], axis=2).reshape(
            len(idx), 4 * P.shape[1], 2 * n)
        keep = np.ones(P.shape + (4,), dtype=bool)
        keep[..., 1] = np.abs(r1.imag).max(axis=-1, initial=0.0) > 0
        keep[..., 3] = np.abs(r2.imag).max(axis=-1, initial=0.0) > 0
        for j, k in enumerate(idx):
            out[k] = rows[j][keep[j].ravel()]
    return out


def _nullvectors(mats):
    """(sigma_min, null vector) of each matrix of `mats`, with one batched
    SVD per matrix shape.  Each system is scaled by its largest row so
    sigma_min is dimensionless; per-row normalization would hide rows that
    vanish at the singular level."""
    out, shapes = [None] * len(mats), {}
    for i, A in enumerate(mats):
        shapes.setdefault(A.shape, []).append(i)
    for (nrows, ncols), idx in shapes.items():
        A = np.stack([mats[i] for i in idx])
        scale = np.linalg.norm(A, axis=-1).max(axis=-1)
        _, svals, vt = np.linalg.svd(A / np.where(scale > 0, scale, 1.0)[:, None, None])
        for i, sv, v in zip(idx, svals, vt):
            out[i] = (float(sv[ncols - 1]) if nrows >= ncols else 0.0), v[-1]
    return out


def solve_interpolation(plant, F, E, degree, extra_a, betas, alphas):
    """(L1, L2, sigma_min, residual) with L1 normalized monic; with `extra_a`
    (the suboptimal system), one more condition L2(-a) + N L1(-a) = 0 with
    N = ((1 + E) F)(a) e^{-ha} M(a)."""
    A = interpolation_rows(plant, [(F.num.c, F.den.c)], [betas], alphas, [degree])[0]
    n = degree + 1
    if extra_a is not None:
        a = float(extra_a)
        Ep1 = RationalFn(E.num + E.den, E.den)
        N = ((Ep1 * F).reduced())(a) * plant.mn(a)
        if abs(N.imag) > 1e-9 * (1 + abs(N)):
            raise InterpolationError("extra condition evaluated to a non-real value")
        pw = np.array([(-a) ** k for k in range(n)], dtype=complex)
        A = np.vstack([A, np.concatenate([N.real * pw, pw]).real])
    if not len(A):
        raise InterpolationError("no interpolation conditions: degenerate problem")
    smin, v = _nullvectors([A])[0]
    l1c, l2c = v[:n], v[n:]
    if abs(l1c[-1]) < 1e-10 * np.abs(v).max():
        raise InterpolationError(
            "interpolation null vector has a degenerate leading L1 coefficient"
        )
    l2c = l2c / l1c[-1]
    l1c = l1c / l1c[-1]
    L1, L2 = Poly(l1c), Poly(l2c)
    resid = float(np.abs(A @ np.concatenate([l1c, l2c])).max())
    scale = float(np.abs(A).max() * max(np.abs(l1c).max(), np.abs(l2c).max()))
    rel = resid / max(scale, 1e-300)
    if extra_a is not None and abs(L1(-float(extra_a))) < 1e-9 * (1 + np.abs(l1c).max()):
        raise InterpolationError("side constraint L1(-a) != 0 violated")
    return L1, L2, smin, rel


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

@dataclass
class SynthesisContext:
    """All level-dependent synthesis data for one problem instance."""

    level: float
    E: RationalFn
    F: RationalFn
    R: RationalFn             # G G(-s) = 1/R; |F(jw)|^2 = 1/R(jw)
    betas: list
    alphas: list
    L1: Poly
    L2: Poly
    interp_a: float | None    # None: the optimal context
    residual: float

    def excluded_zeros(self):
        """RHP zeros of E and m_d with their conjugates: the interpolation
        conditions cancel them structurally, so every zero scan divides them out."""
        out = [complex(b) for b in self.betas]
        out += [complex(np.conj(b)) for b in self.betas if b.imag != 0]
        out += [complex(a) for a in self.alphas]
        out += [complex(np.conj(a)) for a in self.alphas if a.imag != 0]
        return out


class LevelBuilder:
    """The level-independent data of one problem, and the per-level synthesis data.

    Holds W1(-s)W1(s), W2(-s)W2(s), the mirrored W1 poles `etas`, and the
    plant's right-half-plane poles `alphas` (checked once for repeats).
    `prefetch(levels)` builds a block of levels as rows of coefficient arrays
    (`_build_levels`: one stacked `poly_roots` call), then every level's
    betas, optimal interpolation matrix (`interpolation_rows`) and its
    sigma_min and null vector, with one batched SVD per matrix shape
    (`_nullvectors`).  It keeps the block only when the whole block
    succeeds, each level until `at` or `optimal_sigma_min` consumes it;
    otherwise it keeps nothing.  A level that is not kept is built alone when
    it is consumed (by `at` without the optimal system), so a level's
    failure is raised only when that level is consumed, and as a one-level
    build meets it.  `gamma_opt` and `build_context` both go through it.
    """

    def __init__(self, plant: DelayPlant, weights: WeightPair):
        self.plant = plant
        self.w1para = _para(weights.W1)
        self.w2para = None if weights.W2.is_zero else _para(weights.W2)
        self.etas = eta_mirror_poles(weights.W1)
        self.alphas = plant.alpha_roots()
        _reject_repeated(self.alphas, "plant poles")
        self._built = {}

    def _levels(self, levels):
        return _build_levels(self.w1para, self.w2para, self.etas, levels)

    def _solved(self, levels):
        """The `_Level` of each of `levels`, its `sigma` set; raises at the
        first failure."""
        built = self._levels(levels)
        betas = [_betas(lv.roots) for lv in built]
        degrees = [len(b) + len(self.alphas) - 1 for b in betas]
        if min(degrees) < 0:
            raise InterpolationError("no interpolation conditions at this level")
        mats = interpolation_rows(self.plant, [lv.F for lv in built], betas, self.alphas, degrees)
        for lv, res, degree in zip(built, _nullvectors(mats), degrees):
            lv.sigma = res + (degree,)
        return built

    def prefetch(self, levels):
        """Build `levels` together and keep their results for `at` and
        `optimal_sigma_min`, or keep nothing when any level fails."""
        try:
            built = self._solved(levels)
        except Exception:
            return      # each level is built alone when it is consumed
        self._built.update(zip(levels, built))

    def at(self, level: float):
        """(E, R, F, betas) at `level`; see `build_E`, `spectral_ratio`, `build_F`."""
        lv = self._built.pop(level) if level in self._built else self._levels([level])[0]
        return _fn(lv.E), _fn(lv.R), _fn(lv.F), _betas(lv.roots)

    def optimal_sigma_min(self, level: float):
        """(sigma_min, null vector, degree) of the optimal homogeneous system."""
        lv = self._built.pop(level) if level in self._built else self._solved([level])[0]
        return lv.sigma


def build_context(plant: DelayPlant, weights: WeightPair, level: float,
                  interp_a: float | None) -> SynthesisContext:
    """The context at `level`: the optimal one (degree n1 + l - 1) when
    `interp_a` is None, else the suboptimal one (degree n1 + l) with the
    extra interpolation condition at `interp_a`."""
    levels = LevelBuilder(plant, weights)
    E, R, F, betas = levels.at(level)
    alphas = levels.alphas
    n1l = len(betas) + len(alphas)
    extra = None if interp_a is None else float(interp_a)
    degree = n1l - 1 if extra is None else n1l
    L1, L2, _, rel = solve_interpolation(plant, F, E, degree, extra, betas, alphas)
    return SynthesisContext(
        level=float(level), E=E, F=F, R=R, betas=betas, alphas=alphas,
        L1=L1, L2=L2, interp_a=extra, residual=rel,
    )


# ---------------------------------------------------------------------------
# optimal level search
# ---------------------------------------------------------------------------

@dataclass
class GammaOptResult:
    gamma: float
    L1: Poly
    L2: Poly
    sigma_min: float
    infeasible_points: list
    diagnostics: dict


def _refine_dip(evaluate, a, fa, m, best, b, fb):
    """(level, its result) of the lowest sigma_min found on (a, b) from the
    coarse dip m, whose (sigma_min, v, degree) is `best`.

    A failed level, and a NaN end value fa or fb, reads +inf.  The bracket is
    the lowest evaluated point's two neighbours, and each step evaluates the
    apex of a V through them, as sigma_min is near a singular level: each
    side's secant to the next point out, or where a side has none, equal
    slopes and a zero floor, apex (fa b + fb a)/(fa + fb).  Brent's safeguard:
    a golden step into the larger side where the apex is not inside (a, b) or
    the bracket did not halve in two steps.  Stops when the bracket or an apex
    step is within the final width of DIP_ITERS golden-section steps,
    DIP_GOLDEN^DIP_ITERS (b - a), or after DIP_ITERS + 3 evaluations.
    """
    fa, fb = (math.inf if math.isnan(f) else float(f) for f in (fa, fb))
    pts = [(-math.inf, math.nan), (a, fa), (m, best[0]), (b, fb), (math.inf, math.nan)]
    found = {m: best}
    tol = DIP_GOLDEN ** DIP_ITERS * (b - a)
    widths = [math.inf, math.inf]       # the bracket's at the start of each step
    for n in range(DIP_ITERS + 4):
        m = min(found, key=lambda g: found[g][0])   # the first evaluated of the lowest
        k = bisect.bisect_left(pts, (m,))
        (a0, fa0), (a, fa), (m, fm), (b, fb), (b0, fb0) = pts[k - 2 : k + 3]
        if b - a <= tol or n == DIP_ITERS + 3:
            break
        sl, sr = (fa0 - fa) / (a - a0), (fb0 - fb) / (b0 - b)
        if 0 < sl < math.inf and 0 < sr < math.inf:
            x = (fa - fb + sl * a + sr * b) / (sl + sr)
        else:
            x = (fa * b + fb * a) / (fa + fb) if 0 < fa + fb < math.inf else math.nan
        if not a < x < b or b - a > 0.5 * widths[-2]:
            g = 1 - DIP_GOLDEN
            x = m + g * (b - m) if b - m > m - a else m - g * (m - a)
        elif abs(x - m) <= tol:
            break
        widths.append(b - a)
        try:
            found[x] = evaluate(x)
            fx = found[x][0]
        except (FactorizationError, InterpolationError):
            fx = math.inf
        bisect.insort(pts, (x, fx))
    return m, found[m]


def gamma_opt(plant: DelayPlant, weights: WeightPair, bracket) -> GammaOptResult:
    """Largest level in the bracket at which the optimal system is singular.

    Walks a coarse grid of the smallest singular value of the homogeneous
    system from the top of the bracket down, evaluating each level just before
    the level above it is tested as a dip (a local minimum).  Each dip is
    refined between its coarse neighbours (`_refine_dip`) as soon as it is
    found, and the first with sigma_min < 1e-6 is returned.  The grid levels
    are built top-down in blocks of `GAMMA_BLOCK`, each block's sigma_min
    included (`LevelBuilder.prefetch`; a block with a failing level keeps
    nothing, and its consumed levels are built alone), and a refinement level
    alone; levels are consumed one at a time, so a failure below the returned
    dip is never seen.  `diagnostics["dips"]` counts the dips refined; `infeasible_points`
    lists the consumed grid levels (ascending) whose factorization or
    interpolation failure was collected rather than fatal.
    """
    glo, ghi = bracket
    if not (0 < glo < ghi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    levels = LevelBuilder(plant, weights)
    gs = np.linspace(glo, ghi, GAMMA_COARSE)
    vals = np.full(GAMMA_COARSE, np.nan)
    grid_bad, dips, res = [], 0, None
    for j in range(GAMMA_COARSE - 1, -1, -1):
        if (GAMMA_COARSE - 1 - j) % GAMMA_BLOCK == 0:
            levels.prefetch(gs[max(j + 1 - GAMMA_BLOCK, 0) : j + 1][::-1])
        above = res     # gs[j + 1]'s result (stale where it failed: then no dip)
        try:
            res = levels.optimal_sigma_min(gs[j])
            vals[j] = res[0]
        except (FactorizationError, InterpolationError) as exc:
            grid_bad.append((float(gs[j]), str(exc)))
        i = j + 1       # a dip: not above either neighbour, a failed one reading +inf
        if (i > GAMMA_COARSE - 2 or np.isnan(vals[i])
                or vals[i] > np.fmin(vals[i - 1], vals[i + 1])):
            continue
        dips += 1
        gstar, (smin, v, degree) = _refine_dip(levels.optimal_sigma_min, gs[i - 1], vals[i - 1],
                                               gs[i], above, gs[i + 1], vals[i + 1])
        if smin < 1e-6:
            l1c, l2c = v[: degree + 1], v[degree + 1 :]
            if abs(l1c[-1]) > 1e-9 * np.abs(v).max():
                l1c, l2c = l1c / l1c[-1], l2c / l1c[-1]
            return GammaOptResult(
                gamma=float(gstar), L1=Poly(l1c), L2=Poly(l2c), sigma_min=float(smin),
                infeasible_points=grid_bad[::-1],
                diagnostics={"bracket": (float(glo), float(ghi)), "dips": dips},
            )
    raise GammaSearchError(
        "no singular level found in bracket; widen the bracket "
        f"(dips tried: {dips}, infeasible points: {len(grid_bad)})"
    )


# ---------------------------------------------------------------------------
# free parameter and controller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UParam:
    """U(s) = u_inf (u_z + s)/(u_p + s); u_z = u_p = 0 means the constant u_inf."""

    u_inf: float
    u_z: float = 0.0
    u_p: float = 0.0

    @property
    def is_constant(self):
        return self.u_z == 0.0 and self.u_p == 0.0

    def sup_norm(self):
        if self.is_constant:
            return abs(self.u_inf)
        if self.u_p <= 0:
            return float("inf")
        return max(abs(self.u_inf), abs(self.u_inf * self.u_z) / self.u_p)

    def __call__(self, s):
        if self.is_constant:
            return self.u_inf * np.ones_like(np.asarray(s, dtype=complex))
        return self.u_inf * (self.u_z + np.asarray(s)) / (self.u_p + np.asarray(s))


class Controller:
    """Suboptimal controller C = E m_d N_o^{-1} F L_U / (1 + m_n F L_U)."""

    def __init__(self, plant: DelayPlant, ctx: SynthesisContext, u):
        self.plant = plant
        self.ctx = ctx
        self.u = u  # callable s-array -> complex array (UParam or finite.FiniteU)
        self._L1t, self._L2t = ctx.L1.mirror(), ctx.L2.mirror()   # L1~, L2~

    def _lu(self, s):
        s = np.asarray(s, dtype=complex)
        uv = self.u(s)
        num = self.ctx.L2(s) + self._L1t(s) * uv
        den = self.ctx.L1(s) + self._L2t(s) * uv
        return num, den

    def L_U(self, s):
        num, den = self._lu(s)
        return num / den

    def loop_gain(self, s):
        """e^{-hs} M F L_U, whose magnitude bounds the scan window."""
        return self.plant.mn(s) * self.ctx.F(s) * self.L_U(s)

    def loop_denominator(self, s):
        """1 + m_n F L_U, cleared of the L_U denominator's zeros: returns
        (L1 + L2~ U) + m_n F (L2 + L1~ U), whose RHP zeros are the controller
        poles.  Only the infinite search checks that the L_U denominator is
        stable (`infinite._l1u_hurwitz`); `certify` does not."""
        s = np.asarray(s, dtype=complex)
        num, den = self._lu(s)
        return den + self.plant.mn(s) * self.ctx.F(s) * num

    def sensitivity_pair(self, omegas):
        """(S, T) on the imaginary axis via the internally cancelled forms."""
        s = 1j * np.asarray(omegas, dtype=float)
        x = self.loop_gain(s)
        Ev = self.ctx.E(s)
        D = 1.0 + x * (1.0 + Ev)
        small = np.abs(D) < 1e-10
        if np.any(small):
            w = np.asarray(omegas)[small][0]
            raise ClosedLoopSingular(
                f"closed-loop denominator nearly singular at omega={w:g}; "
                "the loop is unstable or marginal"
            )
        return (1.0 + x) / D, Ev * x / D


def verify_performance(controller: Controller, weights: WeightPair, grid: FrequencyGrid):
    """Sup of sqrt(|W1 S|^2 + |W2 T|^2) by `grid_sup` and the level check.

    The sup is the grid maximum, refined only in the bracket of its argmax's
    two neighbours: a peak between other grid frequencies is not seen.  A
    stack that is not finite on the grid fails the check with norm inf.
    """
    def stack(s):
        S, T = controller.sensitivity_pair(s.imag)
        w2 = 0.0 if weights.W2.is_zero else weights.W2(s)
        return np.sqrt(np.abs(weights.W1(s) * S) ** 2 + np.abs(w2 * T) ** 2)

    om = grid.omegas()
    norm = float(grid_sup(lambda k0, k1: stack(1j * om)[None],
                          lambda w, k: stack(1j * w.ravel()).reshape(w.shape), 1, om)[0])
    if np.isnan(norm):
        return float("inf"), False
    return norm, norm <= controller.ctx.level * (1.0 + NORM_SLACK)
