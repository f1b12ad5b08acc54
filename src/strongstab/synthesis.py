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
    grid_sup,
    or_raise,
    poly_from_roots,
    poly_roots,
    reduced_from_roots,
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
    "beta_zeros",
    "interpolation_rows",
    "solve_interpolation",
    "LevelBuilder",
    "build_context",
    "gamma_opt",
    "GammaOptResult",
    "build_controller",
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
# Coarse levels `gamma_opt` factorizes together (`LevelBuilder.prefetch`).
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
# E, G, F
# ---------------------------------------------------------------------------

def _para(W: RationalFn) -> RationalFn:
    """W(-s) W(s), reduced over a common denominator."""
    return RationalFn(W.num * W.num.mirror(), W.den * W.den.mirror())


def _over_level(para: RationalFn, level: float) -> RationalFn:
    """para / level^2 - 1 over the common denominator level^2 para.den."""
    if level <= 0:
        raise ValueError("level must be positive")
    if not math.isfinite(float(level) * float(level)):
        raise FactorizationError(f"level {level:g}: its square is not a finite number")
    den = Poly(para.den.c * level**2)
    return RationalFn(para.num - den, den)


def _ratio(E: RationalFn, level: float, w2para: RationalFn | None) -> RationalFn:
    """R = 1 - (W2(-s)W2(s)/level^2 - 1) E, given E and W2(-s)W2(s) (None for W2 = 0)."""
    if w2para is None:
        return RationalFn(E.num + E.den, E.den)
    VE = _over_level(w2para, level) * E
    return RationalFn(VE.den - VE.num, VE.den)


def build_E(level: float, W1: RationalFn) -> RationalFn:
    """E = W1(-s) W1(s) / level^2 - 1, reduced over a common denominator."""
    return _over_level(_para(W1), level)


def spectral_ratio(level: float, W1: RationalFn, W2: RationalFn) -> RationalFn:
    """R = 1 - (W2(-s)W2(s)/level^2 - 1) E; G G(-s) = 1/R."""
    return _ratio(build_E(level, W1), level, None if W2.is_zero else _para(W2))


def _half_poly(even_poly: Poly):
    """An even polynomial in s as a polynomial in x = s^2: None when that is
    a constant, the exception when `even_poly` is not even."""
    try:
        px = Poly(even_poly.even_part_coeffs())
    except ValueError as exc:
        return exc
    return px if px.degree else None


def _stable_half(rs, what: str):
    """Stable (Re < 0) half of the roots of an even polynomial in s, given
    the roots `rs` of its `_half_poly` in x = s^2.

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


def _result_of(fn, *args):
    """fn(*args), or the exception it raised (returned, not raised)."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _roots_each(items):
    """`poly_roots` of every `Poly` in `items` in one stacked call; None and
    exceptions pass through.  One result (`RootSet` or exception) per item.

    An eigensolver failure of the stack is retried one polynomial at a time,
    so that it stays with the polynomial that caused it.
    """
    polys = [p for p in items if isinstance(p, Poly)]
    try:
        roots = poly_roots(polys) if polys else []
    except np.linalg.LinAlgError:
        roots = []
        for p in polys:
            try:
                roots.append(poly_roots([p])[0])
            except np.linalg.LinAlgError as exc:
                roots.append(exc)
    it = iter(roots)
    return [next(it) if isinstance(p, Poly) else p for p in items]


def spectral_factor(level: float, W1: RationalFn, W2: RationalFn) -> RationalFn:
    """Stable, minimum-phase G with G(s)G(-s) = R(s)^{-1} and G(0) > 0."""
    R = spectral_ratio(level, W1, W2)
    return _factor(R, *_roots_each([_half_poly(R.den), _half_poly(R.num)]))[0]


def _factor(R: RationalFn, rd, rn):
    """(G, zeros, poles): the spectral factor G of 1/R (see `spectral_factor`)
    and the lists of its zeros and poles, given the roots of the `_half_poly`
    of R.den (rd) and of R.num (rn)."""
    zeros = [complex(r) for r in _stable_half(rd, "spectral factor numerator")]
    poles = [complex(r) for r in _stable_half(rn, "spectral factor denominator")]
    G = RationalFn(poly_from_roots(zeros, 1.0), poly_from_roots(poles, 1.0))
    # fix the gain from R at a point away from roots of everything
    for s0 in (0.0, 0.37913):
        try:
            target = 1.0 / R(s0)
            g0 = G(s0)
            break
        except ZeroDivisionError:
            pass
    else:
        # R vanishes identically when level^2 swamps W1(-s)W1(s) in E + 1
        raise FactorizationError("R or G vanishes or has a pole at both gain points")
    c2 = (target / g0**2).real
    if c2 <= 0 or abs((target / g0**2).imag) > 1e-6 * abs(c2):
        raise FactorizationError("factorization produced a non-real gain")
    G = G * float(np.sqrt(c2))
    if G(0.0).real < 0:
        G = G * -1.0
    return G, zeros, poles


def eta_mirror_poles(W1: RationalFn):
    """RHP poles of W1(-s): the mirrored (stable) poles of the weight."""
    if W1.den.degree == 0:
        return []
    return [-r for r in poly_roots(W1.den).expanded()]


def beta_zeros(E: RationalFn):
    """One representative per mirror pair of RHP zeros of E (Im >= 0 on axis)."""
    return _betas(poly_roots(E.num) if E.num.degree else None)


def _betas(rs):
    """`beta_zeros` from the roots `rs` of E.num (None for a constant)."""
    if or_raise(rs) is None:
        return []
    reps = []
    for r in rs.expanded():
        if r.real > 1e-9 * (1 + abs(r)):
            reps.append(r)
        elif abs(r.real) <= 1e-9 * (1 + abs(r)) and r.imag > 0:
            reps.append(complex(0.0, r.imag))
    return reps


def _complete(R: RationalFn, rd, rn, etas):
    """(F, G): the spectral factor G of 1/R (see `_factor`) and its all-pass
    completion F = G prod (s - eta)/(s + eta), both negated when needed so
    that F(0) > 0.

    F is built from root lists, G's zeros and the etas over G's poles and
    the -etas, with the common roots cancelled (`reduced_from_roots`): G's
    zeros hold W1's poles, which are the -etas.
    """
    G, zeros, poles = _factor(R, rd, rn)
    F = G
    if etas:
        F = reduced_from_roots(zeros + etas, poles + [-e for e in etas], G.num.c[-1])
    if F(0.0).real < 0:
        F = F * -1.0
        G = G * -1.0
    return F, G


def build_F(level: float, W1: RationalFn, W2: RationalFn):
    """(F, etas, G): F = G * prod (s - eta)/(s + eta), oriented so F(0) > 0."""
    etas = eta_mirror_poles(W1)
    R = spectral_ratio(level, W1, W2)
    F, G = _complete(R, *_roots_each([_half_poly(R.den), _half_poly(R.num)]), etas)
    return F, etas, G


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


def interpolation_rows(plant: DelayPlant, F: RationalFn, E: RationalFn,
                       degree: int, extra_a: float | None, betas, alphas):
    """Real matrix of the homogeneous interpolation conditions.

    The conditions sit at `betas` (the E zeros of `beta_zeros(E)`) and
    `alphas` (the plant poles, already checked for repeats).  Unknown vector:
    [L1 coefficients (ascending), L2 coefficients], each of length degree+1.
    Complex conditions contribute their real and imaginary parts as separate
    rows; redundant conjugate rows are harmless since the solve goes through
    an SVD.
    """
    _reject_repeated(betas, "E zeros")
    n = degree + 1
    rows = []

    def add_complex_row(cl1, cl2):
        row = np.concatenate([cl1, cl2])
        rows.append(row.real)
        if np.abs(row.imag).max() > 0:
            rows.append(row.imag)

    def powvec(s):
        return np.array([s**k for k in range(n)], dtype=complex)

    for pt in betas + alphas:
        w = plant.mn(pt) * F(pt)
        add_complex_row(powvec(pt), w * powvec(pt))           # L1(p) + w L2(p) = 0
        add_complex_row(w * powvec(-pt), powvec(-pt))         # L2(-p) + w L1(-p) = 0

    if extra_a is not None:
        a = float(extra_a)
        Ep1 = RationalFn(E.num + E.den, E.den)
        N = ((Ep1 * F).reduced())(a) * plant.mn(a)
        if abs(N.imag) > 1e-9 * (1 + abs(N)):
            raise InterpolationError("extra condition evaluated to a non-real value")
        add_complex_row(N.real * powvec(-a), powvec(-a))      # L2(-a) + N L1(-a) = 0

    if not rows:
        raise InterpolationError("no interpolation conditions: degenerate problem")
    return np.array(rows)


def _nullvector(A):
    # scale the whole system by its largest row so sigma_min is dimensionless;
    # per-row normalization would hide rows that vanish at the singular level
    scale = np.linalg.norm(A, axis=1).max()
    An = A / (scale if scale > 0 else 1.0)
    _, svals, vt = np.linalg.svd(An)
    ncols = A.shape[1]
    smin = float(svals[ncols - 1]) if A.shape[0] >= ncols else 0.0
    return smin, vt[-1]


def solve_interpolation(plant, F, E, degree, extra_a, betas, alphas):
    """(L1, L2, sigma_min, residual) with L1 normalized monic."""
    A = interpolation_rows(plant, F, E, degree, extra_a, betas, alphas)
    smin, v = _nullvector(A)
    n = degree + 1
    l1c, l2c = v[:n], v[n:]
    if abs(l1c[-1]) < 1e-10 * np.abs(v).max():
        raise InterpolationError(
            "interpolation null vector has a degenerate leading L1 coefficient"
        )
    l2c = l2c / l1c[-1]
    l1c = l1c / l1c[-1]
    L1, L2 = Poly(l1c), Poly(l2c)
    resid = float(np.abs(A @ np.concatenate([L1_pad(L1, n), L1_pad(L2, n)])).max())
    scale = float(np.abs(A).max() * max(np.abs(l1c).max(), np.abs(l2c).max()))
    rel = resid / max(scale, 1e-300)
    if extra_a is not None and abs(L1(-float(extra_a))) < 1e-9 * (1 + np.abs(l1c).max()):
        raise InterpolationError("side constraint L1(-a) != 0 violated")
    return L1, L2, smin, rel


def L1_pad(p: Poly, n):
    out = np.zeros(n)
    out[: len(p.c)] = p.c
    return out


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
    `prefetch(levels)` builds a list of levels with one stacked `poly_roots`
    call for all of them, over the even parts of R.den and R.num (in
    x = s^2) and E.num; F then follows from root lists already known
    (`_complete`).  Each level's result, or the exception its build raised,
    is kept until `at` consumes it, and `at` on a level that was not
    prefetched prefetches it alone.  An exception is thus raised only when
    its level is consumed, and within a level in the order a one-level build
    meets it.  `gamma_opt` and `build_context` both go through it.
    """

    def __init__(self, plant: DelayPlant, weights: WeightPair):
        self.plant = plant
        self.w1para = _para(weights.W1)
        self.w2para = None if weights.W2.is_zero else _para(weights.W2)
        self.etas = eta_mirror_poles(weights.W1)
        self.alphas = plant.alpha_roots()
        _reject_repeated(self.alphas, "plant poles")
        self._built = {}

    def _ratios(self, level):
        """(E, R, the items whose roots the level needs; see `_roots_each`)."""
        E = _over_level(self.w1para, level)
        R = _ratio(E, level, self.w2para)
        return E, R, [_half_poly(R.den), _half_poly(R.num), E.num if E.num.degree else None]

    def _finish(self, E, R, rd, rn, re):
        F, _ = _complete(R, rd, rn, self.etas)
        return E, R, F, _betas(re)

    def prefetch(self, levels):
        """Build `levels` together and keep their results for `at`."""
        parts = [_result_of(self._ratios, g) for g in levels]
        roots = iter(_roots_each([p for q in parts if not isinstance(q, Exception)
                                  for p in q[2]]))
        for g, q in zip(levels, parts):
            if not isinstance(q, Exception):
                E, R, items = q
                q = _result_of(self._finish, E, R, *[next(roots) for _ in items])
            self._built[g] = q

    def at(self, level: float):
        """(E, R, F, betas) at `level`; see `build_E`, `spectral_ratio`, `build_F`."""
        if level not in self._built:
            self.prefetch([level])
        return or_raise(self._built.pop(level))

    def optimal_sigma_min(self, level: float):
        """(sigma_min, null vector, degree) of the optimal homogeneous system."""
        E, _, F, betas = self.at(level)
        degree = len(betas) + len(self.alphas) - 1
        if degree < 0:
            raise InterpolationError("no interpolation conditions at this level")
        smin, v = _nullvector(
            interpolation_rows(self.plant, F, E, degree, None, betas, self.alphas)
        )
        return smin, v, degree


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
    are factorized top-down in blocks of `GAMMA_BLOCK` (`LevelBuilder.prefetch`)
    but consumed one at a time, so a failure below the returned dip is never
    seen.  `diagnostics["dips"]` counts the dips refined; `infeasible_points`
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

    def validate(self):
        if self.is_constant:
            if abs(self.u_inf) > 1.0 + 1e-12:
                raise ValueError("constant U must satisfy |u_inf| <= 1")
            return self
        if self.u_p <= 0:
            raise ValueError("first-order U needs u_p > 0")
        if self.sup_norm() > 1.0 + 1e-12:
            raise ValueError("first-order U must satisfy ||U||_inf <= 1")
        return self

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

    def _lu(self, s):
        s = np.asarray(s, dtype=complex)
        uv = self.u(s)
        L1, L2 = self.ctx.L1, self.ctx.L2
        num = L2(s) + L1.mirror()(s) * uv
        den = L1(s) + L2.mirror()(s) * uv
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


def build_controller(plant, ctx: SynthesisContext, u) -> Controller:
    if isinstance(u, UParam):
        u.validate()
    return Controller(plant, ctx, u)


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
