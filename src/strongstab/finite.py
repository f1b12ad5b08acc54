"""Strong stabilization through a logarithmic Nevanlinna-Pick problem.

When F is strictly proper the controller's unstable poles are the finitely
many right-half-plane zeros of P1 + P2 U.  Those zeros are relocated by the
choice of U: the problem converts to interpolating a positive-real-part disk
function g at the images of P2's unstable zeros, with the logarithm's branch
freedom carried by explicit integers, a feasibility level mu bounded below by
the Pick matrix, and a residual Schur-class parameter searched until the
resulting U fits inside the unit ball.

`FiniteU` is that U for one constant residual parameter q or an array of
them; `UAtPoints` holds its q-independent parts at fixed points, among them
the chart as one Mobius map of q per point, so many q share them;
`certify_u_norm` is the one grid certificate of ||U||, one norm per
constant, taken by `rational.grid_sup` like the closed-loop norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Options
from .rational import FrequencyGrid, Poly, RationalFn, blaschke, grid_peaks, grid_sup, poly_roots
from .stability import Certificate, certify, rhp_zero_scan
from .synthesis import CertificateContradiction, SynthesisContext, UParam

__all__ = [
    "P1P2",
    "PickProblem",
    "NPInterpolant",
    "FinSearchResult",
    "FiniteSearchError",
    "build_p1p2",
    "p1p2_quasipolys",
    "pick_points",
    "pick_matrix",
    "pick_min_eig",
    "pick_thresholds",
    "mu_opt_search",
    "np_interpolant",
    "UAtPoints",
    "FiniteU",
    "certify_u_norm",
    "fig5_lattice",
    "stabilize_finite",
    "U_NORM_TOL",
]


class FiniteSearchError(RuntimeError):
    pass


# A candidate U is inside the unit ball when its grid norm is at most
# 1 + U_NORM_TOL.
U_NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# P1 / P2
# ---------------------------------------------------------------------------

@dataclass
class QuasiPoly:
    """A(s) + B(s) e^{-hs}; the numerator form of P1 and P2."""

    A: Poly
    B: Poly
    h: float

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        return self.A(s) + self.B(s) * np.exp(-self.h * s)

    @property
    def delay_dominated(self):
        """deg A > deg B, the precondition of `scan_window`."""
        return self.A.degree > self.B.degree

    def _tail_radius(self):
        """R with |B(s)/A(s)| < 0.9 whenever |s| >= R, from coefficient bounds."""
        a, b = self.A.c, self.B.c
        n, m = len(a) - 1, len(b) - 1
        R = 1.0 + max(np.abs(a).max(), np.abs(b).max()) / abs(a[-1])
        for _ in range(200):
            lower_a = abs(a[-1]) * R**n - sum(abs(a[i]) * R**i for i in range(n))
            upper_b = sum(abs(b[i]) * R**i for i in range(m + 1))
            if lower_a > 0 and upper_b < 0.9 * lower_a:
                return R
            R *= 1.5
        raise FiniteSearchError("could not bound the quasipolynomial tail")

    def scan_window(self):
        """Rectangle guaranteed to hold every RHP zero.

        Requires deg A > deg B (F strictly proper).  Zeros satisfy
        |B/A| e^{-h sigma} = 1, so none exist where that product is < 1:
        outside |s| >= R the coefficient tail bound applies for every sigma;
        to the right of a line beyond all RHP zeros of A, B/A is analytic and
        its half-plane supremum sits on the line (it decays at infinity), so a
        verified sub-unity line maximum rules out everything beyond it.
        """
        if not self.delay_dominated:
            raise FiniteSearchError("quasipolynomial is not delay-dominated")
        R = self._tail_radius()
        sig0 = 0.0
        if self.A.degree > 0:
            sig0 = max(
                [0.0] + [r.real for r in poly_roots(self.A).expanded()]
            ) + 0.25
        om = np.concatenate([np.linspace(0.0, R, 4000), [R * 1.0001]])
        sigma_max = None
        for sig in (sig0, sig0 + 0.5, sig0 + 1.0, sig0 + 2.0, sig0 + 4.0,
                    sig0 + 8.0, sig0 + 16.0):
            s = sig + 1j * om
            ratio = np.abs(self.B(s) / self.A(s)) * np.exp(-self.h * sig)
            if ratio.max() < 0.95:
                sigma_max = max(sig, 0.5)
                break
        if sigma_max is None:
            raise FiniteSearchError("could not bound the zero region in sigma")
        return float(sigma_max), float(max(R, 5.0))

    def rhp_zeros(self, excluded):
        sig_max, om_bound = self.scan_window()
        return rhp_zero_scan(self, sig_max, om_bound, excluded=excluded).zeros


@dataclass
class P1P2:
    p1: QuasiPoly
    p2: QuasiPoly
    p_roots: list               # RHP zeros of P1
    s_roots: list               # all RHP zeros of P2
    M_tilde_d: RationalFn
    node_roots: list        # P2 zeros used as interpolation nodes
    artifact_roots: list    # parameterization artifacts near interp_a

    def ratio(self, s):
        """(P1/P2)(s); the common denominators cancel exactly."""
        return self.p1(s) / self.p2(s)


def p1p2_quasipolys(plant, ctx: SynthesisContext):
    """(P1num, P2num): P1num = L1 dF dM + L2 nF nM e^{-hs}, and P2num is its
    mirror-image combination L2~ dF dM + L1~ nF nM e^{-hs}."""
    L1, L2 = ctx.L1, ctx.L2
    nF, dF = ctx.F.num, ctx.F.den
    nM, dM = plant.M.num, plant.M.den
    return (QuasiPoly(L1 * dF * dM, L2 * nF * nM, plant.h),
            QuasiPoly(L2.mirror() * dF * dM, L1.mirror() * nF * nM, plant.h))


def build_p1p2(plant, ctx: SynthesisContext) -> P1P2:
    """Numerator quasipolynomials of P1, P2 (`p1p2_quasipolys`) and their
    right-half-plane zeros.

    The interpolation conditions make both vanish at the RHP zeros of E and
    of m_d, so those points are passed to the scanner as expected
    cancellations.
    """
    q1, q2 = p1p2_quasipolys(plant, ctx)
    excluded = ctx.excluded_zeros()
    p_roots = q1.rhp_zeros(excluded)
    s_roots = q2.rhp_zeros(excluded)
    Mtd = blaschke(p_roots) if p_roots else RationalFn.one()

    # The extra interpolation condition pins L2(-interp_a) up to an e^{-h a}
    # remainder, which plants a P2 zero within O(e^{-h a}) of interp_a.  At
    # such a zero P1 + P2 U equals P1 != 0 for any U value, so it can never
    # become a closed-loop pole and is excluded from the node set (the final
    # certification scan independently guards this classification).
    nodes, artifacts = [], []
    ai = ctx.interp_a
    for r in s_roots:
        near_a = ai is not None and abs(r - ai) < 0.05 * (1.0 + abs(ai))
        if near_a and abs(q1(r)) > 1e-6 * (q1.A.scale_at(r) + q1.B.scale_at(r)):
            artifacts.append(r)
        else:
            nodes.append(r)
    return P1P2(
        p1=q1, p2=q2, p_roots=p_roots, s_roots=s_roots,
        M_tilde_d=Mtd, node_roots=nodes, artifact_roots=artifacts,
    )


# ---------------------------------------------------------------------------
# Pick problem
# ---------------------------------------------------------------------------

@dataclass
class PickProblem:
    z: np.ndarray           # disk points, conjugate-closed, Im>0 first
    w: np.ndarray           # 1 / M_tilde_d(s_i)
    n: tuple                # branch integers
    mu: float

    def targets(self):
        return -np.log(self.w / self.mu) - 1j * 2 * np.pi * np.asarray(self.n)


def pick_points(p1p2: P1P2, a: float):
    """Disk images z_i = (s_i - a)/(s_i + a) and targets w_i = 1/M_tilde_d(s_i)."""
    if not p1p2.node_roots:
        raise FiniteSearchError("P2 has no right-half-plane zeros to interpolate")
    if a <= 0:
        raise ValueError("conformal parameter a must be positive")
    s = np.array(sorted(p1p2.node_roots, key=lambda r: (-r.imag, r.real)), dtype=complex)
    for si in s:
        for pi in p1p2.p_roots:
            if abs(si - pi) < 1e-9 * (1 + abs(si)):
                raise FiniteSearchError(
                    f"degenerate data: P1 and P2 share the zero {si:.6g}"
                )
    z = (s - a) / (s + a)
    w = 1.0 / p1p2.M_tilde_d(s)
    return z, w


def pick_matrix(pp: PickProblem) -> np.ndarray:
    """The Pick matrix of `pp`; a stack of them when pp.n is a 2-D array of
    branch-integer tuples, one row per tuple."""
    if np.any(pp.w == 0):
        raise FiniteSearchError("w_i = 0 makes the logarithmic data singular")
    b = pp.targets()
    z = np.asarray(pp.z)
    return (b[..., :, None] + np.conj(b)[..., None, :]) / (1.0 - z[:, None] * np.conj(z))


def pick_min_eig(pp: PickProblem) -> float:
    return float(np.linalg.eigvalsh(pick_matrix(pp)).min())


def _classify_points(z):
    """Indices of conjugate pairs and of real points in the node list."""
    z = np.asarray(z)
    used = np.zeros(len(z), dtype=bool)
    pairs, reals = [], []
    for i in range(len(z)):
        if used[i]:
            continue
        if abs(z[i].imag) < 1e-12 * (1 + abs(z[i])):
            reals.append(i)
            used[i] = True
            continue
        partner = None
        for j in range(i + 1, len(z)):
            if not used[j] and abs(z[j] - np.conj(z[i])) < 1e-9 * (1 + abs(z[i])):
                partner = j
                break
        if partner is None:
            raise FiniteSearchError("interpolation nodes not conjugate-closed")
        pairs.append((i, partner))
        used[i] = used[partner] = True
    return pairs, reals


def _design_tuples(z, bound):
    """Branch-integer tuples compatible with a real-coefficient design.

    A conjugate node pair carries opposite integers (n, -n); real nodes carry
    zero (their targets must stay real).
    """
    from itertools import product

    pairs, _ = _classify_points(z)
    if len(pairs) == 0:
        return [tuple([0] * len(z))]
    if len(pairs) > 2:
        bound = min(bound, 3)  # keep the product enumeration tractable
    tuples = []
    for combo in product(range(-bound, bound + 1), repeat=len(pairs)):
        n = [0] * len(z)
        for (i, j), nv in zip(pairs, combo):
            n[i], n[j] = nv, -nv
        tuples.append(tuple(n))
    return tuples


def fig3_tuples(z, bound):
    """(0, n2, 0, ...) feasibility tuples sweeping the second node's integer."""
    npts = len(np.asarray(z))
    return [tuple(n2 if i == 1 else 0 for i in range(npts)) for n2 in range(-bound, bound + 1)]


# Tuples per stacked eigenvalue call in pick_thresholds: bounds the memory of
# large tuple sets (three node pairs at integer bound 3 give 343 design tuples).
_TUPLE_CHUNK = 1 << 8


def pick_thresholds(z, w, tuples):
    """Smallest mu making the Pick matrix PSD, for each branch-integer tuple.

    The targets depend on mu only through log mu, so the Pick matrix is
    Q0 + 2 log(mu) K with Q0 its value at mu = 1 and K the positive definite
    Szego kernel 1/(1 - z_i conj(z_k)) of the nodes.  With K = L L^H, each
    tuple's threshold is mu_min = exp(-lambda_min(L^-1 Q0 L^-H) / 2) in closed
    form.  The tuples are stacked, at most _TUPLE_CHUNK matrices per
    eigenvalue call.
    """
    z = np.asarray(z)
    try:
        L = np.linalg.cholesky(1.0 / (1.0 - z[:, None] * np.conj(z)))
    except np.linalg.LinAlgError:
        raise FiniteSearchError(
            "interpolation nodes are not distinct points of the open unit disk"
        ) from None
    Linv = np.linalg.inv(L)
    ns = np.asarray(tuples)
    lam = np.concatenate([
        np.linalg.eigvalsh(
            Linv @ pick_matrix(PickProblem(z=z, w=w, n=chunk, mu=1.0)) @ Linv.conj().T
        )[:, 0]
        for chunk in np.split(ns, range(_TUPLE_CHUNK, len(ns), _TUPLE_CHUNK))
    ])
    return np.exp(-lam / 2).tolist()


def mu_opt_search(z, w, integer_bound: int):
    """(mu_opt, best_tuple, table): the least `pick_thresholds` value over the
    design tuples, ties to the first; table holds every (tuple, mu_min)."""
    tuples = _design_tuples(z, integer_bound)
    table = list(zip(tuples, pick_thresholds(z, w, tuples)))
    best_tuple, mu_opt = min(table, key=lambda row: row[1])
    return mu_opt, best_tuple, table


# ---------------------------------------------------------------------------
# Nevanlinna-Pick interpolant
# ---------------------------------------------------------------------------

def _blaschke_disk(z, z0):
    return (z - z0) / (1.0 - np.conj(z0) * z)


@dataclass
class NPInterpolant:
    """Chart g(z, q) of positive-real-part interpolants on the disk.

    Built by the Schur reduction of the Cayley-transformed data, then
    conjugate-symmetrized so that real parameters q give real-coefficient
    (conjugate-symmetric) interpolants.  When the Pick matrix is singular at
    the working level, the interpolant is unique and q is ignored.
    """

    sigmas: list
    points_used: list
    unique: bool

    def factors(self, zz):
        """The chart at zz and at conj(zz) as Mobius maps t -> (A t + B)/(C t + D):
        the Cayley matrix [[-1, 1], [1, 1]] times each free Schur stage's
        [[b, sigma], [conj(sigma) b, 1]] (b its Blaschke factor), outermost first."""
        zz = np.asarray(zz, dtype=complex)
        # a unique interpolant ends in a unimodular constant instead of q
        free = len(self.sigmas) - self.unique
        stages = list(zip(self.points_used[:free], self.sigmas[:free]))

        def at(x):
            A, B, C, D = -1.0, 1.0, 1.0, 1.0
            for z0, sig in stages:
                b, sc = _blaschke_disk(x, z0), np.conj(sig)
                A, B, C, D = b * (A + B * sc), A * sig + B, b * (C + D * sc), C * sig + D
            return [np.broadcast_to(c, x.shape) for c in (A, B, C, D)]

        return at(zz), at(np.conj(zz))

    def recurse(self, fac, q):
        """g at the points of `fac` (from `factors`) for the free parameter q.

        `q` is a real constant, an array of constants (one per point) or a
        column of constants q[:, None] (one row of g per constant, every row
        taking the same elementwise operations as that constant alone).  The
        maps take t = q, or the unimodular constant ending a unique chart in
        q's shape.  Conjugate symmetry g(conj z) = conj g(z) is enforced by
        averaging the raw chart with its reflected copy.
        """
        fa, fb = fac
        t = np.asarray(q, dtype=complex)
        if self.unique:
            t = np.full(t.shape, self.sigmas[-1])

        def mobius(A, B, C, D):
            return (A * t + B) / (C * t + D)

        return 0.5 * (mobius(*fa) + np.conj(mobius(*fb)))

    def g(self, zz, q):
        """Evaluate g at zz (array ok) for the free parameter q (see `recurse`)."""
        return self.recurse(self.factors(zz), q)


def np_interpolant(pp: PickProblem) -> NPInterpolant:
    b = pp.targets()
    if np.any(b.real < -1e-12):
        raise FiniteSearchError("targets have negative real part: mu below |w_i|")
    z = np.asarray(pp.z, dtype=complex)
    # Schur data: sigma = (1-b)/(1+b) in the open unit disk
    cur_pts = list(z)
    cur_vals = list((1.0 - b) / (1.0 + b))
    sigmas, points_used, unique = [], [], False
    while cur_pts:
        z0, s0 = cur_pts[0], cur_vals[0]
        points_used.append(z0)
        if abs(s0) >= 1.0 - 1e-9:
            if abs(s0) > 1.0 + 1e-9:
                raise FiniteSearchError("interpolation data left the Schur class")
            # boundary value: the interpolant is unique (Pick singular)
            sigmas.append(complex(s0 / abs(s0)))
            unique = True
            break
        sigmas.append(complex(s0))
        cur_vals = [(vv - s0) / (_blaschke_disk(zz, z0) * (1.0 - np.conj(s0) * vv))
                    for zz, vv in zip(cur_pts[1:], cur_vals[1:])]
        cur_pts = cur_pts[1:]
    interp = NPInterpolant(sigmas=sigmas, points_used=points_used, unique=unique)
    resid = np.abs(interp.g(z, 0.0) - b)
    if resid.max() > 1e-7 * (1 + np.abs(b).max()):
        raise FiniteSearchError(f"interpolation residual too large: {resid.max():.3e}")
    return interp


# ---------------------------------------------------------------------------
# U construction and certification
# ---------------------------------------------------------------------------

class UAtPoints:
    """The q-independent parts of U at fixed points s: P1/P2, mu M~_d(s) and
    the interpolant's Mobius coefficients at (s-a)/(s+a).  Calling it with q
    (see `NPInterpolant.recurse`) gives U(s)."""

    def __init__(self, p1p2: P1P2, interp: NPInterpolant, mu, a, s):
        s = np.asarray(s, dtype=complex)
        self.interp = interp
        self.size = s.size
        self.fac = interp.factors((s - a) / (s + a))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.den = mu * p1p2.M_tilde_d(s)
            self.ratio = p1p2.ratio(s)

    def inv_SU(self, q):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.exp(self.interp.recurse(self.fac, q)) / self.den

    def __call__(self, q):
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.inv_SU(q) - 1.0) * self.ratio


@dataclass(frozen=True, eq=False)
class FiniteU:
    """U(s) = (e^{G(s)}/(mu M~_d(s)) - 1) (P1/P2)(s) with G = g((s-a)/(s+a), q).

    `q` is one real constant or a 1-D array of them: `certify_u_norm` gives
    one norm per constant, and calling U(s) takes one constant.
    """

    p1p2: P1P2
    interp: NPInterpolant
    mu: float
    q: float | np.ndarray
    a: float

    def at(self, s):
        return UAtPoints(self.p1p2, self.interp, self.mu, self.a, s)

    def __call__(self, s):
        return self.at(s)(self.q)


def certify_u_norm(U: FiniteU, grid: FrequencyGrid):
    """Grid-certified sup of |U(jw)| for each constant of U.q: an array for
    an array of constants, a float for one.

    `grid_sup` takes the sup on the grid, all constants in lock-step, each
    refined only in the bracket of its grid argmax's two neighbours (a peak
    or pole between other grid frequencies is not seen); each is then raised
    to the omega -> infinity limit of |U| where that is larger (np.fmax: a
    NaN limit keeps the grid value).  A constant at which U is not finite
    somewhere on the grid reads NaN.
    """
    om = grid.omegas()
    qs = np.atleast_1d(np.asarray(U.q, dtype=float))
    u = U.at(1j * om)

    def point(w, k):    # w: (len(k), m), m frequencies for each constant qs[k]
        return U.at(1j * w.ravel())(np.repeat(qs[k], w.shape[1])).reshape(w.shape)

    sup = grid_sup(lambda k0, k1: u(qs[k0:k1, None]), point, len(qs), om)
    # z -> 1, M~_d -> 1, P1/P2 -> ratio of leading coefficients
    lead = U.p1p2.p1.A.c[-1] / U.p1p2.p2.A.c[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g1 = U.interp.g(np.array([1.0 - 1e-12 + 0j]), qs[:, None])[:, 0]
        tail = np.abs((np.exp(g1) / U.mu - 1.0) * lead)
    norms = np.where(np.isnan(sup), np.nan, np.fmax(sup, tail))
    return norms if np.ndim(U.q) else float(norms[0])


def _grid_peaks(u: UAtPoints, qs):
    """`grid_peaks` of |U| over u's points, one row per constant q in qs."""
    qs = np.asarray(qs, dtype=float)
    return grid_peaks(lambda k0, k1: u(qs[k0:k1, None]), len(qs), u.size)


def _sampled_peaks(p1p2, interp, mu, qs, a, om, thr):
    """Largest |U| sampled on part of om for each constant in qs (inf where
    U is not finite at a sampled point), a lower bound on its grid sup: every
    q at the witnesses, the om[::10] argmax points of the pilots qs[::50]
    whose om[::10] sup exceeds thr; then the q still at most thr on om[::10]."""
    sub = om[::10]
    u_sub = UAtPoints(p1p2, interp, mu, a, 1j * sub)
    at, peak = _grid_peaks(u_sub, qs[::50])
    # sorted(set(...)), not np.unique: the first np.unique call keeps ~1 MB
    witness = sub[sorted(set(at[(at >= 0) & (peak > thr)].tolist()))]
    low = np.zeros(len(qs))
    if witness.size:
        low = _grid_peaks(UAtPoints(p1p2, interp, mu, a, 1j * witness), qs)[1]
    alive = np.flatnonzero(low <= thr)
    low[alive] = _grid_peaks(u_sub, qs[alive])[1]
    return low


def _q_candidates(p1p2, interp, mu, q_grid, a, om):
    """Indices of the q values whose grid sup of |U| over om is at most
    1 + U_NORM_TOL, in increasing order of that sup (ties by index), yielded
    lazily: the search stops at the first accepted candidate.

    A q whose `_sampled_peaks` bound (at most its sup) is above the threshold
    is dropped, and the survivors go to the full grid best first: the live q
    of smallest (bound, index) is yielded if its bound is its full-grid sup,
    and otherwise evaluated on the full grid alone.  The argmax of that
    evaluation is one more witness: every other survivor not yet on the full
    grid is evaluated there, its bound raised to the value, and dropped if
    that is above the threshold.  A yielded q's sup is at most every live
    bound, hence at most every live q's sup.
    """
    thr = 1.0 + U_NORM_TOL
    q_grid = np.asarray(q_grid)
    bound = _sampled_peaks(p1p2, interp, mu, q_grid, a, om, thr)
    alive = np.flatnonzero(bound <= thr)
    bound = bound[alive]
    exact = np.zeros(len(alive), dtype=bool)
    u_full = None
    while alive.size:
        # alive stays in increasing order, so the first minimum has the least index
        k = int(np.argmin(bound))
        if exact[k]:
            yield int(alive[k])
            bound[k] = np.inf   # taken: the filter below drops it
        else:
            if u_full is None:
                u_full = UAtPoints(p1p2, interp, mu, a, 1j * om)
            i, full = _grid_peaks(u_full, q_grid[alive[k:k + 1]])
            bound[k], exact[k] = full[0], True
            rest = ~exact
            if i[0] >= 0 and rest.any():
                u_wit = UAtPoints(p1p2, interp, mu, a, 1j * om[i])
                bound[rest] = np.fmax(bound[rest], _grid_peaks(u_wit, q_grid[alive[rest]])[1])
        keep = bound <= thr
        alive, bound, exact = alive[keep], bound[keep], exact[keep]


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

@dataclass
class FinSearchResult:
    mu: float
    integers: tuple
    q: float
    U: FiniteU | None
    U_norm: float
    cert: Certificate
    p1p2: P1P2
    mu_opt: float           # the Pick optimum of the level
    central: bool = False


def _default_mu_schedule(mu_opt):
    return [mu_opt * f for f in (1.02, 1.05, 1.1, 1.2, 1.5, 2.0)]


def fig5_lattice(p1p2: P1P2, z, w, mu_opt, integers, a: float, grid: FrequencyGrid):
    """(mu, Q, ||U||, ||U|| <= 1) over the default mu steps above mu_opt and
    constant Q in [-1, 1] at step 0.02; steps without an interpolant are left
    out.  A Q that `_sampled_peaks` puts above 1 reads that sampled |U|, a
    lower bound on its grid sup; any other Q reads `certify_u_norm`, and is
    left out where that is NaN (U not finite on the grid)."""
    qs = np.linspace(-1.0, 1.0, 101)
    rows = []
    for mu in _default_mu_schedule(mu_opt):
        try:
            interp = np_interpolant(PickProblem(z=z, w=w, n=integers, mu=mu))
        except FiniteSearchError:
            continue
        norms = _sampled_peaks(p1p2, interp, mu, qs, a, grid.omegas(), 1.0)
        rest = ~(np.isfinite(norms) & (norms > 1.0))
        norms[rest] = certify_u_norm(FiniteU(p1p2, interp, mu, qs[rest], a), grid)
        keep = ~np.isnan(norms)
        rows += [(mu, qv, un, un <= 1.0)
                 for qv, un in zip(qs[keep].tolist(), norms[keep].tolist())]
    return rows


def _accepted(plant, weights, ctx, U: FiniteU, grid):
    """(||U||, certificate) of a candidate, or None when ||U|| > 1 on the grid.

    A candidate inside the unit ball must pass the independent certification:
    when it does not, the norm condition and the certificate disagree, and
    CertificateContradiction is raised rather than trying the next candidate.
    """
    un = certify_u_norm(U, grid)
    if not un <= 1.0 + U_NORM_TOL:
        return None
    cert = certify(plant, weights, ctx, U, grid=grid)
    if not (cert.stable and cert.norm_ok):
        raise CertificateContradiction(
            "the free-parameter norm condition held but the "
            f"independent certification failed (mu={U.mu:.6g}, "
            f"q={U.q:.4g}, residual zeros={len(cert.scan.zeros)}, "
            f"norm ok={cert.norm_ok})"
        )
    return un, cert


def stabilize_finite(plant, weights, ctx: SynthesisContext, opts: Options) -> FinSearchResult:
    """Escalating search at level ctx.level: mu above the Pick optimum, then
    the residual parameter Q, certifying the first design whose U fits the
    unit ball; the accepted controller is re-certified by an independent scan
    and a closed-loop norm check."""
    grid, a = opts.grid, opts.a
    last_exc = None
    p1p2 = build_p1p2(plant, ctx)
    if not p1p2.p_roots:
        cert = certify(plant, weights, ctx, UParam(0.0), grid=grid)
        if not (cert.stable and cert.norm_ok):
            raise FiniteSearchError(
                "central controller expected stable but certification failed"
            )
        # No P1 zeros: M~_d = 1, so every w_i = 1.  The zero tuple's Pick
        # matrix is 2 log(mu) K, PSD exactly for mu >= 1; any other design
        # tuple's Q0 = -2 pi i (D K - K D), D = diag(n), is nonzero Hermitian
        # with tr(L^-1 Q0 L^-H) = tr(Q0 K^-1) = 0, so it has a negative
        # eigenvalue and mu_min > 1.  Hence mu_opt = 1, at the zero tuple.
        return FinSearchResult(
            mu=np.nan, integers=(), q=0.0, U=None, U_norm=0.0, cert=cert,
            p1p2=p1p2, mu_opt=1.0, central=True,
        )
    z, w = pick_points(p1p2, a)
    mu_opt, best_tuple, table = mu_opt_search(z, w, opts.integer_bound)

    # unique interpolant exactly at the optimum
    pp0 = PickProblem(z=z, w=w, n=best_tuple, mu=mu_opt * (1 + 1e-9))
    try:
        interp0 = np_interpolant(pp0)
    except FiniteSearchError as exc:
        last_exc = exc
    else:
        U0 = FiniteU(p1p2, interp0, pp0.mu, 0.0, a)
        found = _accepted(plant, weights, ctx, U0, grid)
        if found:
            return FinSearchResult(
                mu=pp0.mu, integers=best_tuple, q=0.0, U=U0, U_norm=found[0],
                cert=found[1], p1p2=p1p2, mu_opt=mu_opt,
            )

    q_grid = np.arange(-1.0, 1.0 + opts.q_step / 2, opts.q_step)
    om_coarse = grid.omegas()
    for mu in (opts.mu_schedule or _default_mu_schedule(mu_opt)):
        if mu <= mu_opt:
            continue
        feasible_tuples = [tup for tup, mu_min in table if mu_min < mu]
        for tup in feasible_tuples:
            pp = PickProblem(z=z, w=w, n=tup, mu=mu)
            try:
                interp = np_interpolant(pp)
            except FiniteSearchError as exc:
                last_exc = exc
                continue
            # coarse vectorized sweep first, then fully certify candidates
            # in order of increasing grid norm: the accepted design carries
            # the largest margin the sweep can offer
            for idx in _q_candidates(p1p2, interp, mu, q_grid, a, om_coarse):
                qv = float(q_grid[idx])
                U = FiniteU(p1p2, interp, mu, qv, a)
                found = _accepted(plant, weights, ctx, U, grid)
                if found:
                    return FinSearchResult(
                        mu=float(mu), integers=tup, q=qv, U=U, U_norm=found[0],
                        cert=found[1], p1p2=p1p2, mu_opt=mu_opt,
                    )
    raise FiniteSearchError(
        "schedules exhausted: this method fails to provide a stable controller"
        + (f" (last issue: {last_exc})" if last_exc else "")
    )
