import math
import re

import numpy as np
import pytest

from strongstab import synthesis
from strongstab.rational import (
    FrequencyGrid,
    Poly,
    RationalFn,
    RootConvergenceError,
    RootSet,
    _cancelled,
    _reclose,
    blaschke,
    poly_roots,
)
from strongstab.stability import certify
from strongstab.synthesis import (
    ClosedLoopSingular,
    Controller,
    FactorizationError,
    GammaSearchError,
    InterpolationError,
    DelayPlant,
    LevelBuilder,
    UParam,
    WeightPair,
    _refine_dip,
    build_context,
    build_E,
    build_F,
    gamma_opt,
    spectral_factor,
    spectral_ratio,
    verify_performance,
)

GRID = FrequencyGrid()


def scalar_golden_max(fun, a, b):
    """Golden-section maximization of `fun` on [a, b] with `_refine_dip`'s
    constants: DIP_ITERS steps from probes at 0.382 and 0.618 of the bracket,
    then the last bracket's midpoint (DIP_ITERS + 3 calls, one point each)."""
    gr = synthesis.DIP_GOLDEN
    a, b = float(a), float(b)
    x1, x2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(synthesis.DIP_ITERS):
        if f1 < f2:     # keep [x1, b]
            a, x1 = x1, x2
            x2 = a + gr * (b - a)
            f1, f2 = f2, fun(x2)
        else:           # keep [a, x2]
            b, x2 = x2, x1
            x1 = b - gr * (b - a)
            f1, f2 = fun(x1), f1
    x = 0.5 * (a + b)
    return x, fun(x)


def rational(num, den=(1.0,)):
    return RationalFn(Poly(num), Poly(den))


class TestBuildE:
    def test_unit_weight_unit_level(self):
        E = build_E(1.0, rational([1.0]))
        assert E.num.is_zero

    def test_one_block_benchmark(self):
        # W1 = (1+0.6s)/(1+s) at level 0.814: (0.3374 + 0.3026 s^2)/(0.6626(1-s^2))
        E = build_E(0.814, rational([1.0, 0.6], [1.0, 1.0]))
        num = E.num.c / E.den.c[0] * 0.814**2
        np.testing.assert_allclose(num, [0.337404, 0.0, 0.302596], atol=1e-12)

    def test_two_block_benchmark(self):
        r5 = np.sqrt(5.0)
        E = build_E(1.9454, rational([r5, 1.0], [1.0, 1.0]))
        scale = (5 - 1.9454**2) / E.num.c[0]
        np.testing.assert_allclose(E.num.c * scale, [1.21541884, 0.0, 2.78458116],
                                   rtol=1e-7)

    def test_vanishes_at_its_axis_zero(self):
        E = build_E(0.814, rational([1.0, 0.6], [1.0, 1.0]))
        assert abs(E(1.056j)) < 1e-3  # reference value at four digits
        w0 = np.sqrt((1 - 0.814**2) / (0.814**2 - 0.36))
        assert abs(E(1j * w0)) < 1e-14


class TestSpectralFactor:
    def test_constant_weight_gives_unit_factor(self):
        G = spectral_factor(2.0, rational([2.0]), RationalFn.zero())
        np.testing.assert_allclose(G.num.c, [1.0], atol=1e-12)
        np.testing.assert_allclose(G.den.c, [1.0], atol=1e-12)

    def test_one_block_factor(self):
        # W2 = 0: G G(-s) = (1+E)^{-1}; for the one-block benchmark
        # G = 0.814(1+s)/(1+0.6s), normalized here with monic denominator.
        G = spectral_factor(0.814, rational([1.0, 0.6], [1.0, 1.0]), RationalFn.zero())
        assert G(0.0).real == pytest.approx(0.814, abs=1e-12)
        assert (G.num.c[-1] / G.den.c[-1]) == pytest.approx(0.814 / 0.6, rel=1e-12)

    def test_identity_on_grid_random(self):
        rng = np.random.default_rng(17)
        om = GRID.omegas()
        checked = 0
        while checked < 50:
            a0, a1 = rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0)
            b0 = rng.uniform(0.3, 3.0)
            W1 = rational([a0, a1], [b0, 1.0])
            if rng.random() < 0.5:
                W2 = RationalFn.zero()
            else:
                W2 = rational([rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.7)])
            mags = np.abs(W1(1j * om))
            level = mags.max() * rng.uniform(1.05, 1.6)
            R = spectral_ratio(level, W1, W2)
            if np.any(R(1j * om).real <= 1e-6):
                continue
            try:
                G = spectral_factor(level, W1, W2)
            except FactorizationError:
                continue
            ident = np.abs(G(1j * om)) ** 2 * np.abs(R(1j * om))
            assert np.abs(ident - 1.0).max() <= 1e-8
            checked += 1

    def test_factor_and_inverse_stable(self):
        r5 = np.sqrt(5.0)
        G = spectral_factor(1.9454, rational([r5, 1.0], [1.0, 1.0]),
                            rational([r5 / 2, 0.5]))
        for p in (G.num, G.den):
            if p.degree > 0:
                assert all(r.real < 0 for r in poly_roots(p).expanded())

    def test_axis_obstruction_raises(self):
        # a weight zero on the axis puts an odd-order zero of G G(-s)^{-1}
        # on the boundary: no splittable factorization exists
        W1 = rational([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(FactorizationError):
            spectral_factor(1.0, W1, RationalFn.zero())


class TestBuildF:
    def test_single_eta_is_mirrored_pole(self):
        F, etas, G = build_F(0.814, rational([1.0, 0.6], [1.0, 1.0]), RationalFn.zero())
        np.testing.assert_allclose(etas, [1.0], atol=1e-12)
        assert F(0.0).real > 0

    def test_one_block_benchmark_F(self):
        F, _, _ = build_F(0.814, rational([1.0, 0.6], [1.0, 1.0]), RationalFn.zero())
        # 0.814(1-s)/(1+0.6s)
        s = np.array([0.3j, 2.0j, 1.5])
        expect = 0.814 * (1 - s) / (1 + 0.6 * s)
        np.testing.assert_allclose(F(s), expect, rtol=1e-10)

    def test_two_block_benchmark_F(self):
        r5 = np.sqrt(5.0)
        rho = 1.9454
        F, _, _ = build_F(rho, rational([r5, 1.0], [1.0, 1.0]), rational([r5 / 2, 0.5]))
        gain = 2 * rho**2 / np.sqrt(rho**2 - 1)
        s = np.array([0.5j, 1.7j, 0.8])
        expect = gain * (1 - s) / (r5 + s) ** 2
        np.testing.assert_allclose(F(s), expect, rtol=1e-6)

    @pytest.mark.parametrize("example, level", [("ex1", 0.814), ("ex2", 1.9454), ("ex2", 2.0)])
    def test_equals_unreduced_product(self, example, level, request):
        # F is built from root lists with the common roots cancelled; the
        # oracle is the product G inner itself
        plant, weights, opts = request.getfixturevalue(example)
        F, etas, G = build_F(level, weights.W1, weights.W2)
        s = 1j * opts.grid.omegas()
        product = G(s) * blaschke(etas)(s)
        assert (np.abs(F(s) - product) / np.abs(product)).max() <= 1e-15


class TestInterpolation:
    def test_ex1_member(self, ex1_ctx):
        np.testing.assert_allclose(ex1_ctx.L1.c, [1.83726937, 1.0], atol=2e-7)
        np.testing.assert_allclose(ex1_ctx.L2.c, [-1.87154973, -0.94126329], atol=2e-7)
        assert ex1_ctx.residual <= 1e-8

    def test_ex2_member(self, ex2_ctx):
        np.testing.assert_allclose(ex2_ctx.L1.c, [2.98324045, 1.0], atol=2e-6)
        np.testing.assert_allclose(ex2_ctx.L2.c, [2.98401773, 0.99467261], atol=2e-6)
        assert ex2_ctx.residual <= 1e-8

    def test_residuals_random_levels(self, ex1):
        plant, weights, opts = ex1
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = rng.uniform(0.8109, 0.95)
            ctx = build_context(plant, weights, rho, opts.interp_a)
            assert ctx.residual <= 1e-8

    def test_side_constraint_rejects_bad_a(self, ex1):
        # a placed exactly at the L1 mirror zero breaks the side constraint;
        # property: whatever a we pick, the solved member keeps L1(-a) != 0
        plant, weights, opts = ex1
        ctx = build_context(plant, weights, 0.814, 0.5)
        assert abs(ctx.L1(-0.5)) > 1e-6

    def test_validity_structure(self, ex1_ctx):
        # |L2(jw)| >= |L1(jw)| exactly where |W1(jw)| >= level (E >= 0)
        om = np.linspace(0.01, 10, 800)
        E = ex1_ctx.E(1j * om).real
        lam = np.abs(ex1_ctx.L2(1j * om)) ** 2 - np.abs(ex1_ctx.L1(1j * om)) ** 2
        assert np.all(E * lam >= -1e-9 * np.abs(lam).max())


# ---------------------------------------------------------------------------
# the per-level reference chain
# ---------------------------------------------------------------------------

# The one-level Poly/RationalFn chain that LevelBuilder's row-wise block
# build replaced, kept as the independent oracle: E and R by RationalFn
# arithmetic, the x = s^2 halves and E.num rooted one level at a time, G and F
# expanded by one np.convolve per root and evaluated by RationalFn calls, and
# one interpolation matrix and SVD per level.  The per-root rules
# (`_stable_half`, `_betas`, `_cancelled`, `_reclose`) are shared.

def ref_poly_from_roots(roots, leading):
    c = np.array([1.0 + 0.0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0.0j]))
    if np.abs(c.imag).max() > 1e-8 * max(1.0, np.abs(c).max()):
        raise ValueError("root list is not closed under conjugation")
    return Poly(c.real * leading)


def ref_over_level(para, level):
    if level <= 0:
        raise ValueError("level must be positive")
    if not math.isfinite(float(level) * float(level)):
        raise FactorizationError(f"level {level:g}: its square is not a finite number")
    den = Poly(para.den.c * level**2)
    return RationalFn(para.num - den, den)


def ref_ratios(W1, W2, level):
    """(E, R) at `level`."""
    E = ref_over_level(synthesis._para(W1), level)
    if W2.is_zero:
        return E, RationalFn(E.num + E.den, E.den)
    VE = ref_over_level(synthesis._para(W2), level) * E
    return E, RationalFn(VE.den - VE.num, VE.den)


def ref_roots(p):
    try:
        px = Poly(p.even_part_coeffs())
    except ValueError as exc:
        return exc
    return poly_roots(px) if px.degree else None


def ref_factor(R):
    """(G, zeros, poles): the spectral factor of 1/R with G(0) > 0."""
    half = synthesis._stable_half
    zeros = [complex(r) for r in half(ref_roots(R.den), "spectral factor numerator")]
    poles = [complex(r) for r in half(ref_roots(R.num), "spectral factor denominator")]
    G = RationalFn(ref_poly_from_roots(zeros, 1.0), ref_poly_from_roots(poles, 1.0))
    for s0 in (0.0, 0.37913):
        try:
            target = 1.0 / R(s0)
            g0 = G(s0)
            break
        except ZeroDivisionError:
            pass
    else:
        raise FactorizationError("R or G vanishes or has a pole at both gain points")
    c2 = (target / g0**2).real
    if c2 <= 0 or abs((target / g0**2).imag) > 1e-6 * abs(c2):
        raise FactorizationError("factorization produced a non-real gain")
    G = G * float(np.sqrt(c2))
    if G(0.0).real < 0:
        G = G * -1.0
    return G, zeros, poles


def ref_complete(R, etas):
    """(F, G): G and F = G prod (s - eta)/(s + eta), both negated when needed
    so that F(0) > 0."""
    G, zeros, poles = ref_factor(R)
    F = G
    if etas:
        keep_n, keep_d = _cancelled(zeros + etas, poles + [-e for e in etas])
        F = RationalFn(ref_poly_from_roots(_reclose(keep_n), G.num.c[-1]),
                       ref_poly_from_roots(_reclose(keep_d), 1.0))
    if F(0.0).real < 0:
        F = F * -1.0
        G = G * -1.0
    return F, G


def ref_beta_zeros(E):
    return synthesis._betas(poly_roots(E.num) if E.num.degree else None)


def ref_level(W1, W2, level):
    """(E, R, F, G, betas) at `level`."""
    E, R = ref_ratios(W1, W2, level)
    F, G = ref_complete(R, synthesis.eta_mirror_poles(W1))
    return E, R, F, G, ref_beta_zeros(E)


def ref_interpolation_rows(plant, F, degree, betas, alphas):
    synthesis._reject_repeated(betas, "E zeros")
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
        add_complex_row(powvec(pt), w * powvec(pt))
        add_complex_row(w * powvec(-pt), powvec(-pt))
    return np.array(rows)


def ref_nullvector(A):
    scale = np.linalg.norm(A, axis=1).max()
    An = A / (scale if scale > 0 else 1.0)
    _, svals, vt = np.linalg.svd(An)
    ncols = A.shape[1]
    smin = float(svals[ncols - 1]) if A.shape[0] >= ncols else 0.0
    return smin, vt[-1]


def ref_sigma_min(plant, weights, level):
    """(sigma_min, null vector, degree) of the optimal system at `level`."""
    E, R, F, G, betas = ref_level(weights.W1, weights.W2, level)
    alphas = plant.alpha_roots()
    degree = len(betas) + len(alphas) - 1
    if degree < 0:
        raise InterpolationError("no interpolation conditions at this level")
    smin, v = ref_nullvector(ref_interpolation_rows(plant, F, degree, betas, alphas))
    return smin, v, degree


def full_scan_gamma_opt(plant, weights, bracket, coarse=200):
    """Reference for the walk order: sigma_min on the whole coarse grid
    first, then every dip refined (`_refine_dip`) from the top down.  Built on
    the per-level reference chain, not on LevelBuilder."""
    def sigma_min_at(g):
        return ref_sigma_min(plant, weights, g)

    glo, ghi = bracket
    gs = np.linspace(glo, ghi, coarse)
    vals = np.full(coarse, np.nan)
    found = [None] * coarse
    for i, g in enumerate(gs):
        try:
            found[i] = sigma_min_at(g)
            vals[i] = found[i][0]
        except (FactorizationError, InterpolationError):
            pass
    dips = []
    for i in range(1, coarse - 1):
        if np.isnan(vals[i]):
            continue
        left = vals[i - 1] if not np.isnan(vals[i - 1]) else np.inf
        right = vals[i + 1] if not np.isnan(vals[i + 1]) else np.inf
        if vals[i] <= left and vals[i] <= right:
            dips.append(i)

    for i in sorted(dips, key=lambda i: -gs[i]):
        gstar, (smin, v, degree) = _refine_dip(sigma_min_at, gs[i - 1], vals[i - 1],
                                               gs[i], found[i], gs[i + 1], vals[i + 1])
        if smin < 1e-6:
            n = degree + 1
            l1c, l2c = v[:n], v[n:]
            if abs(l1c[-1]) > 1e-9 * np.abs(v).max():
                l2c = l2c / l1c[-1]
                l1c = l1c / l1c[-1]
            return float(gstar), float(smin), l1c, l2c, len(dips)
    raise AssertionError("reference scan found no singular level")


def synthetic_sigma(monkeypatch, sigma):
    """Replace the optimal system's sigma_min by `sigma(level)`; returns the
    list of levels evaluated."""
    seen = []

    def fake(self, level):
        seen.append(level)
        return sigma(level), np.array([1.0, -1.0]), 0

    monkeypatch.setattr(LevelBuilder, "optimal_sigma_min", fake)
    return seen


def refinement(seen, bracket):
    """The levels of `seen` off the coarse grid: the dip refinements' probes."""
    coarse = set(np.linspace(*bracket, synthesis.GAMMA_COARSE))
    return [g for g in seen if g not in coarse]


class TestGammaOpt:
    def test_ex1_level(self, ex1_gamma):
        assert ex1_gamma.gamma == pytest.approx(0.8108, abs=1e-3)
        # optimal pair is (1, -1): the limit ratio is -1
        assert ex1_gamma.L2.c[-1] / ex1_gamma.L1.c[-1] == pytest.approx(-1.0, abs=1e-6)

    def test_ex2_level(self, ex2_gamma):
        assert ex2_gamma.gamma == pytest.approx(1.9452, abs=1e-3)
        assert ex2_gamma.L2.c[-1] / ex2_gamma.L1.c[-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("example", ["ex1_gamma", "ex2_gamma"])
    def test_equals_full_scan_reference(self, example, request):
        plant, weights, opts = request.getfixturevalue(example.split("_")[0])
        res = request.getfixturevalue(example)
        gamma, smin, l1c, l2c, _ = full_scan_gamma_opt(plant, weights, opts.gamma_bracket)
        assert res.gamma == gamma
        assert res.sigma_min == smin
        assert np.array_equal(res.L1.c, l1c)
        assert np.array_equal(res.L2.c, l2c)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_refinement_matches_golden_oracle(self, example, request):
        # golden-section search of the same dip bracket, 53 evaluations
        plant, weights, opts = request.getfixturevalue(example)
        res = request.getfixturevalue(f"{example}_gamma")
        levels = LevelBuilder(plant, weights)
        gs = np.linspace(*opts.gamma_bracket, synthesis.GAMMA_COARSE)
        i = int(np.argmin(np.abs(gs - res.gamma)))
        coarse = [levels.optimal_sigma_min(g)[0] for g in gs[i - 1 : i + 2]]
        assert coarse[1] <= min(coarse[0], coarse[2])      # gs[i] is the dip

        def negsig(g):
            return -levels.optimal_sigma_min(g)[0]

        g, v = scalar_golden_max(negsig, gs[i - 1], gs[i + 1])
        assert abs(res.gamma - g) <= 2e-13
        assert f"{res.gamma:.12g}" == f"{g:.12g}"
        assert res.sigma_min <= -v

    @pytest.mark.parametrize("example, budget", [("ex1", 104), ("ex2", 45)])
    def test_evaluation_budget(self, example, budget, request, monkeypatch):
        # levels consumed, not row builds: a block builds its rows at once
        plant, weights, opts = request.getfixturevalue(example)
        consumed, _ = watch_levels(monkeypatch)
        gamma_opt(plant, weights, opts.gamma_bracket)
        assert len(consumed) <= budget

    def test_non_singular_dip_above_is_passed_over(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        seen = synthetic_sigma(
            monkeypatch, lambda g: min(abs(g - 2.5) + 0.05, abs(g - 1.5))
        )
        res = gamma_opt(plant, weights, (1.0, 3.0))
        assert res.gamma == pytest.approx(1.5, abs=1e-9)
        assert res.sigma_min < 1e-6
        assert res.diagnostics["dips"] == 2
        gs = np.linspace(1.0, 3.0, 200)
        dip = int(np.argmin(np.abs(gs - 1.5)))
        assert min(seen) == gs[dip - 1]     # nothing below the dip's left neighbour

    @pytest.mark.parametrize("left, right, budget", [(10.0, 0.1, 5), (0.1, 10.0, 11)])
    def test_asymmetric_v(self, ex1, monkeypatch, left, right, budget):
        plant, weights, _ = ex1
        c = 1.5012
        seen = synthetic_sigma(monkeypatch, lambda g: left * (c - g) if g < c else right * (g - c))
        res = gamma_opt(plant, weights, (1.0, 3.0))
        assert abs(res.gamma - c) <= 1e-15 and res.sigma_min < 1e-6
        assert len(refinement(seen, (1.0, 3.0))) <= budget

    def test_smooth_dip_with_a_floor_is_passed_over(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        c = 1.5012
        seen = synthetic_sigma(monkeypatch, lambda g: min((g - 2.5) ** 2 + 0.05, abs(g - c)))
        res = gamma_opt(plant, weights, (1.0, 3.0))
        assert res.gamma == c and res.diagnostics["dips"] == 2
        probes = refinement(seen, (1.0, 3.0))
        assert len([g for g in probes if g > 2.0]) <= 39
        assert len([g for g in probes if g < 2.0]) <= 1

    def test_nan_coarse_neighbour(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        c = 1.5012
        gs = np.linspace(1.0, 3.0, 200)
        nan_at = gs[int(np.argmin(np.abs(gs - c))) - 1]

        def sigma(g):
            if g == nan_at:
                raise InterpolationError("forced")
            return abs(g - c)

        seen = synthetic_sigma(monkeypatch, sigma)
        res = gamma_opt(plant, weights, (1.0, 3.0))
        assert res.gamma == c and res.infeasible_points == [(float(nan_at), "forced")]
        assert len(refinement(seen, (1.0, 3.0))) <= 3

    def test_raising_probe_reads_inf(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        c = 1.5012

        def v(g):
            return 10.0 * (c - g) if g < c else 0.1 * (g - c)

        clean = synthetic_sigma(monkeypatch, v)
        gamma_opt(plant, weights, (1.0, 3.0))
        bad = refinement(clean, (1.0, 3.0))[0]

        def sigma(g):
            if g == bad:
                raise FactorizationError("forced")
            return v(g)

        seen = synthetic_sigma(monkeypatch, sigma)
        res = gamma_opt(plant, weights, (1.0, 3.0))
        assert bad in seen and abs(res.gamma - c) <= 1e-15
        assert res.infeasible_points == []
        assert len(refinement(seen, (1.0, 3.0))) <= 7

    def test_no_singular_level_scans_whole_grid(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        seen = synthetic_sigma(monkeypatch, lambda g: abs(g - 2.02) + 0.05)
        with pytest.raises(GammaSearchError, match=r"dips tried: 1, infeasible points: 0"):
            gamma_opt(plant, weights, (1.0, 3.0))
        assert set(np.linspace(1.0, 3.0, 200)) <= set(seen)

    def test_sigma_min_bracketing(self, ex1, ex1_gamma):
        plant, weights, _ = ex1
        levels = LevelBuilder(plant, weights)
        g = ex1_gamma.gamma
        assert levels.optimal_sigma_min(g)[0] < 1e-6
        assert levels.optimal_sigma_min(g - 2e-3)[0] > 1e-4
        assert levels.optimal_sigma_min(g + 2e-3)[0] > 1e-4

    def test_degenerate_problem_reports_bracket_failure(self):
        plant = DelayPlant(h=0.0, M=RationalFn.one(), m_d=RationalFn.one(),
                           N_o=rational([1.0], [1.0, 1.0]))
        weights = WeightPair(W1=rational([2.0]), W2=RationalFn.zero())
        with pytest.raises((GammaSearchError, InterpolationError)):
            gamma_opt(plant, weights, (0.5, 3.0))


def watch_levels(monkeypatch):
    """(consumed, prefetched): the levels gamma_opt hands to
    `optimal_sigma_min` and to `prefetch`, in order."""
    consumed, prefetched = [], []
    sigma_min, prefetch = LevelBuilder.optimal_sigma_min, LevelBuilder.prefetch

    def watched_sigma_min(self, level):
        consumed.append(float(level))
        return sigma_min(self, level)

    def watched_prefetch(self, levels):
        prefetched.extend(float(g) for g in levels)
        return prefetch(self, levels)

    monkeypatch.setattr(LevelBuilder, "optimal_sigma_min", watched_sigma_min)
    monkeypatch.setattr(LevelBuilder, "prefetch", watched_prefetch)
    return consumed, prefetched


def fail_level(monkeypatch, weights, level, kinds):
    """Make the root extractions of `level` fail, through `synthesis.poly_roots`.

    `kinds` holds any of "factorization" (R.num's roots in x = s^2 become an
    odd axis pair, which the factorization rejects), "convergence" (E.num's
    extraction returns a RootConvergenceError) and "linalg" (a stacked call
    holding E.num raises LinAlgError, as the eigensolver does for a
    non-finite entry).  A call's items are the rows of its 2-D coefficient
    array, matched after trimming their zero padding.  Returns the list of
    kinds that fired.
    """
    e_num = build_E(level, weights.W1).num.c
    r_num = Poly(spectral_ratio(level, weights.W1, weights.W2).num.even_part_coeffs()).c
    real, fired = synthesis.poly_roots, []

    def roots(ps):
        if isinstance(ps, Poly):
            return real(ps)
        out = real(ps)
        for i, q in enumerate(ps):
            c = Poly(q).c       # an array row, trimmed of its zero padding
            if np.array_equal(c, r_num) and "factorization" in kinds:
                fired.append("factorization")
                out[i] = RootSet([complex(-1.0)], [1])
            if np.array_equal(c, e_num) and "convergence" in kinds:
                fired.append("convergence")
                out[i] = RootConvergenceError("forced")
            if np.array_equal(c, e_num) and "linalg" in kinds:
                fired.append("linalg")
                raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        return out

    monkeypatch.setattr(synthesis, "poly_roots", roots)
    return fired


def same_result(a, b):
    return (a.gamma == b.gamma and a.sigma_min == b.sigma_min
            and np.array_equal(a.L1.c, b.L1.c) and np.array_equal(a.L2.c, b.L2.c)
            and a.infeasible_points == b.infeasible_points
            and a.diagnostics == b.diagnostics)


class TestPrefetchFailures:
    """gamma_opt builds the coarse levels in blocks, but a level's failure
    counts only when, and as, a one-level build of that level would meet it."""

    @pytest.fixture
    def scan(self, ex1, ex1_gamma, monkeypatch):
        plant, weights, opts = ex1
        consumed, prefetched = watch_levels(monkeypatch)
        assert same_result(gamma_opt(plant, weights, opts.gamma_bracket), ex1_gamma)
        monkeypatch.undo()
        gs = np.linspace(*opts.gamma_bracket, synthesis.GAMMA_COARSE)
        return ex1, ex1_gamma, gs, consumed, prefetched

    @pytest.mark.parametrize("kind, fires", [
        ("factorization", ["factorization"]),
        ("convergence", ["convergence"]),
        ("linalg", ["linalg"]),     # the block's stacked call; the level is never built alone
    ])
    def test_failure_below_the_dip_is_never_seen(self, scan, monkeypatch, kind, fires):
        (plant, weights, opts), clean, _, consumed, prefetched = scan
        unconsumed = set(prefetched) - set(consumed)
        assert unconsumed      # the last block reaches below the dip
        fired = fail_level(monkeypatch, weights, max(unconsumed), {kind})
        res = gamma_opt(plant, weights, opts.gamma_bracket)
        assert fired == fires
        assert same_result(res, clean)

    def test_failure_above_the_dip_is_collected(self, scan, monkeypatch):
        (plant, weights, opts), clean, gs, consumed, _ = scan
        level = gs[-20]
        assert float(level) in consumed
        # E.num's failure comes after the factorization's in a one-level build
        fail_level(monkeypatch, weights, level, {"factorization", "convergence"})
        res = gamma_opt(plant, weights, opts.gamma_bracket)
        assert res.infeasible_points == [(float(level), (
            "spectral factor denominator: imaginary-axis zero pair at s=+-1j "
            "of odd multiplicity obstructs the factorization"))]
        assert (res.gamma, res.sigma_min) == (clean.gamma, clean.sigma_min)
        # the level's missing value makes the level below it a dip too
        assert res.diagnostics["dips"] == clean.diagnostics["dips"] + 1
        monkeypatch.setattr(synthesis, "GAMMA_BLOCK", 1)
        assert same_result(gamma_opt(plant, weights, opts.gamma_bracket), res)

    @pytest.mark.parametrize("kind, exc", [
        ("convergence", RootConvergenceError), ("linalg", np.linalg.LinAlgError),
    ])
    def test_fatal_failure_above_the_dip_is_raised(self, scan, monkeypatch, kind, exc):
        (plant, weights, opts), _, gs, _, _ = scan
        fail_level(monkeypatch, weights, gs[-20], {kind})
        with pytest.raises(exc):
            gamma_opt(plant, weights, opts.gamma_bracket)

    def test_at_equals_prefetch(self, ex2):
        plant, weights, opts = ex2
        gs = np.linspace(*opts.gamma_bracket, 40)
        block = LevelBuilder(plant, weights)
        block.prefetch(gs)
        for g in gs:
            E, R, F, betas = LevelBuilder(plant, weights).at(g)
            E2, R2, F2, betas2 = block.at(g)
            for a, b in ((E, E2), (R, R2), (F, F2)):
                assert np.array_equal(a.num.c, b.num.c) and np.array_equal(a.den.c, b.den.c)
            assert betas == betas2
        assert not block._built


class TestOneRootStage:
    """A block's roots come from one stacked `poly_roots` call: R.den's and
    R.num's even parts and E.num of every level; F is then built from known
    root lists, and the levels' interpolation matrices take one batched SVD
    per matrix shape."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = synthesis.poly_roots

        def counted(ps):
            calls.append(1)
            return real(ps)

        monkeypatch.setattr(synthesis, "poly_roots", counted)
        return calls

    def test_prefetch_of_a_block_is_one_call(self, ex2, monkeypatch):
        plant, weights, opts = ex2
        levels = LevelBuilder(plant, weights)
        calls = self.count_calls(monkeypatch)
        levels.prefetch(np.linspace(*opts.gamma_bracket, synthesis.GAMMA_BLOCK))
        assert len(calls) == 1

    def test_at_without_prefetch_is_one_call(self, ex1, monkeypatch):
        plant, weights, _ = ex1
        levels = LevelBuilder(plant, weights)
        calls = self.count_calls(monkeypatch)
        levels.at(0.814)
        assert len(calls) == 1

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_prefetch_of_a_block_is_one_svd_per_shape(self, example, request, monkeypatch):
        plant, weights, opts = request.getfixturevalue(example)
        gs = np.linspace(*opts.gamma_bracket, synthesis.GAMMA_COARSE)[-synthesis.GAMMA_BLOCK :]
        shapes = set()
        for g in gs:
            E, R, F, G, betas = ref_level(weights.W1, weights.W2, g)
            degree = len(betas) + len(plant.alpha_roots()) - 1
            shapes.add(ref_interpolation_rows(plant, F, degree, betas, plant.alpha_roots()).shape)
        stacks, svd = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            stacks.append(a.shape)
            return svd(a, *args, **kwargs)

        levels = LevelBuilder(plant, weights)
        monkeypatch.setattr(np.linalg, "svd", counted)
        levels.prefetch(gs)
        assert sorted(a[1:] for a in stacks) == sorted(shapes)
        assert sum(a[0] for a in stacks) == len(gs)


class TestStackedLevels:
    """LevelBuilder's block build, and each public one-level function as its
    one-level case, equal the per-level reference chain bitwise."""

    @staticmethod
    def check(plant, weights, gs):
        at, sigma = LevelBuilder(plant, weights), LevelBuilder(plant, weights)
        at.prefetch(gs)
        sigma.prefetch(gs)
        for g in gs:
            E, R, F, G, betas = ref_level(weights.W1, weights.W2, g)
            E2, R2, F2, betas2 = at.at(g)
            for a, b in ((E, E2), (R, R2), (F, F2)):
                assert np.array_equal(a.num.c, b.num.c) and np.array_equal(a.den.c, b.den.c)
            assert betas == betas2
            smin, v, degree = ref_sigma_min(plant, weights, g)
            smin2, v2, degree2 = sigma.optimal_sigma_min(g)
            assert (smin, degree) == (smin2, degree2) and np.array_equal(v, v2)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_block_of_40_levels(self, example, request):
        plant, weights, opts = request.getfixturevalue(example)
        self.check(plant, weights, np.linspace(*opts.gamma_bracket, 40))

    @pytest.mark.parametrize("example, level", [
        ("ex1", 0.814), ("ex2", 1.9454), ("ex2", 1.96),
        ("ex2", 1.945398944586238),     # x = 5.0000001 and 4.9999999 in R.num's half
        ("ex2", 1.945440617813759),     # x = 5 of multiplicity 2: a double F pole
        ("ex1", 0.8193330000000001), ("ex2", 1.95503),      # level**2 != level * level
    ])
    def test_one_level(self, example, level, request):
        plant, weights, _ = request.getfixturevalue(example)
        self.check(plant, weights, [level])
        E, R, F, G, _ = ref_level(weights.W1, weights.W2, level)
        F2, _, G2 = build_F(level, weights.W1, weights.W2)
        for a, b in ((E, build_E(level, weights.W1)),
                     (R, spectral_ratio(level, weights.W1, weights.W2)),
                     (ref_factor(R)[0], spectral_factor(level, weights.W1, weights.W2)),
                     (G, G2), (F, F2)):
            assert np.array_equal(a.num.c, b.num.c) and np.array_equal(a.den.c, b.den.c)

    def test_failed_levels_raise_as_the_reference(self, ex1, ex2):
        for plant, weights, _ in (ex1, ex2):
            levels = [0.9, 0.0, -1.0, 1e200, 1e-170, 2.0]
            block = LevelBuilder(plant, weights)
            block.prefetch(levels)
            assert not block._built     # level 0.0 fails, so the block keeps nothing
            for g in levels:
                try:
                    E, R, F, _, betas = ref_level(weights.W1, weights.W2, g)
                except Exception as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        block.at(g)
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        build_F(g, weights.W1, weights.W2)
                    continue
                for a, b in zip((E, R, F), block.at(g)):
                    assert np.array_equal(a.num.c, b.num.c) and np.array_equal(a.den.c, b.den.c)
                # built alone, a good level's optimal system is a block-of-one's
                one = LevelBuilder(plant, weights)
                one.prefetch([g])
                assert g in one._built
                smin, v, degree = one.optimal_sigma_min(g)
                smin2, v2, degree2 = block.optimal_sigma_min(g)
                assert (smin, degree) == (smin2, degree2) and np.array_equal(v, v2)

    def test_double_root_level_is_a_double_root(self, ex2):
        _, weights, _ = ex2
        R = ref_ratios(weights.W1, weights.W2, 1.945440617813759)[1]
        assert ref_roots(R.num).multiplicities == [2]
        assert ref_roots(ref_ratios(weights.W1, weights.W2, 1.945398944586238)[1].num
                         ).multiplicities == [1, 1]


class TestController:
    def test_central_lu_equals_l2_over_l1(self, ex1, ex1_ctx):
        plant, _, _ = ex1
        ctrl = Controller(plant, ex1_ctx, UParam(0.0))
        s = np.array([0.3j, 1.2j, 0.5 + 0.2j])
        direct = ex1_ctx.L2(s) / ex1_ctx.L1(s)
        np.testing.assert_allclose(ctrl.L_U(s), direct, rtol=1e-12)

    def test_denominator_cancels_at_betas(self, ex1, ex1_ctx):
        plant, _, _ = ex1
        for u in (UParam(0.0), UParam(-0.813), UParam(0.4, 0.3, 0.9)):
            ctrl = Controller(plant, ex1_ctx, u)
            for b in ex1_ctx.betas:
                scale = abs(ctrl.loop_denominator(np.array([b + 0.5]))[0])
                assert abs(ctrl.loop_denominator(np.array([b]))[0]) <= 1e-6 * max(scale, 1.0)

    def test_singular_closed_loop_raises_typed_error(self, ex1, ex1_ctx, monkeypatch):
        plant, _, _ = ex1
        ctrl = Controller(plant, ex1_ctx, UParam(0.0))
        # a loop gain of -1/(1 + E) puts D = 1 + x (1 + E) at zero everywhere
        monkeypatch.setattr(Controller, "loop_gain", lambda self, s: -1.0 / (1.0 + self.ctx.E(s)))
        with pytest.raises(ClosedLoopSingular, match="omega=0.5"):
            ctrl.sensitivity_pair(np.array([0.5, 2.0]))

    def test_verify_performance_matches_manual_stack(self, ex1, ex1_ctx):
        plant, weights, opts = ex1
        ctrl = Controller(plant, ex1_ctx, UParam(-0.814))
        norm, ok = verify_performance(ctrl, weights, opts.grid)
        om = opts.grid.omegas()
        S, T = ctrl.sensitivity_pair(om)
        manual = np.sqrt(np.abs(weights.W1(1j * om) * S) ** 2)  # W2 = 0
        assert ok
        assert norm >= manual.max() - 1e-12
        assert norm == pytest.approx(manual.max(), rel=1e-6)

    def test_verify_performance_at_least_dense_sampling_of_its_bracket(self, ex1, ex1_ctx,
                                                                       bracket_max):
        # the refined bracket sampled at 2M + 1 points reads no more
        plant, weights, opts = ex1
        ctrl = Controller(plant, ex1_ctx, UParam(-0.814))

        def stack(w):
            S, T = ctrl.sensitivity_pair(w)
            w2 = 0.0 if weights.W2.is_zero else weights.W2(1j * w)
            return np.sqrt(np.abs(weights.W1(1j * w) * S) ** 2 + np.abs(w2 * T) ** 2)

        dense = bracket_max(stack, opts.grid.omegas())
        norm, ok = verify_performance(ctrl, weights, opts.grid)
        assert type(norm) is float and ok
        assert norm >= dense * (1 - 1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_stack_fails_the_norm_check(self, ex1, ex1_ctx):
        plant, weights, opts = ex1
        bad = opts.grid.omegas()[1234]

        class NanAtOneFrequency(UParam):
            def __call__(self, s):
                return np.where(s == 1j * bad, np.nan, super().__call__(s))

        u = NanAtOneFrequency(-0.814)
        ctrl = Controller(plant, ex1_ctx, u)
        assert verify_performance(ctrl, weights, opts.grid) == (float("inf"), False)
        cert = certify(plant, weights, ex1_ctx, u, grid=opts.grid)
        assert cert.stable and cert.norm == float("inf") and cert.norm_ok is False


class TestUParam:
    def test_constant_norm(self):
        assert UParam(-0.8).sup_norm() == pytest.approx(0.8)

    def test_first_order_norm(self):
        u = UParam(0.5, 2.0, 4.0)
        om = np.logspace(-3, 3, 2000)
        grid_norm = np.abs(u(1j * om)).max()
        assert u.sup_norm() == pytest.approx(grid_norm, rel=1e-3)

    def test_invalid_rejected(self, ex1, ex1_ctx):
        # certify records the closed-form norm and stops: no scan, no norm check
        plant, weights, opts = ex1
        for u, norm in [
            (UParam(1.2), 1.2),
            (UParam(0.9, 5.0, 1.0), 4.5),       # peak |u| u_z / u_p > 1
            (UParam(0.5, 0.3, -1.0), np.inf),   # a pole in the right half plane
        ]:
            cert = certify(plant, weights, ex1_ctx, u, grid=opts.grid)
            assert cert.u_norm == pytest.approx(norm) and not cert.u_ok
            assert cert.scan is None and not cert.stable
            assert cert.norm is None and cert.norm_ok is False
