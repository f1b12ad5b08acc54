import numpy as np
import pytest

from strongstab import synthesis
from strongstab.rational import FrequencyGrid, Poly, RationalFn, golden_max, poly_roots
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
    _nullvector,
    beta_zeros,
    build_context,
    build_controller,
    build_E,
    build_F,
    gamma_opt,
    interpolation_rows,
    spectral_factor,
    spectral_ratio,
    verify_performance,
)

GRID = FrequencyGrid()


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
            ctx = build_context(plant, weights, rho, "suboptimal", opts.interp_a)
            assert ctx.residual <= 1e-8

    def test_side_constraint_rejects_bad_a(self, ex1):
        # a placed exactly at the L1 mirror zero breaks the side constraint;
        # property: whatever a we pick, the solved member keeps L1(-a) != 0
        plant, weights, opts = ex1
        ctx = build_context(plant, weights, 0.814, "suboptimal", 0.5)
        assert abs(ctx.L1(-0.5)) > 1e-6

    def test_validity_structure(self, ex1_ctx):
        # |L2(jw)| >= |L1(jw)| exactly where |W1(jw)| >= level (E >= 0)
        om = np.linspace(0.01, 10, 800)
        E = ex1_ctx.E(1j * om).real
        lam = np.abs(ex1_ctx.L2(1j * om)) ** 2 - np.abs(ex1_ctx.L1(1j * om)) ** 2
        assert np.all(E * lam >= -1e-9 * np.abs(lam).max())


def full_scan_gamma_opt(plant, weights, bracket, coarse=200):
    """Reference: sigma_min on the whole coarse grid first, then every dip
    refined from the top down, each refinement evaluated once more at its
    optimum.  Built on the public one-level functions, not on LevelBuilder."""
    def sigma_min_at(g):
        E = build_E(g, weights.W1)
        F, _, _ = build_F(g, weights.W1, weights.W2)
        betas, alphas = beta_zeros(E), plant.alpha_roots()
        degree = len(betas) + len(alphas) - 1
        if degree < 0:
            raise InterpolationError("no interpolation conditions at this level")
        smin, v = _nullvector(interpolation_rows(plant, F, E, degree, None, betas, alphas))
        return smin, v, degree

    glo, ghi = bracket
    gs = np.linspace(glo, ghi, coarse)
    vals = np.full(coarse, np.nan)
    for i, g in enumerate(gs):
        try:
            vals[i] = sigma_min_at(g)[0]
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

    def negsig(g):
        try:
            return -sigma_min_at(g)[0]
        except (FactorizationError, InterpolationError):
            return -np.inf

    for i in sorted(dips, key=lambda i: -gs[i]):
        gstar, _ = golden_max(negsig, gs[i - 1], gs[i + 1])
        try:
            smin, v, degree = sigma_min_at(gstar)
        except (FactorizationError, InterpolationError):
            continue
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

    @pytest.mark.parametrize("example, budget", [("ex1", 152), ("ex2", 93)])
    def test_evaluation_budget(self, example, budget, request, monkeypatch):
        plant, weights, opts = request.getfixturevalue(example)
        calls = []
        rows = synthesis.interpolation_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return rows(*args, **kwargs)

        monkeypatch.setattr(synthesis, "interpolation_rows", counted)
        gamma_opt(plant, weights, opts.gamma_bracket)
        assert len(calls) <= budget

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


class TestController:
    def test_central_lu_equals_l2_over_l1(self, ex1, ex1_ctx):
        plant, weights, _ = ex1
        ctrl = build_controller(plant, weights, ex1_ctx, UParam(0.0))
        s = np.array([0.3j, 1.2j, 0.5 + 0.2j])
        direct = ex1_ctx.L2(s) / ex1_ctx.L1(s)
        np.testing.assert_allclose(ctrl.L_U(s), direct, rtol=1e-12)

    def test_denominator_cancels_at_betas(self, ex1, ex1_ctx):
        plant, weights, _ = ex1
        for u in (UParam(0.0), UParam(-0.813), UParam(0.4, 0.3, 0.9)):
            ctrl = build_controller(plant, weights, ex1_ctx, u)
            for b in ex1_ctx.betas:
                scale = abs(ctrl.loop_denominator(np.array([b + 0.5]))[0])
                assert abs(ctrl.loop_denominator(np.array([b]))[0]) <= 1e-6 * max(scale, 1.0)

    def test_suboptimal_level_guard(self, ex1, ex1_ctx, ex1_gamma):
        plant, weights, _ = ex1
        with pytest.raises(ValueError):
            bad_ctx = build_context(plant, weights, ex1_gamma.gamma * 0.95,
                                    "suboptimal", 1.985)
            build_controller(plant, weights, bad_ctx, UParam(0.0),
                             gamma_opt_value=ex1_gamma.gamma)

    def test_singular_closed_loop_raises_typed_error(self, ex1, ex1_ctx, monkeypatch):
        plant, weights, _ = ex1
        ctrl = build_controller(plant, weights, ex1_ctx, UParam(0.0))
        # a loop gain of -1/(1 + E) puts D = 1 + x (1 + E) at zero everywhere
        monkeypatch.setattr(Controller, "loop_gain", lambda self, s: -1.0 / (1.0 + self.ctx.E(s)))
        with pytest.raises(ClosedLoopSingular, match="omega=0.5"):
            ctrl.sensitivity_pair(np.array([0.5, 2.0]))

    def test_verify_performance_matches_manual_stack(self, ex1, ex1_ctx):
        plant, weights, opts = ex1
        ctrl = build_controller(plant, weights, ex1_ctx, UParam(-0.814))
        norm, ok = verify_performance(ctrl, weights, opts.grid)
        om = opts.grid.omegas()
        S, T = ctrl.sensitivity_pair(om)
        manual = np.sqrt(np.abs(weights.W1(1j * om) * S) ** 2)  # W2 = 0
        assert ok
        assert norm >= manual.max() - 1e-12
        assert norm == pytest.approx(manual.max(), rel=1e-6)

    def test_verify_performance_equals_scalar_refinement_bitwise(self, ex1, ex1_ctx):
        # the rule before grid_sup: grid argmax, scalar golden_max between its
        # neighbours, the refined value kept only where it is not smaller
        plant, weights, opts = ex1
        ctrl = build_controller(plant, weights, ex1_ctx, UParam(-0.814))

        def stack(s):
            S, T = ctrl.sensitivity_pair(s.imag)
            w2 = 0.0 if weights.W2.is_zero else weights.W2(s)
            return np.sqrt(np.abs(weights.W1(s) * S) ** 2 + np.abs(w2 * T) ** 2)

        om = opts.grid.omegas()
        vals = np.abs(stack(1j * om))
        i, last = int(np.argmax(vals)), len(om) - 1
        _, v = golden_max(lambda w: float(np.abs(stack(np.array([1j * w])))[0]),
                          om[max(i - 1, 0)], om[min(i + 1, last)])
        ref = v if v >= vals[i] else float(vals[i])
        norm, ok = verify_performance(ctrl, weights, opts.grid)
        assert type(norm) is float and norm == ref and ok

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_stack_fails_the_norm_check(self, ex1, ex1_ctx):
        plant, weights, opts = ex1
        bad = opts.grid.omegas()[1234]

        def u(s):
            return np.where(s == 1j * bad, np.nan, -0.814)

        ctrl = build_controller(plant, weights, ex1_ctx, u)
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

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            UParam(1.2).validate()
        with pytest.raises(ValueError):
            UParam(0.9, 5.0, 1.0).validate()  # peak |u| u_z / u_p > 1
