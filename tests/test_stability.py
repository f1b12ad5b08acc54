import numpy as np
import pytest

from strongstab import stability
from strongstab.rational import Poly, RationalFn, poly_from_roots
from strongstab.stability import (
    AsymptoticData,
    ScanError,
    admissible_uinf,
    asymptotics,
    certify,
    chain_abscissa,
    finitely_many_poles,
    fl_limit_at_infinity,
    peak_data,
    properness_criterion,
    rhp_zero_scan,
)
from strongstab.synthesis import DelayPlant, UParam, WeightPair


class TestAsymptotics:
    def test_ex1_values(self, ex1_ctx):
        asym = asymptotics(ex1_ctx)
        assert asym.f_inf == pytest.approx(1.3567, abs=1e-3)
        assert asym.k == pytest.approx(-0.9413, abs=1e-3)
        assert asym.parity_odd

    def test_ex2_strictly_proper_F(self, ex2_ctx):
        assert asymptotics(ex2_ctx).f_inf == 0.0

    def test_equal_polys_give_unit_k(self, ex1_ctx):
        import dataclasses

        ctx = dataclasses.replace(ex1_ctx, L2=ex1_ctx.L1)
        assert asymptotics(ctx).k == pytest.approx(1.0)

    def test_limits_match_large_omega_evaluation(self, ex1_ctx):
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = UParam(float(rng.uniform(-0.9, 0.9)))
            lim = fl_limit_at_infinity(ex1_ctx, u)
            om = 1e6
            F = ex1_ctx.F
            L2U = ex1_ctx.L2(1j * om) + ex1_ctx.L1(-1j * om) * u.u_inf
            L1U = ex1_ctx.L1(1j * om) + ex1_ctx.L2(-1j * om) * u.u_inf
            num_val = abs(F(1j * om) * L2U / L1U)
            assert lim == pytest.approx(num_val, rel=1e-4)


class TestFinitelyManyPoles:
    def test_central_is_infinite_for_ex1(self, ex1_ctx):
        assert not finitely_many_poles(ex1_ctx, UParam(0.0))
        assert fl_limit_at_infinity(ex1_ctx, UParam(0.0)) == pytest.approx(
            1.3567 * 0.9413, abs=2e-3
        )

    def test_accepted_u_is_finite(self, ex1_ctx):
        assert finitely_many_poles(ex1_ctx, UParam(-0.813))

    def test_strictly_proper_F_always_finite(self, ex2_ctx):
        for u in (UParam(0.0), UParam(0.9), UParam(-1.0)):
            assert finitely_many_poles(ex2_ctx, u)


class TestAdmissibleUinf:
    def test_ex1_interval(self, ex1_ctx):
        (lo, hi), = admissible_uinf(asymptotics(ex1_ctx))
        assert lo == pytest.approx(-0.9909, abs=5e-3)
        assert hi == pytest.approx(-0.6668, abs=5e-3)

    def test_zero_k_symmetric(self):
        ivs = admissible_uinf(AsymptoticData(f_inf=2.0, k=0.0, parity_odd=True, degree=1))
        assert ivs == [(-0.5, 0.5)]

    def test_small_f_inf_everything(self):
        ivs = admissible_uinf(AsymptoticData(f_inf=0.9, k=5.0, parity_odd=False, degree=2))
        assert ivs == [(-1.0, 1.0)]

    def test_sweep_agreement(self, ex1_ctx):
        # exhaustive agreement between the interval formula and the raw limit
        ivs = admissible_uinf(asymptotics(ex1_ctx))
        for u in np.arange(-1.0, 1.0 + 1e-9, 1e-3):
            inside = any(lo - 1e-12 <= u <= hi + 1e-12 for lo, hi in ivs)
            boundary = any(min(abs(u - lo), abs(u - hi)) < 2e-3 for lo, hi in ivs)
            if boundary:
                continue
            assert finitely_many_poles(ex1_ctx, UParam(float(u))) == inside, u


class TestPeakData:
    def test_ex1_best_candidate(self, ex1_ctx):
        pk = peak_data(ex1_ctx, [UParam(-0.8137)])[0]
        assert pk.omega_max == pytest.approx(19.469, abs=1e-2)
        assert pk.eta_max == pytest.approx(1.2644, abs=1e-3)

    def test_low_crossing_is_the_E_zero(self, ex1_ctx):
        # |F L_U| = 1 exactly at the imaginary-axis zero of E, for any U
        from strongstab.stability import _cleared_lu_polys, _even_to_x, _abs2_to_x

        w0 = ex1_ctx.betas[0].imag
        for u in (UParam(0.0), UParam(-0.75), UParam(0.3)):
            L2U, L1U = _cleared_lu_polys(ex1_ctx, u)
            num = _even_to_x(ex1_ctx.R.den)(w0**2) * _abs2_to_x(L2U)(w0**2)
            den = _even_to_x(ex1_ctx.R.num)(w0**2) * _abs2_to_x(L1U)(w0**2)
            assert abs(num / den) == pytest.approx(1.0, rel=1e-9)

    def test_no_crossing_when_contractive(self, ex2_ctx):
        pk = peak_data(ex2_ctx, [UParam(0.0)])[0]
        # |F L_U| starts above one here, so crossings exist; instead check a
        # shrunken parameter keeps eta finite and matches a dense grid
        om = np.linspace(1e-4, 50, 200001)
        ctrl_mag = np.abs(
            ex2_ctx.F(1j * om) * (ex2_ctx.L2(1j * om) / ex2_ctx.L1(1j * om))
        )
        assert pk.eta_max == pytest.approx(ctrl_mag.max(), rel=1e-6)
        assert pk.omega_max == pytest.approx(
            om[np.nonzero(ctrl_mag >= 1.0)[0][-1]], abs=1e-3
        )

    def test_infinite_case_reported(self, ex1_ctx):
        pk = peak_data(ex1_ctx, [UParam(0.0)])[0]
        assert pk.omega_max == np.inf

    def test_monotone_scaling_never_shrinks_omega_max(self, ex1_ctx):
        import dataclasses

        pk1 = peak_data(ex1_ctx, [UParam(-0.8137)])[0]
        ctx_scaled = dataclasses.replace(ex1_ctx, L2=ex1_ctx.L2 * 1.02)
        pk2 = peak_data(ctx_scaled, [UParam(-0.8137)])[0]
        assert pk2.omega_max >= pk1.omega_max - 1e-9


class TestChainsAndProperness:
    def test_ex1_central_chain(self, ex1_ctx):
        lim = fl_limit_at_infinity(ex1_ctx, UParam(0.0))
        assert chain_abscissa(0.1, lim) == pytest.approx(2.445, abs=5e-3)

    def test_no_chain_when_contractive(self):
        assert chain_abscissa(0.1, 0.5) is None

    def test_properness_cases(self, ex1, ex2):
        plant1, weights1, _ = ex1
        plant2, weights2, _ = ex2
        assert properness_criterion(weights1, plant1) == "possibly-infinite"
        assert properness_criterion(weights2, plant2) == "guaranteed-finite"
        w = WeightPair(W1=RationalFn(Poly([1.0]), Poly([1.0])),
                       W2=RationalFn(Poly([0.0, 1.0]), Poly([1.0])))
        assert properness_criterion(w, plant1) == "guaranteed-finite"


class TestScan:
    def test_polynomial_oracle_equivalence(self):
        rng = np.random.default_rng(7)
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
            expected = [r for r in roots if r.real > 0]
            scan = rhp_zero_scan(lambda s: p(s), 4.0, 4.0)
            assert scan.winding_total == len(expected)
            got = list(scan.zeros)
            for e in expected:
                i = min(range(len(got)), key=lambda k: abs(got[k] - e))
                assert abs(got[i] - e) < 1e-6
                got.pop(i)

    def test_excluded_zeros_not_counted(self):
        p = poly_from_roots([1.0 + 1j, 1.0 - 1j, 2.0], 1.0)
        scan = rhp_zero_scan(lambda s: p(s), 4.0, 4.0, excluded=[1.0 + 1j, 1.0 - 1j])
        assert len(scan.zeros) == 1
        assert scan.zeros[0] == pytest.approx(2.0, abs=1e-8)
        assert scan.winding_total == 3  # found + excluded inside

    def test_ex1_central_chain_count(self, ex1, ex1_ctx):
        # central controller: infinite chain at sigma ~ 2.445 spaced 2pi/h;
        # within |omega| < 100 exactly two conjugate pairs fall inside
        plant, weights, _ = ex1
        from strongstab.synthesis import build_controller

        ctrl = build_controller(plant, weights, ex1_ctx, UParam(0.0))
        excl = [complex(b) for b in ex1_ctx.betas]
        excl += [complex(np.conj(b)) for b in ex1_ctx.betas]
        scan = rhp_zero_scan(ctrl.loop_denominator, 6.0, 100.0, excluded=excl)
        assert len(scan.zeros) == 4
        sig = np.log(fl_limit_at_infinity(ex1_ctx, UParam(0.0))) / 0.1
        for z in scan.zeros:
            assert z.real == pytest.approx(sig, abs=0.15)

    def test_zero_on_the_window_boundary_raises(self):
        p = poly_from_roots([4.0 + 1.0j, 4.0 - 1.0j], 1.0)
        with pytest.raises(ScanError, match="too close to a zero"):
            rhp_zero_scan(lambda s: p(s), 4.0, 4.0)

    def test_pole_inside_the_window_raises(self):
        p = poly_from_roots([1.0 + 1.0j, 1.0 - 1.0j], 1.0)
        with pytest.raises(ScanError, match="negative winding"):
            rhp_zero_scan(lambda s: 1.0 / p(s), 4.0, 4.0)

    def test_zero_on_the_first_cut_line_moves_the_cut(self, monkeypatch):
        # the square window is first cut at sigma = 2 (fraction 0.5), through
        # the zero; that march fails and the cut moves to fraction 0.45
        cuts, safe_cut = [], stability._safe_cut

        def recording(*args, **kwargs):
            cuts.append(safe_cut(*args, **kwargs))
            return cuts[-1]

        monkeypatch.setattr(stability, "_safe_cut", recording)
        p = poly_from_roots([2.0 + 1.0j, 2.0 - 1.0j], 1.0)
        scan = rhp_zero_scan(lambda s: p(s), 4.0, 4.0, omega_min=0.0)
        assert cuts[0] == pytest.approx(1.8)
        assert scan.winding_total == 1
        assert scan.zeros[0] == pytest.approx(2.0 + 1.0j, abs=1e-8)

    def test_segment_table_marches_each_segment_once(self):
        # one segment passes 1e-3 from a zero and needs refinement
        p = poly_from_roots([1.0 + 1.0j, 1.0 - 1.0j, 0.5 + 2.0j, 0.5 - 2.0j, 3.0], 1.0)
        calls = []

        def f(s):
            calls.append(np.size(s))
            return p(s)

        segs = [(0.0 + 1.001j, 2.0 + 1.001j), (2.0 + 0.0j, 2.0 + 3.0j),
                (-1.0 - 1.0j, 1.0 + 2.0j)]
        memo = {}
        got = stability._march(f, memo, segs + [(b, a) for a, b in segs] + segs)
        assert got == [*got[:3], *(-v for v in got[:3]), *got[:3]]
        assert calls[0] == 3 * 64 and len(memo) == 3
        assert len(calls) > 1  # the first segment went through refinement
        ts = np.linspace(0.0, 1.0, 64)
        for (z0, z1), v in zip(segs, got):
            # the batch equals the one-segment march on the same samples
            assert stability._refine_march(p, z0, z1, ts, p(z0 + (z1 - z0) * ts)) == v
            # a fresh reversed march reads the negated value
            assert stability._march(p, {}, [(z1, z0)])[0] == pytest.approx(-v, abs=1e-12)
        n_calls = len(calls)
        assert stability._march(f, memo, segs[:1]) == got[:1]
        assert len(calls) == n_calls

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: two zeros within one of the march's 64 sample "
               "steps alias a -330 degree phase step to +30 degrees, below the "
               "pi/2 refinement rule",
    )
    def test_march_resolves_two_close_zeros(self):
        p = poly_from_roots([1.0 + 1e-3j, 1.0 - 1e-3j, 0.5 + 2.0j, 0.5 - 2.0j, 3.0], 1.0)
        z0, z1 = 0.002j, 2.0 + 0.002j
        v = p(z0 + (z1 - z0) * np.linspace(0.0, 1.0, 2_000_001))
        dense = np.angle(v[1:] / v[:-1]).sum()     # -6.2751 rad
        assert dense == pytest.approx(-6.2751, abs=1e-4)
        assert stability._march(p, {}, [(z0, z1)])[0] == pytest.approx(dense, abs=0.1)

    @pytest.mark.parametrize("f, cell, match", [
        (lambda s: np.ones_like(s), (0.0, 1e-4, 0.0, 1e-4), "zero derivative"),
        (lambda s: s - 5.0, (0.0, 1e-4, 0.0, 1e-4), "left its leaf cell"),
        # a real start stays on the real axis, where s^2 + 1 has no zero
        (lambda s: s * s + 1.0, (0.5, 0.5001, 0.0, 0.0), "did not converge"),
    ])
    def test_leaf_newton_failures_raise(self, f, cell, match):
        with pytest.raises(ScanError, match=match):
            stability._newton_zero(f, cell)


class TestCertify:
    def test_dirty_scan_skips_the_norm_check(self, ex1, ex1_ctx):
        # the central controller keeps its pole chain, so the norm is not run
        plant, weights, _ = ex1
        cert = certify(plant, weights, ex1_ctx, UParam(0.0), (6.0, 100.0))
        assert not cert.stable and len(cert.scan.zeros) == 4
        assert cert.norm is None and cert.norm_ok is False
        assert cert.scan.excluded == ex1_ctx.excluded_zeros()
