import numpy as np
import pytest

from strongstab.infinite import (
    InfSearchConfig,
    SearchExhausted,
    l1u_stability_range,
    stabilize_infinite,
    sweep_report,
)
from strongstab.stability import rhp_zero_scan
from strongstab.synthesis import UParam, build_context


class TestL1UStability:
    def test_ex1_range(self, ex1_ctx):
        lo, hi = l1u_stability_range(ex1_ctx)
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(0.98, abs=1e-2)


class TestSearch:
    def test_ex1_outcome(self, ex1_search):
        res = ex1_search
        assert res.cert.stable
        assert res.u.u_inf == pytest.approx(-0.813, abs=2e-3)
        assert res.u.is_constant
        assert res.peak.omega_max == pytest.approx(19.458, abs=0.5)
        assert res.peak.eta_max > 1.0
        assert res.cert.scan.zeros == []
        assert res.cert.norm <= 0.814 * 1.001

    def test_ex1_excluded_are_E_zeros(self, ex1_search, ex1_ctx):
        expected = {complex(b) for b in ex1_ctx.betas}
        expected |= {complex(np.conj(b)) for b in ex1_ctx.betas}
        assert set(ex1_search.cert.scan.excluded) == expected
        for b in ex1_ctx.betas:
            assert abs(b - 1.056j) < 5e-3

    def test_reverification_doubled_window(self, ex1, ex1_search):
        # independent re-run with doubled window finds the same empty zero set
        plant, weights, _ = ex1
        res = ex1_search
        scan = rhp_zero_scan(
            res.cert.controller.loop_denominator,
            res.cert.scan.sigma_max * 2,
            res.cert.scan.omega_bound * 2,
            excluded=res.cert.scan.excluded,
        )
        assert scan.zeros == []

    def test_rho_below_gamma_opt_guard(self, ex1, ex1_gamma):
        plant, weights, opts = ex1
        from strongstab.synthesis import build_controller

        bad = build_context(plant, weights, ex1_gamma.gamma * 0.98,
                            "suboptimal", opts.interp_a)
        with pytest.raises(ValueError):
            build_controller(plant, weights, bad, UParam(0.0),
                             gamma_opt_value=ex1_gamma.gamma)

    def test_exhausted_when_no_admissible(self, ex1, ex1_ctx):
        # an absurdly restrictive grid: u_p values that violate the norm bound
        plant, weights, opts = ex1
        cfg = InfSearchConfig(rho=0.814, uinf_step=1e-3, up_grid=(0.0,),
                              uz_grid=(50.0,), interp_a=opts.interp_a)
        with pytest.raises(SearchExhausted):
            stabilize_infinite(plant, weights, cfg, ctx=ex1_ctx)


class TestSufficientCondition:
    def test_sufficiency_confirmed_by_scan(self, ex1, ex1_ctx):
        # with |F L_U| <= 1 everywhere and a Hurwitz L_1U the loop denominator
        # cannot vanish in the open right half plane; the scan must agree
        import dataclasses

        from strongstab.stability import peak_data, rhp_zero_scan, scan_window_for
        from strongstab.synthesis import build_controller

        plant, weights, _ = ex1
        ctx = dataclasses.replace(ex1_ctx, L2=ex1_ctx.L2 * 0.4)
        u = UParam(0.0)
        pk = peak_data(ctx, u)
        assert pk.eta_max <= 1.0
        ctrl = build_controller(plant, weights, ctx, u)
        sig, om = scan_window_for(ctx, plant, u, pk)
        excl = [complex(b) for b in ctx.betas]
        excl += [complex(np.conj(b)) for b in ctx.betas]
        # the scaled pair no longer interpolates, so nothing cancels at the
        # E zeros either: scan with no exclusions at all
        scan = rhp_zero_scan(ctrl.loop_denominator, sig, om)
        assert scan.zeros == []

    def test_rank_key_tie_breaks(self):
        from strongstab.infinite import _rank_key
        from strongstab.stability import PeakData

        pk = PeakData(omega_max=5.0, eta_max=1.1)
        a = (UParam(-0.4), pk)
        b = (UParam(0.3), pk)
        c = (UParam(0.3, 1.0, 2.0), pk)
        ranked = sorted([a, b, c], key=_rank_key)
        assert ranked[0][0].u_inf == 0.3 and ranked[0][0].u_p == 0.0
        assert ranked[1][0].u_p == 2.0
        assert ranked[2][0].u_inf == -0.4


class TestSweep:
    def test_ex1_sweep_minimum(self, ex1, ex1_ctx):
        plant, weights, opts = ex1
        cfg = InfSearchConfig(rho=0.814, uinf_step=5e-3, interp_a=opts.interp_a)
        rows = sweep_report(plant, weights, cfg, ctx=ex1_ctx)
        assert len(rows) > 30
        finite_rows = [r for r in rows if r[1] is not None]
        best = min(finite_rows, key=lambda r: r[1])
        assert best[0] == pytest.approx(-0.813, abs=5e-3)
        assert best[1] == pytest.approx(19.47, abs=0.5)

    def test_eta_against_dense_grid(self, ex1_ctx):
        # eta_max at a sweep point agrees with a dense-grid supremum
        from strongstab.stability import peak_data

        u = UParam(-0.99)
        pk = peak_data(ex1_ctx, u)
        om = np.linspace(1e-5, 200.0, 100001)
        mag = np.abs(
            ex1_ctx.F(1j * om)
            * (ex1_ctx.L2(1j * om) + ex1_ctx.L1(-1j * om) * u.u_inf)
            / (ex1_ctx.L1(1j * om) + ex1_ctx.L2(-1j * om) * u.u_inf)
        )
        assert pk.eta_max == pytest.approx(mag.max(), rel=1e-3)
