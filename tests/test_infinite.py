import dataclasses

import numpy as np
import pytest

import strongstab.infinite as infinite
import strongstab.stability as stability
from strongstab.infinite import (
    SearchExhausted,
    l1u_stability_range,
    stabilize_infinite,
    sweep_report,
)
from strongstab.rational import RootConvergenceError, poly_roots
from strongstab.stability import admissible_uinf, asymptotics, peak_data, rhp_zero_scan
from strongstab.synthesis import UParam, build_context


class TestL1UStability:
    def test_ex1_range(self, ex1_ctx):
        lo, hi = l1u_stability_range(ex1_ctx, 1e-3)
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

    def test_exhausted_when_no_admissible(self, ex1, ex1_ctx):
        # an absurdly restrictive grid: u_p values that violate the norm bound
        plant, weights, opts = ex1
        opts = dataclasses.replace(opts, uz_grid=(50.0,))
        with pytest.raises(SearchExhausted):
            stabilize_infinite(plant, weights, ex1_ctx, opts)


class TestSufficientCondition:
    def test_sufficiency_confirmed_by_scan(self, ex1, ex1_ctx):
        # with |F L_U| <= 1 everywhere and a Hurwitz L_1U the loop denominator
        # cannot vanish in the open right half plane; the scan must agree
        from strongstab.stability import peak_data, rhp_zero_scan, scan_window_for
        from strongstab.synthesis import build_controller

        plant, _, _ = ex1
        ctx = dataclasses.replace(ex1_ctx, L2=ex1_ctx.L2 * 0.4)
        u = UParam(0.0)
        pk = peak_data(ctx, [u])[0]
        assert pk.eta_max <= 1.0
        ctrl = build_controller(plant, ctx, u)
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
        _, _, opts = ex1
        rows = sweep_report(ex1_ctx, dataclasses.replace(opts, uinf_step=5e-3), {})
        assert len(rows) > 30
        finite_rows = [r for r in rows if r[1] is not None]
        best = min(finite_rows, key=lambda r: r[1])
        assert best[0] == pytest.approx(-0.813, abs=5e-3)
        assert best[1] == pytest.approx(19.47, abs=0.5)

    @pytest.mark.parametrize("keep", [1, 3])
    def test_search_peaks_reused(self, ex1, ex1_ctx, ex1_search, monkeypatch, keep):
        # the rows the search computed are reused; only the others are
        # computed, and the dict passed in is left as it was
        _, _, opts = ex1
        fresh = sweep_report(ex1_ctx, opts, {})
        known = dict(list(ex1_search.peaks.items())[::keep])
        keys = list(known)
        computed = []
        real = infinite.peak_data

        def counted(ctx, us):
            computed.extend(us)
            return real(ctx, us)

        monkeypatch.setattr(infinite, "peak_data", counted)
        assert sweep_report(ex1_ctx, opts, known) == fresh
        assert sorted(u.u_inf for u in computed) == sorted(
            r[0] for r in fresh if UParam(r[0]) not in known)
        assert len(computed) == (0 if keep == 1 else len(fresh) - len(known))
        assert list(known) == keys

    def test_eta_against_dense_grid(self, ex1_ctx):
        # eta_max at a sweep point agrees with a dense-grid supremum
        from strongstab.stability import peak_data

        u = UParam(-0.99)
        pk = peak_data(ex1_ctx, [u])[0]
        om = np.linspace(1e-5, 200.0, 100001)
        mag = np.abs(
            ex1_ctx.F(1j * om)
            * (ex1_ctx.L2(1j * om) + ex1_ctx.L1(-1j * om) * u.u_inf)
            / (ex1_ctx.L1(1j * om) + ex1_ctx.L2(-1j * om) * u.u_inf)
        )
        assert pk.eta_max == pytest.approx(mag.max(), rel=1e-3)


def reference_hurwitz(ctx, u):
    L1U = stability._cleared_lu_polys(ctx, u)[1]
    if L1U.degree == 0:
        return L1U.c[0] != 0.0
    return all(r.real < 0 for r in poly_roots(L1U).expanded())


class TestChunkedCandidates:
    """Chunked, stacked root extraction against loops over one candidate at a time."""

    @pytest.fixture(params=[0.814, 0.8140000003])
    def level(self, request, ex1, ex1_ctx, monkeypatch):
        # a chunk size that puts chunk boundaries inside every candidate list
        monkeypatch.setattr(infinite, "_CHUNK", 7)
        plant, weights, opts = ex1
        rho = request.param
        ctx = ex1_ctx if rho == 0.814 else build_context(
            plant, weights, rho, opts.interp_a)
        return ctx, opts

    def test_candidates_equal_one_at_a_time(self, level):
        ctx, opts = level
        intervals = admissible_uinf(asymptotics(ctx))
        expected = []
        for ui in infinite._interval_grid(intervals, opts.uinf_step):
            u = UParam(float(ui))
            if u.sup_norm() > 1.0 or not reference_hurwitz(ctx, u):
                continue
            pk = peak_data(ctx, [u])[0]
            if pk.omega_max is not None and not np.isfinite(pk.omega_max):
                continue
            expected.append((u, pk))
        assert len(expected) > 100
        assert infinite._candidates(ctx, opts, intervals, {}) == expected

    def test_sweep_rows_equal_one_at_a_time(self, level):
        ctx, opts = level
        expected = []
        for lo, hi in admissible_uinf(asymptotics(ctx)):
            for ui in infinite._interval_grid([(lo, hi)], opts.uinf_step):
                pk = peak_data(ctx, [UParam(float(ui))])[0]
                wm = pk.omega_max
                expected.append((float(ui), None if wm is None else float(wm), pk.eta_max))
        assert sweep_report(ctx, opts, {}) == expected

    def test_l1u_range_equals_one_at_a_time(self, level):
        ctx, _ = level
        us = np.arange(-1.0, 1.0 + 1e-3 / 2, 1e-3)
        ok = [reference_hurwitz(ctx, UParam(float(u))) for u in us]
        runs, start = [], None
        for i, good in enumerate(ok + [False]):
            if good and start is None:
                start = i
            if not good and start is not None:
                runs.append((start, i - 1))
                start = None
        lo, hi = max(runs, key=lambda r: r[1] - r[0])
        assert l1u_stability_range(ctx, 1e-3) == (float(us[lo]), float(us[hi]))

    @pytest.mark.parametrize("t_fails", [True, False])
    def test_first_failure_in_candidate_order_is_raised(self, level, monkeypatch, t_fails):
        # L_1U of the sixth candidate fails; the crossing polynomial of the
        # third fails too when `t_fails`, and that candidate comes first
        ctx, opts = level
        real = poly_roots
        calls = []

        def failing_roots(ps):
            # the first chunk's calls: L_1U, then T, then Q
            out = real(ps)
            calls.append(len(ps))
            if len(calls) == 1:
                out[5] = RootConvergenceError("L_1U of candidate 5")
            if len(calls) == 2 and t_fails:
                out[2] = RootConvergenceError("T of candidate 2")
            return out

        monkeypatch.setattr(stability, "poly_roots", failing_roots)
        with pytest.raises(RootConvergenceError) as info:
            infinite._candidates(ctx, opts, admissible_uinf(asymptotics(ctx)), {})
        assert str(info.value) == ("T of candidate 2" if t_fails else "L_1U of candidate 5")
        assert calls == [7, 5, 5]   # peak data only for the candidates before the failure
