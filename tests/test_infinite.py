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
from strongstab.rational import Poly, RootConvergenceError, poly_roots
from strongstab.stability import (
    PeakData,
    admissible_uinf,
    asymptotics,
    fl_limit_at_infinity,
    peak_data,
    rhp_zero_scan,
)
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

    def test_u_grid_keeps_norms_up_to_the_ball_bound(self):
        # the grid keeps U by the bound `certify` accepts, not by 1.0
        u = UParam(1.0, 1 + 5e-10, 1.0)
        assert u.sup_norm() == 1 + 5e-10
        assert u in infinite._u_grid([(-1, 1)], 0.5, (1.0,), (1 + 5e-10,))


class TestSufficientCondition:
    def test_sufficiency_confirmed_by_scan(self, ex1, ex1_ctx):
        # with |F L_U| <= 1 everywhere and a Hurwitz L_1U the loop denominator
        # cannot vanish in the open right half plane; the scan must agree
        from strongstab.stability import _scan_window, peak_data, rhp_zero_scan
        from strongstab.synthesis import Controller

        plant, _, _ = ex1
        ctx = dataclasses.replace(ex1_ctx, L2=ex1_ctx.L2 * 0.4)
        u = UParam(0.0)
        pk = peak_data(ctx, [u])[0]
        assert pk.eta_max <= 1.0
        ctrl = Controller(plant, ctx, u)
        sig, om = _scan_window(ctrl, pk, 1)
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


# ---------------------------------------------------------------------------
# the per-candidate Poly chain: the independent oracle of the stacked sweep
# ---------------------------------------------------------------------------

def cleared_lu_polys(ctx, u):
    """(L2U, L1U) as polynomials after clearing the U denominator."""
    L1, L2 = ctx.L1, ctx.L2
    if u.is_constant:
        return (L2 + L1.mirror() * u.u_inf, L1 + L2.mirror() * u.u_inf)
    up = Poly([u.u_p, 1.0])
    uz = Poly([u.u_z, 1.0]) * u.u_inf
    return (L2 * up + L1.mirror() * uz, L1 * up + L2.mirror() * uz)


def fl_limit(f_inf, L2U, L1U):
    d = max(L2U.degree, L1U.degree)
    c2 = L2U.c[d] if L2U.degree == d else 0.0
    c1 = L1U.c[d] if L1U.degree == d else 0.0
    if c1 == 0.0:
        return float(np.inf) if c2 != 0 else f_inf
    return f_inf * abs(c2 / c1)


def even_to_x(p):
    cx = p.even_part_coeffs()
    return Poly(cx * (-1.0) ** np.arange(len(cx)))


def abs2_to_x(p):
    return even_to_x(p * p.mirror())


def roots_of(p):
    return poly_roots(Poly([1.0]) if p.is_zero else p)


def x_polys(ctx, u):
    """|F L_U|^2 = N_x / D_x in x = w^2, its crossing polynomial T and its
    stationary-point polynomial Q, as Poly products."""
    L2U, L1U = cleared_lu_polys(ctx, u)
    N_x = even_to_x(ctx.R.den) * abs2_to_x(L2U)
    D_x = even_to_x(ctx.R.num) * abs2_to_x(L1U)
    return N_x, D_x, N_x - D_x, N_x.deriv() * D_x - N_x * D_x.deriv()


def reference_peak(ctx, u):
    """PeakData of one U from `x_polys`: one `poly_roots` call per
    polynomial, one loop per root."""
    N_x, D_x, T, Q = x_polys(ctx, u)
    lim = fl_limit(stability._f_infinity(ctx), *cleared_lu_polys(ctx, u))
    crossings = []
    for r in roots_of(T).roots:
        if abs(r.imag) < 1e-7 * (1 + abs(r)) and r.real > 1e-12:
            x = r.real
            dx = 1e-6 * (1 + x)
            if (T(x - dx).real) * (T(x + dx).real) < 0:
                crossings.append(np.sqrt(x))
    omega_max = max(crossings) if crossings else None
    if lim > 1.0 + 1e-12:
        omega_max = float(np.inf)
    xs = [0.0] + [r.real for r in roots_of(Q).roots
                  if abs(r.imag) < 1e-7 * (1 + abs(r)) and r.real > 0]
    eta = max(np.sqrt(max(N_x(x).real / D_x(x).real, 0.0)) for x in xs)
    return PeakData(omega_max=None if omega_max is None else float(omega_max),
                    eta_max=float(max(eta, lim)))


def reference_hurwitz(ctx, u):
    L1U = cleared_lu_polys(ctx, u)[1]
    if L1U.degree == 0:
        return L1U.c[0] != 0.0
    return all(r.real < 0 for r in poly_roots(L1U).expanded())


def reference_candidates(ctx, opts, intervals):
    """`_candidates` as a loop over one candidate at a time."""
    out = []
    for up in opts.up_grid:
        for uz in opts.uz_grid:
            for ui in infinite._interval_grid(intervals, opts.uinf_step):
                u = UParam(float(ui), float(uz), float(up))
                if u.sup_norm() > 1.0 or not reference_hurwitz(ctx, u):
                    continue
                pk = reference_peak(ctx, u)
                if pk.omega_max is None or np.isfinite(pk.omega_max):
                    out.append((u, pk))
    return out


class TestStackedCandidates:
    """The stacked sweep against the per-candidate Poly chain."""

    @pytest.fixture(params=[0.814, 0.8140000003])
    def level(self, request, ex1, ex1_ctx):
        plant, weights, opts = ex1
        rho = request.param
        ctx = ex1_ctx if rho == 0.814 else build_context(
            plant, weights, rho, opts.interp_a)
        return ctx, opts

    def test_oracle_crosses_at_the_E_zero(self, ex1_ctx):
        # the oracle's N_x / D_x is 1 at the imaginary-axis zero of E, for any U
        x0 = ex1_ctx.betas[0].imag ** 2
        for u in (UParam(0.0), UParam(-0.75), UParam(0.3), UParam(-0.5, 0.3, 2.0)):
            N_x, D_x, _, _ = x_polys(ex1_ctx, u)
            assert N_x(x0).real / D_x(x0).real == pytest.approx(1.0, rel=1e-9)

    def test_candidates_equal_oracle(self, level):
        ctx, opts = level
        intervals = admissible_uinf(asymptotics(ctx))
        expected = reference_candidates(ctx, opts, intervals)
        assert len(expected) > 100
        assert infinite._candidates(ctx, opts, intervals, {}) == expected

    def test_sweep_rows_equal_oracle(self, level):
        ctx, opts = level
        expected = []
        for lo, hi in admissible_uinf(asymptotics(ctx)):
            for ui in infinite._interval_grid([(lo, hi)], opts.uinf_step):
                pk = reference_peak(ctx, UParam(float(ui)))
                wm = pk.omega_max
                expected.append((float(ui), None if wm is None else float(wm), pk.eta_max))
        assert sweep_report(ctx, opts, {}) == expected

    def test_l1u_range_equals_oracle(self, level):
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

    @pytest.mark.parametrize("fails", ["T", "Q", None])
    def test_first_failure_in_candidate_order_is_raised(self, level, monkeypatch, fails):
        # L_1U of the sixth candidate fails; the crossing (T) or stationary-point
        # (Q) polynomial of the third fails too when `fails` says so, and that
        # candidate comes first.  Failures are injected by polynomial content,
        # so they hold in any batching of the calls.
        ctx, opts = level
        intervals = admissible_uinf(asymptotics(ctx))
        us = [UParam(float(ui)) for ui in infinite._interval_grid(intervals, opts.uinf_step)]
        bad = {"L_1U of candidate 5": cleared_lu_polys(ctx, us[5])[1].c}
        if fails:
            bad[f"{fails} of candidate 2"] = x_polys(ctx, us[2])[2 if fails == "T" else 3].c
        real = poly_roots

        def failing_roots(ps):
            out = real(ps)
            for i, row in enumerate(ps):
                for why, c in bad.items():
                    if np.array_equal(np.trim_zeros(row, "b"), c):
                        out[i] = RootConvergenceError(why)
            return out

        monkeypatch.setattr(stability, "poly_roots", failing_roots)
        with pytest.raises(RootConvergenceError) as info:
            infinite._candidates(ctx, opts, intervals, {})
        assert str(info.value) == (f"{fails} of candidate 2" if fails else "L_1U of candidate 5")

    def test_dropped_candidate_failures_are_not_raised(self, ex1, ex1_ctx, monkeypatch):
        # L_1U stops being Hurwitz at about u_inf = 0.98: a failing root
        # extraction of T or Q of a candidate dropped there changes nothing
        _, _, opts = ex1
        intervals = [(-0.7, -0.68), (0.97, 1.0)]
        expected = reference_candidates(ex1_ctx, opts, intervals)
        dropped = [UParam(float(ui)) for ui in infinite._interval_grid(intervals, opts.uinf_step)
                   if not reference_hurwitz(ex1_ctx, UParam(float(ui)))]
        assert expected and dropped
        bad = [p.c for u in dropped for p in x_polys(ex1_ctx, u)[2:]]
        real = poly_roots

        def failing_roots(ps):
            out = real(ps)
            for i, row in enumerate(ps):
                if any(np.array_equal(np.trim_zeros(row, "b"), c) for c in bad):
                    out[i] = RootConvergenceError("T or Q of a dropped candidate")
            return out

        monkeypatch.setattr(stability, "poly_roots", failing_roots)
        assert infinite._candidates(ex1_ctx, opts, intervals, {}) == expected

    def test_first_order_u_equals_oracle(self, ex1, ex1_ctx):
        # |L2U|^2 is a 3 x 3 product here, whose sums numpy's convolve orders
        # differently: the same candidates, peak data to rounding
        _, _, opts = ex1
        opts = dataclasses.replace(opts, up_grid=(0.5, 2.0), uz_grid=(0.0, 0.3), uinf_step=1e-2)
        intervals = admissible_uinf(asymptotics(ex1_ctx))
        expected = reference_candidates(ex1_ctx, opts, intervals)
        got = infinite._candidates(ex1_ctx, opts, intervals, {})
        assert len(expected) > 100
        assert [u for u, _ in got] == [u for u, _ in expected]
        for (_, pk), (_, ref) in zip(got, expected):
            assert pk.omega_max == pytest.approx(ref.omega_max, rel=1e-12)
            assert pk.eta_max == pytest.approx(ref.eta_max, rel=1e-12)

    def test_cancelled_leading_coefficient(self, ex1_ctx):
        # L2~ leading coefficient exactly -L1's: at u_inf = 1 the leading
        # coefficients of L2U and L1U cancel to 0.0, so both rows drop a degree
        ctx = dataclasses.replace(ex1_ctx, L2=Poly([ex1_ctx.L2.c[0], 1.0]))
        us = [UParam(v) for v in (-1.0, -0.5, 0.0, 0.5, 0.999, 1.0)]
        LU = stability._lu_rows(ctx, *stability._u_rows(us))
        f_inf = stability._f_infinity(ctx)
        for k, u in enumerate(us):
            L2U, L1U = cleared_lu_polys(ctx, u)
            assert stability._top(LU[0])[k] == L2U.degree
            assert stability._top(LU[1])[k] == L1U.degree
            assert fl_limit_at_infinity(ctx, u) == fl_limit(f_inf, L2U, L1U)
            try:
                ref = reference_peak(ctx, u)
            except (ValueError, RootConvergenceError) as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    peak_data(ctx, [u])
            else:
                assert peak_data(ctx, [u]) == [ref]
        assert cleared_lu_polys(ctx, us[-1])[1].degree == 0
