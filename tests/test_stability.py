import numpy as np
import pytest

from strongstab import stability
from strongstab.rational import FrequencyGrid, Poly, RationalFn, _horner, or_raise, poly_from_roots
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
        ivs = admissible_uinf(AsymptoticData(f_inf=2.0, k=0.0, degree=1))
        assert ivs == [(-0.5, 0.5)]

    def test_small_f_inf_and_k_everything(self):
        ivs = admissible_uinf(AsymptoticData(f_inf=0.9, k=0.5, degree=2))
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

    @pytest.mark.parametrize("f_inf, k, degree", [
        (0.5, 0.3, 1), (1.0, -1.0, 2),                  # f_inf, |k| <= 1: all of [-1, 1]
        (0.9, 5.0, 2), (1.0, -2.0, 1), (0.3, 1.5, 1),   # f_inf <= 1 < |k|: a < 0
        (1.5, np.inf, 1), (0.5, -np.inf, 2), (0.0, np.inf, 1),  # infinite k
        (1.3567, -0.9413, 1), (1.3567, -0.9413, 2),     # one interval (a > 0)
        (2.0, 0.0, 1), (1.1, 0.5, 2), (1.1, -0.99, 1),
        (1.5, 1.5, 1), (1.5, -1.5, 2), (1.0000001, 1.0000001, 1),  # linear (a = 0)
        (1.2, 2.0, 1), (1.2, -3.0, 2),                  # a < 0, f_inf > 1: empty
    ])
    def test_intervals_hold_their_inequality(self, f_inf, k, degree):
        # u_inf inside a returned interval exactly where
        # f_inf |k + v| <= |1 + k v|, v = (-1)^degree u_inf (f_inf <= |v| for
        # infinite k), on a fine grid away from the interval endpoints
        ivs = admissible_uinf(AsymptoticData(f_inf=f_inf, k=k, degree=degree))
        ends = np.array([e for iv in ivs for e in iv])
        for u in np.linspace(-1.0, 1.0, 20001)[1:-1]:
            if ends.size and np.abs(ends - u).min() < 1e-6:
                continue
            v = (-1.0) ** degree * u
            holds = f_inf <= abs(v) if np.isinf(k) else f_inf * abs(k + v) <= abs(1.0 + k * v)
            assert any(lo <= u <= hi for lo, hi in ivs) == holds, u


class TestPeakData:
    def test_ex1_best_candidate(self, ex1_ctx):
        pk = peak_data(ex1_ctx, [UParam(-0.8137)])[0]
        assert pk.omega_max == pytest.approx(19.469, abs=1e-2)
        assert pk.eta_max == pytest.approx(1.2644, abs=1e-3)

    def test_low_crossing_is_the_E_zero(self, ex1_ctx):
        # |F L_U| = 1 exactly at the imaginary-axis zero of E, for any U: in
        # the context's F, L1, L2 and in the stacked x-domain rows N / D that
        # peak_data's crossing test reads
        s0 = ex1_ctx.betas[0]
        L1, L2 = ex1_ctx.L1, ex1_ctx.L2
        us = [UParam(0.0), UParam(-0.75), UParam(0.3)]
        for u in us:
            lu = (L2(s0) + L1(-s0) * u.u_inf) / (L1(s0) + L2(-s0) * u.u_inf)
            assert abs(ex1_ctx.F(s0) * lu) == pytest.approx(1.0, rel=1e-9)
        (N, D), odd = stability._nd_rows(
            ex1_ctx, stability._lu_rows(ex1_ctx, *stability._u_rows(us)))
        x0 = np.full((len(us), 1), s0.imag**2)
        assert not odd.any()
        assert _horner(N, x0) / _horner(D, x0) == pytest.approx(np.ones((3, 1)), rel=1e-9)

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
            assert len(scan.zeros) == len(expected)
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
        inside = [z for z in scan.excluded if 0.0 < z.real < 4.0 and -4.0 < z.imag < 4.0]
        assert len(scan.zeros) + len(inside) == 3  # found + excluded inside

    def test_ex1_central_chain_count(self, ex1, ex1_ctx):
        # central controller: infinite chain at sigma ~ 2.445 spaced 2pi/h;
        # within |omega| < 100 exactly two conjugate pairs fall inside
        plant, _, _ = ex1
        from strongstab.synthesis import Controller

        ctrl = Controller(plant, ex1_ctx, UParam(0.0))
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

    def test_zero_on_the_first_cut_line_moves_the_cut(self):
        # the window [0, 4] x [-2, 2] is first cut at sigma = 2 (fraction
        # 0.5), through both zeros; that march fails in its place and the cut
        # moves to fraction 0.45
        p = poly_from_roots([2.0 + 1.0j, 2.0 - 1.0j], 1.0)
        [change] = stability._march(p, {}, [(2.0 - 2.0j, 2.0 + 2.0j)])
        assert isinstance(change, ScanError)
        [halves] = stability._split(p, {}, [(0.0, 4.0, -2.0, 2.0)])
        cut = pytest.approx(1.8)
        assert halves == [(0.0, cut, -2.0, 2.0), (cut, 4.0, -2.0, 2.0)]
        scan = rhp_zero_scan(lambda s: p(s), 4.0, 2.0)
        assert len(scan.zeros) == 2
        zeros = sorted(scan.zeros, key=lambda z: z.imag)
        assert zeros == pytest.approx([2.0 - 1.0j, 2.0 + 1.0j], abs=1e-8)

    def test_each_depth_raises_its_first_failed_check(self):
        # zeros on all nine candidate cut lines of the window's lower half
        # [0, 4] x [-4, -0.4], and a pole in its upper half: depth 1 checks
        # the upper half's negative winding before it splits any cell, so
        # none of the lower half's failing cuts is marched
        zs = [4.0 * frac - 2.0j for frac in stability._FRACS]
        seen = []

        def f(s):
            seen.extend(s)
            return np.prod([s - z for z in zs], axis=0) / (s - (2.0 + 2.0j))

        with pytest.raises(ScanError, match="negative winding"):
            rhp_zero_scan(f, 4.0, 4.0)
        assert seen and not any(0.0 < s.real < 4.0 and -4.0 < s.imag < -0.4 for s in seen)

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
        raises=AssertionError,
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

    def test_march_samples_the_delay_period(self):
        # 1 - 2 e^{-3s} vanishes at s = ln(2)/3 + 2 pi k j / 3: 95 zeros with
        # |omega| <= 100.  64 samples per edge read the window's winding as 15.
        def f(s):
            return 1.0 - 2.0 * np.exp(-3.0 * np.asarray(s))

        exact = np.log(2.0) / 3.0 + 2j * np.pi / 3.0 * np.arange(-47, 48)
        assert len(rhp_zero_scan(f, 1.0, 100.0, locate=False, h=3.0).zeros) == 95
        zeros = sorted(rhp_zero_scan(f, 1.0, 100.0, h=3.0).zeros, key=lambda z: z.imag)
        assert np.abs(np.array(zeros) - exact).max() < 1e-10
        # a segment that needs more than _MARCH_MAX_N samples fails
        [change] = stability._march(f, {}, [(0.0j, 1e5j)], 3.0)
        assert isinstance(change, ScanError) and "samples, over the budget" in str(change)

    def test_split_cell_whose_halves_lose_its_winding_raises(self):
        # a close pair 3.1e-4 apart: a cell of winding 1 splits into halves
        # of winding 0 + 0, where the scan used to return 5 of the 6 zeros
        zs = [1.1446433125512019 + 3.8617866277902904j, 1.144910064740574 + 3.8616335443943033j,
              3.379813021154276 + 2.9498064177259438j]
        p = poly_from_roots(zs + [z.conjugate() for z in zs], 1.0)
        with pytest.raises(ScanError, match="winding not conserved"):
            rhp_zero_scan(lambda s: p(s), 4.0, 4.0)

    @pytest.mark.parametrize("f, cell, match", [
        (lambda s: np.ones_like(s), (0.0, 1e-4, 0.0, 1e-4), "zero derivative"),
        (lambda s: s - 5.0, (0.0, 1e-4, 0.0, 1e-4), "left its leaf cell"),
        # a real start stays on the real axis, where s^2 + 1 has no zero
        (lambda s: s * s + 1.0, (0.5, 0.5001, 0.0, 0.0), "did not converge"),
        # above leaf size: the first iterate, -0.75, is outside the cell
        (lambda s: s * s + 1.0, (0.4, 0.6, -0.1, 0.1), "left its leaf cell"),
        # Newton's 2-cycle 0 <-> 1 of s^3 - 2s + 2, inside the cell
        (lambda s: s * s * s - 2.0 * s + 2.0, (-1.2, 1.2, -0.5, 0.5), "did not converge"),
    ])
    def test_leaf_newton_failures_raise(self, f, cell, match):
        with pytest.raises(ScanError, match=match):
            or_raise(stability._newton_zeros(f, [cell])[0])

    def test_newton_above_leaf_size_stops_at_its_first_iterate_outside(self):
        # a leaf may step out of its cell and back; a larger cell, which is
        # split when Newton fails, stops at once
        calls = []

        def f(s):
            calls.append(len(s))
            return s * s + 1.0

        [err] = stability._newton_zeros(f, [(0.4, 0.6, -0.1, 0.1)])
        assert isinstance(err, ScanError) and calls == [3]
        leaf = (-5e-5, 5e-5, 1.0 - 5e-5, 1.0 + 5e-5)
        assert stability._newton_zeros(f, [leaf])[0] == pytest.approx(1j, abs=1e-12)

    def test_leaf_polish_is_one_call_per_iteration(self):
        # two leaves that converge and one that never does, polished
        # together: each result is its leaf's polished alone, and every
        # iteration is one call of f
        calls = []

        def f(s):
            calls.append(len(s))
            return s * s + 1.0

        cells = [(-5e-5, 5e-5, 1.0 - 5e-5, 1.0 + 5e-5), (0.5, 0.5001, 0.0, 0.0),
                 (-5e-5, 5e-5, -1.0 - 5e-5, -1.0 + 5e-5)]
        together = stability._newton_zeros(f, cells)
        assert len(calls) == stability._NEWTON_ITERS and calls[0] == 9
        alone = [stability._newton_zeros(f, [cell])[0] for cell in cells]
        assert together[0] == alone[0] == pytest.approx(1j, abs=1e-12)
        assert together[2] == alone[2] == pytest.approx(-1j, abs=1e-12)
        assert isinstance(together[1], ScanError) and str(together[1]) == str(alone[1])


def _walked(f, cell, w, memo):
    """Each (leaf, winding) below 1e-4 that `_split` and `_windings` reach
    from `cell`, depth first with no Newton in between, and the number of
    cells they wound."""
    if max(cell[1] - cell[0], cell[3] - cell[2]) < 1e-4:
        return [(cell, w)], 0
    [halves] = stability._split(f, memo, [cell])
    leaves, cells = [], 2
    for half, hw in zip(halves, stability._windings(f, memo, halves)):
        if hw:
            below, n = _walked(f, half, hw, memo)
            leaves, cells = leaves + below, cells + n
    return leaves, cells


def _hex(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


class TestNewtonPinnedScan:
    # A winding-1 cell where Newton settles is not split further: its leaf
    # is found by halving, and the zero is polished from the same leaf
    # centre as when every cell is marched down to its leaf.
    @pytest.mark.parametrize("roots", [
        # the first cut of the cell [0, 2] x [-0.4, 1.8] passes 2e-16 from
        # 1.3 + 0.7j: its march fails and moves the cut, so that cell is
        # split, not halved
        [1.3 + 0.7j, 1.3 - 0.7j, 2.6],
        # pairs of zeros 1e-2 apart: a cell holding both (winding 2) is
        # split until each is alone in a winding-1 cell
        [1.23 + 0.77j, 1.24 + 0.77j, 1.23 - 0.77j, 1.24 - 0.77j],
    ])
    def test_zeros_equal_the_walk_to_the_leaves_bit_for_bit(self, roots):
        f = poly_from_roots(roots, 1.0)
        window = (0.0, 4.0, -4.0, 4.0)
        memo = {}
        [wind] = stability._windings(f, memo, [window])
        leaves, cells = _walked(f, window, wind, memo)
        want = sorted((or_raise(z) for (leaf, w) in leaves
                       for z in stability._newton_zeros(f, [leaf]) * w),
                      key=lambda z: (z.real, z.imag))
        scan = rhp_zero_scan(f, 4.0, 4.0)
        assert _hex(scan.zeros) == _hex(want)
        assert len(scan.zeros) == len(roots)
        assert all(min(abs(z - r) for z in scan.zeros) < 1e-12 for r in roots)
        assert scan.cells_scanned < 1 + cells

    def test_newton_leaving_a_winding_one_cell_falls_back_to_splitting(self):
        # from the window's centre 2, Newton heads for the zero at -0.5,
        # outside the window, so the window is split as before
        z0 = 3.3 + 3.6j

        def f(s):
            return (s - z0) * (s + 0.5)

        window = (0.0, 4.0, -4.0, 4.0)
        assert stability._windings(f, {}, [window]) == [1]
        [err] = stability._newton_zeros(f, [window])
        assert isinstance(err, ScanError) and "left its leaf cell" in str(err)
        scan = rhp_zero_scan(f, 4.0, 4.0)
        assert scan.cells_scanned > 1
        assert scan.zeros == [pytest.approx(z0, abs=1e-12)]


    def test_double_zero_is_one_leaf_of_winding_two(self):
        # Newton runs only in cells of winding 1, so the double zero's cell is
        # split down to a leaf, polished once and listed twice
        def f(s):
            return (s - 1) ** 2 * (s - 2 - 1j) * (s - 2 + 1j)

        zeros = rhp_zero_scan(f, 4.0, 4.0).zeros
        assert zeros == [pytest.approx(1, abs=1e-9)] * 2 + [
            pytest.approx(2 - 1j, abs=1e-9), pytest.approx(2 + 1j, abs=1e-9)]
        assert zeros[0] == zeros[1]


class TestCertify:
    def test_dirty_scan_skips_the_norm_check(self, ex1, ex1_ctx, monkeypatch):
        # the central controller keeps its pole chain, so the norm is not run
        plant, weights, _ = ex1
        monkeypatch.setattr(stability, "_scan_window", lambda *_: (6.0, 100.0))
        cert = certify(plant, weights, ex1_ctx, UParam(0.0), FrequencyGrid())
        assert not cert.stable and len(cert.scan.zeros) == 4
        assert np.isnan(cert.scan.zeros).all()      # counted, not located
        assert cert.norm is None and cert.norm_ok is False
        assert cert.scan.excluded == ex1_ctx.excluded_zeros()
