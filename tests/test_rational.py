import struct

import numpy as np
import pytest

import strongstab.rational as rational
import strongstab.synthesis as synthesis
from strongstab.rational import (
    FrequencyGrid,
    PoleEvaluationError,
    Poly,
    RationalFn,
    RootConvergenceError,
    blaschke,
    grid_sup,
    poly_from_roots,
    poly_roots,
)


def match_roots(expected, got, tol=1e-8):
    got = list(got)
    assert len(expected) == len(got)
    for e in expected:
        i = min(range(len(got)), key=lambda k: abs(got[k] - e))
        assert abs(got[i] - e) <= tol * (1 + abs(e)), (e, got)
        got.pop(i)


class TestPolyRoots:
    def test_pure_imaginary_pair(self):
        rs = poly_roots(Poly([1.0, 0.0, 1.0]))
        match_roots([1j, -1j], rs)

    def test_benchmark_quadratic(self):
        # numerator of the inner factor built from the benchmark's zero pair
        rs = poly_roots(Poly([4.9943, -0.0574, 1.0]))
        match_roots([0.0287 + 2.2346j, 0.0287 - 2.2346j], rs, tol=1e-4)

    @pytest.mark.parametrize("degree", [6, 10])
    def test_round_trip(self, degree):
        rng = np.random.default_rng(42 + degree)
        for _ in range(15):
            roots = []
            while len(roots) < degree:
                if rng.random() < 0.5 and degree - len(roots) >= 2:
                    re, im = rng.uniform(-4, 4), rng.uniform(0.2, 4)
                    cand = [complex(re, im), complex(re, -im)]
                else:
                    cand = [complex(rng.uniform(-4, 4))]
                if any(abs(c - r) < 0.1 for c in cand for r in roots):
                    continue
                roots += cand
            lead = rng.uniform(0.3, 3.0)
            p = poly_from_roots(roots, lead)
            rec = poly_roots(p)
            assert len(rec) == degree
            match_roots(roots, rec, tol=1e-7)
            back = poly_from_roots(rec, lead)
            np.testing.assert_allclose(back.c, p.c, rtol=1e-8, atol=1e-10)

    def test_conjugate_symmetry_enforced(self):
        roots = poly_roots(Poly([2.0, 0.3, -1.1, 1.0]))
        for r in roots:
            if r.imag != 0:
                assert any(abs(rr - np.conj(r)) < 1e-12 for rr in roots)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "item 9(d): a double real root split further than REAL_SNAP_TOL off the "
        "axis comes back as two copies of one member of the pair"))
    def test_double_real_root_lists_are_closed(self):
        # (s + a)^2 (s + b): 8 of these 100 lists hold one of -a +- e j
        # twice and the other not at all, e from 3.0e-9 to 1.8e-8
        rng = np.random.default_rng(0)
        key = lambda r: (r.real, r.imag)        # noqa: E731
        for _ in range(100):
            a, b = rng.uniform(0.1, 5.0, 2)
            roots = poly_roots(poly_from_roots([-a, -a, -b]))
            assert sorted(roots, key=key) == sorted((r.conjugate() for r in roots), key=key), roots

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Poly([0.0]))

    def test_double_real_root(self):
        # the zero W1 and W2 share at s = -sqrt(5) in example 2 makes x = 5 a
        # double root of the spectral ratio's x-polynomial
        for coeffs in (
            # numerator at rho = 1.945398944586238
            [-1.2150791078313732, 0.4860316431325493, -0.048603164313254926],
            # an exact double root, where an unguarded Newton step overshoots
            [-0.6645339354010678, 0.2658135741604273, -0.026581357416042742],
        ):
            rs = poly_roots(Poly(coeffs))
            assert len(rs) == 2
            for r in rs:
                assert abs(r - 5.0) <= 1e-6


def reference_poly_roots(p, tol=1e-9):
    """The per-polynomial extraction that the stacked `poly_roots` replaced."""
    if p.is_zero:
        raise ValueError("cannot extract roots of the zero polynomial")
    z = np.roots(p.c[::-1]).astype(complex)
    pv = p(z)
    dp = p.deriv()
    for _ in range(3):
        dv = dp(z)
        zn = z - pv / np.where(dv == 0, 1.0, dv)
        pn = p(zn)
        better = (dv != 0) & (np.abs(pn) < np.abs(pv))
        z, pv = np.where(better, zn, z), np.where(better, pn, pv)
    if len(z):
        worst = float((np.abs(pv) / np.maximum(p.scale_at(z), 1e-300)).max())
        if worst > tol:
            raise RootConvergenceError(
                f"root extraction failed its residual check (worst {worst:.3e})", worst
            )
    z = np.where(np.abs(z.imag) < rational.REAL_SNAP_TOL * (1 + np.abs(z.real)),
                 z.real + 0j, z)
    used = np.zeros(len(z), dtype=bool)
    roots = []
    for i in np.argsort(z.real):
        if used[i]:
            continue
        zi = z[i]
        if zi.imag == 0:
            roots.append(complex(zi))
            used[i] = True
            continue
        best, bestd = -1, np.inf
        for j in range(len(z)):
            if j == i or used[j] or z[j].imag == 0:
                continue
            d = abs(z[j] - np.conj(zi))
            if d < bestd:
                best, bestd = j, d
        if best < 0 or bestd > 1e-6 * (1 + abs(zi)):
            if abs(zi.imag) < 1e-6 * (1 + abs(zi)):
                roots.append(complex(zi.real))
                used[i] = True
                continue
            raise RootConvergenceError(f"conjugate pairing failed for root {zi}", bestd)
        paired = 0.5 * (zi + np.conj(z[best]))
        roots.append(complex(paired))
        roots.append(complex(np.conj(paired)))
        used[i] = used[best] = True
    out_roots, out_mult = [], []
    for r in roots:
        for k, rr in enumerate(out_roots):
            if abs(r - rr) <= rational.ROOT_MATCH_TOL * (1 + abs(rr)):
                out_mult[k] += 1
                break
        else:
            out_roots.append(r)
            out_mult.append(1)
    return [r for r, m in zip(out_roots, out_mult) for _ in range(m)]


def bits(result):
    """A root extraction's outcome, bit for bit: its root list (each repeated
    root once per copy), or the error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return [struct.pack("<dd", r.real, r.imag) for r in result]


def reference_bits(p, tol=1e-9):
    try:
        return bits(reference_poly_roots(p, tol))
    except (ValueError, RootConvergenceError) as exc:
        return bits(exc)


def single_bits(p):
    try:
        return bits(poly_roots(p))
    except (ValueError, RootConvergenceError) as exc:
        return bits(exc)


def assert_stacked_equals_reference(polys, tol=1e-9):
    expected = [reference_bits(p, tol) for p in polys]
    assert [bits(r) for r in poly_roots(polys)] == expected
    assert [single_bits(p) for p in polys] == expected


class TestStackedPolyRoots:
    @pytest.mark.parametrize("config", ["ex1", "ex2"])
    def test_gamma_opt_scan_polynomials(self, config, request, monkeypatch):
        plant, weights, opts = request.getfixturevalue(config)
        seen = []
        original = rational.poly_roots

        def record(p):
            # gamma_opt hands over 2-D coefficient arrays; record each row
            seen.extend([p] if isinstance(p, Poly) else
                        [q if isinstance(q, Poly) else Poly(q) for q in p])
            return original(p)

        monkeypatch.setattr(rational, "poly_roots", record)
        monkeypatch.setattr(synthesis, "poly_roots", record)
        synthesis.gamma_opt(plant, weights, opts.gamma_bracket)
        # and the whole coarse grid, which gamma_opt leaves below its dip
        synthesis.LevelBuilder(plant, weights).prefetch(
            np.linspace(*opts.gamma_bracket, synthesis.GAMMA_COARSE))
        monkeypatch.undo()
        assert len(seen) > 300
        assert len({len(p.c) for p in seen}) > 1    # one call mixes lengths
        assert_stacked_equals_reference(seen)

    def test_random_real_polynomials(self):
        rng = np.random.default_rng(2024)
        polys = [Poly(rng.standard_normal(d + 1)) for d in rng.integers(0, 13, 400)]
        assert_stacked_equals_reference(polys)

    def test_low_order_zeros(self):
        rng = np.random.default_rng(7)
        polys = []
        for low in range(4):
            for d in range(low, 9):
                c = rng.standard_normal(d + 1)
                c[:low] = 0.0
                polys.append(Poly(c))
        polys += [Poly([0.0, 0.0, 3.0]), Poly([0.0, 2.0]), Poly([0.0, -1.0, 0.0, 2.0])]
        assert_stacked_equals_reference(polys)

    def test_double_root_at_five(self):
        # (s - 5)^2, where the unguarded Newton polish once overshot
        polys = [Poly([25.0, -10.0, 1.0]),
                 Poly([-1.2150791078313732, 0.4860316431325493, -0.048603164313254926]),
                 Poly([-0.6645339354010678, 0.2658135741604273, -0.026581357416042742])]
        assert_stacked_equals_reference(polys)
        a, b = poly_roots(polys)[0]
        assert a == b

    def test_mixed_lengths_keep_order(self):
        polys = [Poly([2.0]), Poly([1.0, 0.0, 1.0]), Poly([2.0, 1.0]),
                 Poly([4.9943, -0.0574, 1.0]), Poly([2.0, 0.3, -1.1, 1.0]), Poly([-3.0])]
        assert_stacked_equals_reference(polys)

    def test_failed_rows_leave_the_others_alone(self, monkeypatch):
        # at this residual bound x^2 - 2 fails the residual check (its
        # residual is 1.1e-16) while x^2 - 4 and x^2 - 9 have exact roots; the
        # zero polynomial fails on its own as well
        monkeypatch.setattr(rational, "ROOT_RESIDUAL_TOL", 1e-17)
        polys = [Poly([-4.0, 0.0, 1.0]), Poly([-2.0, 0.0, 1.0]), Poly([-9.0, 0.0, 1.0]),
                 Poly([0.0]), Poly([6.0, -5.0, 1.0])]
        out = poly_roots(polys)
        assert [type(r) for r in out] == [list, RootConvergenceError, list,
                                          ValueError, list]
        assert_stacked_equals_reference(polys, tol=1e-17)
        with pytest.raises(RootConvergenceError):
            poly_roots(polys[1])


class TestRowsFromRoots:
    def test_rows_equal_the_convolve_chain(self):
        # the expansion poly_from_roots made one np.convolve per root, whose
        # complex two-term dots round differently from products and a sum
        rng = np.random.default_rng(11)
        lists = []
        for n in rng.integers(0, 8, 300):
            roots = []
            while len(roots) < n:
                z = complex(*rng.standard_normal(2))
                pair = len(roots) + 2 <= n and rng.random() < 0.6
                roots += [z, z.conjugate()] if pair else [complex(z.real)]
            lists.append(roots)
        lead = rng.standard_normal(len(lists))
        rows, open_ = rational._from_roots_rows(lists, lead)
        assert not open_.any()
        for row, roots, a in zip(rows, lists, lead):
            c = np.array([1.0 + 0.0j])
            for r in roots:
                c = np.convolve(c, np.array([-r, 1.0 + 0.0j]))
            assert np.array_equal(row, np.pad(c.real * a, (0, len(row) - len(c))))
            assert np.array_equal(poly_from_roots(roots, a).c, Poly(c.real * a).c)

    def test_open_list_is_flagged(self):
        rows, open_ = rational._from_roots_rows([[1j], [1j, -1j], []], np.ones(3))
        assert open_.tolist() == [True, False, False]
        with pytest.raises(ValueError, match="not closed under conjugation"):
            poly_from_roots([1j])


class TestRationalFn:
    def test_mirror_flips_odd_coefficients(self):
        f = RationalFn(Poly([1.0, 1.0]), Poly([2.0, 1.0]))
        g = f.mirror()
        s = np.array([0.0, 0.7j, 1.3, -0.4 + 0.2j])
        np.testing.assert_allclose(g(s), f(-s), rtol=1e-14)

    def test_mirror_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = RationalFn(Poly(rng.normal(size=3)), Poly(np.r_[rng.normal(size=2), 1.0]))
            g = f.mirror().mirror()
            np.testing.assert_allclose(g.num.c, f.num.c, atol=1e-14)
            np.testing.assert_allclose(g.den.c, f.den.c, atol=1e-14)

    def test_weight_mirror_product(self):
        # (1+0.6s)/(s+1) times its mirror: (1-0.36s^2)/(1-s^2)
        w = RationalFn(Poly([1.0, 0.6]), Poly([1.0, 1.0]))
        prod = RationalFn(w.num * w.num.mirror(), w.den * w.den.mirror())
        scale = prod.den.c[0]  # put the stored pair in constant-term form
        np.testing.assert_allclose(prod.num.c / scale, [1.0, 0.0, -0.36], atol=1e-14)
        np.testing.assert_allclose(prod.den.c / scale, [1.0, 0.0, -1.0], atol=1e-14)

    def test_eval_simple(self):
        f = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        assert f(0.0) == pytest.approx(1.0)

    def test_all_pass_modulus(self):
        f = RationalFn(Poly([-1.0, 1.0]), Poly([1.0, 1.0]))
        om = np.logspace(-2, 2, 50)
        np.testing.assert_allclose(np.abs(f(1j * om)), 1.0, atol=1e-12)

    def test_pole_eval_raises(self):
        f = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        with pytest.raises(PoleEvaluationError):
            f(-1.0)

    def test_relative_degree_constant(self):
        assert RationalFn(Poly([2.5]), Poly([1.0])).relative_degree() == 0

    def test_relative_degree_improper_weight(self):
        # 0.5(2.24+s) is improper with relative degree -1
        w2 = RationalFn(Poly([1.12, 0.5]), Poly([1.0]))
        assert w2.relative_degree() == -1

    def test_relative_degree_additive(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = RationalFn(Poly(rng.normal(size=rng.integers(1, 4))),
                           Poly(np.r_[rng.normal(size=rng.integers(1, 6)), 1.0]))
            g = RationalFn(Poly(rng.normal(size=rng.integers(1, 4))),
                           Poly(np.r_[rng.normal(size=rng.integers(1, 6)), 1.0]))
            if f.num.is_zero or g.num.is_zero:
                continue
            assert (f * g).relative_degree() == f.relative_degree() + g.relative_degree()

    def test_reduced_cancels_common_factor(self):
        f = RationalFn(Poly([1.0, 1.0]) * Poly([2.0, 1.0]),
                       Poly([1.0, 1.0]) * Poly([3.0, 1.0]))
        g = f.reduced()
        assert g.num.degree == 1 and g.den.degree == 1
        om = np.array([0.1, 1.0, 7.0])
        np.testing.assert_allclose(g(1j * om), f(1j * om), rtol=1e-10)


# Independent oracles for the row kernel that `Poly` and `RationalFn` call:
# the plain loops and `np.convolve` that it must equal bit for bit.

def plain_horner(c, s):
    """p(s) for the ascending coefficients c: one complex Horner loop."""
    s = np.asarray(s)
    r = np.zeros_like(s, dtype=complex)
    for a in c[::-1]:
        r = r * s + a
    return r if r.ndim else complex(r)


def plain_scale(c, s):
    """Sum of |c_k| |s|^k by one real Horner loop."""
    a = np.abs(np.asarray(s))
    r = np.zeros_like(a, dtype=float)
    for ck in np.abs(c[::-1]):
        r = r * a + ck
    return r if r.ndim else float(r)


def trimmed(c):
    """c without its trailing zeros ([0.0] when all are zero)."""
    nz = np.flatnonzero(c)
    return np.array(c[: nz[-1] + 1], dtype=float) if len(nz) else np.zeros(1)


def padded(c, n):
    return np.concatenate([c, np.zeros(n - len(c))])


def assert_same_bits(got, want):
    """got and want have one type, dtype, shape and the same bits."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def random_polys(seed, count=60):
    """Polynomials of degree 0 to 7 with coefficients over ten decades,
    some interior coefficients +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        if n > 2:
            c[rng.integers(0, n - 1)] = rng.choice([0.0, -0.0])
        out.append(Poly(c))
    return out


_rng = np.random.default_rng(2024)
POINTS = [
    0.37, -2.5, 2, 1.5 - 0.25j, np.float64(0.8), np.complex128(-0.3 + 2j),
    np.array(1.25), np.array(0.5j),
    _rng.standard_normal(9),
    _rng.standard_normal(9) + 1j * _rng.standard_normal(9),
    1j * np.logspace(-3, 4, 40),
    _rng.standard_normal((3, 5)),
    (_rng.standard_normal((4, 6)) + 1j * _rng.standard_normal((4, 6)))[:, ::2],
]


class TestKernelOracles:
    def test_poly_evaluation(self):
        for p in random_polys(1):
            for s in POINTS:
                got = p(s)
                assert_same_bits(got, plain_horner(p.c, s))
                assert np.shape(got) == np.shape(s)
        assert type(Poly([1.0, 2.0])(0.5)) is complex

    def test_scale_at(self):
        for p in random_polys(2):
            for s in POINTS:
                assert_same_bits(p.scale_at(s), plain_scale(p.c, s))
        assert type(Poly([1.0, -2.0]).scale_at(-0.5j)) is float

    def test_rational_evaluation(self):
        polys = random_polys(3)
        for num, den in zip(polys[::2], polys[1::2]):
            f = RationalFn(num, den)
            lead = den.c[-1]
            n, d = trimmed(num.c / lead), trimmed(den.c / lead)
            assert_same_bits(f.num.c, n)
            assert_same_bits(f.den.c, d)
            for s in POINTS:
                got = f(s)
                assert_same_bits(got, plain_horner(n, s) / plain_horner(d, s))
                assert np.shape(got) == np.shape(s)

    def test_arithmetic(self):
        polys = random_polys(4)
        for a, b in zip(polys, polys[::-1]):
            width = max(len(a.c), len(b.c))
            assert_same_bits((a + b).c, trimmed(0.0 + padded(a.c, width) + padded(b.c, width)))
            assert_same_bits((a * b).c, trimmed(np.convolve(a.c, b.c)))
            assert_same_bits(a.scale_at(1.0), sum(abs(x) for x in reversed(a.c.tolist())))
            assert_same_bits(a.mirror().c,
                             trimmed(np.array([-x if k % 2 else x for k, x in enumerate(a.c)])))
            assert_same_bits(a.deriv().c,
                             trimmed(np.array([k * a.c[k] for k in range(1, len(a.c))] or [0.0])))

    @pytest.mark.parametrize("c", [[4.0, 0.0, -2.0, 0.0, 1.0], [0.5, 0.0, 0.25]],
                             ids=["scale-4", "scale-below-1"])
    def test_even_part_tolerance(self, c):
        # an odd coefficient up to 1e-9 of the largest one (or of one) is noise
        tol = 1e-9 * max(np.abs(c).max(), 1.0)
        inside, outside = np.array(c), np.array(c)
        inside[1], outside[1] = 0.99 * tol, 1.01 * tol
        assert_same_bits(Poly(inside).even_part_coeffs(), np.array(c[0::2]))
        with pytest.raises(ValueError, match="not even"):
            Poly(outside).even_part_coeffs()

    def test_pole_tolerance(self):
        # 1/(s + 1) near s = -1: |den| against 1e-12 of |1| + |s| = 2
        f = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        s_in, s_out = -1.0 + 0.9 * 2e-12, -1.0 + 1.1 * 2e-12
        with pytest.raises(PoleEvaluationError) as exc:
            f(s_in)
        assert exc.value.at == s_in
        assert_same_bits(f(s_out), 1.0 / plain_horner(f.den.c, s_out))
        with pytest.raises(PoleEvaluationError) as exc:
            f(np.array([0.0, s_in, s_out]))
        assert exc.value.at.tolist() == [s_in]
        # the row evaluation flags the same point
        _, errs = rational._at(f.num.c[None], f.den.c[None], np.array([[s_in, s_out]]))
        assert isinstance(errs[0, 0], PoleEvaluationError) and errs[0, 1] is None


class TestBlaschke:
    def test_single_real_root(self):
        b = blaschke([1.0])
        np.testing.assert_allclose(b.num.c, [-1.0, 1.0])
        np.testing.assert_allclose(b.den.c, [1.0, 1.0])

    def test_inner_modulus_tight(self):
        rng = np.random.default_rng(5)
        om = np.logspace(-3, 3, 400)
        for _ in range(10):
            roots = [complex(rng.uniform(0.1, 3))]
            if rng.random() < 0.7:
                re, im = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
                roots += [complex(re, im), complex(re, -im)]
            b = blaschke(roots)
            assert np.abs(np.abs(b(1j * om)) - 1.0).max() <= 1e-10


# resonance 1/(s^2 + 0.02 s + 4): |f(jw)| peaks at w^2 = 4 - 0.02^2 / 2
RESONANCE = RationalFn(Poly([1.0]), Poly([4.0, 0.02, 1.0]))


def _calls(fs, om):
    """grid_sup of one row per function in fs, and the (w, k) of each
    `point` call."""
    calls = []

    def rows(k0, k1):
        return np.array([fs[k](1j * om) for k in range(k0, k1)])

    def point(w, k):
        calls.append((w.copy(), k.copy()))
        return np.array([fs[ki](1j * wi) for wi, ki in zip(w, k)])

    return grid_sup(rows, point, len(fs), om), calls


def sup_of(fs, om):
    """grid_sup of one row per function in fs, and the frequencies at which
    `point` saw each row, in call order."""
    sup, calls = _calls(fs, om)
    seen = [[] for _ in fs]
    for w, k in calls:
        for wi, ki in zip(w.tolist(), k.tolist()):
            seen[ki].extend(wi)
    return sup, seen


class TestSupNorm:
    def test_all_pass_is_one(self):
        b = blaschke([1.0, 0.5 + 2j, 0.5 - 2j])
        (val,), _ = sup_of([b], FrequencyGrid().omegas())
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_low_pass_peak_at_origin(self):
        f = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        om = FrequencyGrid().omegas()
        (val,), (seen,) = sup_of([f], om)
        assert val == abs(f(1j * om[0]))       # monotone: the grid end is the sup
        assert om[0] < min(seen) and max(seen) < om[1]

    def test_interior_peak_refined(self):
        mpmath = pytest.importorskip("mpmath")
        om = FrequencyGrid().omegas()
        (val,), _ = sup_of([RESONANCE], om)
        assert val > np.abs(RESONANCE(1j * om)).max()
        with mpmath.workdps(50):
            c = mpmath.mpf("0.02")
            exact = 1 / (c * mpmath.sqrt(4 - c**2 / 4))
            assert abs((val - exact) / exact) <= 1e-13

    def test_non_finite_row_reads_nan(self):
        om = FrequencyGrid().omegas()
        bad = om[1234]
        b = blaschke([1.0, 0.5 + 2j, 0.5 - 2j])
        f = RESONANCE

        def g(s):
            return np.where(s.imag == bad, np.inf, f(s))

        both, seen = sup_of([b, g, f], om)
        assert np.isnan(both[1]) and seen[1] == []
        assert both[0] == sup_of([b], om)[0][0] and both[2] == sup_of([f], om)[0][0]


class TestZoom:
    """grid_sup's refinement: ZOOM_STAGES lock-step calls of `point`."""

    def test_point_calls_are_fixed(self):
        om = FrequencyGrid().omegas()
        low_pass = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        high_pass = RationalFn(Poly([0.0, 1.0]), Poly([1.0, 1.0]))
        for fs in ([RESONANCE], [RESONANCE, low_pass, high_pass] * 40):
            _, calls = _calls(fs, om)
            shape = (len(fs), rational.ZOOM_POINTS)
            assert [w.shape for w, _ in calls] == [shape] * rational.ZOOM_STAGES
            assert all((k == np.arange(len(fs))).all() for _, k in calls)
            # every sample lies strictly inside its row's grid bracket
            i = np.argmax(np.abs([f(1j * om) for f in fs]), axis=1)
            lo, hi = om[np.maximum(i - 1, 0)], om[np.minimum(i + 1, len(om) - 1)]
            assert all(((lo[:, None] < w) & (w < hi[:, None])).all() for w, _ in calls)

    def test_exception_surfaces_from_the_call_that_meets_it(self):
        om = FrequencyGrid().omegas()
        x0 = np.sqrt(4 - 0.02**2 / 2)
        calls = []

        def point(w, k):
            calls.append(w)
            if np.any(np.abs(w - x0) < 1e-6):
                raise ValueError("singular near the peak")
            return RESONANCE(1j * w)

        with pytest.raises(ValueError, match="singular near the peak"):
            grid_sup(lambda k0, k1: RESONANCE(1j * om)[None], point, 1, om)
        # the first probe within 1e-6 of the peak is a later stage's
        assert 1 < len(calls) < rational.ZOOM_STAGES
        assert not any(np.any(np.abs(w - x0) < 1e-6) for w in calls[:-1])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_samples(self):
        # NaN samples are skipped; an infinite sample is the sup
        om = FrequencyGrid().omegas()
        grid = np.abs(RESONANCE(1j * om))
        i = int(np.argmax(grid))
        peak = sup_of([RESONANCE], om)[0][0]

        def between(lo, hi, value):     # value on (lo, hi) off the grid
            def f(s):
                w = s.imag
                return np.where((lo < w) & (w < hi) & ~np.isin(w, om), value, RESONANCE(s))
            return f

        x0 = np.sqrt(4 - 0.02**2 / 2)
        sup, _ = sup_of([between(om[i - 1], om[i + 1], np.nan),    # every sample NaN
                         between(x0 - 1e-4, x0 + 1e-4, np.nan),    # the peak NaN
                         between(om[i - 1], om[i + 1], np.inf),
                         between(x0 - 1e-4, x0 + 1e-4, np.inf)], om)
        assert sup[0] == grid[i]
        assert grid[i] < sup[1] < peak
        assert sup[2] == sup[3] == np.inf
