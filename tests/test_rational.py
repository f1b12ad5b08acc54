import numpy as np
import pytest

from strongstab.rational import (
    FrequencyGrid,
    NonFiniteResponse,
    PoleEvaluationError,
    Poly,
    RationalFn,
    blaschke,
    golden_max,
    mirror,
    poly_from_roots,
    poly_roots,
    relative_degree,
    sup_norm_on_grid,
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
        match_roots([1j, -1j], rs.expanded())

    def test_benchmark_quadratic(self):
        # numerator of the inner factor built from the benchmark's zero pair
        rs = poly_roots(Poly([4.9943, -0.0574, 1.0]))
        match_roots([0.0287 + 2.2346j, 0.0287 - 2.2346j], rs.expanded(), tol=1e-4)

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
            assert sum(rec.multiplicities) == degree
            match_roots(roots, rec.expanded(), tol=1e-7)
            back = rec.to_poly(lead)
            np.testing.assert_allclose(back.c, p.c, rtol=1e-8, atol=1e-10)

    def test_conjugate_symmetry_enforced(self):
        rs = poly_roots(Poly([2.0, 0.3, -1.1, 1.0]))
        roots = rs.expanded()
        for r in roots:
            if r.imag != 0:
                assert any(abs(rr - np.conj(r)) < 1e-12 for rr in roots)

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
            assert sum(rs.multiplicities) == 2
            for r in rs.roots:
                assert abs(r - 5.0) <= 1e-6


class TestRationalFn:
    def test_mirror_flips_odd_coefficients(self):
        f = RationalFn(Poly([1.0, 1.0]), Poly([2.0, 1.0]))
        g = mirror(f)
        s = np.array([0.0, 0.7j, 1.3, -0.4 + 0.2j])
        np.testing.assert_allclose(g(s), f(-s), rtol=1e-14)

    def test_mirror_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = RationalFn(Poly(rng.normal(size=3)), Poly(np.r_[rng.normal(size=2), 1.0]))
            g = mirror(mirror(f))
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
        assert relative_degree(RationalFn(Poly([2.5]), Poly([1.0]))) == 0

    def test_relative_degree_improper_weight(self):
        # 0.5(2.24+s) is improper with relative degree -1
        w2 = RationalFn(Poly([1.12, 0.5]), Poly([1.0]))
        assert relative_degree(w2) == -1

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


class TestSupNorm:
    def test_all_pass_is_one(self):
        b = blaschke([1.0, 0.5 + 2j, 0.5 - 2j])
        val, _ = sup_norm_on_grid(lambda s: b(s), FrequencyGrid())
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_low_pass_peak_at_origin(self):
        f = RationalFn(Poly([1.0]), Poly([1.0, 1.0]))
        val, w = sup_norm_on_grid(lambda s: f(s), FrequencyGrid())
        assert val == pytest.approx(1.0, rel=1e-6)
        assert w == pytest.approx(1e-3, rel=0.1)  # grid edge

    def test_interior_peak_refined(self):
        # resonance: 1/(s^2 + 0.02 s + 4): peak near omega = 2
        f = RationalFn(Poly([1.0]), Poly([4.0, 0.02, 1.0]))
        val, w = sup_norm_on_grid(lambda s: f(s), FrequencyGrid())
        assert w == pytest.approx(np.sqrt(4 - 0.02**2 / 2), rel=1e-4)
        assert val == pytest.approx(1 / (0.02 * np.sqrt(4 - 0.02**2 / 4)), rel=1e-6)

    def test_non_finite_response_names_frequency(self):
        grid = FrequencyGrid()
        bad = grid.omegas()[1234]

        def f(s):
            return np.where(s.imag >= bad, np.inf, 1.0)

        with pytest.raises(NonFiniteResponse) as info:
            sup_norm_on_grid(f, grid)
        assert info.value.omega == bad


class TestGoldenMax:
    @staticmethod
    def f(x):
        # flat on [0.75, 1.25], so a bracket inside it has f1 == f2 at every
        # step, and an interior peak near x = 3
        d = np.maximum(np.abs(x - 1.0) - 0.25, 0.0)
        return np.maximum(x - 2.0, 0.0) * np.maximum(4.0 - x, 0.0) - 0.01 * d * d * (x + 3.0)

    def test_batched_equals_scalar_calls(self):
        lo = np.array([0.0, 0.8, -1.0, 2.0, 1.1])
        hi = np.array([2.0, 1.2, 0.3, 5.0, 1.1 + 1e-9])
        seen = []

        def scalar_f(x):
            seen.append(type(x))
            return self.f(x)

        xb, vb = golden_max(self.f, lo, hi)
        for k in range(len(lo)):
            x, v = golden_max(scalar_f, lo[k], hi[k])
            assert type(x) is float
            assert x == xb[k] and v == vb[k]
        assert set(seen) == {float}
        assert self.f(0.8) == self.f(1.2)   # the flat bracket really is flat

