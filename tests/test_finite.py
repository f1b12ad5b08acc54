import dataclasses

import numpy as np
import pytest

from strongstab.finite import (
    FiniteSearchError,
    FiniteU,
    PickProblem,
    UAtPoints,
    build_p1p2,
    certify_u_norm,
    mu_opt_search,
    np_interpolant,
    p1p2_quasipolys,
    pick_matrix,
    pick_min_eig,
    pick_points,
    pick_thresholds,
    stabilize_finite,
)
from strongstab import finite, stability
from strongstab.finite import (
    _default_mu_schedule, _design_tuples, _grid_peaks, _q_candidates, _sampled_peaks,
    fig3_tuples, fig5_lattice,
)
from strongstab.config import Options
from strongstab.rational import _BLOCK, FrequencyGrid, Poly, RationalFn
from strongstab.stability import Certificate, RegionScan, certify, rhp_zero_scan
from strongstab.synthesis import CertificateContradiction, DelayPlant, WeightPair, build_context


class TestP1P2:
    def test_ex2_zero_pairs(self, ex2_p1p2):
        p = sorted(ex2_p1p2.p_roots, key=lambda z: z.imag)[-1]
        s = sorted([z for z in ex2_p1p2.node_roots], key=lambda z: z.imag)[-1]
        assert p.real == pytest.approx(0.0287, abs=5e-3)
        assert p.imag == pytest.approx(2.2346, abs=5e-3)
        assert s.real == pytest.approx(0.0297, abs=5e-3)
        assert s.imag == pytest.approx(2.2346, abs=5e-3)

    def test_ex2_parameterization_artifact_isolated(self, ex2_p1p2, ex2):
        # the extra interpolation point plants a removable P2 zero near s = 3
        _, _, opts = ex2
        assert len(ex2_p1p2.artifact_roots) == 1
        art = ex2_p1p2.artifact_roots[0]
        assert art.real == pytest.approx(opts.interp_a, abs=1e-3)
        assert abs(ex2_p1p2.p1(art)) > 1.0  # P1 does not vanish there

    def test_mtilde_d_coefficients(self, ex2_p1p2):
        num = ex2_p1p2.M_tilde_d.num.c
        np.testing.assert_allclose(num[-1], 1.0)
        assert num[1] == pytest.approx(-0.0574, abs=5e-3)
        assert num[0] == pytest.approx(4.9943, abs=5e-3)

    def test_mtilde_d_inner(self, ex2_p1p2):
        om = np.logspace(-3, 4, 2000)
        assert np.abs(np.abs(ex2_p1p2.M_tilde_d(1j * om)) - 1).max() <= 1e-8

    def test_p1_p2_finite_at_E_zeros(self, ex2_p1p2, ex2_ctx):
        # denominator zeros of the formal P1, P2 are cancelled by construction:
        # the quasipolynomial numerators vanish at the E zeros
        for b in ex2_ctx.betas:
            for q in (ex2_p1p2.p1, ex2_p1p2.p2):
                scale = q.A.scale_at(b) + q.B.scale_at(b)
                assert abs(q(b)) <= 1e-9 * scale

    def test_delay_free_reduction_matches_poly_roots(self):
        # h = 0 collapses the quasipolynomial to a polynomial
        from strongstab.finite import QuasiPoly
        from strongstab.rational import poly_roots

        A = Poly([2.0, -3.0, 1.0])      # zeros at 1 and 2
        B = Poly([0.5, 0.1])
        q = QuasiPoly(A, B, 0.0)
        zeros = q.rhp_zeros([])
        total = A + B
        expected = [r for r in poly_roots(total).expanded() if r.real > 0]
        assert len(zeros) == len(expected)
        for e in expected:
            assert min(abs(z - e) for z in zeros) < 1e-8


def _p1p2_scans(monkeypatch, plant, ctx):
    """build_p1p2's two scans (P1, then P2), each with the points it sampled."""
    scans = []

    def recording(f, *args, **kwargs):
        points = [0]

        def counted(s):
            points[0] += np.size(s)
            return f(s)

        scans.append((rhp_zero_scan(counted, *args, **kwargs), points))
        return scans[-1][0]

    monkeypatch.setattr(finite, "rhp_zero_scan", recording)
    build_p1p2(plant, ctx)
    return [(scan, points[0]) for scan, points in scans]


class TestP1P2Scans:
    # Zeros with Im >= 0; the scans also find the conjugates.  The cell
    # counts pin the subdivision tree.
    @pytest.mark.parametrize("rho, cells, zeros", [
        (1.9454, (127, 195), ([0.0286982048540 + 2.2346468677508j],
                              [0.0296651393454 + 2.2346456294617j, 3.0000005987995])),
        (1.96, (1, 313), ([], [0.0490975993551 + 4.0252420972723j,
                               0.0744618496888 + 2.1777343963856j, 3.0000533567300])),
    ])
    def test_cells_and_zeros_pinned(self, ex2, monkeypatch, rho, cells, zeros):
        plant, weights, opts = ex2
        ctx = build_context(plant, weights, rho, opts.interp_a)
        scans = _p1p2_scans(monkeypatch, plant, ctx)
        assert tuple(scan.cells_scanned for scan, _ in scans) == cells
        for (scan, _), upper in zip(scans, zeros):
            want = sorted(upper + [np.conj(z) for z in upper if z.imag > 0],
                          key=lambda z: (z.imag, z.real))
            got = sorted(scan.zeros, key=lambda z: (z.imag, z.real))
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_central_p2_scan_samples_few_points_per_cell(self, ex2, monkeypatch):
        plant, weights, opts = ex2
        ctx = build_context(plant, weights, 1.96, opts.interp_a)
        scan, points = _p1p2_scans(monkeypatch, plant, ctx)[1]
        assert points < 200 * scan.cells_scanned


def test_central_p2_scan_is_level_synchronous(ex2):
    # each depth places its cuts and winds its halves in stacked marches, and
    # the leaves are polished together: a depth-first walk of the same 313
    # cells called f 391 times (346 without the polish)
    plant, weights, opts = ex2
    ctx = build_context(plant, weights, 1.96, opts.interp_a)
    p2 = p1p2_quasipolys(plant, ctx)[1]
    calls = []

    def counted(s):
        calls.append(np.size(s))
        return p2(s)

    scan = rhp_zero_scan(counted, *p2.scan_window(), excluded=ctx.excluded_zeros())
    assert scan.cells_scanned == 313 and len(scan.zeros) == 5
    assert len(calls) <= 346 // 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the P2 window of example 2 at this sweep level "
           "spans |omega| <= 36.8, and the 64-sample marches read a window "
           "winding of 23 where its two halves read 13 + 16",
)
def test_p2_window_winding_is_its_halves_sum(ex2):
    plant, weights, opts = ex2
    ctx = build_context(plant, weights, 2.0861145983058385, opts.interp_a)
    p2 = p1p2_quasipolys(plant, ctx)[1]
    sigma_max, omega_bound = p2.scan_window()
    f = stability._deflated(p2, ctx.excluded_zeros())
    memo, window = {}, (0.0, sigma_max, -omega_bound, omega_bound)
    [wind] = stability._windings(f, memo, [window])
    [halves] = stability._split(f, memo, [window])
    winds = stability._windings(f, memo, halves)
    assert wind == sum(winds)


class TestPickPoints:
    def test_ex2_values(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        zi = z[np.argmax(z.imag)]
        wi = w[np.argmin(w.imag)]
        assert zi.real == pytest.approx(0.6598, abs=2e-3)
        assert zi.imag == pytest.approx(0.7383, abs=2e-3)
        # w recomputed from exact roots; the printed anchors carry the
        # benchmark's 4-digit root rounding (see the acceptance module)
        assert abs(wi) == pytest.approx(60.36, abs=0.05)

    def test_rounded_root_oracle(self):
        # feeding the reference 4-digit roots reproduces the reference w
        p1 = 0.0287 + 2.2346j
        s1 = 0.0297 + 2.2346j
        from strongstab.rational import blaschke

        Mtd = blaschke([p1, np.conj(p1)])
        w = 1.0 / Mtd(s1)
        assert w.real == pytest.approx(58.4002, abs=1e-3)
        assert w.imag == pytest.approx(-0.7501, abs=1e-3)

    def test_disk_images_inside(self, ex2_p1p2):
        rng = np.random.default_rng(2)
        z, _ = pick_points(ex2_p1p2, 1.0)
        assert np.all(np.abs(z) < 1)
        for a in rng.uniform(0.2, 5.0, 5):
            z, _ = pick_points(ex2_p1p2, float(a))
            assert np.all(np.abs(z) < 1)

    def test_map_center(self, toy_p1p2):
        # a real node equal to the conformal parameter maps to the disk center
        s_real = toy_p1p2.node_roots[0].real
        z, w = pick_points(toy_p1p2, float(s_real))
        assert abs(z[0]) < 1e-9


class TestPickMatrix:
    def test_hermitian(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        Q = pick_matrix(PickProblem(z=z, w=w, n=(0, 0), mu=70.0))
        np.testing.assert_allclose(Q, Q.conj().T, atol=1e-12)

    def test_scalar_threshold_exact(self):
        z = np.array([0.3 + 0.4j])
        w = np.array([5.0 + 2.0j])
        [mu_opt] = pick_thresholds(z, w, [(0,)])
        assert mu_opt == pytest.approx(abs(w[0]), rel=2e-6)

    def test_large_mu_psd(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        assert pick_min_eig(PickProblem(z=z, w=w, n=(0, 0), mu=1e6)) >= 0

    def test_ex2_mu_opt_and_bracketing(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        mu_opt, tup, table = mu_opt_search(z, w, 20)
        assert tup == (0, 0)
        lo = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_opt - 1e-2))
        hi = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_opt + 1e-2))
        assert lo < 0 <= hi + 1e-10

    def test_mu_profile_minimum_at_zero_tuple(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        tuples = fig3_tuples(z, 3)
        feasible = {t[1]: mu for t, mu in zip(tuples, pick_thresholds(z, w, tuples))}
        assert min(feasible, key=lambda k: feasible[k]) == 0
        assert feasible[1] > feasible[0] and feasible[-1] > feasible[0]

    def test_central_level_threshold_is_exactly_one(self, ex2_central_p1p2):
        # P1 has no RHP zeros, so w = 1 and the all-zero tuple's Pick matrix
        # vanishes at mu = 1: the threshold is exactly one
        z, w = pick_points(ex2_central_p1p2, 1.0)
        mu_opt, tup, _ = mu_opt_search(z, w, 20)
        assert mu_opt == 1.0
        assert tup == (0,) * len(z)

    def test_unit_data_threshold_is_one_at_zero_tuple_only(self):
        # w = 1 (no P1 zeros): the zero tuple's Pick matrix is 2 log(mu) K,
        # and every other design tuple's mu = 1 matrix is nonzero with zero
        # K-trace, so its threshold exceeds one.  Nodes at radii 0.5-0.99
        # (example 2's are near 0.99) keep every threshold in float range.
        rng = np.random.default_rng(7)
        for _ in range(50):
            pairs = rng.integers(1, 4)
            top = rng.uniform(0.5, 0.99, pairs) * np.exp(1j * rng.uniform(0.1, 3.0, pairs))
            z = np.concatenate([top, np.conj(top), rng.uniform(-0.99, 0.99, rng.integers(0, 2))])
            tuples = _design_tuples(z, 3)
            mu = dict(zip(tuples, pick_thresholds(z, np.ones(len(z), dtype=complex), tuples)))
            zero = (0,) * len(z)
            assert mu.pop(zero) == 1.0
            assert len(mu) == 7 ** len(top) - 1
            assert min(mu.values()) > 1.0

    @pytest.mark.parametrize("z", [[0.3 + 0.1j, 0.3 + 0.1j], [2.0 + 0j]])
    def test_nodes_off_the_open_disk_rejected(self, z):
        z = np.array(z)
        with pytest.raises(FiniteSearchError, match="distinct points"):
            pick_thresholds(z, np.ones(len(z), dtype=complex), [(0,) * len(z)])

    @pytest.mark.parametrize("data", ["ex2_p1p2", "ex2_central_p1p2"])
    def test_every_tuple_threshold_brackets_psd(self, data, request):
        z, w = pick_points(request.getfixturevalue(data), 1.0)
        _, _, table = mu_opt_search(z, w, 20)
        assert len(table) == {2: 41, 4: 1681}[len(z)]
        for tup, mu_min in table:
            lo = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_min * (1 - 1e-9)))
            hi = pick_min_eig(PickProblem(z=z, w=w, n=tup, mu=mu_min * (1 + 1e-9)))
            assert lo < 0 <= hi, tup

    @pytest.mark.parametrize("data", ["ex2_p1p2", "ex2_central_p1p2"])
    def test_thresholds_match_generalized_eigenvalue_oracle(self, data, request):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        z, w = pick_points(request.getfixturevalue(data), 1.0)
        K = 1.0 / (1.0 - z[:, None] * np.conj(z))
        _, _, table = mu_opt_search(z, w, 20)
        for tup, mu_min in table:
            Q0 = pick_matrix(PickProblem(z=z, w=w, n=tup, mu=1.0))
            lam = scipy_linalg.eigh(Q0, K, eigvals_only=True)[0]
            assert mu_min == pytest.approx(np.exp(-lam / 2), rel=1e-12), tup

    @pytest.mark.parametrize("data", ["ex2_p1p2", "ex2_central_p1p2"])
    def test_stacked_search_equals_per_tuple_reference(self, data, request, monkeypatch):
        # a chunk of 16 puts chunk boundaries inside both the 41-tuple and
        # the 1681-tuple sets
        monkeypatch.setattr(finite, "_TUPLE_CHUNK", 16)
        z, w = pick_points(request.getfixturevalue(data), 1.0)
        Linv = np.linalg.inv(np.linalg.cholesky(1.0 / (1.0 - z[:, None] * np.conj(z))))
        refs = []
        for tuples in (_design_tuples(z, 20), fig3_tuples(z, 20)):
            ref = []
            for tup in tuples:
                Q0 = pick_matrix(PickProblem(z=z, w=w, n=tup, mu=1.0))
                lam = np.linalg.eigvalsh(Linv @ Q0 @ Linv.conj().T)[0]
                ref.append((tup, float(np.exp(-lam / 2))))
            assert len(tuples) > 16 and len(tuples) % 16 != 0
            assert list(zip(tuples, pick_thresholds(z, w, tuples))) == ref
            refs.append(ref)
        mu_opt, best, table = mu_opt_search(z, w, 20)
        assert table == refs[0]
        assert (best, mu_opt) == min(refs[0], key=lambda row: row[1])


@pytest.fixture(scope="module")
def ex2_central_p1p2(ex2):
    # example 2 at a level where the central controller is stable
    plant, weights, opts = ex2
    ctx = build_context(plant, weights, 1.96, opts.interp_a)
    return build_p1p2(plant, ctx)


@pytest.fixture(scope="module")
def problem(ex2_p1p2):
    z, w = pick_points(ex2_p1p2, 1.0)
    mu_opt, tup, _ = mu_opt_search(z, w, 5)
    pp = PickProblem(z=z, w=w, n=tup, mu=mu_opt * 1.2)
    return pp, np_interpolant(pp)


@pytest.fixture(scope="module")
def toy_p1p2():
    # short-delay two-block problem whose central controller is stable;
    # P2 keeps a single real RHP zero
    plant = DelayPlant(h=0.3, M=RationalFn.one(), m_d=RationalFn.one(),
                       N_o=RationalFn.one())
    weights = WeightPair(
        W1=RationalFn(Poly([2.0, 1.0]), Poly([1.0, 1.0])),
        W2=RationalFn(Poly([0.8, 0.4]), Poly([1.0])),
    )
    ctx = build_context(plant, weights, 1.2987, 1.0)
    return build_p1p2(plant, ctx)


def boundary_min_real(interp, q, n=2048):
    """Smallest Re g on n points of a circle just inside the unit circle."""
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    zb = (1.0 - 1e-9) * np.exp(1j * th)
    return float(interp.g(zb, q).real.min())


class TestInterpolant:

    def test_residuals_for_admissible_q(self, problem):
        pp, interp = problem
        for q in (0.0, 0.5, -0.5):
            resid = np.abs(interp.g(pp.z, q) - pp.targets())
            assert resid.max() <= 1e-8

    def test_boundary_positive_real(self, problem):
        _, interp = problem
        for q in (0.0, 0.9, -0.9):
            assert boundary_min_real(interp, q) >= -1e-9

    def test_conjugate_symmetry(self, problem):
        _, interp = problem
        rng = np.random.default_rng(4)
        zz = rng.uniform(-0.6, 0.6, 12) + 1j * rng.uniform(-0.6, 0.6, 12)
        for q in (0.0, 0.37, -0.8):
            g1 = interp.g(zz, q)
            g2 = interp.g(np.conj(zz), q)
            np.testing.assert_allclose(g2, np.conj(g1), atol=1e-12)

    def test_unique_at_exact_singularity(self):
        # scalar real-node problem at mu = |w| exactly: the Pick matrix is
        # singular and the interpolant is the unique boundary constant,
        # with the free parameter ignored
        z = np.array([0.4 + 0.0j])
        w = np.array([3.0 + 0.0j])
        pp = PickProblem(z=z, w=w, n=(0,), mu=3.0)
        interp = np_interpolant(pp)
        assert interp.unique
        zz = np.array([0.1 + 0.2j, -0.3j])
        np.testing.assert_allclose(interp.g(zz, 0.0), interp.g(zz, 0.7), atol=1e-12)
        np.testing.assert_allclose(interp.g(pp.z, 0.3), pp.targets(), atol=1e-9)

    def test_infeasible_mu_rejected(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        with pytest.raises(FiniteSearchError):
            np_interpolant(PickProblem(z=z, w=w, n=(0, 0), mu=1.0))


def _free_stages(interp):
    """(node, sigma) of the chart's free stages, innermost first."""
    free = len(interp.sigmas) - interp.unique
    return list(zip(interp.points_used[:free], interp.sigmas[:free]))[::-1]


def _stage_chart(interp, zz, q):
    """g by the Schur recursion one stage at a time: t = q (or the unimodular
    constant of a unique interpolant) through each free stage, innermost
    first, then the Cayley map; at zz and conj(zz), averaged."""
    def chart(x):
        t0 = interp.sigmas[-1] if interp.unique else q
        t = np.full(np.broadcast_shapes(np.shape(q), x.shape), t0, dtype=complex)
        for z0, sig in _free_stages(interp):
            B = (x - z0) / (1.0 - np.conj(z0) * x)
            t = (sig + B * t) / (1.0 + np.conj(sig) * B * t)
        return (1.0 - t) / (1.0 + t)

    return 0.5 * (chart(zz) + np.conj(chart(np.conj(zz))))


def _mp_chart(interp, zz, q):
    """`_stage_chart` at each point of zz for one constant q, in 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    stages = [(mpmath.mpc(z0), mpmath.mpc(sig)) for z0, sig in _free_stages(interp)]

    def chart(x):
        t = mpmath.mpc(interp.sigmas[-1] if interp.unique else q)
        for z0, sig in stages:
            B = (x - z0) / (1 - mpmath.conj(z0) * x)
            t = (sig + B * t) / (1 + mpmath.conj(sig) * B * t)
        return (1 - t) / (1 + t)

    def g(x):
        return (chart(mpmath.mpc(x)) + mpmath.conj(chart(mpmath.mpc(x.conjugate())))) / 2

    with mpmath.workdps(50):
        return np.array([complex(g(x)) for x in np.asarray(zz).tolist()])


@pytest.fixture(scope="module", params=[
    (1.9454, 1 + 1e-9), (1.9454, 1.1), (1.96, 1 + 1e-9), (1.96, 1.1),
    (2.0, 1 + 1e-9), (2.0, 1.1), (1.9454, 1.0),
], ids=["1.9454-near", "1.9454-1.1", "1.96-near", "1.96-1.1", "2.0-near", "2.0-1.1",
        "1.9454-unique"])
def chart_case(request, ex2):
    """(interpolant, relative tolerance) on example 2 at a level and a factor
    on its mu_opt.  The all-zero tuple is the optimum at these levels, and at
    mu_opt itself (factor 1) the 1.9454 interpolant is unique."""
    rho, factor = request.param
    plant, weights, opts = ex2
    p1p2 = build_p1p2(plant, build_context(plant, weights, rho, opts.interp_a))
    z, w = pick_points(p1p2, opts.a)
    tup = (0,) * len(z)
    [mu_opt] = pick_thresholds(z, w, [tup])
    interp = np_interpolant(PickProblem(z=z, w=w, n=tup, mu=mu_opt * factor))
    assert len(z) == {1.9454: 2, 1.96: 4, 2.0: 12}[rho]
    assert interp.unique == (factor == 1.0)
    return interp, 1e-12 if factor == 1.1 else 1e-9


class TestMobiusChart:
    """The chart as one Mobius map per point against the stage-by-stage
    recursion in floating point and in 50 digits, on the on-axis grid and
    on random right-half-plane points, with q a scalar, a per-point array
    and a column."""

    @pytest.fixture(scope="class")
    def points(self, ex2):
        a = ex2[2].a
        rng = np.random.default_rng(7)
        s = np.concatenate([1j * FrequencyGrid().omegas(),
                            rng.uniform(0.0, 5.0, 200) + 1j * rng.uniform(-10.0, 10.0, 200)])
        return (s - a) / (s + a)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.854, 1.0])
    def test_equals_stage_recursion(self, chart_case, points, q):
        # Near a pole of the chart the final Cayley map turns an error e in
        # t into about |g|^2 e / 2 in g (at q = -1, |g| reaches 2168 on the
        # grid), so the tolerance scales with max(|g|, 1)^2
        interp, tol = chart_case
        g = interp.g(points, q)
        np.testing.assert_array_equal(interp.g(points, np.full(points.shape, q)), g)
        np.testing.assert_array_equal(interp.g(points, np.array([[q], [q]])), [g, g])
        ref = _stage_chart(interp, points, q)
        assert np.all(np.abs(g - ref) <= tol * np.fmax(np.abs(ref), 1.0) ** 2)
        # every 40th grid point and every fifth random one in 50 digits
        sub = np.concatenate([points[:4000:40], points[4000::5]])
        exact = _mp_chart(interp, sub, q)
        scale = tol * np.fmax(np.abs(exact), 1.0) ** 2
        assert np.all(np.abs(interp.g(sub, q) - exact) <= scale)
        assert np.all(np.abs(_stage_chart(interp, sub, q) - exact) <= scale)


class TestBuildU:
    def test_sU_magnitude_bounded_by_mu(self, ex2_p1p2):
        z, w = pick_points(ex2_p1p2, 1.0)
        mu_opt, tup, _ = mu_opt_search(z, w, 5)
        mu = mu_opt * 1.2
        interp = np_interpolant(PickProblem(z=z, w=w, n=tup, mu=mu))
        om = np.logspace(-3, 3, 800)
        for q in (0.0, 0.5, -0.5):
            SU_mag = 1.0 / np.abs(UAtPoints(ex2_p1p2, interp, mu, 1.0, 1j * om).inv_SU(q))
            assert SU_mag.max() <= mu * (1 + 1e-9)

    def test_conjugate_symmetric_response(self, ex2_search):
        U = ex2_search.U
        om = np.array([0.3, 1.1, 2.2, 7.5])
        np.testing.assert_allclose(U(-1j * om), np.conj(U(1j * om)), rtol=1e-10)


class TestStabilizeFinite:
    def test_ex2_outcome(self, ex2_search):
        res = ex2_search
        assert res.cert.stable and not res.central
        assert res.U_norm <= 1.0 + 1e-9
        assert res.cert.norm <= 1.9454 * 1.001
        assert res.cert.scan.zeros == []
        assert res.mu > 60.0
        assert res.integers == (0, 0)

    def test_ex2_norm_condition_certificate(self, ex2_search):
        # the two certificates agree: grid norm condition and clean scan
        assert certify_u_norm(ex2_search.U, FrequencyGrid()) <= 1.0 + 1e-9
        assert len(ex2_search.cert.scan.zeros) == 0

    def test_ex2_norm_at_least_dense_sampling_of_its_bracket(self, ex2_search, bracket_max):
        # the refined bracket sampled at 2M + 1 points reads no more
        U = ex2_search.U
        dense = bracket_max(lambda w: U(1j * w), FrequencyGrid().omegas())
        assert certify_u_norm(U, FrequencyGrid()) >= dense * (1 - 1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: the grid sup refines only the grid argmax, so a "
               "second peak between grid frequencies is missed (0.9810504 "
               "certified, 0.9824738 sampled at omega = 4.078)",
    )
    def test_ex2_norm_at_least_dense_sampling(self, ex2_search):
        U = ex2_search.U
        assert (round(U.mu, 6), round(U.q, 12), ex2_search.integers) == (72.448233, -0.854, (0, 0))
        dense = np.abs(U(1j * np.linspace(4.0, 4.2, 20001))).max()
        assert certify_u_norm(U, FrequencyGrid()) >= dense - 1e-12

    def test_central_short_circuit(self):
        plant = DelayPlant(h=0.3, M=RationalFn.one(), m_d=RationalFn.one(),
                           N_o=RationalFn.one())
        weights = WeightPair(
            W1=RationalFn(Poly([2.0, 1.0]), Poly([1.0, 1.0])),
            W2=RationalFn(Poly([0.8, 0.4]), Poly([1.0])),
        )
        ctx = build_context(plant, weights, 1.2987, 1.0)
        res = stabilize_finite(plant, weights, ctx, Options())
        assert res.central and res.cert.stable
        assert res.U is None and res.U_norm == 0.0
        assert res.cert.norm <= 1.2987 * 1.001

    def test_exhausted_schedule(self, ex2, ex2_ctx):
        plant, weights, opts = ex2
        with pytest.raises(FiniteSearchError):
            stabilize_finite(plant, weights, ex2_ctx,
                             dataclasses.replace(opts, mu_schedule=(61.0,)))

    def test_optimum_step_contradiction_raises(self, ex2, ex2_ctx, ex2_search, monkeypatch):
        # the unique interpolant at mu_opt is the first candidate: when its
        # norm condition holds and its scan is dirty, the search raises instead
        # of moving on to the mu schedule, as it does for a q candidate
        plant, weights, opts = ex2
        seen = []

        def dirty_first(plant, weights, ctx, U, grid, window=None):
            seen.append((U.mu, U.q))
            if len(seen) == 1:
                scan = RegionScan(1.0, 1.0, zeros=[0.5 + 1.0j], excluded=[])
                return Certificate(controller=None, scan=scan)
            return certify(plant, weights, ctx, U, grid, window)

        monkeypatch.setattr(finite, "certify_u_norm", lambda U, grid: 0.5)
        monkeypatch.setattr(finite, "certify", dirty_first)
        with pytest.raises(CertificateContradiction, match="residual zeros=1"):
            stabilize_finite(plant, weights, ex2_ctx, opts)
        assert seen == [(ex2_search.mu_opt * (1 + 1e-9), 0.0)]


Q_GRID = np.arange(-1.0, 1.0 + 5e-4, 1e-3)   # the search's q grid at the default q_step


class TestQSweep:
    """The pruned q sweep and the many-Q `certify_u_norm` against their
    one-Q-at-a-time references, on example 2 at the accepting mu with the
    tuple (0, 0)."""

    @pytest.fixture(scope="class")
    def accepting(self, ex2, ex2_p1p2, ex2_search):
        _, _, opts = ex2
        z, w = pick_points(ex2_p1p2, opts.a)
        mu = ex2_search.mu
        return mu, opts.a, np_interpolant(PickProblem(z=z, w=w, n=(0, 0), mu=mu))

    @pytest.mark.parametrize("stride", [1, 10, 30])
    def test_grid_peaks_equals_one_q_at_a_time(self, ex2_p1p2, accepting, stride):
        mu, a, interp = accepting
        u = UAtPoints(ex2_p1p2, interp, mu, a, 1j * FrequencyGrid().omegas()[::stride])
        # the NaN parameter makes U non-finite at every point
        qs = np.append(np.arange(-1.0, 1.0001, 0.02), np.nan)
        rows = max(1, _BLOCK // u.size)
        assert rows == 1 or len(qs) % rows != 0
        ref_at, ref_peak = [], []
        for qv in qs:
            vals = np.abs(u(float(qv)))
            i = int(np.argmax(vals)) if np.all(np.isfinite(vals)) else -1
            ref_at.append(i)
            ref_peak.append(vals[i] if i >= 0 else np.inf)
        at, peak = _grid_peaks(u, qs)
        assert at.tolist() == ref_at and peak.tolist() == ref_peak
        assert (at[-1], peak[-1]) == (-1, np.inf)
        at, peak = _grid_peaks(u, [])
        assert at.shape == peak.shape == (0,)

    def test_grid_peaks_builds_no_blaschke_factor(self, ex2_p1p2, accepting, monkeypatch):
        # the Blaschke factors enter the Mobius coefficients once per point
        # set: a sweep over many q builds none
        mu, a, interp = accepting
        blaschke_disk, calls = finite._blaschke_disk, []

        def counted(z, z0):
            calls.append(z0)
            return blaschke_disk(z, z0)

        monkeypatch.setattr(finite, "_blaschke_disk", counted)
        u = UAtPoints(ex2_p1p2, interp, mu, a, 1j * FrequencyGrid().omegas())
        assert len(calls) == 2 * len(interp.sigmas)   # at zz and at conj(zz)
        _grid_peaks(u, np.arange(-1.0, 1.0001, 0.02))
        assert len(calls) == 2 * len(interp.sigmas)

    def test_witness_sweep_equals_two_stage_rule(self, ex2, ex2_p1p2, ex2_search):
        _, _, opts = ex2
        z, w = pick_points(ex2_p1p2, opts.a)
        om = opts.grid.omegas()
        q_grid = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
        _, _, table = mu_opt_search(z, w, opts.integer_bound)
        steps = [(mu, tup) for mu in _default_mu_schedule(ex2_search.mu_opt)
                 for tup, mu_min in table if mu_min < mu]
        steps = steps[:steps.index((ex2_search.mu, ex2_search.integers)) + 1]
        survivors = []
        for mu, tup in steps:
            interp = np_interpolant(PickProblem(z=z, w=w, n=tup, mu=mu))
            # every tenth frequency first, then the full grid
            sub = _grid_peaks(UAtPoints(ex2_p1p2, interp, mu, opts.a, 1j * om[::10]), q_grid)[1]
            alive = np.flatnonzero(sub <= 1.0 + 1e-9)
            full = _grid_peaks(UAtPoints(ex2_p1p2, interp, mu, opts.a, 1j * om),
                               q_grid[alive])[1]
            ok = full <= 1.0 + 1e-9
            ref = alive[ok][np.argsort(full[ok], kind="stable")]
            got = _q_candidates(ex2_p1p2, interp, mu, q_grid, opts.a, om)
            assert list(got) == ref.tolist(), (mu, tup)
            survivors.append(len(alive))
        # the search's steps: six reject every q on the sub-grid
        assert survivors == [0, 0, 0, 82, 0, 0, 0, 431]

    @pytest.fixture(scope="class")
    def full_sups(self, ex2_p1p2, accepting):
        """Every q of the search's grid on the full frequency grid at the
        accepting step, and the one-stage candidate list they give."""
        mu, a, interp = accepting
        full = _grid_peaks(UAtPoints(ex2_p1p2, interp, mu, a, 1j * FrequencyGrid().omegas()),
                           Q_GRID)[1]
        return full, [int(i) for i in np.argsort(full, kind="stable") if full[i] <= 1.0 + 1e-9]

    def test_two_stage_sweep_is_exact(self, ex2_p1p2, accepting, full_sups):
        mu, a, interp = accepting
        om = FrequencyGrid().omegas()
        full, one_stage = full_sups
        sub = _grid_peaks(UAtPoints(ex2_p1p2, interp, mu, a, 1j * om[::10]), Q_GRID)[1]
        assert np.all(sub <= full)
        assert one_stage   # the accepting step has candidates to order
        assert list(_q_candidates(ex2_p1p2, interp, mu, Q_GRID, a, om)) == one_stage

    def test_duplicated_q_values_come_out_by_index(self, ex2_p1p2, accepting, full_sups):
        # each q twice: the two copies tie exactly, and the lower index goes first
        mu, a, interp = accepting
        got = _q_candidates(ex2_p1p2, interp, mu, np.repeat(Q_GRID, 2), a,
                            FrequencyGrid().omegas())
        assert list(got) == [j for i in full_sups[1] for j in (2 * i, 2 * i + 1)]

    def test_search_resumes_after_a_rejected_candidate(self, ex2, ex2_ctx, ex2_search,
                                                       full_sups, monkeypatch):
        plant, weights, opts = ex2
        rejected = []

        def reject_first(U, grid):
            # the accepting step's first candidate is the search's first
            if U.mu == ex2_search.mu and not rejected:
                rejected.append(U.q)
                return 2.0
            return certify_u_norm(U, grid)

        monkeypatch.setattr(finite, "certify_u_norm", reject_first)
        res = stabilize_finite(plant, weights, ex2_ctx, opts)
        first, second = full_sups[1][:2]
        assert rejected == [Q_GRID[first]] == [ex2_search.q]
        assert (res.mu, res.integers, res.q) == (ex2_search.mu, (0, 0), Q_GRID[second])
        assert res.U_norm <= 1.0 + 1e-9 and res.cert.stable

    def test_search_evaluates_few_full_grid_rows(self, ex2, ex2_ctx, monkeypatch):
        # at 1.9454 the search took 515 full-grid q rows when it ranked every
        # sub-grid survivor; best first it takes 3 (certify_u_norm's two rows
        # go through rational.grid_sup, outside this count)
        plant, weights, opts = ex2
        n = opts.grid.points
        rows = []

        def counted(u, qs):
            if u.size == n:
                rows.append(len(qs))
            return _grid_peaks(u, qs)

        monkeypatch.setattr(finite, "_grid_peaks", counted)
        stabilize_finite(plant, weights, ex2_ctx, opts)
        assert sum(rows) <= 10

    @pytest.mark.parametrize("case", ["accepting", "central_level"])
    def test_many_q_certify_u_norm_equals_one_q_at_a_time(self, case, request, ex2,
                                                          ex2_central_p1p2):
        qs = np.arange(-1.0, 1.0001, 0.02)
        if case == "accepting":
            p1p2 = request.getfixturevalue("ex2_p1p2")
            mu, a, interp = request.getfixturevalue("accepting")
            # the NaN parameter makes U non-finite on the grid: its row reads NaN
            qs = np.append(qs, np.nan)
        else:
            # rho = 1.96: the omega -> infinity limit of |U| is NaN at Q = -1,
            # and the row keeps its grid value
            p1p2, a = ex2_central_p1p2, ex2[2].a
            z, w = pick_points(p1p2, a)
            mu_opt, tup, _ = mu_opt_search(z, w, 20)
            mu = 1.02 * mu_opt
            interp = np_interpolant(PickProblem(z=z, w=w, n=tup, mu=mu))
        norms = certify_u_norm(FiniteU(p1p2, interp, mu, qs, a), FrequencyGrid())
        ref = [certify_u_norm(FiniteU(p1p2, interp, mu, float(qv), a), FrequencyGrid())
               for qv in qs]
        assert norms.shape == qs.shape
        assert all(type(v) is float for v in ref)
        np.testing.assert_array_equal(norms, ref)
        if case == "accepting":
            assert np.isnan(norms[-1]) and np.isfinite(norms[:-1]).all()
        else:
            assert qs[0] == -1.0 and np.isfinite(norms).all()


class TestFig5Lattice:
    """`fig5_lattice` on example 2 at 1.9454 against `certify_u_norm` on all
    101 Q at each mu step."""

    @pytest.fixture(scope="class")
    def reference(self, ex2, ex2_p1p2, ex2_search):
        opts = ex2[2]
        z, w = pick_points(ex2_p1p2, opts.a)
        qs = np.linspace(-1.0, 1.0, 101)
        ref = []
        for mu in _default_mu_schedule(ex2_search.mu_opt):
            interp = np_interpolant(PickProblem(z=z, w=w, n=ex2_search.integers, mu=mu))
            norms = certify_u_norm(FiniteU(ex2_p1p2, interp, mu, qs, opts.a), opts.grid)
            ref += [(mu, qv, un) for qv, un in zip(qs.tolist(), norms.tolist())
                    if not np.isnan(un)]
        return z, w, ref

    def _lattice(self, ex2, ex2_p1p2, ex2_search, reference):
        z, w, _ = reference
        return fig5_lattice(ex2_p1p2, z, w, ex2_search.mu_opt, ex2_search.integers,
                            ex2[2].a, ex2[2].grid)

    def test_rows_above_one_read_a_sample_and_the_rest_certify_u_norm(
            self, ex2, ex2_p1p2, ex2_search, reference):
        ref = reference[2]
        rows = self._lattice(ex2, ex2_p1p2, ex2_search, reference)
        assert [(mu, qv, st) for mu, qv, _, st in rows] == [(mu, qv, un <= 1.0)
                                                            for mu, qv, un in ref]
        pairs = [(un, r, st) for (_, _, un, st), (_, _, r) in zip(rows, ref)]
        assert all(un == r for un, r, st in pairs if st)
        assert all(1.0 < un <= r for un, r, st in pairs if not st)
        # 29 rows are inside the ball; 530 of the 577 others read less than
        # their grid sup
        assert (len(pairs), sum(st for *_, st in pairs)) == (606, 29)
        assert sum(un < r for un, r, _ in pairs) == 530

    def test_q_not_finite_at_a_sample_reads_inf_and_is_left_out(
            self, ex2, ex2_p1p2, ex2_search, reference, monkeypatch):
        z, w, ref = reference
        opts = ex2[2]
        mu = _default_mu_schedule(ex2_search.mu_opt)[0]
        interp = np_interpolant(PickProblem(z=z, w=w, n=ex2_search.integers, mu=mu))
        low = _sampled_peaks(ex2_p1p2, interp, mu, np.array([0.5, np.nan, -0.5]),
                             opts.a, opts.grid.omegas(), 1.0)
        assert low[1] == np.inf and np.isfinite(low[[0, 2]]).all()
        # U is NaN at every point for one Q of the lattice: its rows go
        qv = np.linspace(-1.0, 1.0, 101)[75]
        call = UAtPoints.__call__
        monkeypatch.setattr(UAtPoints, "__call__",
                            lambda self, q: np.where(np.asarray(q) == qv, np.nan, call(self, q)))
        rows = self._lattice(ex2, ex2_p1p2, ex2_search, reference)
        assert [row[:2] for row in rows] == [row[:2] for row in ref if row[1] != qv]
        assert len(rows) == len(ref) - 6
