"""Monte-Carlo module: samplers, geometry, estimators, determinism."""

import itertools
import math

import numpy as np
import pytest

from hypvol import expect, mcsim
from hypvol.expect import BetaSpec
from hypvol.mcsim import DegenerateHullError, SampleConfig
from hypvol.specfun import lobachevsky

REGULAR_TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / math.sqrt(3)


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(seed=0, n_samples=0)
        with pytest.raises(ValueError):
            SampleConfig(seed=0, n_samples=10, streams=0)


class TestSampler:
    def test_ideal_points_on_sphere(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = mcsim.sample_beta_point(3, -1.0, rng)
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-15

    def test_uniform_disk_moment(self):
        rng = mcsim._stream_rng(5, 0)
        pts = mcsim._sample_beta_batch(2, 0.0, rng, 1_000_000)
        r2 = (pts * pts).sum(axis=1)
        # E r^2 = (d/2)/(d/2 + beta + 1) = 1/2; sd of mean ~ 2.9e-4
        assert r2.mean() == pytest.approx(0.5, abs=3 * 2.9e-4)

    def test_concentration_for_large_beta(self):
        rng = mcsim._stream_rng(6, 0)
        beta = 50.0
        pts = mcsim._sample_beta_batch(2, beta, rng, 200_000)
        r2 = (pts * pts).sum(axis=1)
        want = 1.0 / (1.0 + beta + 1.0)
        stderr = r2.std(ddof=1) / math.sqrt(len(r2))
        assert r2.mean() == pytest.approx(want, abs=3 * stderr)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            mcsim.sample_beta_point(3, -1.2, rng)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, bad):
        with pytest.raises(ValueError, match="requires a finite beta"):
            mcsim.sample_beta_point(3, bad, np.random.default_rng(0))


class TestContains:
    def test_simplex_cases(self):
        tetra = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
        assert mcsim.contains(tetra, tetra.mean(axis=0))
        assert not mcsim.contains(tetra, [2.0, 2.0, 2.0])
        assert mcsim.contains(tetra, [1.0, 0.0, 0.0])  # a vertex itself

    def test_degenerate_affine(self):
        line = np.array([[0, 0], [1, 1], [2, 2]], float)
        assert mcsim.contains(line, [0.5, 0.5])
        assert not mcsim.contains(line, [0.5, 0.6])

    def test_matches_fast_paths(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((400, 5, 2))
        x0 = 0.3 * rng.standard_normal((400, 2))
        fast = mcsim._inside_hull_d2_batch(pts - x0[:, None, :])
        slow = np.array([mcsim.contains(pts[i], x0[i]) for i in range(400)])
        assert (fast == slow).all()
        for d, n, count in ((3, 5, 300), (4, 6, 300), (4, 8, 150), (5, 7, 150)):
            pts = rng.standard_normal((count, n, d))
            x0 = 0.3 * rng.standard_normal((count, d))
            fast = mcsim._inside_hull_batch(pts - x0[:, None, :])
            slow = np.array([mcsim.contains(pts[i], x0[i]) for i in range(count)])
            assert (fast == slow).all(), (d, n)
            assert 0 < slow.sum() < count

    def test_singular_subsets_do_not_raise(self):
        # duplicated points make some determinants exactly zero; points in
        # a hyperplane through x make all of them zero
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((100, 6, 4))
        pts[:, 5] = pts[:, 4]
        flat = rng.standard_normal((100, 6, 4))
        flat[:, :, 3] = 0.0
        for block in (pts, flat):
            x0 = 0.3 * rng.standard_normal((100, 4))
            x0[:, 3] = block[:, 0, 3]
            fast = mcsim._inside_hull_batch(block - x0[:, None, :])
            assert (fast == [mcsim.contains(block[i], x0[i]) for i in range(100)]).all()


class TestHulls:
    def test_square_with_interior_point(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], float)
        hull = mcsim.hull_d2(pts)
        assert len(hull) == 4

    def test_collinear_error(self):
        with pytest.raises(DegenerateHullError):
            mcsim.hull_d2(np.array([[0, 0], [1, 1], [2, 2]], float))

    def test_tetrahedron_facets(self):
        facets = mcsim.hull_d3(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float))
        assert len(facets) == 4

    def test_cube_fan_triangulation(self):
        cube = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
        facets = mcsim.hull_d3(cube)
        assert len(facets) == 12  # 2n - 4 for n = 8

    def test_coplanar_error(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.2, 0.0]])
        with pytest.raises(DegenerateHullError):
            mcsim.hull_d3(flat)

    def test_facets_outward_oriented(self):
        rng = np.random.default_rng(8)
        P = rng.standard_normal((9, 3))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        center = P.mean(axis=0)
        for a, b, c in mcsim.hull_d3(P):
            normal = np.cross(P[b] - P[a], P[c] - P[a])
            assert np.dot(normal, center - P[a]) < 0.0

    def test_euler_relation(self):
        rng = np.random.default_rng(9)
        for n in (4, 6, 9, 12):
            P = rng.standard_normal((n, 3))
            P /= np.linalg.norm(P, axis=1, keepdims=True)
            assert len(mcsim.hull_d3(P)) == 2 * n - 4


class TestHypArea:
    def test_ideal_polygon(self):
        ang = np.linspace(0.0, 2.0 * math.pi, 6)[:-1]
        pent = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        assert mcsim.hyp_area_polygon_d2(pent) == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_small_triangle_is_euclidean(self):
        tri = np.array([[0, 0], [1e-2, 0], [0, 1e-2]], float)
        area = mcsim.hyp_area_polygon_d2(tri)
        assert area == pytest.approx(5e-5, rel=1e-2)

    def test_interior_triangle_bounded(self):
        ang = np.array([0.0, 2.1, 4.2])
        tri = 0.99 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        area = mcsim.hyp_area_polygon_d2(tri)
        assert 0.0 < area < math.pi

    def test_non_convex_error(self):
        bad = np.array([[0, 0], [1, 0], [0.2, 0.2], [0, 1]], float)
        with pytest.raises(ValueError):
            mcsim.hyp_area_polygon_d2(bad)


class TestIdealTetraVolume:
    def test_regular(self):
        got = mcsim.ideal_tetra_volume(*REGULAR_TETRA)
        assert got == pytest.approx(2.0 * lobachevsky(math.pi / 6), abs=1e-12)
        assert got == pytest.approx(1.0149416064096536, abs=1e-12)

    def test_flat_configuration(self):
        circ = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], float)
        assert mcsim.ideal_tetra_volume(*circ) == pytest.approx(0.0, abs=1e-9)

    def test_permutation_invariance(self):
        base = mcsim.ideal_tetra_volume(*REGULAR_TETRA)
        for perm in itertools.permutations(range(4)):
            got = mcsim.ideal_tetra_volume(*REGULAR_TETRA[list(perm)])
            assert got == pytest.approx(base, abs=1e-10)

    def test_north_pole_handled(self):
        pts = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, -1, 0]], float)
        assert math.isfinite(mcsim.ideal_tetra_volume(*pts))

    def test_coincident_error(self):
        with pytest.raises(ValueError):
            mcsim.ideal_tetra_volume(REGULAR_TETRA[0], REGULAR_TETRA[0], REGULAR_TETRA[1], REGULAR_TETRA[2])


class TestMcIdealPolytope:
    def test_single_tetra_matches_direct(self):
        cfg = SampleConfig(seed=17, n_samples=1, streams=1)
        est = mcsim.mc_ideal_polytope3_volume(4, cfg)
        rng = mcsim._stream_rng(17, 0)
        P = rng.standard_normal((1, 4, 3))
        P /= np.linalg.norm(P, axis=2, keepdims=True)
        assert est.mean == pytest.approx(mcsim.ideal_tetra_volume(*P[0]), abs=1e-14)
        assert est.stderr == 0.0 and est.n == 1

    def test_bruteforce_matches_hull_reference(self):
        # a 1000-sample block spans many kernel chunks; every 40th sample
        # is checked against the per-sample hull
        rng = np.random.default_rng(5)
        for n, count, stride in ((6, 150, 1), (12, 12, 1), (12, 1000, 40), (16, 12, 1), (16, 1000, 40)):
            P = rng.standard_normal((count, n, 3))
            P /= np.linalg.norm(P, axis=2, keepdims=True)
            fast = mcsim._hull_volumes_bruteforce(P)[::stride]
            slow = np.array([mcsim._hull_volume_via_hull_d3(p) for p in P[::stride]])
            assert np.abs(fast - slow).max() <= 1e-9, (n, count)

    def test_statistical_agreement(self):
        est = mcsim.mc_ideal_polytope3_volume(4, SampleConfig(seed=7, n_samples=30000, streams=3))
        assert abs(est.mean - math.pi / 6) <= 3.0 * est.stderr
        est6 = mcsim.mc_ideal_polytope3_volume(6, SampleConfig(seed=8, n_samples=30000, streams=3))
        target = expect.ideal_polytope3(6).evaluate()
        assert abs(est6.mean - target) <= 3.0 * est6.stderr
        est12 = mcsim.mc_ideal_polytope3_volume(12, SampleConfig(seed=9, n_samples=8000, streams=2))
        target = expect.ideal_polytope3(12).evaluate()
        assert abs(est12.mean - target) <= 3.0 * est12.stderr

    def test_determinism(self):
        for n, count in ((5, 5000), (12, 600)):
            cfg = SampleConfig(seed=3, n_samples=count, streams=3)
            assert mcsim.mc_ideal_polytope3_volume(n, cfg) == mcsim.mc_ideal_polytope3_volume(n, cfg)


class TestMcAbsorption:
    def test_matches_formula_d2(self):
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        est = mcsim.mc_absorption(spec, 0.0, SampleConfig(seed=9, n_samples=150000, streams=4))
        target = expect.expected_beta_integral(spec, 0.0).value
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_matches_formula_d3(self):
        spec = BetaSpec(3, (-1.0,) * 5)
        est = mcsim.mc_absorption(spec, 0.0, SampleConfig(seed=10, n_samples=150000, streams=4))
        target = expect.expected_beta_integral(spec, 0.0).value
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_matches_formula_d4(self):
        spec = BetaSpec(4, (0.0,) * 5)
        est = mcsim.mc_absorption(spec, 0.0, SampleConfig(seed=12, n_samples=4000))
        target = expect.expected_beta_integral(spec, 0.0).value
        assert abs(est.mean - target) <= 3.5 * max(est.stderr, 1e-6)

    def test_determinism(self):
        for d, count in ((2, 20000), (4, 3000)):
            spec = BetaSpec(d, (0.0,) * (d + 2))
            cfg = SampleConfig(seed=11, n_samples=count, streams=2)
            assert mcsim.mc_absorption(spec, 0.5, cfg) == mcsim.mc_absorption(spec, 0.5, cfg)

    def test_domain(self):
        with pytest.raises(ValueError):
            mcsim.mc_absorption(BetaSpec(2, (0.0,) * 3), -1.0, SampleConfig(seed=0, n_samples=10))
        with pytest.raises(ValueError):
            SampleConfig(seed=0, n_samples=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_exponent(self, bad):
        with pytest.raises(ValueError, match="requires a finite beta"):
            mcsim.mc_absorption(BetaSpec(3, (0.0,) * 4), bad, SampleConfig(seed=0, n_samples=10))


class TestGaussBonnetSampling:
    def test_zero_variance_ideal(self):
        spec = BetaSpec(2, (-1.0,) * 5)
        est = mcsim.mc_hyp_area_d2(spec, SampleConfig(seed=4, n_samples=800))
        assert est.mean == pytest.approx(3.0 * math.pi, abs=1e-9)
        rng = mcsim._stream_rng(4, 0)
        pts = mcsim._sample_beta_batch(2, -1.0, rng, 200 * 5).reshape(200, 5, 2)
        for i in range(200):
            area = mcsim.hyp_area_polygon_d2(mcsim.hull_d2(pts[i]))
            assert area == pytest.approx(3.0 * math.pi, abs=1e-9)

    def test_matches_formula_nonideal(self):
        spec = BetaSpec(2, (0.0,) * 4)
        est = mcsim.mc_hyp_area_d2(spec, SampleConfig(seed=14, n_samples=20000, streams=2))
        target = expect.expected_hyp_volume(spec, method="generic").value
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_batched_matches_scalar_near_ideal(self):
        rng = mcsim._stream_rng(21, 0)
        betas = (-0.999, -0.999, -0.999, 0.0, 1.0, -0.5)
        pts = np.stack([mcsim._sample_beta_batch(2, b, rng, 500) for b in betas], axis=1)
        fast = mcsim._hyp_areas_d2(pts)
        slow = np.array([mcsim.hyp_area_polygon_d2(mcsim.hull_d2(p)) for p in pts])
        assert np.abs(fast - slow).max() <= 1e-9

    def test_degenerate_edges_left_to_scalar(self):
        # a point on a hull edge, and five collinear points: both nan, so the
        # estimator hands them to hull_d2 (which raises on the second)
        on_edge = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5], [0.25, 0.25]])
        collinear = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [0.5, 0.5]])
        assert np.isnan(mcsim._hyp_areas_d2(np.stack([on_edge, collinear]))).all()
        with pytest.raises(DegenerateHullError):
            mcsim.hull_d2(collinear)

    def test_determinism(self):
        spec = BetaSpec(2, (-0.5, 0.0, 1.0, -1.0, 2.0, 0.0))
        cfg = SampleConfig(seed=15, n_samples=3000, streams=2)
        assert mcsim.mc_hyp_area_d2(spec, cfg) == mcsim.mc_hyp_area_d2(spec, cfg)


class TestSimplexQuadrature:
    def test_tiny_simplex_euclidean(self):
        tiny = np.array([[0, 0], [1e-3, 0], [0, 1e-3]], float)
        est = mcsim.hyp_volume_simplex_quadrature(tiny, SampleConfig(seed=1, n_samples=20000))
        assert est.mean == pytest.approx(5e-7, rel=1e-3)

    def test_matches_angle_defect(self):
        tri = np.array([[0.5, 0.0], [-0.25, 0.43], [-0.25, -0.43]])
        est = mcsim.hyp_volume_simplex_quadrature(tri, SampleConfig(seed=2, n_samples=300000, streams=2))
        exact = mcsim.hyp_area_polygon_d2(tri)
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_additive_under_subdivision(self):
        tri = np.array([[0.4, 0.0], [-0.2, 0.35], [-0.2, -0.35]])
        centroid = tri.mean(axis=0)
        whole = mcsim.hyp_volume_simplex_quadrature(tri, SampleConfig(seed=5, n_samples=400000))
        parts = []
        for i in range(3):
            sub = np.array([tri[i], tri[(i + 1) % 3], centroid])
            parts.append(mcsim.hyp_volume_simplex_quadrature(sub, SampleConfig(seed=6 + i, n_samples=400000)))
        total = sum(p.mean for p in parts)
        spread = math.sqrt(sum(p.stderr**2 for p in parts) + whole.stderr**2)
        assert abs(total - whole.mean) <= 3.0 * spread

    def test_ideal_vertex_rejected(self):
        bad = np.array([[1.0, 0.0], [-0.5, 0.5], [-0.5, -0.5]])
        with pytest.raises(ValueError):
            mcsim.hyp_volume_simplex_quadrature(bad, SampleConfig(seed=0, n_samples=10))

    def test_inner_outer_estimator(self):
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        est = mcsim.mc_simplex_hyp_volume(spec, SampleConfig(seed=6, n_samples=30000, streams=2))
        target = expect.expected_hyp_volume(spec, method="generic").value
        assert abs(est.mean - target) <= 3.0 * est.stderr


class TestSimplexBetaIntegralCrossCheck:
    def test_formula_vs_absorption_at_positive_exponent(self):
        # the one-class simplex sum at exponent 1 against the sampler
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        formula = expect.expected_beta_integral(spec, 1.0, representation="upper").value
        est = mcsim.mc_absorption(spec, 1.0, SampleConfig(seed=31, n_samples=150000, streams=3))
        assert abs(est.mean - formula) <= 3.0 * est.stderr
