"""Monte-Carlo module: samplers, geometry, estimators, determinism."""

import importlib.util
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
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
        pts = mcsim._sample_block(2, (0.0,), rng, 1_000_000)[:, 0]
        r2 = (pts * pts).sum(axis=1)
        # E r^2 = (d/2)/(d/2 + beta + 1) = 1/2; sd of mean ~ 2.9e-4
        assert r2.mean() == pytest.approx(0.5, abs=3 * 2.9e-4)

    def test_concentration_for_large_beta(self):
        rng = mcsim._stream_rng(6, 0)
        beta = 50.0
        pts = mcsim._sample_block(2, (beta,), rng, 200_000)[:, 0]
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

    def test_point_inside_the_hull_adds_no_facet(self):
        # the centre sees no facet, so it leaves the cube's hull as it is
        cube = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
        for pts in (np.vstack([cube, [0.5, 0.5, 0.5]]), np.vstack([cube[:4], [0.5, 0.5, 0.5], cube[4:]])):
            facets = mcsim.hull_d3(pts)
            centre = int(np.nonzero((pts == 0.5).all(axis=1))[0][0])
            assert len(facets) == 12 and not any(centre in tri for tri in facets)

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

    def test_clockwise_cycle_has_the_same_area(self):
        ang = np.array([0.0, 1.3, 2.9, 4.4])
        cycle = 0.9 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        area = mcsim.hyp_area_polygon_d2(cycle)
        assert 0.0 < area < 2.0 * math.pi
        assert mcsim.hyp_area_polygon_d2(cycle[::-1]) == area
        assert mcsim.hyp_area_polygon_d2(np.roll(cycle[::-1], 2, axis=0)) == pytest.approx(area, rel=1e-14)

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

    @pytest.mark.parametrize("scale", [0.5, 3.0, 1.0 + 1e-6])
    def test_off_sphere_error(self, scale):
        with pytest.raises(ValueError, match="unit sphere"):
            mcsim.ideal_tetra_volume(*(scale * REGULAR_TETRA))

    def test_within_sphere_tolerance(self):
        assert mcsim.ideal_tetra_volume(*((1.0 + 1e-12) * REGULAR_TETRA)) == pytest.approx(1.0149416064096536, abs=1e-9)

    @pytest.mark.parametrize("sep", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_near_coincident_vertices_against_mpmath(self, sep):
        rng = np.random.default_rng(41)
        base = rng.standard_normal((4, 3))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        for i, j in itertools.combinations(range(4), 2):
            step = np.cross(base[i], rng.standard_normal(3))
            p = base.copy()
            p[j] = base[i] + sep * step / np.linalg.norm(step)
            p[j] /= np.linalg.norm(p[j])
            assert abs(mcsim.ideal_tetra_volume(*p) - _mp_ideal_tetra_volume(p)) <= 1e-12, (i, j)


def _mp_ideal_tetra_volume(p):
    """50-digit volume of the ideal tetrahedron on the rows of p: the sum of
    Lobachevsky values at the angles of the Euclidean triangle with sides
    |v0-v1||v2-v3|, |v0-v2||v1-v3| and |v0-v3||v1-v2|."""
    with mp.workdps(50):
        v = [mp.matrix([mp.mpf(float(x)) for x in row]) for row in p]
        v = [u / mp.norm(u) for u in v]
        a, b, c = (mp.norm(v[0] - v[k]) * mp.norm(v[m] - v[l]) for k, m, l in ((1, 2, 3), (2, 1, 3), (3, 1, 2)))
        alpha = mp.acos((b * b + c * c - a * a) / (2 * b * c))
        beta = mp.acos((a * a + c * c - b * b) / (2 * a * c))
        return float(mp.fsum(mp.clsin(2, 2 * t) / 2 for t in (alpha, beta, mp.pi - alpha - beta)))


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

    def test_more_streams_than_samples(self):
        # only the first n_samples streams draw a sample; the empty ones cost nothing
        one_each = mcsim.mc_ideal_polytope3_volume(4, SampleConfig(seed=2, n_samples=3, streams=3))
        est = mcsim.mc_ideal_polytope3_volume(4, SampleConfig(seed=2, n_samples=3, streams=10**12))
        assert est == one_each
        assert est.n == 3 and est.mean > 0.0
        spec = BetaSpec(2, (0.0,) * 3)
        one_each, est = (mcsim.mc_absorption(spec, 0.0, SampleConfig(seed=1, n_samples=3, streams=s)) for s in (3, 10**12))
        assert (est.mean, est.stderr) == (one_each.mean, one_each.stderr)

    def test_determinism(self):
        for n, count in ((5, 5000), (12, 600)):
            cfg = SampleConfig(seed=3, n_samples=count, streams=3)
            assert mcsim.mc_ideal_polytope3_volume(n, cfg) == mcsim.mc_ideal_polytope3_volume(n, cfg)

    def test_nan_volume_is_resampled(self, monkeypatch):
        # a degenerate hull (probability zero) reads nan: that sample is drawn again from the same stream
        bruteforce, sizes = mcsim._hull_volumes_bruteforce, []

        def first_nan(P):
            vols = bruteforce(P)
            if not sizes:
                vols[0] = np.nan
            sizes.append(len(P))
            return vols

        monkeypatch.setattr(mcsim, "_hull_volumes_bruteforce", first_nan)
        est = mcsim.mc_ideal_polytope3_volume(6, SampleConfig(seed=3, n_samples=50))
        assert est.resampled == 1 and est.n == 50 and math.isfinite(est.mean)
        assert sizes == [50, 1]


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
    def test_nan_area_takes_the_per_sample_hull(self, monkeypatch):
        # a sample the batched angle defect leaves nan is recomputed from its own hull
        spec = BetaSpec(2, (0.3, -0.5, 1.2, 0.0, 2.0))
        cfg = SampleConfig(seed=6, n_samples=400)
        want = mcsim.mc_hyp_area_d2(spec, cfg)
        batched, marked = mcsim._hyp_areas_d2, []

        def first_nan(pts):
            areas = batched(pts)
            if not marked:
                marked.append(areas[0])
                areas[0] = np.nan
            return areas

        monkeypatch.setattr(mcsim, "_hyp_areas_d2", first_nan)
        got = mcsim.mc_hyp_area_d2(spec, cfg)
        assert marked and got.n == want.n == 400
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0.0)

    def test_zero_variance_ideal(self):
        spec = BetaSpec(2, (-1.0,) * 5)
        est = mcsim.mc_hyp_area_d2(spec, SampleConfig(seed=4, n_samples=800))
        assert est.mean == pytest.approx(3.0 * math.pi, abs=1e-9)
        rng = mcsim._stream_rng(4, 0)
        pts = mcsim._sample_block(2, (-1.0,), rng, 200 * 5)[:, 0].reshape(200, 5, 2)
        for i in range(200):
            area = mcsim.hyp_area_polygon_d2(mcsim.hull_d2(pts[i]))
            assert area == pytest.approx(3.0 * math.pi, abs=1e-9)

    def test_zero_variance_has_no_stderr(self):
        # equal samples across blocks and streams: the one-pass sum of squares read 1.17e-8 here
        for n, streams in ((100, 1), (70000, 3)):
            est = mcsim.mc_hyp_area_d2(BetaSpec(2, (-1.0,) * 4), SampleConfig(seed=1, n_samples=n, streams=streams))
            assert est.stderr <= 1e-15, (n, streams)

    def test_block_variance_merges_exactly(self):
        # blocks of any sizes merge to the variance of the whole sample
        rng = np.random.default_rng(3)
        values = 1e6 + rng.standard_normal(1000)
        acc = mcsim._Accumulator()
        for part in np.split(values, [1, 7, 400, 999]):
            acc.add(part)
        est = acc.estimate()
        assert est.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(values.size), rel=1e-12)

    def test_matches_formula_nonideal(self):
        spec = BetaSpec(2, (0.0,) * 4)
        est = mcsim.mc_hyp_area_d2(spec, SampleConfig(seed=14, n_samples=20000, streams=2))
        target = expect.expected_hyp_volume(spec, method="generic").value
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_batched_matches_scalar_near_ideal(self):
        rng = mcsim._stream_rng(21, 0)
        betas = (-0.999, -0.999, -0.999, 0.0, 1.0, -0.5)
        pts = np.stack([mcsim._sample_block(2, (b,), rng, 500)[:, 0] for b in betas], axis=1)
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
    def test_inner_outer_estimator(self):
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        est = mcsim.mc_simplex_hyp_volume(spec, SampleConfig(seed=6, n_samples=30000, streams=2))
        target = expect.expected_hyp_volume(spec, method="generic").value
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_inner_outer_estimator_d3(self):
        spec = BetaSpec(3, (0.5, 1.0, 2.0, 0.0))
        est = mcsim.mc_simplex_hyp_volume(spec, SampleConfig(seed=41, n_samples=20000, streams=2))
        target = expect.expected_hyp_volume(spec, method="generic").value
        assert target == pytest.approx(0.0586316375371, rel=1e-10)
        assert abs(est.mean - target) <= 4.0 * est.stderr


def _full_block_simplex_volume(spec, cfg):
    """mc_simplex_hyp_volume in its full-block form: one einsum over every
    inner point of a block, normalized weights and a float power.  The
    reference for the chunked homogeneous estimator, which must draw the
    same numbers in the same order."""
    d = spec.d
    acc = mcsim._Accumulator()
    for rng, block in mcsim._iter_blocks(cfg):
        verts = np.empty((block, d + 1, d))
        for i, bi in enumerate(spec.betas):
            verts[:, i, :] = mcsim._sample_block(d, (bi,), rng, block)[:, 0]
        vol_eucl = np.abs(np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])) / math.factorial(d)
        w = rng.standard_exponential((block, mcsim._INNER, d + 1))
        w /= w.sum(axis=2, keepdims=True)
        x = np.einsum("bik,bkd->bid", w, verts)
        r2 = (x * x).sum(axis=2)
        acc.add(vol_eucl * ((1.0 - r2) ** (-0.5 * (d + 1))).mean(axis=1))
    return acc.estimate()


_PARITY_SPECS = [BetaSpec(2, (0.5, 1.0, 0.0)), BetaSpec(3, (0.5, 1.0, 2.0, 0.0))]
_PARITY_CFGS = [
    SampleConfig(seed, n, streams) for seed in range(4) for streams in (1, 2) for n in (1000, 2500, 4097)
]


def _assert_parity(got, ref):
    assert got.n == ref.n
    assert got.mean == pytest.approx(ref.mean, rel=1e-13, abs=0.0)
    assert got.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0.0)


class TestSimplexEstimatorParity:
    @pytest.mark.parametrize("spec", _PARITY_SPECS, ids=lambda s: f"d{s.d}")
    @pytest.mark.parametrize("cfg", _PARITY_CFGS, ids=lambda c: f"{c.seed}-{c.streams}-{c.n_samples}")
    def test_matches_full_block_form(self, spec, cfg):
        _assert_parity(mcsim.mc_simplex_hyp_volume(spec, cfg), _full_block_simplex_volume(spec, cfg))

    def test_determinism(self):
        spec = BetaSpec(3, (0.5, 1.0, 2.0, 0.0))
        cfg = SampleConfig(seed=9, n_samples=3000, streams=2)
        assert mcsim.mc_simplex_hyp_volume(spec, cfg) == mcsim.mc_simplex_hyp_volume(spec, cfg)

    def test_traced_memory_bounded(self):
        # the full-block form peaks above 200 MB here
        spec = BetaSpec(3, (0.5, 1.0, 2.0, 0.0))
        tracemalloc.start()
        try:
            mcsim.mc_simplex_hyp_volume(spec, SampleConfig(seed=0, n_samples=20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


GOLDEN = Path(__file__).parent / "golden"


def _golden_script():
    spec = importlib.util.spec_from_file_location("make_mc_cases", GOLDEN / "make_mc_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GOLDEN_SCRIPT = _golden_script()
_GOLDEN_ROWS = json.loads((GOLDEN / "mc_cases.json").read_text())


class TestGoldenEstimates:
    """Every draw and every rounding of the nine oracle cases, pinned (tests/golden/make_mc_cases.py)."""

    def test_rows_cover_every_case(self):
        assert [{k: r[k] for k in ("case", "samples", "streams", "seed")} for r in _GOLDEN_ROWS] == _GOLDEN_SCRIPT.CASES
        assert {r["case"] for r in _GOLDEN_ROWS} == set(_GOLDEN_SCRIPT.SPECS) and len(_GOLDEN_SCRIPT.SPECS) == 9

    def test_specs_are_the_benchmarks(self):
        # the script copies the specs of the benchmark's Monte-Carlo cases and adds n = 4
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        bench = workloads.mc_specs()
        assert len(bench) == 8 and set(_GOLDEN_SCRIPT.SPECS) - set(bench) == {"lobachevsky-n4"}
        assert {case: _GOLDEN_SCRIPT.SPECS[case] for case in bench} == bench

    @pytest.mark.parametrize("row", _GOLDEN_ROWS, ids=lambda r: f"{r['case']}-{r['streams']}-{r['samples']}")
    def test_same_bits(self, row):
        want = {k: row[k] for k in ("mean", "stderr", "n", "resampled")}
        assert _GOLDEN_SCRIPT.estimate(row) == want


class TestSimplexBetaIntegralCrossCheck:
    def test_formula_vs_absorption_at_positive_exponent(self):
        # the one-class simplex sum at exponent 1 against the sampler
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        formula = expect.expected_beta_integral(spec, 1.0, representation="upper").value
        est = mcsim.mc_absorption(spec, 1.0, SampleConfig(seed=31, n_samples=150000, streams=3))
        assert abs(est.mean - formula) <= 3.0 * est.stderr


# -- the sample-major kernels the sample-last ones replaced, kept as references --


def _ref_sample_beta_batch(d, beta, rng, count):
    """The beta sampler with np.linalg.norm and fresh arrays at each step."""
    v = rng.standard_normal((count, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = v / norms
    if beta == -1.0:
        return dirs
    g1 = rng.standard_gamma(0.5 * d, count)
    g2 = rng.standard_gamma(beta + 1.0, count)
    return dirs * np.sqrt(g1 / (g1 + g2))[:, None]


def _ref_expand(m, n, k):
    """Cofactor terms (-1)**i * m[:, S without S[i]], shape (N, C(n, k), k)."""
    return m[:, mcsim._subsets(n, k)[1]] * (-1.0) ** np.arange(k)


def _ref_minors(a):
    """All k x k minors of the rows of a, (N, n, k) -> (N, C(n, k)), each
    level's cofactor terms summed over a small last axis."""
    n, k = a.shape[1], a.shape[2]
    m = a[:, :, 0]
    for j in range(2, k + 1):
        rows = mcsim._subsets(n, j)[0]
        m = (-1.0) ** (j - 1) * (a[:, rows, j - 1] * _ref_expand(m, n, j)).sum(axis=2)
    return m


def _ref_hull_facets(P):
    """One-side test on (N, C(n, d), n-d) gathered side values."""
    N, n, d = P.shape
    drop = mcsim._subsets(n, d + 1)[1]
    where = np.argsort(drop.ravel(), kind="stable").reshape(-1, n - d)
    orient = _ref_minors(np.concatenate([P, np.ones((N, n, 1))], axis=2))
    sides = (orient[:, :, None] * (-1.0) ** np.arange(d + 1)).reshape(N, -1)[:, where]
    return (sides > mcsim._SIDE_EPS).all(axis=2) | (sides < -mcsim._SIDE_EPS).all(axis=2)


def _ref_inside_hull_batch(q):
    """Carathéodory containment with (N, C(n, d+1), d+1) cofactor terms."""
    N, n, d = q.shape
    g = _ref_expand(_ref_minors(q), n, d + 1)
    total = g.sum(axis=2)
    size = np.abs(g).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        least = (g * np.sign(total)[..., None]).min(axis=2) / size
    solid = size > 1e-12 * np.abs(q).max(axis=(1, 2))[:, None] ** d
    hit = (solid & (least >= mcsim._BARY_EPS)).any(axis=1)
    miss = (solid & (least < -mcsim._BARY_EPS)).all(axis=1)
    inside = hit.copy()
    for s in np.nonzero(~hit & ~miss)[0]:
        inside[s] = mcsim.contains(q[s], np.zeros(d))
    return inside


def _ref_inside_hull_d2_batch(q):
    """The angular-gap test with the angles sorted along the point axis."""
    ang = np.sort(np.arctan2(q[..., 1], q[..., 0]), axis=1)
    gaps = np.diff(ang, axis=1)
    wrap = 2.0 * math.pi - (ang[:, -1] - ang[:, 0])
    return np.maximum(gaps.max(axis=1), wrap) <= math.pi


def _d2_blocks(n, count, seed):
    """Random blocks (count, n, 2) and blocks with tied, antipodal, signed-zero and single angles."""
    rng = np.random.default_rng(seed)
    blocks = {"random": rng.standard_normal((count, n, 2))}
    tied = rng.standard_normal((count, n, 2))
    tied[:, -1] = tied[:, 0]
    tied[:, 1] = 2.0 * tied[:, 0]
    blocks["duplicated"] = tied
    antipodal = rng.standard_normal((count, n, 2))
    antipodal[:, 0], antipodal[:, 1] = [1.0, 0.0], [-0.5, 0.0]  # angles 0 and pi
    if n > 3:
        antipodal[::2, 2], antipodal[::2, 3] = [0.0, 0.3], [0.0, -2.0]  # pi/2 and -pi/2
    blocks["antipodal"] = antipodal
    zeros = rng.standard_normal((count, n, 2))
    zeros[:, : n // 2 + 1, 0] = np.abs(zeros[:, : n // 2 + 1, 0])
    zeros[:, : n // 2 + 1, 1] = 0.0
    zeros[:, 1::2, 1] = -0.0  # angles +0.0, -0.0 and, for x < 0, -pi
    blocks["signed zeros"] = zeros
    blocks["one angle"] = rng.uniform(0.1, 2.0, (count, n, 1)) * np.array([1.0, 1.0])
    return blocks


def _ref_tetra_volumes_batch(p):
    """Ideal tetrahedron volumes from a rotated copy of every row and one
    lobachevsky call per cross-ratio angle."""
    p = np.array(p, dtype=float)
    for _ in range(3):
        near_pole = (np.abs(1.0 - p[..., 2]) < 1e-9).any(axis=1)
        if not near_pole.any():
            break
        p[near_pole] = p[near_pole] @ mcsim._CYCLIC.T
    else:
        near_pole = (np.abs(1.0 - p[..., 2]) < 1e-9).any(axis=1)
        if near_pole.any():
            p[near_pole] = p[near_pole] @ mcsim._MIX.T
    z = (p[..., 0] + 1j * p[..., 1]) / (1.0 - p[..., 2])
    z0, z1, z2, z3 = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        cr = ((z0 - z2) * (z1 - z3)) / ((z0 - z3) * (z1 - z2))
        w = ((z0 - z1) * (z2 - z3)) / ((z0 - z3) * (z2 - z1))  # cr - 1
        a1 = np.angle(cr)
        a2 = -np.angle(w)
        a3 = np.angle(-w / cr)
    vols = np.abs(lobachevsky(a1) + lobachevsky(a2) + lobachevsky(a3))
    return np.where(np.isfinite(vols), vols, 0.0)


def _ref_hull_volumes_bruteforce(P):
    """Star volumes with the four vertices of each star tetrahedron gathered, then projected."""
    N, n, _ = P.shape
    triples = mcsim._subsets(n, 3)[0]
    facets = _ref_hull_facets(P)
    s, f = np.nonzero(facets & (triples[:, 0] > 0))
    tetra = P[s[:, None], np.column_stack([np.zeros_like(f), triples[f]])]
    v = np.bincount(s, weights=_ref_tetra_volumes_batch(tetra), minlength=N)
    v[facets.sum(axis=1) != 2 * n - 4] = np.nan
    return v


def _same_bits(got, want):
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


_KERNEL_SHAPES = [(2, n) for n in range(3, 8)] + [(3, n) for n in range(4, 13)] + [(4, 6), (4, 7), (4, 8), (5, 7)]


def _blocks(d, n, count, seed):
    """Random, duplicated-point and flat (last coordinate 0) blocks, (count, n, d)."""
    rng = np.random.default_rng(seed)
    random = rng.standard_normal((count, n, d))
    duplicated = rng.standard_normal((count, n, d))
    duplicated[:, -1] = duplicated[:, 0]
    flat = rng.standard_normal((count, n, d))
    flat[..., -1] = 0.0
    return {"random": random, "duplicated": duplicated, "flat": flat}


class TestSampleAxisLastKernels:
    @pytest.mark.parametrize("d, n", _KERNEL_SHAPES, ids=lambda v: str(v))
    def test_minors_and_facets_match_references(self, d, n):
        for name, P in _blocks(d, n, 60, 10 * d + n).items():
            for a in (P, np.concatenate([P, np.ones((60, n, 1))], axis=2)):
                got = mcsim._minors(np.ascontiguousarray(a.transpose(2, 1, 0)))
                assert _same_bits(got.T, _ref_minors(a)), name
            assert _same_bits(mcsim._hull_facets(P), _ref_hull_facets(P)), name

    @pytest.mark.parametrize("n", range(3, 9))
    def test_gap_test_matches_sorting_reference(self, n):
        blocks = _d2_blocks(n, 200, 300 + n)
        for name, q in blocks.items():
            want = _ref_inside_hull_d2_batch(q)
            sample_last = np.ascontiguousarray(q.transpose(2, 1, 0)).transpose(2, 1, 0)
            for block in (q, sample_last):
                assert _same_bits(mcsim._inside_hull_d2_batch(block), want), name
        assert 0 < _ref_inside_hull_d2_batch(blocks["random"]).sum() < 200
        assert _ref_inside_hull_d2_batch(blocks["antipodal"]).all()  # 0 on the segment of a pair: a gap of pi

    @pytest.mark.parametrize("d, n", _KERNEL_SHAPES, ids=lambda v: str(v))
    def test_containment_matches_reference(self, d, n):
        for name, q in _blocks(d, n, 40, 100 + 10 * d + n).items():
            if name == "flat":
                q[:, 0, -1] = 1e-300  # one point off the hyperplane through 0: every simplex near-flat
            assert _same_bits(mcsim._inside_hull_batch(q), _ref_inside_hull_batch(q)), name

    def test_row_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(31)
        step = mcsim._BLOCK // mcsim._subsets(6, 4)[1].size
        q = rng.standard_normal((2 * step + 3, 6, 3))
        q -= 0.3 * rng.standard_normal((len(q), 1, 3))
        got = mcsim._inside_hull_batch(q)
        assert _same_bits(got, _ref_inside_hull_batch(q))
        assert 0 < got.sum() < len(q)
        P = rng.standard_normal((2 * (mcsim._BLOCK // mcsim._subsets(7, 4)[1].size) + 5, 7, 3))
        P /= np.linalg.norm(P, axis=2, keepdims=True)
        D = rng.uniform(-1.0, 1.0, (2 * (mcsim._BLOCK // mcsim._subsets(6, 3)[1].size) + 5, 6, 2))
        volumes, areas = mcsim._hull_volumes_bruteforce(P), mcsim._hyp_areas_d2(D)
        monkeypatch.setattr(mcsim, "_hull_facets", _ref_hull_facets)
        assert _same_bits(volumes, mcsim._hull_volumes_bruteforce(P))
        assert _same_bits(areas, mcsim._hyp_areas_d2(D))

    def test_norms_match_linalg(self):
        rng = np.random.default_rng(32)
        for shape in ((500, 2), (500, 5), (300, 6, 3)):
            v = rng.standard_normal(shape)
            rows = v.reshape(-1, shape[-1])
            rows[:3] = np.array([0.0, 1e-200, 1e200])[:, None]  # a zero, an underflowing and an overflowing row
            with np.errstate(over="ignore", under="ignore"):
                assert _same_bits(mcsim._norms(np.moveaxis(v, -1, 0)), np.linalg.norm(v, axis=-1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sample_block_matches_per_point_draws(self, d):
        betas = (-1.0, 0.0, 2.5, -0.999, -1.0, 40.0)
        ours, theirs = mcsim._stream_rng(3, d), mcsim._stream_rng(3, d)
        got = mcsim._sample_block(d, betas, ours, 1000)
        want = np.stack([_ref_sample_beta_batch(d, b, theirs, 1000) for b in betas], axis=1)
        assert _same_bits(got, want)
        assert got.base.shape == (d, len(betas), 1000) and got.base.flags.c_contiguous
        assert ours.random() == theirs.random()
        assert _same_bits(mcsim._sample_block(d, (0.5,), ours, 7)[:, 0], _ref_sample_beta_batch(d, 0.5, theirs, 7))

    def test_ideal_oracle_draws_one_point_per_sphere_point(self, monkeypatch):
        # the oracle's block*n sphere points are one ideal point of _sample_block:
        # the values of one (block, n, 3) Gaussian draw, laid out (3, block, n)
        count, n = 9400, 7  # count*n = 65,800 points, more than _BLOCK
        ours, theirs = mcsim._stream_rng(4, 1), mcsim._stream_rng(4, 1)
        drawn = []

        def capture(P):
            drawn.append(P)
            return np.zeros(len(P))

        monkeypatch.setattr(mcsim, "_stream_rng", lambda seed, stream: ours)
        monkeypatch.setattr(mcsim, "_hull_volumes_bruteforce", capture)
        mcsim.mc_ideal_polytope3_volume(n, SampleConfig(seed=4, n_samples=count))
        want = theirs.standard_normal((count, n, 3))
        want /= np.linalg.norm(want, axis=2, keepdims=True)
        (got,) = drawn
        assert _same_bits(got, want) and got.transpose(2, 0, 1).flags.c_contiguous
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", [5, 6, 10, 12])
    def test_star_volumes_match_reference(self, n):
        rng = np.random.default_rng(35 + n)
        P = rng.standard_normal((300, n, 3))
        P /= np.linalg.norm(P, axis=2, keepdims=True)
        P[3, 2] = [0.0, 0.0, 1.0]  # a vertex at the pole
        P[7, 0] = [0.0, 0.0, 1.0]  # vertex 0, in every star tetrahedron, at the pole
        P[11, 4] = [1e-10, 0.0, math.sqrt(1.0 - 1e-20)]  # within 1e-9 of it
        P[13, :3] = np.eye(3)[[2, 1, 0]]  # a pole vertex after every cyclic turn
        want = _ref_hull_volumes_bruteforce(P)
        sample_last = np.ascontiguousarray(P.transpose(2, 1, 0)).transpose(2, 1, 0)
        for block in (P, sample_last):
            assert _same_bits(mcsim._hull_volumes_bruteforce(block), want)
        assert np.isfinite(want[[3, 7, 11]]).all()

    def test_tetra_volumes_match_reference(self):
        # the ideal kernel with sample i's four points as tetrahedron i
        rng = np.random.default_rng(33)
        p = rng.standard_normal((400, 4, 3))
        p /= np.linalg.norm(p, axis=2, keepdims=True)
        p[5, 1] = [0.0, 0.0, 1.0]  # a vertex at the pole
        p[9, 2] = [1e-10, 0.0, math.sqrt(1.0 - 1e-20)]  # within 1e-9 of it
        p[12, :3] = np.eye(3)[[2, 1, 0]]  # a pole vertex after every cyclic turn
        p[20, 0] = p[20, 1]  # coincident vertices: volume 0
        for q in (p, p[:1]):
            got = mcsim._ideal_volumes(q, np.arange(len(q)), np.broadcast_to(np.arange(4), (len(q), 4)))
            assert _same_bits(got, _ref_tetra_volumes_batch(q))
