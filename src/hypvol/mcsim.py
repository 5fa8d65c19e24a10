"""Monte-Carlo verification: samplers, hulls, containment, volume oracles.

Everything here is independent of the formula engine: beta samplers in
the closed unit ball, convex hulls in dimensions 2 and 3, an LP-based
containment test, hyperbolic area via angle defect in the Klein disk,
ideal tetrahedron volumes through the Lobachevsky function, and
estimators with standard errors.

The estimators run batched numpy kernels over each block of samples:
hull facets by the brute-force one-side test, containment by
Carathéodory's theorem, both from determinants shared between point
subsets.  The scalar oracles (``contains``, ``hull_d2``, ``hull_d3``,
``hyp_area_polygon_d2``) take the rare samples a kernel cannot decide
and serve as the references the kernels are checked against.

Sampling is organized in streams: stream s of a run draws from a
counter-based Philox generator keyed by (seed, s), so results are
bit-identical for a fixed (seed, streams, n_samples) triple no matter
how the streams are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .expect import BetaSpec
from .specfun import c_d_beta, lobachevsky

__all__ = [
    "SampleConfig",
    "McEstimate",
    "DegenerateHullError",
    "sample_beta_point",
    "contains",
    "mc_absorption",
    "hull_d2",
    "hull_d3",
    "hyp_area_polygon_d2",
    "ideal_tetra_volume",
    "mc_ideal_polytope3_volume",
    "mc_hyp_area_d2",
    "mc_simplex_hyp_volume",
    "hyp_volume_simplex_quadrature",
]

_BLOCK = 1 << 16  # sub-batch size; fixed so stream output is reproducible
_IDEAL_EPS = 1e-12
_SIDE_EPS = 1e-12  # a point this close to a facet's hyperplane is on neither side
_BARY_EPS = 1e-9  # barycentric margin below which the LP decides containment
_INNER = 128  # barycentric points per simplex in mc_simplex_hyp_volume


class DegenerateHullError(ValueError):
    """Input points do not span the full dimension."""


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    n_samples: int
    streams: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n: int
    resampled: int = 0


class _Accumulator:
    """Streaming mean/variance over deterministic stream order."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray):
        self.n += values.size
        self.total += float(values.sum())
        self.total_sq += float((values * values).sum())

    def estimate(self) -> McEstimate:
        mean = self.total / self.n
        if self.n > 1:
            var = max(0.0, (self.total_sq - self.n * mean * mean) / (self.n - 1))
        else:
            var = 0.0
        return McEstimate(mean, math.sqrt(var / self.n), self.n)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | (stream & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_sizes(cfg: SampleConfig) -> list[int]:
    base, extra = divmod(cfg.n_samples, cfg.streams)
    return [base + (1 if s < extra else 0) for s in range(cfg.streams)]


def _iter_blocks(cfg: SampleConfig):
    for stream, size in enumerate(_stream_sizes(cfg)):
        rng = _stream_rng(cfg.seed, stream)
        remaining = size
        while remaining > 0:
            block = min(remaining, _BLOCK)
            yield rng, block
            remaining -= block


def _sample_directions(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    v = rng.standard_normal((count, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def _sample_beta_batch(d: int, beta: float, rng: np.random.Generator, count: int) -> np.ndarray:
    dirs = _sample_directions(rng, count, d)
    if beta == -1.0:
        return dirs
    # squared radius ~ Beta(d/2, beta+1) through the two-gamma construction
    g1 = rng.standard_gamma(0.5 * d, count)
    g2 = rng.standard_gamma(beta + 1.0, count)
    t = g1 / (g1 + g2)
    return dirs * np.sqrt(t)[:, None]


def sample_beta_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point of the beta family: uniform on the sphere for beta = -1,
    density proportional to (1-|x|^2)**beta inside the ball otherwise."""
    if d < 2:
        raise ValueError("requires d >= 2")
    if not -1.0 <= beta < math.inf:
        raise ValueError("requires a finite beta >= -1")
    return _sample_beta_batch(d, beta, rng, 1)[0]


# -- determinants of point subsets -------------------------------------------

def _frozen(a) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False  # cached tables are shared by every caller
    return a


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of range(n) in combinations order, shape (C(n, k), k),
    and for each subset S and position i the index of S without S[i]
    among the (k-1)-subsets."""
    subs = list(combinations(range(n), k))
    where = {s: m for m, s in enumerate(combinations(range(n), k - 1))}
    drop = [[where[s[:i] + s[i + 1 :]] for i in range(k)] for s in subs]
    return _frozen(subs), _frozen(drop)


def _expand(m: np.ndarray, n: int, k: int) -> np.ndarray:
    """Cofactor terms (-1)**i * m[:, S without S[i]] for every k-subset S.

    m holds one value per (k-1)-subset; the result has shape
    (N, C(n, k), k).
    """
    return m[:, _subsets(n, k)[1]] * (-1.0) ** np.arange(k)


def _minors(a: np.ndarray) -> np.ndarray:
    """All k x k minors of the rows of a; a is (N, n, k), the result is
    (N, C(n, k)) in combinations order.

    Laplace expansion along the last column, one column at a time, so
    each level's minors are shared by every subset above them.  Singular
    row sets give (near) zero; nothing raises.
    """
    n, k = a.shape[1], a.shape[2]
    m = a[:, :, 0]
    for j in range(2, k + 1):
        rows = _subsets(n, j)[0]
        m = (-1.0) ** (j - 1) * (a[:, rows, j - 1] * _expand(m, n, j)).sum(axis=2)
    return m


def _row_chunks(count: int, width: int):
    """Slices of samples whose (samples x width) temporaries hold about
    _BLOCK elements."""
    step = max(1, _BLOCK // width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


# -- containment ------------------------------------------------------------

def contains(points, x, tol: float = 1e-10) -> bool:
    """Whether x lies in the convex hull, by a phase-I feasibility solve.

    Solves {sum l_i p_i = x, sum l_i = 1, l >= 0} with artificial
    variables and Bland's rule, so termination is guaranteed on
    degenerate inputs; affinely dependent point sets are handled by the
    same tableau without special casing.
    """
    pts = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = pts.shape
    m = d + 1
    A = np.vstack([pts.T, np.ones((1, n))])
    b = np.append(x, 1.0)
    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # tableau: n structural columns, m artificial columns, rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, n : n + m] = 0.0
    basis = list(range(n, n + m))

    for _ in range(10000):
        enter = -1
        for j in range(n + m):
            if T[m, j] < -1e-12:
                enter = j
                break
        if enter < 0:
            break
        ratios = []
        for i in range(m):
            if T[i, enter] > 1e-12:
                ratios.append((T[i, -1] / T[i, enter], basis[i], i))
        if not ratios:
            break  # unbounded cannot happen in phase I; defensive
        _, _, row = min(ratios)
        piv = T[row, enter]
        T[row] /= piv
        for i in range(m + 1):
            if i != row and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[row]
        basis[row] = enter
    return -T[m, -1] <= tol


def _inside_hull_d2_batch(q: np.ndarray) -> np.ndarray:
    """0 in conv(q) per sample; q has shape (N, n, 2), no q_i at 0."""
    ang = np.sort(np.arctan2(q[..., 1], q[..., 0]), axis=1)
    gaps = np.diff(ang, axis=1)
    wrap = 2.0 * math.pi - (ang[:, -1] - ang[:, 0])
    max_gap = np.maximum(gaps.max(axis=1), wrap)
    return max_gap <= math.pi


def _inside_hull_batch(q: np.ndarray) -> np.ndarray:
    """0 in conv(q) per sample, any d; q has shape (N, n, d) with n > d.

    Carathéodory: 0 is in the hull iff it is in the simplex of some d+1
    of the points.  The barycentric coordinates of 0 in a simplex S are
    g_i / sum(g) with g_i = (-1)**i det(q[S without S[i]]), so each
    d-point determinant is computed once for all simplices sharing it.
    A sample is decided here when some simplex holds 0 with every
    coordinate >= _BARY_EPS, or every simplex has a coordinate below
    -_BARY_EPS; the others (0 on a face within that margin, or a simplex
    of near-zero volume) go to the LP ``contains``.
    """
    N, n, d = q.shape
    inside = np.empty(N, dtype=bool)
    for rows in _row_chunks(N, _subsets(n, d + 1)[1].size):
        qs = q[rows]
        g = _expand(_minors(qs), n, d + 1)
        total = g.sum(axis=2)
        size = np.abs(g).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            least = (g * np.sign(total)[..., None]).min(axis=2) / size
        solid = size > 1e-12 * np.abs(qs).max(axis=(1, 2))[:, None] ** d
        hit = (solid & (least >= _BARY_EPS)).any(axis=1)
        miss = (solid & (least < -_BARY_EPS)).all(axis=1)
        inside[rows] = hit
        for s in np.nonzero(~hit & ~miss)[0]:
            inside[rows.start + s] = contains(qs[s], np.zeros(d))
    return inside


def mc_absorption(spec: BetaSpec, beta: float, cfg: SampleConfig) -> McEstimate:
    """Estimate the expected beta integral from hull-containment frequency.

    Draws the n polytope points plus one extra beta point per sample;
    the hit frequency divided by the beta normalizing constant is an
    unbiased estimate of the expected beta integral.
    """
    if not -1.0 < beta < math.inf:
        raise ValueError("mc_absorption requires a finite beta > -1")
    d, n = spec.d, spec.n
    scale = 1.0 / c_d_beta(d, beta)
    acc = _Accumulator()
    for rng, block in _iter_blocks(cfg):
        pts = np.empty((block, n, d))
        for i, bi in enumerate(spec.betas):
            pts[:, i, :] = _sample_beta_batch(d, bi, rng, block)
        x0 = _sample_beta_batch(d, beta, rng, block)
        q = pts - x0[:, None, :]
        hits = _inside_hull_d2_batch(q) if d == 2 else _inside_hull_batch(q)
        acc.add(hits.astype(float) * scale)
    return acc.estimate()


# -- hulls -------------------------------------------------------------------

def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def hull_d2(points) -> np.ndarray:
    """Counterclockwise convex hull cycle (vertex coordinates)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise ValueError("requires at least 3 points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]

    def build(seq):
        out = []
        for v in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], v - out[-2]) <= 0.0:
                out.pop()
            out.append(v)
        return out

    lower = build(p)
    upper = build(p[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHullError("all points are collinear")
    return np.array(hull)


def _initial_simplex(pts: np.ndarray, eps: float):
    n = len(pts)
    i0 = 0
    i1 = next((i for i in range(1, n) if np.linalg.norm(pts[i] - pts[i0]) > eps), None)
    if i1 is None:
        raise DegenerateHullError("all points coincide")
    i2 = next(
        (
            i
            for i in range(1, n)
            if i != i1 and np.linalg.norm(np.cross(pts[i1] - pts[i0], pts[i] - pts[i0])) > eps
        ),
        None,
    )
    if i2 is None:
        raise DegenerateHullError("all points are collinear")
    normal = np.cross(pts[i1] - pts[i0], pts[i2] - pts[i0])
    i3 = next(
        (i for i in range(1, n) if i not in (i1, i2) and abs(np.dot(normal, pts[i] - pts[i0])) > eps),
        None,
    )
    if i3 is None:
        raise DegenerateHullError("all points are coplanar")
    return i0, i1, i2, i3


def hull_d3(points) -> list[tuple[int, int, int]]:
    """Incremental 3-d convex hull; outward-oriented triangle facets.

    Points coplanar with an existing facet are treated as visible, so
    flat patches come out fan-triangulated around the latest such point.
    Returns index triples sorted by index order.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 4:
        raise ValueError("requires at least 4 points")
    scale = float(np.abs(pts).max()) or 1.0
    eps = 1e-12 * scale**2

    i0, i1, i2, i3 = _initial_simplex(pts, eps)
    center = pts[[i0, i1, i2, i3]].mean(axis=0)

    def oriented(tri):
        a, b, c = tri
        normal = np.cross(pts[b] - pts[a], pts[c] - pts[a])
        if np.dot(normal, center - pts[a]) > 0.0:
            return (a, c, b)
        return (a, b, c)

    facets = {oriented(t) for t in [(i0, i1, i2), (i0, i1, i3), (i0, i2, i3), (i1, i2, i3)]}

    for p in range(n):
        if p in (i0, i1, i2, i3):
            continue
        visible = []
        for tri in facets:
            a, b, c = tri
            normal = np.cross(pts[b] - pts[a], pts[c] - pts[a])
            if np.dot(normal, pts[p] - pts[a]) > -eps:
                visible.append(tri)
        if not visible:
            continue
        visible_set = set(visible)
        edge_count: dict[tuple[int, int], int] = {}
        for a, b, c in visible:
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
        horizon = [e for e, cnt in edge_count.items() if cnt == 1]
        facets -= visible_set
        for u, v in horizon:
            facets.add(oriented((u, v, p)))
    return sorted(facets)


@lru_cache(maxsize=None)
def _facet_sides(n: int, d: int) -> np.ndarray:
    """Flat indices into the (C(n, d+1), d+1) cofactor terms: row F lists,
    for the d-subset F, the terms of F joined with each other point."""
    drop = _subsets(n, d + 1)[1]
    return _frozen(np.argsort(drop.ravel(), kind="stable").reshape(-1, n - d))


def _hull_facets(P: np.ndarray) -> np.ndarray:
    """Hull facets per sample by the brute-force one-side test.

    P is (N, n, d).  Returns (N, C(n, d)) bools over the d-subsets in
    combinations order: true where every other point lies strictly
    (beyond _SIDE_EPS) on one side of the subset's hyperplane.  The side
    of point r is the sign of det [P | 1] over the subset and r; each
    (d+1)-point determinant serves the d+1 subsets it contains.
    """
    N, n, d = P.shape
    orient = _minors(np.concatenate([P, np.ones((N, n, 1))], axis=2))
    sides = (orient[:, :, None] * (-1.0) ** np.arange(d + 1)).reshape(N, -1)[:, _facet_sides(n, d)]
    return (sides > _SIDE_EPS).all(axis=2) | (sides < -_SIDE_EPS).all(axis=2)


# -- hyperbolic measurements -------------------------------------------------

def _klein_angles(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Klein-disk angles at x between directions u and w, arrays (..., 2).

    Points within _IDEAL_EPS of the unit circle are ideal: angle 0.
    """
    r2 = (x * x).sum(axis=-1)
    one = 1.0 - r2
    xu, xw = (x * u).sum(axis=-1), (x * w).sum(axis=-1)
    gu = one * (u * u).sum(axis=-1) + xu * xu
    gw = one * (w * w).sum(axis=-1) + xw * xw
    guw = one * (u * w).sum(axis=-1) + xu * xw
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = np.arccos(np.clip(guw / np.sqrt(gu * gw), -1.0, 1.0))
    return np.where(r2 >= (1.0 - _IDEAL_EPS) ** 2, 0.0, angles)


def hyp_area_polygon_d2(vertices) -> float:
    """Area by angle defect: (n-2) pi minus the interior angles.

    Angles use the Klein-disk metric; vertices on the boundary circle
    (within 1e-12) contribute angle zero.  The cycle must be convex.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        raise ValueError("requires at least 3 vertices")
    crosses = []
    for i in range(n):
        a, b, c = v[i - 1], v[i], v[(i + 1) % n]
        crosses.append(_cross2(b - a, c - b))
    if all(c <= 1e-14 for c in crosses):
        v = v[::-1]
    elif not all(c >= -1e-14 for c in crosses):
        raise ValueError("vertex cycle is not convex")
    angles = _klein_angles(v, np.roll(v, -1, axis=0) - v, np.roll(v, 1, axis=0) - v)
    return (n - 2) * math.pi - float(angles.sum())


def _hyp_areas_d2(P: np.ndarray) -> np.ndarray:
    """Angle-defect areas of the hulls of P, shape (N, n, 2), per sample.

    Hull edges come from the one-side test, so each hull vertex has
    degree 2 and the angle at it needs only its two neighbours, not the
    cycle order.  Samples whose edges do not form such a cycle (a degree
    other than 0 or 2, or fewer than 3 hull vertices) get nan.
    """
    N, n, _ = P.shape
    pairs = _subsets(n, 2)[0]
    areas = np.empty(N)
    for rows in _row_chunks(N, _subsets(n, 3)[1].size):
        Q = P[rows]
        edges = _hull_facets(Q)
        adj = np.zeros((len(Q), n, n), dtype=bool)
        adj[:, pairs[:, 0], pairs[:, 1]] = edges
        adj[:, pairs[:, 1], pairs[:, 0]] = edges
        degree = adj.sum(axis=2)
        hull = degree == 2
        sample = np.arange(len(Q))[:, None]
        ahead = Q[sample, adj.argmax(axis=2)] - Q
        behind = Q[sample, n - 1 - adj[:, :, ::-1].argmax(axis=2)] - Q
        angles = np.where(hull, _klein_angles(Q, ahead, behind), 0.0)
        vertices = hull.sum(axis=1)
        area = (vertices - 2) * math.pi - angles.sum(axis=1)
        area[((degree != 0) & ~hull).any(axis=1) | (vertices < 3)] = np.nan
        areas[rows] = area
    return areas


_CYCLIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
_MIX = None


def _mix_rotation() -> np.ndarray:
    global _MIX
    if _MIX is None:
        # fixed rotation by 1 radian about a skew axis; any generic
        # rotation works, it only needs to move axis-aligned points
        axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        k = np.array(
            [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
        )
        _MIX = np.eye(3) + math.sin(1.0) * k + (1.0 - math.cos(1.0)) * (k @ k)
    return _MIX


def _tetra_volumes_batch(p: np.ndarray) -> np.ndarray:
    """Hyperbolic volumes of ideal tetrahedra; p has shape (N, 4, 3)."""
    p = np.array(p, dtype=float)
    for _ in range(3):
        near_pole = (np.abs(1.0 - p[..., 2]) < 1e-9).any(axis=1)
        if not near_pole.any():
            break
        p[near_pole] = p[near_pole] @ _CYCLIC.T
    else:
        near_pole = (np.abs(1.0 - p[..., 2]) < 1e-9).any(axis=1)
        if near_pole.any():
            p[near_pole] = p[near_pole] @ _mix_rotation().T
    z = (p[..., 0] + 1j * p[..., 1]) / (1.0 - p[..., 2])
    z0, z1, z2, z3 = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        cr = ((z0 - z2) * (z1 - z3)) / ((z0 - z3) * (z1 - z2))
        a1 = np.angle(cr)
        a2 = np.angle(1.0 / (1.0 - cr))
        a3 = np.angle(1.0 - 1.0 / cr)
    vols = np.abs(lobachevsky(a1) + lobachevsky(a2) + lobachevsky(a3))
    return np.where(np.isfinite(vols), vols, 0.0)


def ideal_tetra_volume(v1, v2, v3, v4) -> float:
    """Volume of the ideal tetrahedron with the four given boundary points.

    The sphere points are carried to the extended complex plane by
    stereographic projection; the volume is the sum of Lobachevsky
    values at the cross-ratio angles.
    """
    p = np.array([v1, v2, v3, v4], dtype=float)
    for i, j in combinations(range(4), 2):
        if np.linalg.norm(p[i] - p[j]) < 1e-12:
            raise ValueError("coincident vertices")
    return float(_tetra_volumes_batch(p[None, :, :])[0])


def _hull_volumes_bruteforce(P: np.ndarray) -> np.ndarray:
    """Hull volumes via star decomposition from vertex 0; P is (N, n, 3).

    Candidate facets are the triples with every other point strictly on
    one side (``_hull_facets``); valid for points in general position on
    the sphere.  Samples violating the triangulated Euler count
    F = 2n - 4 get volume nan (callers resample them).
    """
    N, n, _ = P.shape
    triples = _subsets(n, 3)[0]
    star = triples[:, 0] > 0  # facets away from vertex 0
    vols = np.empty(N)
    for rows in _row_chunks(N, _subsets(n, 4)[1].size):
        Q = P[rows]
        facets = _hull_facets(Q)
        s, f = np.nonzero(facets & star)
        tetra = Q[s[:, None], np.column_stack([np.zeros_like(f), triples[f]])]
        v = np.bincount(s, weights=_tetra_volumes_batch(tetra), minlength=len(Q))
        v[facets.sum(axis=1) != 2 * n - 4] = np.nan
        vols[rows] = v
    return vols


def _hull_volume_via_hull_d3(points: np.ndarray) -> float:
    facets = hull_d3(points)
    total = 0.0
    for tri in facets:
        if 0 in tri:
            continue
        total += ideal_tetra_volume(points[0], *points[list(tri)])
    return total


def mc_ideal_polytope3_volume(n: int, cfg: SampleConfig) -> McEstimate:
    """Sample mean of hyperbolic volumes of hulls of n uniform sphere points.

    Each sample decomposes the hull into ideal tetrahedra sharing the
    first vertex.  Degenerate hulls (probability zero) are resampled;
    the resample count is tracked on the returned estimate.
    """
    if n < 4:
        raise ValueError("requires n >= 4")
    acc = _Accumulator()
    resampled = 0
    for rng, block in _iter_blocks(cfg):
        P = rng.standard_normal((block, n, 3))
        P /= np.linalg.norm(P, axis=2, keepdims=True)
        if n == 4:
            vols = _tetra_volumes_batch(P)
        else:
            vols = _hull_volumes_bruteforce(P)
            while np.isnan(vols).any():
                bad = np.nonzero(np.isnan(vols))[0]
                resampled += bad.size
                Q = rng.standard_normal((bad.size, n, 3))
                Q /= np.linalg.norm(Q, axis=2, keepdims=True)
                vols[bad] = _hull_volumes_bruteforce(Q)
        acc.add(vols)
    est = acc.estimate()
    est.resampled = resampled
    return est


def mc_hyp_area_d2(spec: BetaSpec, cfg: SampleConfig) -> McEstimate:
    """Sample mean of hyperbolic hull areas in the Klein disk (angle defect)."""
    if spec.d != 2:
        raise ValueError("requires d = 2")
    acc = _Accumulator()
    for rng, block in _iter_blocks(cfg):
        pts = np.empty((block, spec.n, 2))
        for i, bi in enumerate(spec.betas):
            pts[:, i, :] = _sample_beta_batch(2, bi, rng, block)
        areas = _hyp_areas_d2(pts)
        for s in np.nonzero(np.isnan(areas))[0]:
            areas[s] = hyp_area_polygon_d2(hull_d2(pts[s]))
        acc.add(areas)
    return acc.estimate()


def hyp_volume_simplex_quadrature(vertices, cfg: SampleConfig) -> McEstimate:
    """Monte-Carlo integral of the hyperbolic density over a fixed simplex.

    Uniform barycentric samples (normalized exponentials) weighted by
    the Euclidean simplex volume.  All vertices must be strictly inside
    the ball; ideal vertices need the angle-defect or tetrahedron
    oracles instead.
    """
    v = np.asarray(vertices, dtype=float)
    k, d = v.shape
    if k != d + 1 or d not in (2, 3):
        raise ValueError("requires d+1 vertices in dimension 2 or 3")
    if (np.linalg.norm(v, axis=1) > 1.0 - 1e-9).any():
        raise ValueError("vertices must be strictly inside the unit ball")
    vol_eucl = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(d)
    acc = _Accumulator()
    for rng, block in _iter_blocks(cfg):
        w = rng.standard_exponential((block, d + 1))
        w /= w.sum(axis=1, keepdims=True)
        x = w @ v
        r2 = (x * x).sum(axis=1)
        acc.add(vol_eucl * (1.0 - r2) ** (-0.5 * (d + 1)))
    return acc.estimate()


def mc_simplex_hyp_volume(spec: BetaSpec, cfg: SampleConfig) -> McEstimate:
    """Expected hyperbolic simplex volume for interior beta points.

    Outer samples draw the d+1 vertices; each volume is estimated by a
    fixed-size inner barycentric sample, which keeps the outer mean
    unbiased.
    """
    d = spec.d
    if spec.n != d + 1 or d not in (2, 3):
        raise ValueError("requires n = d+1 points in dimension 2 or 3")
    if any(b <= -1.0 for b in spec.betas):
        raise ValueError("requires interior points (all beta > -1)")
    acc = _Accumulator()
    fact = math.factorial(d)
    for rng, block in _iter_blocks(cfg):
        verts = np.empty((block, d + 1, d))
        for i, bi in enumerate(spec.betas):
            verts[:, i, :] = _sample_beta_batch(d, bi, rng, block)
        vol_eucl = np.abs(np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])) / fact
        w = rng.standard_exponential((block, _INNER, d + 1))
        w /= w.sum(axis=2, keepdims=True)
        x = np.einsum("bik,bkd->bid", w, verts)
        r2 = (x * x).sum(axis=2)
        integrand = (1.0 - r2) ** (-0.5 * (d + 1))
        acc.add(vol_eucl * integrand.mean(axis=1))
    return acc.estimate()
