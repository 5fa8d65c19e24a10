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

Samples are kept with the sample axis last, (coordinate, point,
sample), from the draw on.  ``_sample_block`` writes each beta point's
rows of one (d, n, N) array and ``_sphere_points`` copies its Gaussian
draw there; both hand out the (N, n, d) transposed view, so the kernels
that take (N, n, d) points see whole contiguous rows of samples when
they transpose back.  Every step of the d = 2 gap test, the determinant
and hull kernels and the ideal star is a numpy operation on such rows.
Sums over the small axes (the j cofactor terms of a minor, the d+1 terms
of a barycentric coordinate, the d squares of a norm) are taken one term
at a time in order, which is the order numpy's add.reduce takes over a
row shorter than 8; the gap test sorts with an exact compare-exchange
network.  So the samples, minors, side tests, containment results and
volumes have the bits the per-sample sorts and reductions over those
axes gave, while no (N, C(n, j), j) temporary and no reduction or sort
along an axis 2 to 6 long is left.  The outputs keep the sample axis
first, (N, ...), as transposed views where that is free.

Where a kernel's temporaries hold more than a few values per sample it
runs over row chunks of about _BLOCK elements (``_row_chunks``):
containment in d >= 3 (``mc_absorption``), hull edges and angles in the
disk (``mc_hyp_area_d2``), ideal hull facets and star volumes
(``mc_ideal_polytope3_volume``, one star decomposition at every n >= 4,
the tetrahedron included) and the inner barycentric sample of
``mc_simplex_hyp_volume``.  The other kernels hold O(n) values per
sample over one block.

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
]

_BLOCK = 1 << 16  # sub-batch size; fixed so stream output is reproducible
_IDEAL_EPS = 1e-12
_SIDE_EPS = 1e-12  # a point this close to a facet's hyperplane is on neither side
_BARY_EPS = 1e-9  # barycentric margin below which the LP decides containment
_LP_TOL = 1e-10  # contains: x is inside when the LP's phase-I residual is at most this
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
    """Streaming mean/variance over deterministic stream order.

    The mean is the running total over the count.  The variance takes two
    passes per block, its squared deviations from the block's own mean,
    and merges the blocks' sums (Chan, Golub & LeVeque 1983): no
    difference of two large sums cancels, so equal samples give 0.
    """

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray):
        count = values.size
        total = float(values.sum())
        dev = values - total / count
        m2 = float(np.multiply(dev, dev, out=dev).sum())  # squared in place: one temporary, not two
        if self.n:
            delta = total / count - self.total / self.n
            m2 += delta * delta * (self.n * count / (self.n + count))
        self.n += count
        self.total += total
        self.m2 += m2

    def estimate(self) -> McEstimate:
        mean = self.total / self.n
        var = self.m2 / (self.n - 1) if self.n > 1 else 0.0
        return McEstimate(mean, math.sqrt(var / self.n), self.n)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | (stream & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_sizes(cfg: SampleConfig) -> list[int]:
    """Samples per stream, for the streams that draw any: s < min(streams, n_samples)."""
    base, extra = divmod(cfg.n_samples, cfg.streams)
    return [base + (1 if s < extra else 0) for s in range(min(cfg.streams, cfg.n_samples))]


def _iter_blocks(cfg: SampleConfig):
    for stream, size in enumerate(_stream_sizes(cfg)):
        rng = _stream_rng(cfg.seed, stream)
        remaining = size
        while remaining > 0:
            block = min(remaining, _BLOCK)
            yield rng, block
            remaining -= block


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the first axis, the coordinate axis of the
    sample-last layout.

    The squares are added one coordinate row at a time, in order: the sum
    np.linalg.norm forms over a row shorter than 8, without its reduction
    over a tiny axis.
    """
    r2 = v[0] * v[0]
    for k in range(1, len(v)):
        r2 += v[k] * v[k]
    return np.sqrt(r2, out=r2)


def _sample_block(d: int, betas, rng: np.random.Generator, count: int) -> np.ndarray:
    """count samples of one beta point per entry of betas, shape (count, len(betas), d).

    The result is the transposed view of a C-contiguous sample-last
    (d, len(betas), count) array.  Point i is drawn whole before point
    i+1: count Gaussian vectors, ``rng.standard_normal((count, d))``, whose
    transpose fills the rows (:, i, :), then for beta > -1 the two gammas
    of the squared radius.  The norm, the zero guard, the divide and the
    scale run on those rows, one coordinate row of samples at a time.
    """
    out = np.empty((d, len(betas), count))
    for i, beta in enumerate(betas):
        rows = out[:, i]
        rows[...] = rng.standard_normal((count, d)).T
        norms = _norms(rows)
        norms[norms == 0.0] = 1.0
        rows /= norms
        if beta != -1.0:
            # squared radius ~ Beta(d/2, beta+1) through the two-gamma construction
            g1 = rng.standard_gamma(0.5 * d, count)
            g2 = rng.standard_gamma(beta + 1.0, count)
            g2 += g1
            np.divide(g1, g2, out=g1)
            rows *= np.sqrt(g1, out=g1)
    return out.transpose(2, 1, 0)


def sample_beta_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point of the beta family: uniform on the sphere for beta = -1,
    density proportional to (1-|x|^2)**beta inside the ball otherwise."""
    if d < 2:
        raise ValueError("requires d >= 2")
    if not -1.0 <= beta < math.inf:
        raise ValueError("requires a finite beta >= -1")
    return _sample_block(d, (beta,), rng, 1)[0, 0]


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


def _minors(a: np.ndarray) -> np.ndarray:
    """All k x k minors of n points, per sample; a is (k, n, N) with the
    sample axis last (coordinate, point, sample), the result (C(n, k), N)
    with the k-subsets in combinations order.

    Laplace expansion along the last column, one column at a time, so
    each level's minors are shared by every subset above them.  The j
    cofactor terms of a level are added one at a time, in order, with
    the (-1)**i signs as subtractions; the sum is then shifted by +0.0
    and its sign set, so every minor has the bits of a sum over a
    cofactor axis with numpy's add.reduce (which adds a row this short in
    order, after its 0.0 identity).  Singular row sets give (near) zero;
    nothing raises.
    """
    k, n = a.shape[0], a.shape[1]
    m = a[0]
    for j in range(2, k + 1):
        rows, drop = _subsets(n, j)
        col = a[j - 1]
        s = col[rows[:, 0]]
        s *= m[drop[:, 0]]
        for i in range(1, j):
            term = col[rows[:, i]]
            term *= m[drop[:, i]]
            if i % 2:
                s -= term
            else:
                s += term
        s += 0.0
        m = np.negative(s, out=s) if j % 2 == 0 else s
    return m


def _row_chunks(count: int, width: int):
    """Slices of samples whose (samples x width) temporaries hold about
    _BLOCK elements."""
    step = max(1, _BLOCK // width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


# -- containment ------------------------------------------------------------

def contains(points, x) -> bool:
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
    return -T[m, -1] <= _LP_TOL


def _inside_hull_d2_batch(q: np.ndarray) -> np.ndarray:
    """0 in conv(q) per sample; q has shape (N, n, 2), no q_i at 0.

    0 is in the hull iff no gap between the angles of neighbouring points,
    the wrap-around gap included, exceeds pi.  The angles go to a
    sample-last (n, N) array and are sorted per sample by a compare-exchange
    network: n(n-1)/2 ``np.minimum``/``np.maximum`` pairs on whole rows.
    Sorting is exact, so every gap and every decision is the one a sort
    along the point axis gives (up to the sign of a zero gap).
    """
    N, n, _ = q.shape
    qt = q.transpose(2, 1, 0)
    ang = list(np.arctan2(qt[1], qt[0], out=np.empty((n, N))))
    spare = np.empty(N)
    for i in range(n - 1):
        for j in range(i + 1, n):
            np.minimum(ang[i], ang[j], out=spare)
            np.maximum(ang[i], ang[j], out=ang[j])
            ang[i], spare = spare, ang[i]
    max_gap = 2.0 * math.pi - (ang[-1] - ang[0])
    for lo, hi in zip(ang, ang[1:]):
        np.maximum(max_gap, np.subtract(hi, lo, out=spare), out=max_gap)
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

    Each row chunk is copied once to the sample-last layout of
    ``_minors``.  Over the d+1 terms g_i of every simplex, the sum, the
    sum of |g_i| and the least g_i * sign(sum) are taken one term at a
    time, in order, on whole rows of samples.
    """
    N, n, d = q.shape
    drop = _subsets(n, d + 1)[1]
    inside = np.empty(N, dtype=bool)
    for rows in _row_chunks(N, drop.size):
        qs = q[rows]
        qt = np.ascontiguousarray(qs.transpose(2, 1, 0))
        m = _minors(qt)
        g = [m[drop[:, i]] for i in range(d + 1)]  # term i is (-1)**i * g[i]
        total = g[0] - g[1]
        size = np.abs(g[0])
        size += np.abs(g[1])
        for i in range(2, d + 1):
            if i % 2:
                total -= g[i]
            else:
                total += g[i]
            size += np.abs(g[i])
        sign = np.sign(total)
        flip = -sign
        least = g[0]
        least *= sign
        for i in range(1, d + 1):
            g[i] *= flip if i % 2 else sign
            np.minimum(least, g[i], out=least)
        with np.errstate(divide="ignore", invalid="ignore"):
            least /= size
        solid = size > 1e-12 * np.abs(qt).max(axis=(0, 1)) ** d
        hit = (solid & (least >= _BARY_EPS)).any(axis=0)
        miss = (solid & (least < -_BARY_EPS)).all(axis=0)
        inside[rows] = hit
        for s in np.nonzero(~hit & ~miss)[0]:
            inside[rows.start + s] = contains(qs[s], np.zeros(d))
    return inside


def mc_absorption(spec: BetaSpec, beta: float, cfg: SampleConfig) -> McEstimate:
    """Estimate the expected beta integral from hull-containment frequency.

    Draws the n polytope points plus one extra beta point per sample, as
    point n+1 of one block, and moves the origin to the extra point; the
    hit frequency divided by the beta normalizing constant is an
    unbiased estimate of the expected beta integral.
    """
    if not -1.0 < beta < math.inf:
        raise ValueError("mc_absorption requires a finite beta > -1")
    d, n = spec.d, spec.n
    scale = 1.0 / c_d_beta(d, beta)
    acc = _Accumulator()
    for rng, block in _iter_blocks(cfg):
        q = _sample_block(d, (*spec.betas, beta), rng, block)
        q[:, :n] -= q[:, n:]
        q = q[:, :n]
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
    """Side tests of the d-subsets, as rows of the stacked tests
    [orient > eps; orient < -eps] over the C = C(n, d+1) subsets S.

    Entry [0, F, r] names the test "the r-th other point is on the
    positive side of F": S = F with that point, taken from the first
    block where the point's position i in S is even and from the second
    where i is odd, as the cofactor sign (-1)**i flips the side.  Entry
    [1, F, r] is the same test for the negative side.
    """
    drop = _subsets(n, d + 1)[1]
    S, i = np.divmod(np.argsort(drop.ravel(), kind="stable").reshape(-1, n - d), d + 1)
    odd = len(drop) * (i % 2)
    return _frozen([S + odd, S + len(drop) - odd])


def _hull_facets(P: np.ndarray) -> np.ndarray:
    """Hull facets per sample by the brute-force one-side test.

    P is (N, n, d).  Returns (N, C(n, d)) bools over the d-subsets in
    combinations order: true where every other point lies strictly
    (beyond _SIDE_EPS) on one side of the subset's hyperplane.  The side
    of point r is the sign of det [P | 1] over the subset and r; each
    (d+1)-point determinant serves the d+1 subsets it contains.

    The points are copied once to the sample-last layout of ``_minors``;
    the side tests of the n-d other points are ANDed one point at a
    time over whole rows of samples, and the result is returned as a
    transposed view.
    """
    N, n, d = P.shape
    a = np.empty((d + 1, n, N))
    a[:d] = P.transpose(2, 1, 0)
    a[d] = 1.0
    orient = _minors(a)
    tests = np.concatenate([orient > _SIDE_EPS, orient < -_SIDE_EPS])
    pos, neg = _facet_sides(n, d)
    above, below = tests[pos[:, 0]], tests[neg[:, 0]]
    for r in range(1, n - d):
        above &= tests[pos[:, r]]
        below &= tests[neg[:, r]]
    above |= below
    return above.T


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


# fixed rotation by 1 radian about a skew axis (Rodrigues' formula); any
# generic rotation works, it only needs to move axis-aligned points
_SKEW = np.cross(np.eye(3), np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0))
_MIX = np.eye(3) + math.sin(1.0) * _SKEW + (1.0 - math.cos(1.0)) * (_SKEW @ _SKEW)


def _stereo(p: np.ndarray) -> np.ndarray:
    """Stereographic projections (x + iy) / (1 - z) of sphere points (..., 3)."""
    return (p[..., 0] + 1j * p[..., 1]) / (1.0 - p[..., 2])


def _near_pole(p: np.ndarray) -> np.ndarray:
    """Points (..., 3) within 1e-9 of the north pole, the centre of ``_stereo``."""
    return np.abs(1.0 - p[..., 2]) < 1e-9


def _ideal_volumes(P: np.ndarray, s: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Hyperbolic volumes of the ideal tetrahedra P[s[:, None], idx].

    P is (N, n, 3) sphere points, s (K,) samples and idx (K, 4) vertex
    indices.  Every point of P is projected once and each tetrahedron
    gathers its four projections; only the tetrahedra with a vertex
    within 1e-9 of the pole gather their points, which are turned by
    cyclic coordinate shifts, then a skew rotation, until no vertex is
    near the pole, and projected again.  The three cross-ratio angles go
    to one ``lobachevsky`` call, and their values are added in order; a
    degenerate tetrahedron gets 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _stereo(P)[s[:, None], idx]
        near = np.flatnonzero(_near_pole(P)[s[:, None], idx].any(axis=1))
        if near.size:
            q = P[s[near, None], idx[near]]
            for turn in (_CYCLIC, _CYCLIC, _CYCLIC, _MIX):
                pole = _near_pole(q).any(axis=1)
                if not pole.any():
                    break
                q[pole] = q[pole] @ turn.T
            z[near] = _stereo(q)
        z0, z1, z2, z3 = z.T
        cr = ((z0 - z2) * (z1 - z3)) / ((z0 - z3) * (z1 - z2))
        angles = np.stack([np.angle(cr), np.angle(1.0 / (1.0 - cr)), np.angle(1.0 - 1.0 / cr)])
    lob = lobachevsky(angles)
    vols = np.abs(lob[0] + lob[1] + lob[2])
    return np.where(np.isfinite(vols), vols, 0.0)


def ideal_tetra_volume(v1, v2, v3, v4) -> float:
    """Volume of the ideal tetrahedron with the four given boundary points.

    The kernel of the Monte-Carlo star (``_ideal_volumes``) on one
    tetrahedron: the sphere points are carried to the extended complex
    plane by stereographic projection, and the volume is the sum of
    Lobachevsky values at the cross-ratio angles.  Every point must lie
    within 1e-9 of the unit sphere, and no two may coincide.
    """
    p = np.array([v1, v2, v3, v4], dtype=float)
    if np.any(np.abs(np.linalg.norm(p, axis=1) - 1.0) > 1e-9):
        raise ValueError("vertices must lie on the unit sphere")
    for i, j in combinations(range(4), 2):
        if np.linalg.norm(p[i] - p[j]) < 1e-12:
            raise ValueError("coincident vertices")
    return float(_ideal_volumes(p[None], np.zeros(1, dtype=int), np.arange(4)[None])[0])


def _hull_volumes_bruteforce(P: np.ndarray) -> np.ndarray:
    """Hull volumes via star decomposition from vertex 0; P is (N, n, 3), n >= 4.

    Candidate facets are the triples with every other point strictly on
    one side (``_hull_facets``); valid for points in general position on
    the sphere.  Samples violating the triangulated Euler count
    F = 2n - 4 get volume nan (callers resample them).

    The star tetrahedra (vertex 0 and a facet away from it) of each row
    chunk go to ``_ideal_volumes`` as indices, so each point is projected
    once per chunk.
    """
    N, n, _ = P.shape
    triples = _subsets(n, 3)[0]
    star = triples[:, 0] > 0  # facets away from vertex 0
    vols = np.empty(N)
    for rows in _row_chunks(N, _subsets(n, 4)[1].size):
        Q = P[rows]
        facets = _hull_facets(Q)
        s, f = np.nonzero(facets & star)
        tetra = np.column_stack([np.zeros_like(f), triples[f]])
        v = np.bincount(s, weights=_ideal_volumes(Q, s, tetra), minlength=len(Q))
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


def _sphere_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count samples of n uniform points on the sphere, shape (count, n, 3).

    The Gaussian vectors are drawn as (samples, n, 3) in row chunks of
    about _BLOCK values, which continue one stream, so they are the
    values of one ``rng.standard_normal((count, n, 3))`` draw.  Each chunk
    is copied to a sample-last (3, n, count) array, normalized there one
    coordinate row at a time; the result is its transposed view.
    """
    P = np.empty((3, n, count))
    for rows in _row_chunks(count, 3 * n):
        chunk = P[:, :, rows]
        chunk[...] = rng.standard_normal(chunk.shape[::-1]).transpose(2, 1, 0)
    P /= _norms(P)
    return P.transpose(2, 1, 0)


def mc_ideal_polytope3_volume(n: int, cfg: SampleConfig) -> McEstimate:
    """Sample mean of hyperbolic volumes of hulls of n uniform sphere points.

    Each sample decomposes the hull into ideal tetrahedra sharing the
    first vertex (``_hull_volumes_bruteforce``), at every n >= 4: for
    n = 4 the star is the one tetrahedron.  Degenerate hulls (probability
    zero) are resampled; the resample count is tracked on the returned
    estimate.
    """
    if n < 4:
        raise ValueError("requires n >= 4")
    acc = _Accumulator()
    resampled = 0
    for rng, block in _iter_blocks(cfg):
        vols = _hull_volumes_bruteforce(_sphere_points(rng, block, n))
        while np.isnan(vols).any():
            bad = np.nonzero(np.isnan(vols))[0]
            resampled += bad.size
            vols[bad] = _hull_volumes_bruteforce(_sphere_points(rng, bad.size, n))
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
        pts = _sample_block(2, spec.betas, rng, block)
        areas = _hyp_areas_d2(pts)
        for s in np.nonzero(np.isnan(areas))[0]:
            areas[s] = hyp_area_polygon_d2(hull_d2(pts[s]))
        acc.add(areas)
    return acc.estimate()


def _klein_density(xh: np.ndarray) -> np.ndarray:
    """Hyperbolic volume density (1 - |x|^2)^(-(d+1)/2) of the Klein model
    in dimension d = 2 or 3, at homogeneous points xh = (s x, s) of shape
    (..., d+1).

    1 / (1 - |x|^2) = s^2 / (s^2 - |s x|^2), so no point is divided out.
    """
    d = xh.shape[-1] - 1
    s2 = xh[..., d] * xh[..., d]
    q = s2.copy()
    for k in range(d):
        q -= xh[..., k] * xh[..., k]
    t = s2 / q
    return t * t if d == 3 else t * np.sqrt(t)


def mc_simplex_hyp_volume(spec: BetaSpec, cfg: SampleConfig) -> McEstimate:
    """Expected hyperbolic simplex volume for interior beta points.

    Outer samples draw the d+1 vertices; each volume is estimated by a
    fixed-size inner sample of _INNER = 128 uniform barycentric points,
    which keeps the outer mean unbiased.  Each block's vertices are drawn
    first, then the inner points in row chunks of about _BLOCK values
    (128 samples at d = 3), so the random stream is the one a single
    draw per block would give while temporaries stay near _BLOCK
    elements (a few MB) at any n_samples.
    """
    d = spec.d
    if spec.n != d + 1 or d not in (2, 3):
        raise ValueError("requires n = d+1 points in dimension 2 or 3")
    if any(b <= -1.0 for b in spec.betas):
        raise ValueError("requires interior points (all beta > -1)")
    acc = _Accumulator()
    fact = math.factorial(d)
    for rng, block in _iter_blocks(cfg):
        verts = np.ones((block, d + 1, d + 1))  # homogeneous rows (v_i, 1)
        verts[:, :, :d] = _sample_block(d, spec.betas, rng, block)
        inner = np.empty(block)
        for rows in _row_chunks(block, _INNER * (d + 1)):
            vh = verts[rows]
            w = rng.standard_exponential((len(vh), _INNER, d + 1))
            inner[rows] = _klein_density(w @ vh).mean(axis=1)
        acc.add(np.abs(np.linalg.det(verts)) / fact * inner)
    return acc.estimate()
