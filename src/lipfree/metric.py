"""Finite pointed metric spaces: construction, subspaces, nets, doubling bounds.

Distances are stored as a dense symmetric float64 matrix.  Identity/zero
checks use absolute tolerance ``ABS_TOL``; every check against a bound or a
tol is decided by ``passes``, with relative tolerance ``REL_TOL`` on bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadParameter, DuplicatePoint

ABS_TOL = 1e-12
REL_TOL = 1e-9


def passes(measured, bound, tol):
    """The one pass rule, given exactly one of ``bound`` and ``tol``: a
    measured value passes when it is at most bound * (1 + REL_TOL), or at
    most tol; an unmeasured value (None) never passes."""
    if (bound is None) == (tol is None):
        raise BadParameter("a check needs exactly one of bound and tol")
    if measured is None:
        return False
    return bool(measured <= (tol if bound is None else bound * (1 + REL_TOL)))


NORM_KINDS = ("euclidean", "sup", "taxicab", "matrix")

_BLOCK = 1 << 17  # float64 entries per transient block, 1 MB
_EXACT_COVER_POINTS = 10  # balls up to this size get a minimum cover


@dataclass(frozen=True)
class IntervalSpec:
    """A real interval with explicit endpoint closedness.

    Defaults follow the left-open right-closed convention; other variants
    are configuration, not separate code paths.
    """

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = True

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise BadParameter("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise BadParameter(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise BadParameter("degenerate interval must be closed on both ends")

    def contains(self, v):
        """Membership test; accepts scalars or arrays."""
        v = np.asarray(v, dtype=float)
        lo_ok = (v >= self.lo) if self.lo_closed else (v > self.lo)
        hi_ok = (v <= self.hi) if self.hi_closed else (v < self.hi)
        return lo_ok & hi_ok

    def exp_base(self, R):
        """The interval of R**u for u in this interval (R > 1)."""
        if R <= 1:
            raise BadParameter("exp_base requires R > 1")
        lo = 0.0 if self.lo == -math.inf else R ** self.lo
        hi = math.inf if self.hi == math.inf else R ** self.hi
        return IntervalSpec(lo, hi, self.lo_closed, self.hi_closed)

    def intersect(self, other):
        """Intersection, or None when empty."""
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
        return IntervalSpec(lo, hi, lo_closed, hi_closed)


@dataclass(frozen=True)
class PointedMetricSpace:
    """A finite pointed p-metric space.

    points   ordered point identifiers (labels; position = index)
    coords   optional (n, d) array when the space is an embedded sample
    dist     symmetric nonnegative (n, n) distance matrix
    base     index of the distinguished point
    alpha    snowflake exponent applied to the underlying metric (1 if none)
    norm     norm used to build ``dist`` from ``coords`` ("matrix" if explicit)
    """

    points: tuple
    dist: np.ndarray
    base: int = 0
    coords: np.ndarray | None = None
    alpha: float = 1.0
    norm: str = "matrix"

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        n = len(self.points)
        if d.shape != (n, n):
            raise BadParameter(f"distance matrix shape {d.shape} != ({n}, {n})")
        if not (0 <= self.base < n):
            raise BadParameter(f"base index {self.base} out of range for {n} points")
        if np.abs(np.diag(d)).max(initial=0.0) > ABS_TOL:
            raise BadParameter("nonzero diagonal in distance matrix")
        step = max(1, _BLOCK // n)
        asym, near = 0.0, (math.inf, 0, 0)
        for lo in range(0, n, step):
            rows = d[lo:lo + step]
            asym = max(asym, float(np.abs(rows - d[:, lo:lo + step].T).max()))
            near = _least_off_diagonal(rows.copy(), lo, near)
        if asym > ABS_TOL:
            raise BadParameter("distance matrix is not symmetric")
        least, i, j = near
        if least <= ABS_TOL:
            raise DuplicatePoint(f"points {self.points[i]} and {self.points[j]} coincide")
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def n(self):
        return len(self.points)

    def d(self, i, j):
        return float(self.dist[i, j])

    def radii(self):
        """Distances from the base point."""
        return self.dist[self.base].copy()

    def diameter(self):
        return float(self.dist.max())

    def take(self, indices, base):
        """Induced subspace on ``indices`` (a position list); ``base`` is a
        position within ``indices``."""
        idx = np.asarray(indices, dtype=int)
        coords = None if self.coords is None else self.coords[idx]
        return PointedMetricSpace(
            points=tuple(self.points[i] for i in idx),
            dist=self.dist[np.ix_(idx, idx)],
            base=base,
            coords=coords,
            alpha=self.alpha,
            norm=self.norm,
        )


def _norms(v, kind):
    """The sup or taxicab norm of ``v`` over its last axis, as ``kind``
    says, and the euclidean norm otherwise."""
    if kind == "sup":
        return np.abs(v).max(axis=-1)
    if kind == "taxicab":
        return np.abs(v).sum(axis=-1)
    return np.sqrt((v ** 2).sum(axis=-1))


def _least_off_diagonal(rows, lo, best):
    """``best``, the least entry off the diagonal of an (n, n) matrix seen
    so far as (value, row, column), updated with its rows from ``lo`` on;
    ties keep the first in row-major order.  The diagonal of ``rows`` is
    raised by 1 in place, as adding ``np.eye(n)`` would."""
    at = np.arange(len(rows))
    rows[at, lo + at] += 1.0
    k = int(rows.argmin())
    if rows.flat[k] < best[0]:
        i, j = divmod(k, rows.shape[1])
        return float(rows.flat[k]), lo + i, j
    return best


def build_space(coords, norm_kind="euclidean", alpha=1.0, base=0, points=None):
    """Build a space from an embedded point cloud.

    dist[i][j] = ||coords_i - coords_j||**alpha.  Point order is preserved.
    """
    if norm_kind == "matrix":
        raise BadParameter("use space_from_matrix for explicit matrices")
    if norm_kind not in NORM_KINDS:
        raise BadParameter(f"unknown norm kind {norm_kind!r}")
    if not 0 < alpha <= 1:
        raise BadParameter(f"alpha={alpha} outside (0, 1]")
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = coords.shape[0]
    if n < 1:
        raise BadParameter("need at least one point")
    if not (0 <= base < n):
        raise BadParameter(f"base index {base} out of range")
    # rows in blocks: the (rows, n, d) difference stays within _BLOCK
    dist, near = np.empty((n, n)), (math.inf, 0, 0)
    step = max(1, _BLOCK // max(1, coords.size))
    for lo in range(0, n, step):
        raw = _norms(coords[lo:lo + step, None, :] - coords, norm_kind)
        near = _least_off_diagonal(raw, lo, near)
        dist[lo:lo + step] = raw ** alpha
    least, i, j = near
    if least <= ABS_TOL:
        raise DuplicatePoint(f"points {i} and {j} coincide under the {norm_kind} norm")
    np.fill_diagonal(dist, 0.0)
    if points is None:
        points = tuple(tuple(row) if coords.shape[1] > 1 else float(row[0]) for row in coords)
    return PointedMetricSpace(
        points=tuple(points), dist=dist, base=base, coords=coords, alpha=alpha, norm=norm_kind
    )


def line_space(values, alpha=1.0, base=0):
    """Points on the real line (euclidean distance)."""
    coords = np.asarray(values, dtype=float)[:, None]
    return build_space(coords, "euclidean", alpha=alpha, base=base,
                       points=tuple(float(v) for v in values))


def space_from_matrix(matrix, base=0, alpha=1.0):
    """Build a space from an explicit distance matrix; points are labelled
    0, ..., n - 1."""
    m = np.asarray(matrix, dtype=float)
    return PointedMetricSpace(points=tuple(range(m.shape[0])), dist=m,
                              base=base, coords=None, alpha=alpha, norm="matrix")


def snowflake(space, alpha):
    """The same point set with the underlying metric raised to ``alpha``.

    When coords are present the distances are recomputed from them; for
    explicit matrices the stored exponent is adjusted.
    """
    if not 0 < alpha <= 1:
        raise BadParameter(f"alpha={alpha} outside (0, 1]")
    if space.coords is not None and space.norm != "matrix":
        return build_space(space.coords, space.norm, alpha=alpha, base=space.base,
                           points=space.points)
    underlying = space.dist ** (1.0 / space.alpha)
    dist = underlying ** alpha
    np.fill_diagonal(dist, 0.0)
    return replace(space, dist=dist, alpha=alpha)


@dataclass(frozen=True)
class PMetricReport:
    """Result of a p-triangle inequality scan."""

    valid: bool
    p: float
    worst_triple: tuple | None
    slack: float  # min over triples of d^p(x,y) + d^p(y,z) - d^p(x,z)


def _p_triangle(dist, p):
    """Whether d^p satisfies the triangle inequality within ``ABS_TOL`` on
    the distance matrix ``dist``, as (holds, slack, triple): the smallest
    slack d^p(x, y) + d^p(y, z) - d^p(x, z) over triples of distinct
    points, and its position indices (x, y, z) with y the middle point
    (inf and None under three points).  It holds iff the slack is at
    least -ABS_TOL."""
    dp = dist ** p
    n = len(dp)
    worst = (math.inf, None)
    for y in range(n):
        # slack for all (x, z) with middle point y
        s = dp[:, y][:, None] + dp[y, :][None, :] - dp
        s[y, :] = math.inf
        s[:, y] = math.inf
        np.fill_diagonal(s, math.inf)
        k = int(np.argmin(s))
        x, z = divmod(k, n)
        if s[x, z] < worst[0]:
            worst = (float(s[x, z]), (x, y, z))
    slack, triple = worst
    return slack >= -ABS_TOL, slack, triple


def _check_p(p):
    """Refuse an exponent p outside (0, 1], NaN included."""
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")


def validate_p_metric(space, p):
    """Check d**p against the triangle inequality over all triples
    (``_p_triangle``)."""
    _check_p(p)
    valid, slack, triple = _p_triangle(space.dist, p)
    return PMetricReport(valid, p, triple, slack)


def maximal_separated_net(space, subset, r):
    """Greedy maximal r-separated subset, scanning in stored point order.

    The result S satisfies d(y, z) >= r for distinct y, z in S and
    d(x, S) < r for every x in ``subset``.
    """
    if r <= 0:
        raise BadParameter(f"r={r} must be positive")
    subset = sorted(int(i) for i in subset)
    if not subset:
        raise BadParameter("subset must be nonempty")
    chosen = []
    for i in subset:
        if all(space.dist[i, j] >= r for j in chosen):
            chosen.append(i)
    return chosen


def _greedy_covers(dist, centers, radii):
    """Greedy covers (Johnson 1974) of the balls B(centers[k], radii[k]) by
    radius-r/2 balls centred at the points, all balls in lockstep.

    Each step gives every ball that is not yet covered the first point
    that covers the most of its uncovered points.  The (balls, points,
    points) membership tensor is taken in blocks of balls within
    ``_BLOCK``.  Returns one tuple of centres per ball.
    """
    n = len(dist)
    covers = []
    step = max(1, 8 * _BLOCK // (n * n))  # a 1 MB bool tensor per block
    for lo in range(0, len(centers), step):
        x, r = centers[lo:lo + step], radii[lo:lo + step]
        member = dist[None] <= r[:, None, None] / 2.0  # [ball, centre, point]
        uncovered = dist[x] <= r[:, None]
        picks = np.full((len(x), n), -1)
        live = np.arange(len(x))
        for at in range(n):  # every point covers itself: n steps suffice
            gains = np.count_nonzero(member[live] & uncovered[live, None],
                                     axis=2)
            best = gains.argmax(axis=1)  # ties -> first point
            picks[live, at] = best
            uncovered[live] &= ~member[live, best]
            live = live[uncovered[live].any(axis=1)]
            if not live.size:
                break
        if live.size:  # a diagonal entry above r/2
            raise BadParameter("uncoverable ball")
        covers += _rows(picks[:, :at + 1])
    return covers


def _minimum_covers(dist, centers, radii, sizes):
    """Minimum covers of the same balls for balls of at most
    ``_EXACT_COVER_POINTS`` points, by breadth-first search over the
    covered subsets of each ball (bitmasks, at most 2**size states), the
    balls of a block in lockstep.

    Only the first centre of each maximal covered subset is expanded, which
    keeps a minimum cover.  A ball's first visit to its full mask is at the
    minimum cover size; the centres are read back along the stored
    (previous state, centre) links.  Returns one tuple of centres per ball.
    """
    if not len(centers):
        return []
    n = len(dist)
    m = int(sizes.max())
    states = 1 << m
    # ball k holds the sizes[k] nearest points of its centre; bit j is the
    # j-th of them
    near = np.argsort(dist[centers], axis=1, kind="stable")[:, :m]
    bit = np.where(np.arange(m) < sizes[:, None], 1 << np.arange(m), 0)
    earlier = np.tri(n, k=-1, dtype=bool)  # [c, c2]: c2 < c
    # per ball, the largest array: int32 links, distances, subset flags
    step = max(1, 8 * _BLOCK // max(4 * states, 8 * n * m, n * n))
    chunk = max(1, _BLOCK // n)  # frontier entries per expansion
    covers = []
    for lo in range(0, len(centers), step):
        r, bits = radii[lo:lo + step], bit[lo:lo + step]
        masks = ((dist[near[lo:lo + step, None, :], np.arange(n)[None, :, None]]
                  <= r[:, None, None] / 2.0) * bits[:, None, :]).sum(axis=2)
        inside = (masks[:, :, None] & ~masks[:, None, :]) == 0  # [k, c, c2]
        dominated = (inside & (~inside.transpose(0, 2, 1) | earlier)).any(axis=2)
        kept = n - dominated.sum(axis=1)
        cand = np.argsort(dominated, axis=1, kind="stable")[:, :kept.max()]
        masks = np.where(np.arange(cand.shape[1]) < kept[:, None],
                         np.take_along_axis(masks, cand, axis=1), 0)
        full = bits.sum(axis=1)
        depth = np.full((len(r), states), -1, dtype=np.int8)
        depth[:, 0] = 0
        prev = np.zeros((len(r), states), dtype=np.int32)
        via = np.zeros((len(r), states), dtype=np.int32)
        live = np.ones(len(r), dtype=bool)
        for d in range(m):  # the ball's own points cover it: m levels suffice
            # flat indices: 2-d np.nonzero is several times slower
            ball, state = np.divmod(np.flatnonzero(depth == d), states)
            ball, state = ball[live[ball]], state[live[ball]]
            for at in range(0, len(ball), chunk):
                b, s = ball[at:at + chunk], state[at:at + chunk]
                nxt = s[:, None] | masks[b]
                row, col = np.divmod(
                    np.flatnonzero(depth[b[:, None], nxt] < 0), nxt.shape[1])
                b_new, t_new = b[row], nxt[row, col]
                depth[b_new, t_new] = d + 1
                prev[b_new, t_new] = s[row]
                via[b_new, t_new] = col
            live &= depth[np.arange(len(r)), full] < 0
            if not live.any():
                break
        if live.any():
            raise BadParameter("uncoverable ball")
        picks = np.full((len(r), m), -1)
        ball, state = np.arange(len(r)), full
        for at in range(m):
            ball, state = ball[state > 0], state[state > 0]
            if not ball.size:
                break
            picks[ball, at] = cand[ball, via[ball, state]]
            state = prev[ball, state]
        covers += _rows(picks)
    return covers


def _rows(picks):
    """The rows of a -1-padded array of centres, as tuples."""
    return [tuple(row[:k]) for row, k in
            zip(picks.tolist(), (picks >= 0).sum(axis=1).tolist())]


@dataclass(frozen=True)
class BallCover:
    center: int
    radius: float
    cover_centers: tuple
    exact: bool


@dataclass(frozen=True)
class DoublingReport:
    """Upper bound for the doubling constant with per-ball witness covers."""

    value: int
    covers: tuple = field(repr=False)


def doubling_constant_upper(space):
    """Doubling-constant upper bound from one cover per distinct ball.

    Each centre x is scanned at its own nonzero distances d_1 < d_2 < ...
    only.  For d_k <= r < d_{k+1} (or r >= the largest), B(x, r) equals
    B(x, d_k), and a cover of it by radius-d_k/2 balls also covers it at
    radius r/2, so every realized radius is accounted for.  Each scanned
    ball B(x, r) is covered by radius-r/2 balls centered at space points:
    by an exact minimum set cover (breadth-first search over covered-point
    bitmasks) when the ball holds at most ``_EXACT_COVER_POINTS`` points,
    and greedily otherwise, ties going to the first point.  The greedy
    covers of all balls run in lockstep.  The maximum emitted cover size
    is an upper bound for the doubling constant and may be safely
    substituted into bounds that increase with it.
    """
    centers, radii, sizes = [], [], []
    for x in range(space.n):
        row = np.sort(space.dist[x])
        r = np.unique(row[row > 0])
        size = np.searchsorted(row, r, side="right")
        keep = size > 1
        centers.append(np.full(keep.sum(), x))
        radii.append(r[keep])
        sizes.append(size[keep])
    centers, radii, sizes = (np.concatenate(a) for a in (centers, radii, sizes))
    if not len(centers):
        cover = BallCover(space.base, 0.0, (space.base,), True)
        return DoublingReport(1, (cover,))
    exact = sizes <= _EXACT_COVER_POINTS
    found = {True: iter(_minimum_covers(space.dist, centers[exact],
                                        radii[exact], sizes[exact])),
             False: iter(_greedy_covers(space.dist, centers[~exact],
                                        radii[~exact]))}
    covers = tuple(BallCover(x, r, next(found[e]), e) for x, r, e in
                   zip(centers.tolist(), radii.tolist(), exact.tolist()))
    return DoublingReport(max(len(c.cover_centers) for c in covers), covers)
