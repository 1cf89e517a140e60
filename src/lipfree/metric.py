"""Finite pointed metric spaces: construction, subspaces, nets, doubling bounds.

Distances are stored as a dense symmetric float64 matrix.  Identity/zero
checks use absolute tolerance ``ABS_TOL``; every check against a bound or a
tol is decided by ``passes``, with relative tolerance ``REL_TOL`` on bounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import BadParameter, BadSubset, DuplicatePoint

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
_EXACT_COVER_POINTS = 10  # balls up to this size may get a minimum cover


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
        if not R > 1:
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
    slack: float  # d^p(x,y) + d^p(y,z) - d^p(x,z) of the worst triple


@lru_cache(maxsize=64)
def _p_triangle(key, n, p):
    """Whether d^p satisfies the triangle inequality at any scale on the
    (n, n) float64 distance matrix of bytes ``key``, as (holds, slack,
    triple): a triple passes when its slack d^p(x, y) + d^p(y, z) - d^p(x, z)
    is at least -1e-12 times its largest d^p, which is d^p(x, z) whenever
    the slack is negative.  The triple (x, y, z), y the middle point, is the
    one of least slack relative to d^p(x, z), with its slack (inf and None
    under three points).  Cached, as the loops norm over few spaces."""
    dp = np.frombuffer(key).reshape(n, n) ** p
    worst = (math.inf, math.inf, None)
    for y in range(n):
        # slack for all (x, z) with middle point y, relative to d^p(x, z)
        s = dp[:, y][:, None] + dp[y, :][None, :] - dp
        rel = np.divide(s, dp, out=np.full_like(s, math.inf), where=dp > 0)
        rel[y, :] = rel[:, y] = math.inf
        x, z = divmod(int(np.argmin(rel)), n)
        if rel[x, z] < worst[0]:
            worst = (float(rel[x, z]), float(s[x, z]), (x, y, z))
    rel, slack, triple = worst
    return rel >= -1e-12, slack, triple


def _check_p(p):
    """Refuse an exponent p outside (0, 1], NaN included."""
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")


def validate_p_metric(space, p):
    """Check d**p against the triangle inequality over all triples
    (``_p_triangle``)."""
    _check_p(p)
    valid, slack, triple = _p_triangle(space.dist.tobytes(), space.n, p)
    return PMetricReport(valid, p, triple, slack)


def _check_p_metric(space, p):
    """The gate of every norm entry: refuse p outside (0, 1], and a space
    whose d^p breaks the triangle inequality, as F_p is defined over
    p-metrics only.  A space with coords passes at once: a norm raised to
    alpha <= 1 is a p-metric for every p <= 1."""
    _check_p(p)
    if space.coords is None and not (check := validate_p_metric(space, p)).valid:
        (x, y, z), e = check.worst_triple, "" if p == 1 else f"^{p:g}"
        raise BadParameter(
            f"d^p breaks the triangle inequality at p={p:g}: d({x}, {z}){e} > "
            f"d({x}, {y}){e} + d({y}, {z}){e}, slack {check.slack:.6g}")


def _subset_indices(space, indices):
    """The distinct points of a subset of ``space``, in index order; an
    index that is not a whole number in [0, n) is refused, not truncated
    or read from the end."""
    points = set()
    for i in indices:
        if (isinstance(i, bool) or not isinstance(i, numbers.Real)
                or not 0 <= i < space.n or not float(i).is_integer()):
            raise BadSubset(f"subset index {i!r} is not a whole number "
                            f"in [0, {space.n})")
        points.add(int(i))
    return sorted(points)


def maximal_separated_net(space, subset, r):
    """Greedy maximal r-separated subset, scanning in stored point order.

    The result S satisfies d(y, z) >= r for distinct y, z in S and
    d(x, S) < r for every x in ``subset``.
    """
    if not r > 0:
        raise BadParameter(f"r={r} must be positive")
    subset = _subset_indices(space, subset)
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
    that covers the most of its uncovered points; a covered ball leaves the
    step's arrays.  The (balls, points, points) membership tensor is taken
    in blocks of balls within ``_BLOCK``.  Returns one tuple of centres per
    ball.
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
            gains = np.einsum("bcp,bp->bc", member, uncovered, dtype=np.intp)
            best = gains.argmax(axis=1)  # ties -> first point
            picks[live, at] = best
            uncovered &= ~member[np.arange(len(live)), best]
            more = uncovered.any(axis=1)
            if not more.all():  # covered balls leave the block
                live, member, uncovered = (a[more] for a in (live, member,
                                                             uncovered))
            if not live.size:
                break
        if live.size:  # a diagonal entry above r/2
            raise BadParameter("uncoverable ball")
        covers += [tuple(c for c in row if c >= 0)
                   for row in picks[:, :at + 1].tolist()]
    return covers


def _minimum_cover(dist, x, r):
    """A minimum cover of B(x, r) by radius-r/2 balls centred at the points,
    by breadth-first search over the covered subsets of the ball as
    bitmasks.  Each distinct subset a point covers is one move, made by its
    first such point; the centres are read back along the stored (previous
    subset, centre) links.  The ball must be coverable."""
    ball = np.flatnonzero(dist[x] <= r)
    masks, first = np.unique((dist[:, ball] <= r / 2.0) @ (1 << np.arange(
        len(ball))), return_index=True)
    full = (1 << len(ball)) - 1
    prev = np.full(full + 1, -1)
    prev[0] = 0  # the empty subset, where the read-back stops
    via = np.zeros(full + 1, dtype=int)
    frontier = np.zeros(1, dtype=int)
    while prev[full] < 0:
        nxt = frontier[:, None] | masks[None, :]
        fresh = prev[nxt] < 0
        subsets, at = np.unique(nxt[fresh], return_index=True)
        row, col = np.nonzero(fresh)
        prev[subsets], via[subsets] = frontier[row[at]], first[col[at]]
        frontier = subsets
    cover, subset = [], full
    while subset:
        cover.append(int(via[subset]))
        subset = prev[subset]
    return tuple(cover)


@dataclass(frozen=True)
class BallCover:
    center: int
    radius: float
    cover_centers: tuple


@dataclass(frozen=True)
class DoublingReport:
    """Upper bound for the doubling constant with one cover per ball."""

    value: int
    covers: tuple = field(repr=False)


def doubling_constant_upper(space):
    """Doubling-constant upper bound from one cover per distinct ball.

    Each centre x is scanned at its own nonzero distances d_1 < d_2 < ...
    only.  For d_k <= r < d_{k+1} (or r >= the largest), B(x, r) equals
    B(x, d_k), and a cover of it by radius-d_k/2 balls also covers it at
    radius r/2, so every realized radius is accounted for.  Each scanned
    ball B(x, r) is covered greedily by radius-r/2 balls centered at space
    points, ties going to the first point, all balls in lockstep.  The
    bound D starts at the longest greedy cover of a ball of more than
    ``_EXACT_COVER_POINTS`` points (1 if there is none).  The small balls,
    of at most that many points, are then taken longest greedy cover
    first: while a greedy cover is longer than the running D, a minimum
    cover (breadth-first search over covered-point bitmasks) replaces it
    where that is shorter, and D rises to its length.  So D is the maximum
    of the large balls' greedy cover sizes and the small balls' minimum
    cover sizes, in any order: a skipped small ball's greedy cover, never
    shorter than its minimum one, is already within D.  D may be safely
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
        return DoublingReport(1, (BallCover(space.base, 0.0, (space.base,)),))
    covers = _greedy_covers(space.dist, centers, radii)
    small = sizes <= _EXACT_COVER_POINTS
    value = max([1] + [len(c) for c, s in zip(covers, small) if not s])
    # longest greedy covers first: fewer small balls need a search
    for k in sorted(np.flatnonzero(small).tolist(),
                    key=lambda k: -len(covers[k])):
        if len(covers[k]) <= value:
            break
        # min keeps the greedy cover when the minimum is no shorter
        covers[k] = min(covers[k], _minimum_cover(space.dist, centers[k],
                                                  radii[k]), key=len)
        value = max(value, len(covers[k]))
    return DoublingReport(value, tuple(map(
        BallCover, centers.tolist(), radii.tolist(), covers)))
