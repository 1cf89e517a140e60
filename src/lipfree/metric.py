"""Finite pointed metric spaces: construction, subspaces, nets, doubling bounds.

Distances are stored as a dense symmetric float64 matrix.  Identity/zero
checks use absolute tolerance ``ABS_TOL``; bound comparisons use relative
tolerance ``REL_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadParameter, DuplicatePoint

ABS_TOL = 1e-12
REL_TOL = 1e-9

NORM_KINDS = ("euclidean", "sup", "taxicab", "matrix")


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
        if np.abs(d - d.T).max(initial=0.0) > ABS_TOL:
            raise BadParameter("distance matrix is not symmetric")
        off = d + np.eye(n)
        if off.min() <= ABS_TOL:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
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


def _pairwise(coords, norm_kind):
    diff = coords[:, None, :] - coords[None, :, :]
    if norm_kind == "euclidean":
        return np.sqrt((diff ** 2).sum(axis=2))
    if norm_kind == "sup":
        return np.abs(diff).max(axis=2)
    if norm_kind == "taxicab":
        return np.abs(diff).sum(axis=2)
    raise BadParameter(f"unknown norm kind {norm_kind!r}")


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
    raw = _pairwise(coords, norm_kind)
    off = raw + np.eye(n)
    if off.min() <= ABS_TOL:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise DuplicatePoint(f"points {i} and {j} coincide under the {norm_kind} norm")
    dist = raw ** alpha
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


def validate_p_metric(space, p):
    """Check d**p against the triangle inequality over all triples.

    Valid iff the minimal slack is >= -ABS_TOL.  The worst triple is
    reported as position indices (x, y, z) with y the middle point.
    """
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")
    dp = space.dist ** p
    n = space.n
    if n < 3:
        return PMetricReport(True, p, None, math.inf)
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
    return PMetricReport(slack >= -ABS_TOL, p, triple, slack)


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


def _membership(space, ball, radius, candidates):
    """Bool matrix: candidate row covers ball column within ``radius``."""
    return space.dist[np.ix_(candidates, ball)] <= radius


def _greedy_cover(space, ball, radius, candidates):
    """Greedy set cover of ``ball`` by radius-``radius`` balls centered at
    ``candidates``; ties broken by candidate order."""
    member = _membership(space, ball, radius, candidates)
    uncovered = np.ones(len(ball), dtype=bool)
    cover = []
    while uncovered.any():
        gains = (member & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        if gains[c] <= 0:  # cannot happen: each point covers itself
            raise BadParameter("uncoverable ball")
        cover.append(candidates[c])
        uncovered &= ~member[c]
    return cover


def _exact_cover(space, ball, radius, candidates):
    """Minimum set cover by branch and bound (small balls only)."""
    member = _membership(space, ball, radius, candidates)
    raw = [(candidates[c], frozenset(np.nonzero(member[c])[0]))
           for c in range(len(candidates)) if member[c].any()]
    # keep only maximal candidate sets (preserves the optimum)
    raw.sort(key=lambda t: -len(t[1]))
    kept = []
    for c, s in raw:
        if not any(s <= s2 for _, s2 in kept):
            kept.append((c, s))
    best = _greedy_cover(space, ball, radius, candidates)
    best_len = len(best)
    full = frozenset(range(len(ball)))
    cover_by = {e: [cs for cs in kept if e in cs[1]] for e in full}

    def search(uncovered, chosen):
        nonlocal best, best_len
        if not uncovered:
            if len(chosen) < best_len:
                best, best_len = list(chosen), len(chosen)
            return
        max_size = max(len(s & uncovered) for _, s in kept)
        lower = len(chosen) + math.ceil(len(uncovered) / max_size)
        if lower >= best_len:
            return
        pivot = min(uncovered, key=lambda e: len(cover_by[e]))
        for c, s in cover_by[pivot]:
            search(uncovered - s, chosen + [c])

    search(full, [])
    return best


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

    def witness(self):
        """The ball realizing the reported bound."""
        return max(self.covers, key=lambda c: len(c.cover_centers))


def doubling_constant_upper(space, exact_threshold=10):
    """Doubling-constant upper bound from one cover per distinct ball.

    Each centre x is scanned at its own nonzero distances d_1 < d_2 < ...
    only.  For d_k <= r < d_{k+1} (or r >= the largest), B(x, r) equals
    B(x, d_k), and a cover of it by radius-d_k/2 balls also covers it at
    radius r/2, so every realized radius is accounted for.  Each scanned
    ball B(x, r) is covered by radius-r/2 balls centered at space points:
    greedily in general, by exact minimum set cover when the ball holds at
    most ``exact_threshold`` points.  The maximum emitted cover size is an
    upper bound for the doubling constant and may be safely substituted
    into bounds that increase with it.
    """
    candidates = list(range(space.n))
    covers = []
    value = 1
    for x in range(space.n):
        drow = space.dist[x]
        for r in np.unique(drow[drow > 0]).tolist():
            ball = [int(b) for b in np.nonzero(drow <= r)[0]]
            if len(ball) <= 1:
                continue
            if len(ball) <= exact_threshold:
                cov = _exact_cover(space, ball, r / 2.0, candidates)
                exact = True
            else:
                cov = _greedy_cover(space, ball, r / 2.0, candidates)
                exact = False
            covers.append(BallCover(x, float(r), tuple(cov), exact))
            value = max(value, len(cov))
    if not covers:
        covers.append(BallCover(space.base, 0.0, (space.base,), True))
    return DoublingReport(value, tuple(covers))
