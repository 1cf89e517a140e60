import math

import numpy as np
import pytest

from lipfree import (
    BadParameter,
    DuplicatePoint,
    IntervalSpec,
    build_space,
    doubling_constant_upper,
    line_space,
    maximal_separated_net,
    snowflake,
    space_from_matrix,
    validate_p_metric,
)
from lipfree import metric
from lipfree.generators import generate

from conftest import random_metric_space


def _membership(space, ball, radius, candidates):
    """Bool matrix: candidate row covers ball column within ``radius``."""
    return space.dist[np.ix_(candidates, ball)] <= radius


def _greedy_cover(space, ball, radius, candidates):
    """Reference: one greedy set cover of ``ball`` by radius-``radius``
    balls centered at ``candidates``; ties broken by candidate order."""
    member = _membership(space, ball, radius, candidates)
    uncovered = np.ones(len(ball), dtype=bool)
    cover = []
    while uncovered.any():
        gains = (member & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        assert gains[c] > 0  # each point covers itself
        cover.append(candidates[c])
        uncovered &= ~member[c]
    return cover


def _exact_cover(space, ball, radius, candidates):
    """Reference: one minimum set cover by branch and bound."""
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


def test_two_point_line():
    sp = line_space([0.0, 1.0])
    assert sp.d(0, 1) == 1.0


def test_snowflake_exponent_applied():
    sp = line_space([0.0, 4.0], alpha=0.5)
    assert sp.d(0, 1) == pytest.approx(2.0, abs=1e-12)


def test_grid_sup_norm_distance():
    pts = [(i, j) for i in range(3) for j in range(3)]
    sp = build_space(pts, "sup")
    i = pts.index((0, 0))
    j = pts.index((2, 1))
    assert sp.d(i, j) == 2.0


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoint):
        build_space([(0.0, 0.0), (0.0, 0.0)], "euclidean")


def _whole_tensor_norms(v, kind):
    """Reference: numpy's reduction over the last axis of the whole
    difference tensor."""
    if kind == "sup":
        return np.abs(v).max(axis=-1)
    if kind == "taxicab":
        return np.abs(v).sum(axis=-1)
    return np.sqrt((v ** 2).sum(axis=-1))


@pytest.mark.parametrize("norm", ["euclidean", "sup", "taxicab"])
def test_blocked_distances_match_the_whole_matrix(rng, norm):
    """``build_space`` builds rows in blocks, each (rows, n, d) difference
    within ``_BLOCK`` entries; the matrix is bit for bit the one numpy's
    reduction gives over the whole (n, n, d) difference at once.  d = 8,
    16 and 17 take the eight strided partial sums, and 9, 12 and 17 a
    tail after them."""
    for d in (1, 2, 3, 5, 8, 9, 12, 16, 17):
        n = 301
        step = metric._BLOCK // (n * d)
        assert n % step != 0  # a ragged last block, or one block
        coords = rng.uniform(-1, 1, size=(n, d))
        raw = _whole_tensor_norms(coords[:, None, :] - coords[None, :, :],
                                  norm)
        for alpha in (1.0, 0.5, 0.7):
            want = raw ** alpha
            np.fill_diagonal(want, 0.0)
            got = build_space(coords, norm, alpha=alpha).dist
            assert got.tobytes() == want.tobytes(), (d, alpha)


@pytest.mark.parametrize("norm", ["euclidean", "sup", "taxicab"])
def test_distances_take_numpy_pairwise_order_past_128_terms(rng, norm):
    """Above 128 coordinates numpy sums two halves, the first a multiple
    of 8 long; the point-to-point distances follow it bit for bit."""
    for d in (129, 200):
        a, b = rng.uniform(-1, 1, size=(7, d)), rng.uniform(-1, 1, size=(5, d))
        want = _whole_tensor_norms(a[:, None, :] - b[None, :, :], norm)
        assert metric._distances(a, b, norm).tobytes() == want.tobytes()


@pytest.mark.parametrize("norm", ["euclidean", "sup", "taxicab"])
def test_blocked_distances_match_the_whole_matrix_past_128_terms(rng, norm):
    """At 129 coordinates a row block holds a (rows, n, 129) difference;
    the ragged blocks still give the whole matrix numpy's reduction gives."""
    n, d = 40, 129
    assert 1 < metric._BLOCK // (n * d) < n and n % (metric._BLOCK // (n * d))
    coords = rng.uniform(-1, 1, size=(n, d))
    want = _whole_tensor_norms(coords[:, None, :] - coords[None, :, :], norm)
    np.fill_diagonal(want, 0.0)
    assert build_space(coords, norm).dist.tobytes() == want.tobytes()


def test_build_space_refuses_points_without_coordinates():
    with pytest.raises(BadParameter, match="one coordinate"):
        build_space(np.zeros((3, 0)))


def test_blocked_checks_name_the_points_of_a_later_block(rng):
    """The duplicate and symmetry checks run in row blocks: a fault past
    the first block is found, the nearest pair over all blocks is named
    (a closer pair in a later block beats an earlier one), and asymmetry
    is reported before any duplicate."""
    n = 700
    coords = rng.uniform(-1, 1, size=(n, 3))
    assert 600 > metric._BLOCK // (3 * n) and 600 > metric._BLOCK // n
    coords[650] = coords[600]
    coords[6] = coords[5] + 1e-13
    with pytest.raises(DuplicatePoint, match=r"^points 600 and 650 coincide "
                                             r"under the euclidean norm$"):
        build_space(coords)
    dist = build_space(rng.uniform(-1, 1, size=(n, 2))).dist
    near = dist.copy()
    near[600, 650] = near[650, 600] = 0.0
    near[5, 6] = near[6, 5] = 1e-13
    with pytest.raises(DuplicatePoint, match=r"^points 600 and 650 coincide$"):
        space_from_matrix(near)
    near[650, 640] += 1e-6
    with pytest.raises(BadParameter, match="^distance matrix is not "
                                           "symmetric$"):
        space_from_matrix(near)


def test_bad_alpha_rejected():
    with pytest.raises(BadParameter):
        build_space([(0.0,), (1.0,)], "euclidean", alpha=1.5)
    with pytest.raises(BadParameter):
        build_space([(0.0,), (1.0,)], "euclidean", alpha=0.0)


def test_metric_valid_for_all_p(rng):
    sp = random_metric_space(rng, 6)
    for p in (1.0, 0.75, 0.5, 0.25, 0.05):
        assert validate_p_metric(sp, p).valid


def test_p_metric_violation_and_boundary():
    mat = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
    sp = space_from_matrix(mat)
    rep = validate_p_metric(sp, 1.0)
    assert not rep.valid
    assert rep.worst_triple == (0, 1, 2)
    # 3^p = 2 at the boundary exponent
    p_star = math.log(2) / math.log(3)
    rep = validate_p_metric(sp, p_star)
    assert rep.valid
    assert abs(rep.slack) <= 1e-12


def test_snowflaked_space_still_metric(rng):
    sp = random_metric_space(rng, 6, alpha=0.5)
    assert validate_p_metric(sp, 1.0).valid


def test_snowflake_monotone():
    sp = line_space([0.0, 0.5, 3.0])
    flaked = snowflake(sp, 0.5)
    # above 1 the snowflake shrinks distances; below 1 it inflates them
    assert flaked.d(0, 2) < sp.d(0, 2)
    assert flaked.d(0, 1) > sp.d(0, 1)


def test_interval_semantics():
    iv = IntervalSpec(1.0, 2.0)  # left-open right-closed default
    assert not iv.contains(1.0)
    assert iv.contains(2.0)
    assert iv.exp_base(2.0).lo == 2.0
    assert iv.exp_base(2.0).hi == 4.0
    with pytest.raises(BadParameter):
        IntervalSpec(2.0, 1.0)
    with pytest.raises(BadParameter):
        IntervalSpec(1.0, 1.0, True, False)


def test_greedy_net_line():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    assert maximal_separated_net(sp, [0, 1, 2, 3], 2.0) == [0, 2]


def test_net_small_radius_keeps_everything():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    assert maximal_separated_net(sp, [0, 1, 2, 3], 0.5) == [0, 1, 2, 3]


def test_net_singleton():
    sp = line_space([0.0, 1.0])
    assert maximal_separated_net(sp, [1], 2.0) == [1]


def test_net_separated_and_dense(rng):
    sp = random_metric_space(rng, 20)
    r = 0.8
    net = maximal_separated_net(sp, list(range(sp.n)), r)
    for a in net:
        for b in net:
            if a != b:
                assert sp.dist[a, b] >= r
    for x in range(sp.n):
        assert min(sp.dist[x, y] for y in net) < r


def test_doubling_single_point():
    sp = line_space([0.0])
    assert doubling_constant_upper(sp).value == 1


def test_doubling_equilateral_exact(monkeypatch):
    n = 5
    mat = np.ones((n, n)) - np.eye(n)
    sp = space_from_matrix(mat)
    monkeypatch.setattr(metric, "_EXACT_COVER_POINTS", n)
    assert doubling_constant_upper(sp).value == n


def test_doubling_integer_segment(monkeypatch):
    sp = line_space(list(range(11)))
    monkeypatch.setattr(metric, "_EXACT_COVER_POINTS", 16)
    rep = doubling_constant_upper(sp)
    assert rep.value == 3  # frozen from the exact set cover


def test_doubling_exact_never_above_greedy(rng):
    sp = random_metric_space(rng, 12)
    candidates = list(range(sp.n))
    for x in range(sp.n):
        r = float(np.median(sp.dist[x][sp.dist[x] > 0]))
        ball = [b for b in range(sp.n) if sp.dist[x, b] <= r]
        exact = _exact_cover(sp, ball, r / 2, candidates)
        greedy = _greedy_cover(sp, ball, r / 2, candidates)
        assert len(exact) <= len(greedy)


def _doubling_all_radii(space, exact_threshold=10):
    """Reference: cover B(x, r) at r/2 for every realized distance r at
    every centre x (about n^3/2 balls)."""
    vals = np.unique(space.dist[np.triu_indices(space.n, k=1)])
    candidates = list(range(space.n))
    value = 1
    for x in range(space.n):
        for r in (float(v) for v in vals if v > 0):
            ball = [int(b) for b in np.nonzero(space.dist[x] <= r)[0]]
            if len(ball) <= 1:
                continue
            cover = (_exact_cover if len(ball) <= exact_threshold
                     else _greedy_cover)
            value = max(value, len(cover(space, ball, r / 2.0, candidates)))
    return value


def _doubling_spaces(rng):
    for norm in ("euclidean", "sup", "taxicab"):
        for n in (9, 14):
            yield build_space(rng.standard_normal((n, 2)), norm)
    for alpha in (0.5, 0.25):
        yield random_metric_space(rng, 12, alpha=alpha)
    yield snowflake(line_space(list(range(11))), 0.5)
    # the amenability suite's net on a 20-point ball: D = 4, set by a
    # minimum cover, where greedy covers alone give 5
    yield generate("random-ball", 0, n=20).take(list(range(0, 20, 2)), 0)


@pytest.mark.parametrize("exact_threshold", [4, 10])
def test_doubling_own_radii_equal_all_radii(rng, monkeypatch, exact_threshold):
    monkeypatch.setattr(metric, "_EXACT_COVER_POINTS", exact_threshold)
    for sp in _doubling_spaces(rng):
        rep = doubling_constant_upper(sp)
        assert rep.value == _doubling_all_radii(sp, exact_threshold)
        assert len(rep.covers) == sum(
            len(np.unique(sp.dist[x][sp.dist[x] > 0])) for x in range(sp.n))


def test_doubling_covers_every_realized_ball(rng, monkeypatch):
    monkeypatch.setattr(metric, "_EXACT_COVER_POINTS", 6)
    for sp in _doubling_spaces(rng):
        rep = doubling_constant_upper(sp)
        for r in np.unique(sp.dist[sp.dist > 0]):
            for x in range(sp.n):
                ball = np.nonzero(sp.dist[x] <= r)[0]
                if ball.size == 1:
                    continue
                # the reported cover of this centre with the largest
                # radius <= r covers B(x, r) by radius-r/2 balls
                cov = max((c for c in rep.covers
                           if c.center == x and c.radius <= r),
                          key=lambda c: c.radius)
                near = sp.dist[np.ix_(list(cov.cover_centers), ball)]
                assert (near <= r / 2.0).any(axis=0).all()
                assert len(cov.cover_centers) <= rep.value


def _reference_covers(space):
    """Reference scan: per ball, in the scan's order, (x, r, greedy cover,
    minimum cover), the minimum cover None above ``_EXACT_COVER_POINTS``
    points."""
    candidates = list(range(space.n))
    covers = []
    for x in range(space.n):
        drow = space.dist[x]
        for r in np.unique(drow[drow > 0]).tolist():
            ball = [int(b) for b in np.nonzero(drow <= r)[0]]
            if len(ball) <= 1:
                continue
            greedy = _greedy_cover(space, ball, r / 2.0, candidates)
            exact = (_exact_cover(space, ball, r / 2.0, candidates)
                     if len(ball) <= metric._EXACT_COVER_POINTS else None)
            covers.append((x, r, greedy, exact))
    return covers


def test_lockstep_covers_match_scalar_references(rng):
    """Every reported cover covers its ball, within D.  A cover equals the
    scalar greedy reference, centre for centre, unless it replaced it: then
    its ball is small and the cover has the minimum cover's length, shorter
    than greedy.  D is the maximum of the large balls' greedy covers and
    the small balls' minimum covers.  The 70-point space takes two bit
    words per point set."""
    ball = generate("random-ball", 1, d=2, n=300)
    subset = [0] + sorted((1 + rng.choice(299, 29, replace=False)).tolist())
    wide = [0] + sorted((1 + rng.choice(299, 69, replace=False)).tolist())
    replaced = 0
    for sp in [*_doubling_spaces(rng), ball.take(subset, 0),
               ball.take(wide, 0)]:
        rep = doubling_constant_upper(sp)
        ref = _reference_covers(sp)
        assert len(rep.covers) == len(ref)
        for got, (x, r, greedy, exact) in zip(rep.covers, ref):
            assert (got.center, got.radius) == (x, r)
            ball_pts = np.nonzero(sp.dist[x] <= r)[0]
            near = sp.dist[np.ix_(list(got.cover_centers), ball_pts)]
            assert (near <= r / 2.0).any(axis=0).all()
            assert len(got.cover_centers) <= rep.value
            # greedy ties go to the first point in both
            if list(got.cover_centers) != greedy:
                assert exact is not None
                assert len(got.cover_centers) == len(exact) < len(greedy)
                replaced += 1
        assert rep.value == max(len(g if e is None else e)
                                for _, _, g, e in ref)
    assert replaced  # the minimum-cover step ran and moved a cover


@pytest.mark.parametrize("exact_threshold", [0, 10])
def test_doubling_rejects_uncoverable_ball(monkeypatch, exact_threshold):
    # point 0's diagonal entry (within ABS_TOL) exceeds half the radius of
    # its smallest ball, so point 0 covers nothing there; at either
    # threshold the greedy pass raises before any minimum cover is tried
    mat = np.array([[8e-13, 1.2e-12, 5.0], [1.2e-12, 0.0, 5.0],
                    [5.0, 5.0, 0.0]])
    monkeypatch.setattr(metric, "_EXACT_COVER_POINTS", exact_threshold)
    with pytest.raises(BadParameter):
        doubling_constant_upper(space_from_matrix(mat))


def test_diameter_is_kept_from_the_blocked_pass(rng):
    """The diameter is the largest entry over every row block of the
    checks, the whole matrix's max; a space re-made from another matrix
    gets its own."""
    sp = build_space(rng.uniform(-1, 1, size=(700, 2)))
    assert metric._BLOCK // sp.n < sp.n  # several row blocks
    assert sp.diameter() == sp.dist.max()
    half = snowflake(sp, 0.5)
    assert half.diameter() == half.dist.max() != sp.diameter()


def test_coords_consistency_invariant(rng):
    sp = random_metric_space(rng, 8, alpha=0.7)
    raw = np.sqrt(((sp.coords[:, None, :] - sp.coords[None, :, :]) ** 2).sum(2))
    assert np.abs(raw ** 0.7 - sp.dist).max() <= 1e-12 * max(1.0, raw.max())
