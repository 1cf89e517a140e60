import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lipfree import (
    Molecule,
    SizeLimit,
    build_space,
    free_norm_exact_small,
    free_norm_p1,
    free_norm_upper,
    line_space,
    measure_lipschitz,
    norm_rows,
    norm_value,
    space_from_matrix,
)
from lipfree import freenorm, metric
from lipfree.errors import BadParameter, InternalInvariantBroken
from lipfree.freenorm import (_BLOCK, FOREST_LIMIT_DEFAULT, FOREST_LIMIT_MAX,
                              _child_splits, _dense_restrict, _dp_levels,
                              _dp_width, _mst_parents, _scale, _scan_pairs,
                              _transport, _tree_dp, _upper_value)
from lipfree.generators import annulus_rays, grid_zd, random_ball
from lipfree.metric import ABS_TOL
from lipfree.serialization import load_space, save_space

from conftest import (_every_pair_ratio, _first_max_pair, _measure_every_pair,
                      check_result_consistency, random_metric_space,
                      random_molecule)


def test_delta_norm_is_base_distance(rng):
    sp = random_metric_space(rng, 6)
    for x in range(1, sp.n):
        res = free_norm_p1(sp, Molecule.delta(x, sp.base))
        assert res.value == pytest.approx(sp.d(0, x), rel=1e-12)
        # the witness is the distance to the base
        assert np.allclose(res.certificate, sp.dist[0], atol=1e-9)


def test_positive_combination_transports_directly(rng):
    sp = random_metric_space(rng, 6)
    coeffs = {1: 0.5, 2: 1.5, 4: 0.25}
    res = free_norm_p1(sp, Molecule.balanced(coeffs, sp.base))
    want = sum(a * sp.d(0, x) for x, a in coeffs.items())
    assert res.value == pytest.approx(want, rel=1e-12)


def test_delta_difference_is_distance(rng):
    sp = random_metric_space(rng, 6)
    m = Molecule.delta(2, sp.base) - Molecule.delta(4, sp.base)
    res = free_norm_p1(sp, m)
    assert res.value == pytest.approx(sp.d(2, 4), rel=1e-12)


def check_certificate(sp, m, res):
    """The certificate vanishes at the base, pairs with the molecule to the
    value and is 1-Lipschitz, with tolerances relative to the value and the
    diameter."""
    f = res.certificate
    assert res.exactness == "exact"
    assert f is not None and f[sp.base] == 0.0
    assert abs(float(m.vector(sp.n) @ f) - res.value) <= 1e-9 * res.value
    excess = (np.abs(f[:, None] - f[None, :]) - sp.dist).max()
    assert excess <= 1e-9 * sp.diameter()
    check_result_consistency(sp, m, res)


def test_certificate_is_lipschitz_witness(rng):
    for _ in range(30):
        sp = random_metric_space(rng, int(rng.integers(3, 9)))
        m = random_molecule(rng, sp)
        check_certificate(sp, m, free_norm_p1(sp, m))


def dense_molecule(rng, sp):
    coeffs = rng.standard_normal(sp.n - 1)
    return Molecule.balanced(dict(zip(range(1, sp.n), coeffs.tolist())),
                             sp.base)


@pytest.mark.parametrize("k", [60, 150])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_transport_many_sources_and_sinks(rng, k, alpha):
    # full-support molecules on k-point clouds: both sides have dozens of
    # points, so the network simplex pivots many times
    sp = random_ball(d=2, n=k, seed=k, alpha=alpha)
    for _ in range(2):
        m = dense_molecule(rng, sp)
        check_certificate(sp, m, free_norm_p1(sp, m))
        check_transport(sp.dist, m.vector(sp.n))


def test_transport_single_source_or_sink_matches_oracle(rng):
    for _ in range(10):
        sp = random_metric_space(rng, 7)
        coeffs = {i: float(c) for i, c in
                  zip(range(1, 6), np.abs(rng.standard_normal(5)))}
        for sign in (1.0, -1.0):  # one sink (the base), then one source
            m = Molecule.balanced(coeffs, sp.base) * sign
            res = free_norm_p1(sp, m)
            oracle = free_norm_exact_small(sp, m, 1.0).value
            assert res.value == pytest.approx(oracle, rel=1e-12)
            check_certificate(sp, m, res)


def test_transport_ties_match_oracle(rng):
    line = line_space([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    grid = build_space([(x, y) for x in range(4) for y in range(2)], "taxicab")
    for sp in (line, grid):
        for _ in range(10):
            m = random_molecule(rng, sp)
            res = free_norm_p1(sp, m)
            oracle = free_norm_exact_small(sp, m, 1.0).value
            assert res.value == pytest.approx(oracle, rel=1e-9, abs=1e-12)
            check_certificate(sp, m, res)


def test_transport_ties_on_long_line():
    sp = line_space([float(i) for i in range(60)])
    m = Molecule.balanced({i: (-1.0) ** i for i in range(1, 60)}, sp.base)
    res = free_norm_p1(sp, m)
    assert res.value == pytest.approx(30.0, rel=1e-12)
    check_certificate(sp, m, res)


@pytest.mark.parametrize("scale", [1e-7, 1e20])
def test_transport_certificate_at_extreme_scales(rng, scale):
    sp = random_ball(d=2, n=40, seed=5)
    scaled = space_from_matrix(sp.dist * scale)
    m = dense_molecule(rng, sp)
    res = free_norm_p1(scaled, m)
    check_certificate(scaled, m, res)
    assert res.value == pytest.approx(free_norm_p1(sp, m).value * scale,
                                      rel=1e-12)


def test_failed_certificate_is_tagged_upper_bound(rng, monkeypatch):
    """Should rounding ever break the run-time check of the certificate,
    ``free_norm_p1`` keeps the plan's value and tags it upper-bound, with
    no certificate."""
    sp = random_metric_space(rng, 6)
    m = dense_molecule(rng, sp)
    want = free_norm_p1(sp, m)
    monkeypatch.setattr(freenorm, "_certificate_defects",
                        lambda *args: (0.0, 2 * freenorm._CERT_TOL))
    res = free_norm_p1(sp, m)
    assert (res.exactness, res.certificate) == ("upper-bound", None)
    assert (res.value, res.representation) == (want.value, want.representation)


# the six norm entries, each called on a space, a molecule and p
_SIX_ENTRIES = {
    "free_norm_p1": lambda sp, m, p: free_norm_p1(sp, m),
    "free_norm_exact_small": lambda sp, m, p: free_norm_exact_small(sp, m, p),
    "free_norm_upper": lambda sp, m, p: free_norm_upper(sp, m, p),
    "norm_value": lambda sp, m, p: norm_value(sp, m.vector(sp.n), p),
    "norm_rows": lambda sp, m, p: norm_rows(sp, m.vector(sp.n)[None], p),
    "measure_lipschitz": lambda sp, m, p: measure_lipschitz(
        sp, [(sp, np.eye(sp.n))], p),
}


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10])
def test_one_verdict_on_a_non_metric_matrix_at_every_scale(s):
    """d(0, 2) = 2.001 s breaks the triangle inequality through point 1 by
    0.001 s, at every scale s, and all six entries refuse it at p = 1.  At
    p = 0.5 it is a 0.5-metric (2.001^0.5 < 2), and delta(2) costs d(0, 2)
    everywhere: exact over the whole space, and an upper bound tagged so
    from the support alone (``free_norm_upper``), which here misses only
    the zero-mass point 1."""
    sp = space_from_matrix(s * np.array([[0.0, 1.0, 2.001], [1.0, 0.0, 1.0],
                                         [2.001, 1.0, 0.0]]))
    m = Molecule.delta(2, 0)
    for entry in _SIX_ENTRIES.values():
        with pytest.raises(BadParameter, match=r"^d\^p breaks the triangle "
                           r"inequality at p=1: d\(0, 2\) > d\(0, 1\) \+ "
                           r"d\(1, 2\), slack -\S+$"):
            entry(sp, m, 1.0)
    vec, want = m.vector(sp.n), 2.001 * s
    assert norm_value(sp, vec, 0.5) == (pytest.approx(want, rel=1e-14), True)
    values, exact = norm_rows(sp, vec[None], 0.5)
    assert (values.tolist(), exact.tolist()) == ([norm_value(sp, vec, 0.5)[0]],
                                                 [True])
    for res, tag in ((free_norm_exact_small(sp, m, 0.5), "exact"),
                     (free_norm_upper(sp, m, 0.5), "upper-bound")):
        assert (res.value, res.exactness) == (pytest.approx(want, rel=1e-14), tag)
    lip = measure_lipschitz(line_space([0.0, 1.0, 2.0]), [(sp, np.eye(3))], 0.5)
    assert lip[0] == pytest.approx(max(1.0, 2.001 / 2) * s, rel=1e-14)


@pytest.mark.parametrize("s", [1e6, 1e-6])
def test_collinear_matrix_passes_the_gate_at_every_scale(s, tmp_path):
    """The 16-point rays fixture written as a distance matrix is a metric
    with collinear points, where the slack of d(x, z) <= d(x, y) + d(y, z)
    is 0 up to rounding.  At s = 1e6 that rounding is far above 1e-12 in
    absolute terms, and the scale-free rule still lets the gate, and so
    ``load_space``, pass it, at p = 1 and below."""
    rays = annulus_rays(rays=3, radii=(0.3, 0.7, 1.1, 1.9, 2.9),
                        include_origin=True)
    sp = space_from_matrix(s * rays.dist)
    slack = metric._p_triangle(sp.dist.tobytes(), sp.n, 1.0)[1]
    assert slack < (-ABS_TOL if s > 1 else 0.0)
    path = tmp_path / "rays.json"
    save_space(sp, path)
    assert np.array_equal(load_space(path).dist, sp.dist)
    m = Molecule.delta(sp.n - 1, 0)
    for p in (1.0, 0.5):
        value = norm_value(sp, m.vector(sp.n), p)[0]
        assert value == pytest.approx(sp.d(0, sp.n - 1), rel=1e-12)


def test_non_metric_matrix_above_the_exact_limit_is_refused():
    """On a 10-point ball with d(0, 2) raised to d(0, 1) + d(1, 2) + 0.5,
    the loops' p = 1 regime above the exact limit would cost delta(2) by
    transport on its support, 2.663, tagged exact, where the whole-space DP
    finds 0.764.  ``norm_value`` and ``norm_rows`` now refuse it at p = 1."""
    d = random_ball(d=2, n=10, seed=3).dist.copy()
    d[0, 2] = d[2, 0] = d[0, 1] + d[1, 2] + 0.5
    sp = space_from_matrix(d)
    vec = Molecule.delta(2, 0).vector(sp.n)
    for call in (lambda: norm_value(sp, vec, 1.0),
                 lambda: norm_rows(sp, vec[None], 1.0)):
        with pytest.raises(BadParameter, match=r"at p=1: d\(0, 2\) > "):
            call()


def reference_transport(dist, vec):
    """Reference: a scalar primal-dual transport solver (Ford & Fulkerson),
    independent of the network simplex and of the subset DP; ``_transport``
    and the p = 1 norms of ``norm_rows`` must give its value within 1e-12
    relative."""
    eps = 1e-14 * _scale(vec)
    srcs = (vec > eps).nonzero()[0]
    sinks = (vec < -eps).nonzero()[0]
    if len(srcs) == 0 or len(sinks) == 0:
        return 0.0, (), sinks, np.zeros(len(sinks))
    cost = dist[srcs[:, None], sinks]
    ns, nt = cost.shape
    if nt == 1:
        flow, pot_t = vec[srcs, None], np.zeros(1)
    elif ns == 1:
        flow, pot_t = -vec[None, sinks], cost[0]
    else:
        excess, deficit = vec[srcs], -vec[sinks]
        cols = np.arange(nt)
        flow = np.zeros((ns, nt))
        pot_s, pot_t = np.zeros(ns), np.zeros(nt)
        for _ in range(1000 + 40 * (ns + nt) ** 2):
            live, short = excess > eps, deficit > eps
            if not (live.any() and short.any()):
                break
            fwd = np.maximum(cost + pot_s[:, None] - pot_t, 0.0)
            back = np.where(flow > eps, 0.0, np.inf)  # flow arcs are tight
            ds = np.where(live, 0.0, np.inf)
            dt = np.full(nt, np.inf)
            pred_s, pred_t = np.full(ns, -1), cols  # first sweep sets pred_t
            while True:  # labels only fall, along simple paths
                reach = ds[:, None] + fwd
                via = reach.argmin(axis=0)
                low = reach[via, cols]
                better = low < dt
                if not better.any():
                    break
                dt = np.where(better, low, dt)
                pred_t = np.where(better, via, pred_t)
                reach = back + dt
                via = reach.argmin(axis=1)
                low = reach.min(axis=1)
                better = low < ds
                if not better.any():
                    break
                ds = np.where(better, low, ds)
                pred_s = np.where(better, via, pred_s)
            # every reached source sits at a sink's distance, so dt.max()
            # is the largest finite distance
            pot_s += np.minimum(ds, dt.max())
            pot_t += dt
            pred_s, pred_t = pred_s.tolist(), pred_t.tolist()
            for t in sorted(short.nonzero()[0].tolist(), key=dt.__getitem__):
                root = pred_t[t]
                fwd_arcs, back_arcs = [(root, t)], []
                for _ in range(ns):  # a forest path visits each source once
                    if pred_s[root] < 0:
                        break
                    j = pred_s[root]
                    back_arcs.append((root, j))
                    root = pred_t[j]
                    fwd_arcs.append((root, j))
                else:
                    raise InternalInvariantBroken("cycle in shortest-path forest")
                amt = min([excess[root], deficit[t]]
                          + [flow[e] for e in back_arcs])
                if amt <= eps:
                    continue
                for e in fwd_arcs:
                    flow[e] += amt
                for e in back_arcs:
                    flow[e] -= amt
                excess[root] -= amt
                deficit[t] -= amt
        else:
            raise InternalInvariantBroken("transport phase guard exceeded")
    keep = flow > eps
    mass = flow[keep]
    a, b = np.nonzero(keep)
    flows = tuple(zip(srcs[a].tolist(), sinks[b].tolist(), mass.tolist()))
    return float(mass @ cost[keep]), flows, sinks, -pot_t


def tied_spaces():
    """Spaces with many equal distances: the 8-point line, the 2 x 4
    taxicab grid and 5 x 5 integer grids under both grid norms."""
    return [line_space([float(i) for i in range(8)]),
            build_space([(x, y) for x in range(4) for y in range(2)], "taxicab"),
            grid_zd(d=2, lo=-2, hi=2, norm="taxicab"),
            grid_zd(d=2, lo=-2, hi=2, norm="sup")]


def transport_rows(rng, space, count):
    """Balanced rows on random supports of 2 to 11 points: normal, integer
    and one-decimal coefficients over 16 decades of scale (more than the
    1e-14 band spans, so one row's band would swallow another's masses), and
    rows with an entry inside the 1e-14 band."""
    rows = np.zeros((count, space.n))
    others = np.delete(np.arange(space.n), space.base)
    for row in rows:
        pts = rng.choice(others, size=int(rng.integers(1, min(11, space.n))),
                         replace=False)
        kind = rng.integers(4)
        coeffs = rng.standard_normal(len(pts))
        if kind == 1:
            coeffs = np.round(coeffs * 2)
        elif kind == 2:
            coeffs = np.round(coeffs, 1)
        row[pts] = coeffs * 10.0 ** rng.integers(-8, 9)
        if kind == 3 and len(pts) > 2:
            row[pts[0]] = 3e-15 * np.abs(row).sum()
        row[space.base] -= row.sum()
    return rows


def check_transport(dist, vec):
    """The value within 1e-12 relative of the reference's (plans may differ
    on ties), the same sinks, and a plan that ships ``vec`` outside the
    1e-14 band and costs the value."""
    value, flows, sinks, _ = _transport(dist, vec)
    want, _, want_sinks, _ = reference_transport(dist, vec)
    assert abs(value - want) <= 1e-12 * want
    assert np.array_equal(sinks, want_sinks)
    shipped = np.zeros(len(vec))
    cost = 0.0
    for s, t, m in flows:
        assert m > 0
        shipped[s] += m
        shipped[t] -= m
        cost += m * dist[s, t]
    band = 1e-14 * _scale(vec)
    kept = np.abs(vec) > band
    assert np.abs(shipped - np.where(kept, vec, 0.0)).max() <= 1e-12 * _scale(vec)
    assert abs(cost - value) <= 1e-12 * value


def test_transport_matches_reference(rng):
    """On random, snowflaked and tied spaces (60 and 150 points are checked
    in ``test_transport_many_sources_and_sinks``)."""
    spaces = tied_spaces() + [random_ball(d=2, n=30, seed=7),
                              random_ball(d=2, n=30, seed=8, alpha=0.5)]
    for sp in spaces:
        for vec in transport_rows(rng, sp, 40):
            check_transport(sp.dist, vec)


def check_norm_rows_p1(space, rows):
    """``norm_rows`` at p = 1 gives each row, tagged exact, the reference's
    value on its support block within 1e-12 relative, with the entry at the
    base read as the balance of the others; returns the number of rows
    with two or more sources and sinks."""
    values, exact = norm_rows(space, rows, 1.0)
    assert exact.all()
    two_sided = 0
    for row, v in zip(rows, values.tolist()):
        _, dsub, vsub = _dense_restrict(space, row)
        vsub[0] = -vsub[1:].sum()
        want = reference_transport(dsub, vsub)[0]
        if np.abs(row).max() <= ABS_TOL:
            assert v == 0.0
        else:
            assert abs(v - want) <= 1e-12 * want
        eps = 1e-14 * _scale(vsub)
        two_sided += min((vsub > eps).sum(), (vsub < -eps).sum()) >= 2
    return two_sided


def test_norm_rows_p1_batches_match_reference(rng, monkeypatch):
    """Mixed (sources, sinks) shapes in one call, mixed scales and band
    entries, on random, snowflaked and tied spaces: every value is the
    reference's, and no row whose support fits the exact limit is solved
    on its own."""
    support_row = freenorm._support_row

    def per_row(space, vec, p, limit, tree=False):
        assert np.count_nonzero(np.delete(vec, space.base)) + 1 > limit, \
            "norm_rows solved a row within the exact limit by itself"
        return support_row(space, vec, p, limit, tree)
    monkeypatch.setattr(freenorm, "_support_row", per_row)
    # two sources and two sinks on the line 0, 1, 2, 3, with ties
    line = line_space([0.0, 1.0, 2.0, 3.0])
    staged = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    assert check_norm_rows_p1(line, staged[[0, 1, 1, 0, 1]]) == 5
    spaces = tied_spaces() + [random_ball(d=2, n=20, seed=3),
                              random_ball(d=2, n=20, seed=4, alpha=0.5)]
    two_sided = 0
    for sp in spaces:
        two_sided += check_norm_rows_p1(sp, transport_rows(rng, sp, 150))
    assert two_sided >= 500


def check_free_norm_p1(space, vec):
    """``free_norm_p1`` (the network simplex) against the scalar reference:
    the value within 1e-12 relative (plans may differ on ties), a
    representation that reproduces the molecule and costs the value, and a
    certificate that passes the run-time check."""
    mol = Molecule(tuple((i, c) for i, c in enumerate(vec.tolist()) if c))
    res = free_norm_p1(space, mol)
    want = reference_transport(space.dist, vec)[0]
    assert abs(res.value - want) <= 1e-12 * want
    check_result_consistency(space, mol, res)
    assert res.exactness == "exact" and res.certificate[space.base] == 0.0
    assert max(freenorm._certificate_defects(
        space, vec, res.value, res.certificate)) <= freenorm._CERT_TOL


def test_free_norm_p1_matches_reference_on_tied_and_banded_rows(rng):
    """Integer and one-decimal masses on tied spaces, over 16 decades of
    scale and with entries inside the 1e-14 band."""
    for sp in tied_spaces():
        for vec in transport_rows(rng, sp, 60):
            check_free_norm_p1(sp, vec)


@pytest.mark.parametrize("k", [60, 150])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_free_norm_p1_matches_reference_on_random_balls(rng, k, alpha):
    sp = random_ball(d=2, n=k, seed=k + 1, alpha=alpha)
    for _ in range(2):
        check_free_norm_p1(sp, dense_molecule(rng, sp).vector(sp.n))


def test_free_norm_p1_finishes_on_a_fully_degenerate_instance():
    """Unit masses of both signs on tied grids, and a unit-mass assignment
    with costs in {1, 2, 3}: most pivots ship nothing, each grid solve
    ends at the reference's value, and the assignment's plan costs what
    its potentials' dual pays."""
    for norm in ("taxicab", "sup"):
        sp = grid_zd(d=2, lo=-3, hi=3, norm=norm)
        vec = np.where(np.arange(sp.n) % 2 == 0, 1.0, -1.0)
        vec[sp.base] -= vec.sum()
        check_free_norm_p1(sp, vec)
    cost = np.random.default_rng(4).integers(1, 4, size=(30, 30)).astype(float)
    flow, pot_t = freenorm._network_simplex(cost, np.ones(30), np.ones(30))
    assert np.array_equal(flow.sum(axis=0), np.ones(30))
    assert np.array_equal(flow.sum(axis=1), np.ones(30))
    pot_s = (pot_t - cost).max(axis=1)  # cost + pot_s - pot_t >= 0
    assert float((flow * cost).sum()) == pytest.approx(
        pot_t.sum() - pot_s.sum(), rel=1e-12)  # primal = dual: optimal


def simplex_family():
    """(cost, excess, deficit) of 20 random real-cost problems, 20 with
    tied integer costs in {1, 2, 3} and integer masses, and the 30 x 30
    unit assignment of the degenerate test, each 2-60 x 2-60."""
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ns, nt = rng.integers(2, 61, size=2).tolist()
        excess, deficit = rng.random(ns), rng.random(nt)
        problems.append((rng.random((ns, nt)), excess,
                         deficit * (excess.sum() / deficit.sum())))
    for seed in range(100, 120):
        rng = np.random.default_rng(seed)
        ns, nt = rng.integers(2, 61, size=2).tolist()
        total = max(ns, nt) + int(rng.integers(0, 100))
        excess = 1.0 + np.bincount(rng.integers(0, ns, total - ns), minlength=ns)
        deficit = 1.0 + np.bincount(rng.integers(0, nt, total - nt), minlength=nt)
        problems.append((rng.integers(1, 4, size=(ns, nt)).astype(float),
                         excess, deficit))
    cost = np.random.default_rng(4).integers(1, 4, size=(30, 30)).astype(float)
    problems.append((cost, np.ones(30), np.ones(30)))
    return problems


SIMPLEX_FAMILY_SHA256 = (
    "16338522dde0f2433014cad4cab9e8c608da73906c24a45033d7ce7e36cda764")


def test_network_simplex_plans_and_potentials_keep_their_bits():
    """Every pivot, tie rule and rounding of ``_network_simplex`` is pinned
    by the sha256 of its plans and potentials over ``simplex_family``;
    a change that moves a pivot updates the digest and says why."""
    digest = hashlib.sha256()
    for cost, excess, deficit in simplex_family():
        flow, pot_t = freenorm._network_simplex(cost, excess, deficit)
        digest.update(np.ascontiguousarray(flow, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(pot_t, dtype=float).tobytes())
    assert digest.hexdigest() == SIMPLEX_FAMILY_SHA256


def test_network_simplex_by_blands_rule_from_the_first_pivot(rng, monkeypatch):
    """With ``_BLAND_RUN`` at 0 every pivot enters by Bland's rule, a branch
    that Dantzig entry reaches on no known input.  On tied rows and on the
    degenerate unit assignment it still ends at the reference's value with
    a feasible plan (``check_transport``), and each plan costs what its
    potentials' dual pays."""
    monkeypatch.setattr(freenorm, "_BLAND_RUN", 0)
    simplex = freenorm._network_simplex
    shapes = []

    def checked(cost, excess, deficit):
        flow, pot_t = simplex(cost, excess, deficit)
        pot_s = (pot_t - cost).max(axis=1)  # cost + pot_s - pot_t >= 0
        primal = float((flow * cost).sum())
        assert abs(primal - (pot_t @ deficit - pot_s @ excess)) <= 1e-12 * primal
        shapes.append(cost.shape)
        return flow, pot_t
    monkeypatch.setattr(freenorm, "_network_simplex", checked)
    for sp in tied_spaces():
        for vec in transport_rows(rng, sp, 40):
            check_transport(sp.dist, vec)
    cost = np.random.default_rng(4).integers(1, 4, size=(30, 30)).astype(float)
    dist = np.block([[np.zeros((30, 30)), cost], [cost.T, np.zeros((30, 30))]])
    check_transport(dist, np.repeat([1.0, -1.0], 30))
    assert shapes[-1] == (30, 30)
    assert sum(min(shape) >= 2 for shape in shapes) >= 60


def test_zero_molecule():
    sp = line_space([0.0, 1.0, 2.0])
    zero = Molecule.balanced({}, 0)
    assert free_norm_p1(sp, zero).value == 0.0
    assert free_norm_p1(sp, zero).representation == ()
    assert free_norm_exact_small(sp, zero, 0.5).value == 0.0


def test_oracle_line_examples():
    sp = line_space([0.0, 1.0, 2.0])
    m = Molecule.delta(2, 0) - Molecule.delta(1, 0)
    assert free_norm_exact_small(sp, m, 0.5).value == pytest.approx(1.0, rel=1e-12)
    m2 = Molecule.delta(2, 0)
    assert free_norm_exact_small(sp, m2, 0.5).value == pytest.approx(2.0, rel=1e-12)


def test_oracle_consolidation_instance():
    sp = line_space([0.0, 1.0, 1.1])
    m = Molecule.balanced({1: 1.0, 2: 1.0}, 0)
    res = free_norm_exact_small(sp, m, 0.5)
    expected = (math.sqrt(0.1) + math.sqrt(2.0)) ** 2
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert set(res.representation) == {(1, 0, 2.0), (2, 1, 1.0)}
    check_result_consistency(sp, m, res)


def test_oracle_size_limit():
    sp = line_space(list(range(9)))
    with pytest.raises(SizeLimit):
        free_norm_exact_small(sp, Molecule.delta(1, 0), 0.5)


def test_oracle_limit_above_ceiling_is_rejected():
    sp = line_space([0.0, 1.0, 2.0])
    m = Molecule.delta(2, 0)
    with pytest.raises(SizeLimit):
        free_norm_exact_small(sp, m, 0.5, forest_limit=FOREST_LIMIT_MAX + 1)
    with pytest.raises(SizeLimit):
        norm_value(sp, m.vector(sp.n), 0.5, exact_limit=FOREST_LIMIT_MAX + 1)


def test_norm_value_has_one_regime_choice():
    sp = line_space([0.0, 1.0, 2.0])
    vec = Molecule.delta(2, 0).vector(sp.n)
    for prefer in ("p1", "upper"):
        with pytest.raises(BadParameter, match=r"^prefer='\w+' is not 'auto'$"):
            norm_value(sp, vec, 0.5, prefer=prefer)
    for certify in (False, 1):
        with pytest.raises(BadParameter, match=r"^certify=\w+ is not True$"):
            norm_value(sp, vec, 0.5, certify=certify)


@pytest.mark.parametrize("name", [n for n in _SIX_ENTRIES if n != "free_norm_p1"])
def test_every_entry_refuses_p_outside_the_unit_interval(name):
    """Every entry that takes p refuses one outside (0, 1]; p = 2 would
    otherwise give a value below d(0, 1) tagged exact, and p <= 0 a bare
    ZeroDivisionError.  ``free_norm_p1`` takes no p."""
    sp = random_ball(d=2, n=6, seed=1)
    m = Molecule.delta(1, sp.base)
    for p in (2.0, 1.0 + 1e-12, 0.0, -0.5, math.nan, math.inf):
        with pytest.raises(BadParameter, match=r"^p=\S+ outside \(0, 1\]$"):
            _SIX_ENTRIES[name](sp, m, p)


def prufer_trees(n):
    """Edge lists of all n^(n-2) labelled trees on n >= 2 points."""
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for a in seq:
            degree[a] += 1
        edges = []
        for a in seq:
            leaf = degree.index(1)
            edges.append((leaf, a))
            degree[leaf] = 0
            degree[a] -= 1
        u, v = (i for i in range(n) if degree[i] == 1)
        yield edges + [(u, v)]


def brute_force_norm(sp, m, p):
    """Minimum over all spanning trees of sum |mass across edge|^p d^p."""
    vec = m.vector(sp.n)
    best = math.inf
    for edges in prufer_trees(sp.n):
        adj = [[] for _ in range(sp.n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent, order = {0: None}, [0]
        for x in order:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        mass = list(vec)  # becomes the mass of the subtree below each point
        for x in reversed(order[1:]):
            mass[parent[x]] += mass[x]
        best = min(best, sum(abs(mass[x]) ** p * sp.dist[x, parent[x]] ** p
                             for x in order[1:]))
    return best ** (1.0 / p)


def test_oracle_matches_brute_force_tree_enumeration(rng):
    spaces = [line_space([0.0, 1.0, 2.0, 3.0, 4.0]),  # tied distances
              build_space([(x, y) for x in range(3) for y in range(2)],
                          "taxicab"),
              # uniform distances, with the diagonal noise space checks allow
              space_from_matrix(np.ones((4, 4)) - np.eye(4) * (1 - 1e-13))]
    spaces += [random_metric_space(rng, n) for n in (2, 3, 4, 5, 6, 6)]
    for sp in spaces:
        for _ in range(4):
            vec = rng.standard_normal(sp.n)
            vec[rng.random(sp.n) < 0.3] = 0.0  # Steiner points
            m = Molecule.balanced(dict(enumerate(vec)), sp.base)
            for p in (1.0, 0.5, 0.25):
                res = free_norm_exact_small(sp, m, p)
                want = brute_force_norm(sp, m, p)
                assert res.value == pytest.approx(want, rel=1e-12, abs=1e-300)
                assert len(res.representation) <= sp.n - 1
                check_result_consistency(sp, m, res)


def relay_splits(s, k):
    """The splits of a terminal subset s at a point off the terminals: the
    subsets of s holding its lowest terminal, other than s itself."""
    return _child_splits(s | 1 << k, k)[1:]


def scalar_send_split(dist, vec, p, terms, root):
    """Reference: the recurrence of ``_tree_dp`` one terminal subset, split
    point and target at a time, in increasing mask order, on Python floats;
    returns (norm, edges) with the same backtracking."""
    n, k = len(vec), len(terms)
    if k == 0:
        return 0.0, []
    cols = list(terms) + [root] + [x for x in range(n)
                                   if x != root and x not in terms]
    dpow = (dist ** p).tolist()
    dp = [[0.0 if u == v else dpow[cu][cv] for v, cv in enumerate(cols)]
          for u, cu in enumerate(cols)]
    mass = [0.0]
    for t in terms:
        mass += [m + float(vec[t]) for m in mass]
    w = [abs(m) ** p for m in mass]
    G, J = [None] * len(mass), [None] * len(mass)
    for j in range(k):
        G[1 << j] = [w[1 << j] * dp[j][v] for v in range(n)]
    for s in range(3, len(mass)):
        if s & (s - 1):  # two or more terminals
            J[s] = {x: min(G[t][x] + G[s ^ t][x] for t in (
                _child_splits(s, x) if x < k else relay_splits(s, k)))
                for x in range(n) if x >= k or s >> x & 1}
            G[s] = [min(j + w[s] * dp[x][v] for x, j in J[s].items())
                    for v in range(n)]
    cost = G[-1][k]
    edges, stack = [], [(len(mass) - 1, k, cost)]
    while stack:
        s, v, target = stack.pop()
        if s & (s - 1) == 0:
            u = s.bit_length() - 1
        else:
            u = next(x for x, j in J[s].items() if j + w[s] * dp[x][v] == target)
            t = next(t for t in (_child_splits(s, u) if u < k else relay_splits(s, k))
                     if G[t][u] + G[s ^ t][u] == J[s][u])
            stack += [(t, u, G[t][u]), (s ^ t, u, G[s ^ t][u])]
        if u != v:
            edges.append((cols[u], cols[v], mass[s]))
    return cost ** (1.0 / p), edges


def test_tree_dp_matches_scalar_reference(rng):
    """Bitwise, up to 10 points, with every other point a terminal and with
    a random number of them: values for a batch of rows, each over its own
    columns (its own root and its own terminals), and value and network per
    row, on plain and snowflaked distances and a 1e-13 diagonal, with zero
    coefficients.  Every root up to 8 points; random roots at 9 and 10."""
    for n in range(1, 11):
        b = max(n, 6) if n <= 8 else 3
        for p in (1.0, 0.5, 0.25, 0.7):
            pts = rng.standard_normal((n, 2))
            plain = np.sqrt(((pts[:, None] - pts) ** 2).sum(-1))
            tiny = plain.copy()
            tiny[np.diag_indices(n)] = 1e-13
            for dist in (plain, plain ** 0.5, tiny):
                vecs = (rng.standard_normal((b, n))
                        * 10.0 ** rng.integers(-3, 4, (b, 1)))
                vecs[rng.random((b, n)) < 0.25] = 0.0
                roots = (np.arange(b) % n if n <= 8 else
                         rng.integers(0, n, b)).tolist()
                for k in (n - 1, int(rng.integers(0, n))):
                    terms = [sorted(rng.choice([x for x in range(n) if x != r],
                                               size=k, replace=False).tolist())
                             for r in roots]
                    want = [scalar_send_split(dist, vec, p, t, r)
                            for vec, t, r in zip(vecs, terms, roots)]
                    cols = np.array([t + [r] + [x for x in range(n)
                                                if x != r and x not in t]
                                     for t, r in zip(terms, roots)])
                    masses = np.take_along_axis(vecs, cols[:, :k], axis=1)
                    assert _tree_dp(dist, masses, p, cols)[0] == [
                        w[0] for w in want]
                    for i, (norm, edges) in enumerate(want):
                        assert _tree_dp(dist, masses[i:i + 1], p, cols[i:i + 1],
                                        tree=True) == ([norm], edges)


def test_dp_levels_are_the_admissible_splits():
    """Per level of ``_dp_levels(k, n)``: the terminal subsets of one size;
    their split points, the members in order and then each point off the
    terminals twice; at a member x, exactly the splits {T, S - T} with T
    below x holding the lowest point of S - {x}; at a point off the
    terminals, its two rectangles hold exactly the splits into two
    non-empty parts.  Every row names its own split point."""
    for k in range(1, 10):
        for n in ((k + 1, k + 3) if k <= 6 else (k + 1,)):
            levels = _dp_levels(k, n)
            assert len(levels) == k - 1
            for size, (s, a, r, x) in enumerate(levels, 2):
                assert s.tolist() == [m for m in range(1 << k)
                                      if m.bit_count() == size]
                assert a.shape == r.shape == (len(s), size + 2 * (n - k),
                                              1 << size - 2)
                for S, ra, rr, pts in zip(s.tolist(), a.tolist(), r.tolist(),
                                          x.tolist()):
                    mem = [y for y in range(k) if S >> y & 1]
                    far = [y for y in range(k, n) for _ in range(2)]
                    assert pts == mem + far
                    got = {}
                    for y, row_a, row_r in zip(pts, ra, rr):
                        assert all(q % n == y for q in row_a + row_r)
                        got.setdefault(y, set()).update(
                            frozenset((qa // n, qr // n))
                            for qa, qr in zip(row_a, row_r))
                    for y, pairs in got.items():
                        if y < k:
                            low = min(set(mem) - {y})
                            want = {frozenset((t, S ^ t)) for t in range(1 << k)
                                    if t & ~S == 0 and not t >> y & 1
                                    and t >> low & 1}
                        else:
                            want = {frozenset((t, S ^ t)) for t in range(1, S)
                                    if t & ~S == 0}
                        assert pairs == want
                        assert all(len(pair) == 2 for pair in pairs)


def star_of_leaves():
    """A tree metric: base 0, a hub 1 at distance 10, and three leaves at
    distance 1 from the hub (so 2 from each other and 11 from the base)."""
    d = np.full((5, 5), 2.0)
    d[0, 1:] = d[1:, 0] = 11.0
    d[1, :] = d[:, 1] = 1.0
    d[0, 1] = d[1, 0] = 10.0
    np.fill_diagonal(d, 0.0)
    return space_from_matrix(d)


def test_oracle_relays_through_a_zero_mass_hub():
    """Over the whole space the leaves' masses merge at the hub, which
    carries none; the support-restricted value of ``free_norm_upper``
    cannot, and is above it.  ``norm_rows`` and ``norm_value`` norm the
    5-point space over the whole of it, tagged exact.  (At p = 0.25
    merging at a leaf is cheaper still, and there is no gain.)"""
    sp, p = star_of_leaves(), 0.5
    m = Molecule.balanced({2: 1.0, 3: 1.0, 4: 1.0}, 0)
    vec = m.vector(sp.n)
    res = free_norm_exact_small(sp, m, p)
    want = (3.0 + math.sqrt(3.0) * math.sqrt(10.0)) ** 2
    assert res.value == pytest.approx(want, rel=1e-14)
    assert res.value == pytest.approx(brute_force_norm(sp, m, p), rel=1e-14)
    values, exact = norm_rows(sp, vec[None], p)
    assert (values.tolist(), exact.tolist()) == ([res.value], [True])
    assert norm_value(sp, vec, p) == (res.value, True)
    restricted = free_norm_upper(sp, m, p)
    assert restricted.exactness == "upper-bound"
    assert restricted.value > res.value * (1 + 1e-3)
    assert sorted(res.representation) == [(1, 0, 3.0), (2, 1, 1.0),
                                          (3, 1, 1.0), (4, 1, 1.0)]
    check_result_consistency(sp, m, res, rel=1e-14)


def hub_off_the_metric():
    """Base 0, a hub 1 at 1 from it, and leaves 2 and 3 at 0.01 from the
    hub and 1.2 from the base: d(0, 2) > d(0, 1) + d(1, 2), so d is no
    metric, but d^0.5 is one (1.2^0.5 < 1 + 0.1)."""
    return space_from_matrix([[0.0, 1.0, 1.2, 1.2], [1.0, 0.0, 0.01, 0.01],
                              [1.2, 0.01, 0.0, 0.02], [1.2, 0.01, 0.02, 0.0]])


def test_certified_value_relays_off_a_non_metric_matrix():
    """On a matrix that breaks the triangle inequality at p = 1 but whose
    d^0.5 is a metric, the leaves' masses merge at the zero-mass hub 1, at
    (2 * 0.01^0.5 + 2^0.5 * 1^0.5)^2, below merging at a leaf and below
    the support-restricted value; ``norm_rows``, ``norm_value`` and
    ``free_norm_exact_small`` agree on it, tagged exact.  At p = 1 the
    same matrix is refused."""
    sp = hub_off_the_metric()
    m = Molecule.balanced({2: 1.0, 3: 1.0}, 0)
    vec = m.vector(sp.n)
    values, exact = norm_rows(sp, vec[None], 0.5)
    assert exact.tolist() == [True]
    assert values[0] == pytest.approx((0.2 + math.sqrt(2.0)) ** 2, rel=1e-14)
    value, exact = norm_value(sp, vec, 0.5)
    assert (value, exact) == (values[0], True)
    assert value == pytest.approx(brute_force_norm(sp, m, 0.5), rel=1e-14)
    res = free_norm_exact_small(sp, m, 0.5)
    assert res.value == value
    assert sorted(res.representation) == [(1, 0, 2.0), (2, 1, 1.0),
                                          (3, 1, 1.0)]
    assert free_norm_upper(sp, m, 0.5).value > value * (1 + 1e-3)
    with pytest.raises(BadParameter, match=r"at p=1: d\(0, 2\) > "):
        norm_rows(sp, vec[None], 1.0)


def test_non_metric_matrix_keeps_every_terminal(rng):
    """On the same matrix at p = 0.5, rows of every support keep each
    point they hold off the base a terminal, and let the others relay:
    ``norm_rows`` matches the spanning-tree enumeration row by row, tagged
    exact."""
    sp = hub_off_the_metric()
    for held in itertools.product((False, True), repeat=3):
        if not any(held):
            continue
        coeffs = {x: float(rng.standard_normal()) for x, h in
                  zip(range(1, 4), held) if h}
        m = Molecule.balanced(coeffs, 0)
        values, exact = norm_rows(sp, m.vector(sp.n)[None], 0.5)
        assert exact.tolist() == [True]
        assert values[0] == pytest.approx(brute_force_norm(sp, m, 0.5),
                                          rel=1e-12)


def test_p_metric_gate_runs_once_per_matrix_and_p():
    """The triangle test runs once per matrix and p; a changed matrix, or
    one read at another p, is tested again, and a space with coords never.
    With d(0, 2) = 5 and d(0, 1) = d(1, 2) = 1, d^p passes at p = 0.25
    (5^0.25 < 2), where delta(2) goes straight to the base, and fails at
    p = 0.5."""
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    rows = np.array([[-1.0, 0.0, 1.0]])
    metric._p_triangle.cache_clear()
    sp = space_from_matrix(dist)
    for _ in range(3):
        assert norm_rows(sp, rows, 0.5)[0][0] == pytest.approx(2.0, rel=1e-14)
    assert metric._p_triangle.cache_info().misses == 1
    dist[0, 2] = dist[2, 0] = 5.0
    sp = space_from_matrix(dist)
    values, exact = norm_rows(sp, rows, 0.25)
    assert (values.tolist(), exact.tolist()) == ([pytest.approx(5.0, rel=1e-14)],
                                                 [True])
    for _ in range(2):
        with pytest.raises(BadParameter, match=r"^d\^p breaks the triangle "
                           r"inequality at p=0.5: d\(0, 2\)\^0.5 > "
                           r"d\(0, 1\)\^0.5 \+ d\(1, 2\)\^0.5, slack -0.236068$"):
            norm_rows(sp, rows, 0.5)
    assert metric._p_triangle.cache_info().misses == 3
    norm_rows(line_space([0.0, 1.0, 2.0]), rows, 0.5)
    assert metric._p_triangle.cache_info().misses == 3


def test_oracle_at_ten_points(rng):
    sp = random_ball(d=2, n=10, seed=10)
    m = dense_molecule(rng, sp)
    exact = free_norm_exact_small(sp, m, 1.0, forest_limit=10)
    assert exact.value == pytest.approx(free_norm_p1(sp, m).value, rel=1e-12)
    check_result_consistency(sp, m, exact)
    half = free_norm_exact_small(sp, m, 0.5, forest_limit=10)
    assert half.value <= free_norm_upper(sp, m, 0.5).value * (1 + 1e-12)
    check_result_consistency(sp, m, half)


def test_oracle_agrees_with_flow_at_p1(rng):
    for _ in range(25):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        m = random_molecule(rng, sp)
        a = free_norm_p1(sp, m).value
        b = free_norm_exact_small(sp, m, 1.0).value
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_norm_monotone_in_p(rng):
    sp = random_metric_space(rng, 6)
    for _ in range(10):
        m = random_molecule(rng, sp)
        vals = [free_norm_exact_small(sp, m, p).value
                for p in (0.25, 0.5, 0.75, 1.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo * (1 + 1e-9)


def test_homogeneity(rng):
    sp = random_metric_space(rng, 6)
    m = random_molecule(rng, sp)
    for p in (1.0, 0.5):
        v = free_norm_exact_small(sp, m, p).value
        v3 = free_norm_exact_small(sp, m * -3.0, p).value
        assert v3 == pytest.approx(3.0 * v, rel=1e-9)


def test_p_subadditivity(rng):
    sp = random_metric_space(rng, 6)
    for p in (1.0, 0.5):
        for _ in range(10):
            m1 = random_molecule(rng, sp)
            m2 = random_molecule(rng, sp)
            v12 = free_norm_exact_small(sp, m1 + m2, p).value
            v1 = free_norm_exact_small(sp, m1, p).value
            v2 = free_norm_exact_small(sp, m2, p).value
            assert v12 ** p <= v1 ** p + v2 ** p + 1e-9


def test_delta_isometry_small_spaces(rng):
    for p in (1.0, 0.75, 0.5, 0.25):
        sp = random_metric_space(rng, 6)
        for x in range(1, sp.n):
            for y in range(x + 1, sp.n):
                m = Molecule.delta(x, 0) - Molecule.delta(y, 0)
                v = free_norm_exact_small(sp, m, p).value
                assert v == pytest.approx(sp.d(x, y), rel=1e-9)


def test_upper_bound_never_below_oracle(rng):
    for _ in range(15):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        m = random_molecule(rng, sp)
        for p in (1.0, 0.5, 0.25):
            up = free_norm_upper(sp, m, p)
            ex = free_norm_exact_small(sp, m, p)
            assert up.value >= ex.value * (1 - 1e-9)
            check_result_consistency(sp, m, up)


def test_upper_bound_exact_on_easy_cases(rng):
    sp = random_metric_space(rng, 6)
    m = Molecule.delta(3, 0)
    up = free_norm_upper(sp, m, 0.5)
    assert up.value == pytest.approx(sp.d(0, 3), rel=1e-12)
    sp2 = line_space([0.0, 1.0, 1.1])
    m2 = Molecule.balanced({1: 1.0, 2: 1.0}, 0)
    up2 = free_norm_upper(sp2, m2, 0.5)
    expected = (math.sqrt(0.1) + math.sqrt(2.0)) ** 2
    assert up2.value == pytest.approx(expected, rel=1e-9)


def test_upper_is_deterministic(rng):
    sp = random_metric_space(rng, 7)
    m = random_molecule(rng, sp)
    a = free_norm_upper(sp, m, 0.5)
    b = free_norm_upper(sp, m, 0.5)
    assert a.value == b.value
    assert a.representation == b.representation


@pytest.mark.parametrize("p", [0.5, 0.25, 0.7])
def test_upper_runs_the_norm_value_regime(rng, p):
    """``free_norm_upper`` is the restricted reference, with a
    representation that costs its value: the subset DP on supports up to
    ``FOREST_LIMIT_DEFAULT`` points, the star/MST bound above, and the
    exact tag only when the support is the whole space.  Above the limit
    it is ``norm_value``'s regime bit for bit; within it, ``norm_value``
    norms over the whole space, exactly, and never above it."""
    k = FOREST_LIMIT_DEFAULT
    for n in (k, k + 1, k + 3, 14):
        sp = random_metric_space(rng, n, alpha=float(rng.choice([1.0, 0.5])))
        # supports of the base and size - 1 other points
        for size in [s for s in (k - 1, k, k + 1, k + 3) if s <= n] * 3:
            pts = rng.choice(np.arange(1, n), size=size - 1, replace=False)
            m = Molecule.balanced(dict(zip(pts.tolist(),
                                           rng.standard_normal(size - 1))),
                                  sp.base)
            assert len(m.coeffs) == size
            value, exact = norm_value(sp, m.vector(n), p)
            up = free_norm_upper(sp, m, p)
            if n > k:
                assert (up.value, up.exactness) == (value, "upper-bound")
                assert not exact
            else:
                assert up.value >= value * (1 - 1e-12) and exact
                assert (up.exactness == "exact") == (size == n)
            check_result_consistency(sp, m, up)


def kruskal_tree(dist):
    """Reference: Kruskal's minimum spanning tree over the pairs a < b, as
    (edge set, weight)."""
    k = len(dist)
    comp = list(range(k))

    def find(a):
        while comp[a] != a:
            a = comp[a]
        return a
    edges, weight = set(), 0.0
    for w, a, b in sorted((dist[a, b], a, b)
                          for a in range(k) for b in range(a + 1, k)):
        if find(a) != find(b):
            comp[find(a)] = find(b)
            edges.add((a, b))
            weight += w
    return edges, weight


def check_mst(dist, distinct):
    parents = _mst_parents(dist)
    k = len(dist)
    assert len(parents) == k and parents[0] == 0
    for v in range(k):
        for _ in range(k):  # every point reaches 0
            v = parents[v]
        assert v == 0
    edges, weight = kruskal_tree(dist)
    got = sum(dist[parents[v], v] for v in range(1, k))
    assert got == pytest.approx(weight, rel=1e-12, abs=k * ABS_TOL)
    if distinct:
        assert {tuple(sorted((v, parents[v]))) for v in range(1, k)} == edges
    return parents


def test_mst_parents_matches_kruskal(rng):
    assert _mst_parents(np.zeros((1, 1))) == [0]
    for k in (2, 3):
        for _ in range(5):
            check_mst(random_metric_space(rng, k).dist, distinct=True)
    line = line_space(rng.permutation(np.cumsum(rng.random(8) + 0.1)))
    check_mst(line.dist, distinct=True)
    for _ in range(30):
        sp = random_metric_space(rng, int(rng.integers(4, 13)),
                                 alpha=float(rng.choice([1.0, 0.5])))
        check_mst(sp.dist, distinct=True)
        noise = rng.random(sp.dist.shape) * ABS_TOL / 2  # asymmetric
        check_mst(sp.dist + noise * (1 - np.eye(sp.n)), distinct=True)


@pytest.mark.parametrize("norm", ["sup", "taxicab"])
def test_mst_parents_on_tied_grids(rng, norm):
    grid = grid_zd(d=2, lo=-2, hi=2, norm=norm)
    for _ in range(20):
        sub = rng.choice(grid.n, size=int(rng.integers(3, 14)), replace=False)
        check_mst(grid.dist[np.ix_(sub, sub)], distinct=False)
    check_mst(grid.dist, distinct=False)


def test_mst_parents_tie_rules():
    # all ties, a 1e-13 diagonal: nothing beats the first-found parent 0
    flat = np.ones((4, 4)) - np.eye(4) * (1 - 1e-13)
    assert check_mst(flat, distinct=False) == [0, 0, 0, 0]
    # (0,0), (0,1), (1,0), (1,1): 1 and 2 tie for next, the lowest goes
    # first and becomes the parent of (1,1)
    square = grid_zd(d=2, lo=0, hi=1, norm="taxicab").dist
    assert check_mst(square, distinct=False) == [0, 0, 0, 1]
    # coincident points are joined by their zero-length edges
    assert check_mst(np.zeros((3, 3)), distinct=False) == [0, 0, 0]
    line = np.array([0.0, 1.0, 1.0, 3.0, 0.0])
    assert check_mst(np.abs(line[:, None] - line), distinct=False) \
        == [0, 0, 1, 1, 0]


def test_upper_value_never_below_tree_dp(rng):
    for _ in range(40):
        k = int(rng.integers(2, 9))
        dsub = random_metric_space(rng, k,
                                   alpha=float(rng.choice([1.0, 0.5]))).dist
        vsub = rng.standard_normal(k)
        vsub[0] = -vsub[1:].sum()
        exact = _tree_dp(dsub, vsub[None, 1:], 0.5, np.r_[1:k, 0][None])[0][0]
        assert _upper_value(dsub, vsub, 0.5)[0] >= exact * (1 - 1e-12)


def test_norm_value_fast_path_matches_solvers(rng):
    sp = random_metric_space(rng, 7)
    for _ in range(10):
        m = random_molecule(rng, sp)
        vec = m.vector(sp.n)
        v1, exact1 = norm_value(sp, vec, 1.0)
        assert exact1
        assert v1 == pytest.approx(free_norm_p1(sp, m).value, rel=1e-12)
        # within the exact limit both norm over the whole space
        oracle = free_norm_exact_small(sp, m, 0.5).value
        assert norm_value(sp, vec, 0.5) == (oracle, True)


def _norm_rows_cases(rng, space, count):
    """Rows over ``space`` with supports of 1 to FOREST_LIMIT_DEFAULT + 2
    points: balanced rows, rows with a zero base coefficient or a base
    entry inside the 1e-14 band, rows with one huge coefficient that pushes
    the others into the band, unbalanced single points, the base alone and
    all-zero rows."""
    rows = np.zeros((count, space.n))
    others = np.delete(np.arange(space.n), space.base)
    for row in rows:
        size = int(rng.integers(0, min(FOREST_LIMIT_DEFAULT + 2, len(others)) + 1))
        pts = rng.choice(others, size=size, replace=False)
        row[pts] = rng.standard_normal(size)
        kind = rng.integers(6)
        if kind == 1 and size:
            row[pts[0]] *= 1e16
        if kind == 2 and size:
            row[pts] = row[pts] - row[pts].mean()  # base left out, or in the band
        elif kind == 3:
            row[space.base] = 1.0
        elif kind != 4:
            row[space.base] = -row.sum()
    rows[rng.integers(0, count, size=count // 20)] = 0.0
    return rows


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_norm_rows_matches_norm_value(rng, p):
    """Value and exact flag are bitwise those of ``norm_value``, row by row,
    across regimes, at every p: the whole-space DP on spaces up to the exact
    limit, where every row is exact; above it the support DP, and on
    supports above the limit the network simplex at p = 1 and the upper
    bound at p < 1."""
    k = FOREST_LIMIT_DEFAULT
    cases = [(random_metric_space(rng, 12), 600),
             (random_metric_space(rng, 6), 200),
             (random_metric_space(rng, k), 200),
             (random_metric_space(rng, k + 1), 200),
             (random_ball(d=2, n=20, seed=3, alpha=0.5), 200)]
    for space, count in cases:
        rows = _norm_rows_cases(rng, space, count)
        values, exact = norm_rows(space, rows, p)
        for row, v, e in zip(rows, values.tolist(), exact.tolist()):
            assert (v, e) == norm_value(space, row, p)
        assert exact.all() == (p == 1.0 or space.n <= k)
        if p == 1.0:  # norm_value shares the solver: check both against
            check_norm_rows_p1(space, rows)  # the one-problem reference


def counted_tree_dp(monkeypatch):
    """Patch ``freenorm._tree_dp`` to record, per call, its number of
    terminals; returns the list it appends to."""
    calls, tree_dp = [], freenorm._tree_dp

    def counted(dist, masses, p, cols, tree=False):
        calls.append(masses.shape[1])
        return tree_dp(dist, masses, p, cols, tree)
    monkeypatch.setattr(freenorm, "_tree_dp", counted)
    return calls


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_norm_rows_makes_one_tree_dp_call_per_terminal_count(rng, monkeypatch,
                                                             p):
    """On spaces within the exact limit, ``norm_rows`` norms rows of every
    number of terminals (points of the support off the base), each count on
    several supports, with one ``_tree_dp`` call per count, and none for
    zero rows or rows held at the base alone; every value and tag has the
    bits of ``norm_value``.  At p = 0.5 also on the 4-point matrix whose d
    is no metric but d^0.5 is."""
    spaces = [random_metric_space(rng, n) for n in (2, 5, FOREST_LIMIT_DEFAULT)]
    if p == 0.5:
        spaces.append(hub_off_the_metric())
    for space in spaces:
        others = np.delete(np.arange(space.n), space.base)
        rows = np.zeros((4 * space.n + 1, space.n))
        for i, row in enumerate(rows[:-1]):
            pts = rng.choice(others, size=i // 4, replace=False)
            row[pts] = rng.standard_normal(len(pts))
            row[space.base] = -row.sum() if len(pts) else 1.0
        rows = rows[rng.permutation(len(rows))]
        calls = counted_tree_dp(monkeypatch)
        values, exact = norm_rows(space, rows, p)
        monkeypatch.undo()
        assert sorted(calls) == list(range(1, space.n))
        for row, v, e in zip(rows, values.tolist(), exact.tolist()):
            assert (v, e) == norm_value(space, row, p)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_norm_rows_batch_spans_blocks(rng, monkeypatch, p):
    """More rows of one support size than fit in one block, above the exact
    limit and on 8 points, take one ``_tree_dp`` call per block."""
    k = FOREST_LIMIT_DEFAULT
    # on k points the support off the base is every point but the base:
    # the same tables as the support DP of k points
    count = _BLOCK // _dp_width(k - 1, k) + 50
    for n in (10, k):
        space = random_metric_space(rng, n)
        rows = np.zeros((count, space.n))
        for row in rows:
            pts = rng.choice(np.arange(1, n), size=k - 1, replace=False)
            row[pts] = rng.standard_normal(k - 1)
            row[space.base] = -row.sum()
        calls = counted_tree_dp(monkeypatch)
        values, exact = norm_rows(space, rows, p)
        monkeypatch.undo()
        assert calls == [k - 1] * 2
        for row, v, e in zip(rows, values.tolist(), exact.tolist()):
            assert (v, e) == norm_value(space, row, p)


def test_p1_supports_above_the_limit_take_the_simplex(rng, monkeypatch):
    """On 12 points, p = 1 rows whose supports hold 9 to 12 points go to
    the network simplex one at a time: ``norm_rows`` gives ``norm_value``'s
    bits, tagged exact, within 1e-12 relative of the reference, and
    ``free_norm_upper`` returns the plan's arcs as a representation that
    reproduces the molecule and costs the value."""
    calls = []
    transport = freenorm._transport

    def counted(dist, vec):
        calls.append(len(vec))
        return transport(dist, vec)
    monkeypatch.setattr(freenorm, "_transport", counted)
    k = FOREST_LIMIT_DEFAULT
    for alpha in (1.0, 0.5):
        sp = random_metric_space(rng, 12, alpha=alpha)
        rows = np.zeros((30, sp.n))
        for row in rows:
            size = int(rng.integers(k + 1, sp.n + 1))
            pts = rng.choice(np.arange(1, sp.n), size=size - 1, replace=False)
            row[pts] = rng.standard_normal(size - 1)
            row[sp.base] = -row.sum()
        calls.clear()
        values, exact = norm_rows(sp, rows, 1.0)
        assert exact.all() and len(calls) == len(rows)
        assert min(calls) > k
        for row, v in zip(rows, values.tolist()):
            assert norm_value(sp, row, 1.0) == (v, True)
            want = reference_transport(sp.dist, row)[0]
            assert abs(v - want) <= 1e-12 * want
            m = Molecule(tuple((i, c) for i, c in enumerate(row.tolist()) if c))
            up = free_norm_upper(sp, m, 1.0)
            assert up.value == v and up.representation
            check_result_consistency(sp, m, up, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_measure_lipschitz_matches_every_pair(rng, p):
    """Many small spaces, so that a last-ulp change in any one norm soon
    reaches a reported maximum: one to three parts with bases off column 0,
    zero and shared entries, and rows that differ only at the base."""
    for _ in range(80):
        space = random_metric_space(rng, int(rng.integers(2, 8)))
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            m = int(rng.integers(2, FOREST_LIMIT_DEFAULT + 3))
            target = random_ball(d=2, n=m, seed=int(rng.integers(1 << 30)))
            target = target.take(list(range(m)), int(rng.integers(m)))
            rows = rng.standard_normal((space.n, m))
            rows[rng.random(rows.shape) < 0.3] = 0.0
            rows[rng.integers(space.n)] = rows[0]
            rows[rng.integers(space.n), target.base] += 1.0
            parts.append((target, rows))
        assert measure_lipschitz(space, parts, p) == \
            _measure_every_pair(space, parts, p, FOREST_LIMIT_DEFAULT)


def test_scan_pairs_matches_a_pair_loop(rng, monkeypatch):
    """The first pair whose ratio beats the best by a relative 1e-15, as a
    loop over the pairs in lexicographic order finds it: ratios that rise
    step by step, creep up by less than 1e-15, tie, or are zero or NaN;
    with all pairs in one block, and in blocks of two rows and of one."""
    space = random_metric_space(rng, 12)
    xs, ys = np.triu_indices(space.n, 1)
    m = len(xs)
    for case in range(60):
        ratios = [rng.random(m), np.sort(rng.random(m)),
                  1.0 + np.arange(m) * 4e-16 * rng.integers(1, 4),
                  rng.integers(0, 3, m).astype(float)][case % 4]
        ratios[rng.random(m) < 0.05] = 0.0
        if case % 3 == 0:
            ratios[rng.integers(m)] = np.nan
        values = ratios * space.dist[xs, ys]
        best, best_pair = 0.0, None
        for x, y, v in zip(xs.tolist(), ys.tolist(), values.tolist()):
            r = v / space.dist[x, y]
            if r > best * (1 + 1e-15):
                best, best_pair = r, (x, y)
        for block, rows in ((_BLOCK, space.n - 1), (2 * space.n, 2), (1, 1)):
            monkeypatch.setattr(freenorm, "_BLOCK", block)
            seen = []

            def norms(a, b):
                seen.append((a.tolist(), b.tolist()))
                at = np.searchsorted(xs, a[0])
                return values[at:at + len(a)]
            assert _scan_pairs(space, norms) == (best, best_pair)
            assert [len(set(a)) for a, _ in seen[:-1]] == [rows] * (len(seen) - 1)
            assert [x for a, _ in seen for x in a] == xs.tolist()
            assert [y for _, b in seen for y in b] == ys.tolist()



@pytest.mark.parametrize("p", [1.0, 0.5, 0.25, 0.1])
def test_star_bounds_hold_for_every_row(rng, p):
    """``_star_bounds`` against ``norm_rows``, row by row, on targets of
    9-10 points within the exact limit and above it (limit 4): the upper
    bound, times 1 + 1e-9, is never below the value, also at p = 1 where
    the network simplex norms the wide supports.  Half the rows send
    everything to one hub off the base and balance at the base to about
    1e-17, where the base's mass must be read as the balance of the others
    summed in index order, as ``_tree_dp`` reads it: |the base entry|^p can
    be far smaller."""
    for case in range(24):
        m = int(rng.integers(9, 11))
        target = random_ball(d=2, n=m, seed=int(rng.integers(1 << 30)))
        target = target.take(list(range(m)), int(rng.integers(m)))
        rows = rng.random((30, m)) * 0.1
        rows[rng.random(rows.shape) < rng.random((30, 1))] = 0.0
        hub = (target.base + 1 + int(rng.integers(m - 1))) % m
        rows[:15, hub] = 0.0
        rows[:15, hub] = -rows[:15].sum(axis=1)
        rows[:, target.base] = 0.0
        rows[:, target.base] -= rows.sum(axis=1)
        dpow = np.maximum(target.dist, target.dist.T) ** p
        np.fill_diagonal(dpow, 0.0)
        for limit in (m, 4):
            upper = freenorm._star_bounds(
                target, dpow, np.ascontiguousarray(rows.T), p, limit)
            values = norm_rows(target, rows, p, limit)[0]
            assert (values <= upper ** (1 / p) * (1 + 1e-9)).all()


def _delta_parts(rng, n, count):
    """One to ``count`` parts whose rows are point evaluations at random
    points of 3-12 point targets, the base among them."""
    parts = []
    for _ in range(int(rng.integers(1, count + 1))):
        m = int(rng.integers(3, 13))
        target = random_ball(d=2, n=m, seed=int(rng.integers(1 << 30)))
        target = target.take(list(range(m)), int(rng.integers(m)))
        rows = np.zeros((n, m))
        rows[np.arange(n), rng.integers(0, m, n)] = 1.0
        parts.append((target, rows))
    return parts


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_pruned_scan_picks_the_first_of_many_ties(rng, p):
    """Spaces of 8-30 points mapped by point evaluations, with one to three
    parts.  On the 16-point sup-norm grid, the clamp onto a 3 x 3 corner
    is 1-Lipschitz and reaches 1 on many pairs, up to the last ulp, while
    the pairs it shortens can be dropped; on random targets, whole groups
    of pairs share one difference.  The pruned scan keeps the exhaustive
    scan's value, pair and flag, bit for bit."""
    grid = grid_zd(d=2, lo=0, hi=3)  # sup norm, base at (0, 0)
    clamped = np.minimum(grid.coords, 2.0)
    to = [grid.coords.tolist().index(c) for c in clamped.tolist()]
    rows = np.eye(grid.n)[to]
    for case in range(9):
        if case < 3:
            space, parts = grid, [(grid, rows)] * (case + 1)
        else:
            space = random_metric_space(rng, int(rng.integers(8, 31)))
            parts = _delta_parts(rng, space.n, 3)
        ratios, exact = _every_pair_ratio(space, parts, p,
                                          FOREST_LIMIT_DEFAULT)
        want = (*_first_max_pair(space.n, ratios), exact)
        assert measure_lipschitz(space, parts, p) == want
        if case < 3:  # many pairs reach the maximum, and some fall short
            ratios = np.array(ratios)
            assert (ratios >= want[0] * (1 - 1e-15)).sum() > 20
            assert (ratios < want[0] * 0.9).sum() > 20


def test_pruned_scan_follows_ratios_that_creep(rng):
    """Ratios that rise by less than a relative 1e-15 from pair to pair.
    On a line of 10-20 evenly spaced points, the image of point x is c_x
    delta(a) on a two-point target at distance 1: c_x = t_x (1 + 3e-16 x)
    on the first points, so their ratios are 1 + 3e-16 (x + y), and then c
    grows with slope 0.3, so pairs that reach the second part fall short
    and can be dropped.  One or two parts, at p = 1 and 0.5."""
    for case in range(8):
        n = int(rng.integers(10, 21))
        first = int(rng.integers(4, n - 2))
        scale = 10.0 ** int(rng.integers(-2, 3))
        t = np.arange(n) * scale
        c = t * (1 + 3e-16 * np.arange(n))
        c[first:] = c[first - 1] + 0.3 * (t[first:] - t[first - 1])
        space = line_space(t.tolist(), base=int(rng.integers(n)))
        target = line_space([0.0, 1.0])
        rows = np.c_[np.zeros(n), c]
        parts = [(target, rows)] * (case % 2 + 1)
        for p in (1.0, 0.5):
            ratios, exact = _every_pair_ratio(space, parts, p,
                                              FOREST_LIMIT_DEFAULT)
            want = (*_first_max_pair(space.n, ratios), exact)
            assert measure_lipschitz(space, parts, p) == want
            ratios = np.array(ratios)
            near = ratios[ratios >= want[0] * (1 - 1e-15)]
            assert len(np.unique(near)) > 1  # distinct, yet within 1e-15
            assert (ratios < want[0] * 0.9).sum() > n


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_pruned_scan_on_wide_supports_above_the_limit(rng, p):
    """Targets of 12 points with exact limit 4, and rows with supports of
    2-12 points: above the limit a support goes at p = 1 to the network
    simplex, which on a metric every star bounds, and at p < 1 to the
    cheaper of the star at the base and the spanning tree, so only the base
    is a hub.  Sparse rows keep some supports within the limit."""
    for _ in range(6):
        space = random_metric_space(rng, int(rng.integers(8, 16)))
        target = random_ball(d=2, n=12, seed=int(rng.integers(1 << 30)),
                             alpha=float(rng.choice([1.0, 0.5])))
        target = target.take(list(range(12)), int(rng.integers(12)))
        rows = rng.standard_normal((space.n, 12))
        rows[rng.random(rows.shape) < rng.random((space.n, 1))] = 0.0
        parts = [(target, rows)]
        if rng.random() < 0.5:
            parts.append(_delta_parts(rng, space.n, 1)[0])
        assert measure_lipschitz(space, parts, p, 4) == \
            _measure_every_pair(space, parts, p, 4)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_pruned_scan_on_a_target_off_the_metric(rng, p):
    """``space_from_matrix`` targets that break the triangle inequality,
    within the exact limit and above it (limit 3), with point-evaluation
    rows and some dense ones.  On the first, d(0, 2) is 6 (d(0, 1) +
    d(1, 2)); on the second (a spider), the leaves lie 20-22 apart and 1
    from a hub.  Where d^p breaks the triangle inequality, the pruned scan
    refuses the target, as norming every pair would; where d^p is a metric
    (some of the first at p = 0.25), it keeps the exhaustive scan's result,
    bit for bit."""
    verdicts = set()
    for case in range(8):
        m = int(rng.integers(4, 9))
        if case % 2:
            d = random_ball(d=2, n=m, seed=int(rng.integers(1 << 30))).dist.copy()
            d[0, 2] = d[2, 0] = 6.0 * (d[0, 1] + d[1, 2])
            held, spread = [0, 2], list(range(m))
        else:
            d = np.full((m, m), 10.0) + rng.random((m, m))
            d = d + d.T
            d[-1, :] = d[:, -1] = 1.0
            np.fill_diagonal(d, 0.0)
            held = spread = list(range(m - 1))
        target = space_from_matrix(d, base=0)
        space = random_metric_space(rng, int(rng.integers(8, 20)))
        rows = np.zeros((space.n, m))
        rows[np.arange(space.n), rng.choice(held, space.n)] = 1.0
        dense = rng.random(space.n) < 0.3
        rows[np.ix_(dense, spread)] = rng.standard_normal((dense.sum(),
                                                           len(spread)))
        valid = metric.validate_p_metric(target, p).valid
        verdicts.add(valid)
        for limit in (FOREST_LIMIT_DEFAULT, 3):
            if valid:
                assert measure_lipschitz(space, [(target, rows)], p, limit) == \
                    _measure_every_pair(space, [(target, rows)], p, limit)
                continue
            for scan in (measure_lipschitz, _measure_every_pair):
                with pytest.raises(BadParameter, match="triangle inequality"):
                    scan(space, [(target, rows)], p, limit)
    assert verdicts == ({False, True} if p == 0.25 else {False})


def test_pruned_scan_norms_few_label_pairs(monkeypatch):
    """The whitney extension map of a 120-point ball: fewer than 5 % of the
    label pairs (the distinct row pairs of points x < y, each of which the
    exhaustive scan norms once) reach ``norm_rows``, at every p."""
    from lipfree.extension import doubling_extension_map, whitney_cover
    from lipfree.metric import maximal_separated_net
    space = random_ball(d=2, n=120, seed=0)
    net = maximal_separated_net(space, list(range(space.n)),
                                space.diameter() / 4)
    system = whitney_cover(space, net)
    normed = []
    norm = freenorm.norm_rows

    def counted(target, rows, p, exact_limit):
        normed.append(len(rows))
        return norm(target, rows, p, exact_limit)
    monkeypatch.setattr(freenorm, "norm_rows", counted)
    for p in (1.0, 0.5, 0.25):
        normed.clear()
        ext = doubling_extension_map(space, net, p, system=system)
        label = np.unique(ext.coeffs, axis=0, return_inverse=True)[1].ravel()
        xs, ys = np.triu_indices(space.n, 1)
        pairs = len(set(zip(label[xs].tolist(), label[ys].tolist())))
        assert 0 < sum(normed) < 0.05 * pairs
        assert ext.measured_lip > 0 and ext.witness_pair is not None


def test_pruned_scan_holds_no_pair_of_a_constant_map():
    """A map of 1000 points onto one image, in two parts: every bound is 0,
    so no pair is collected, and the peak of traced allocations stays far
    below the 12 MB that the indices and bounds of its 499,500 pairs
    alone would take."""
    space = random_ball(d=2, n=1000, seed=0)
    target = random_ball(d=2, n=5, seed=1)
    rows = np.zeros((space.n, target.n))
    rows[:, 3] = 2.0
    for p in (1.0, 0.5):
        tracemalloc.start()
        try:
            got = measure_lipschitz(space, [(target, rows)] * 2, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (0.0, None, True)
        assert peak < 8e6
