import itertools
import math

import numpy as np
import pytest

from lipfree import (
    Molecule,
    SizeLimit,
    SumElement,
    SumPart,
    build_space,
    free_norm_exact_small,
    free_norm_p1,
    free_norm_upper,
    line_space,
    lipschitz_constant,
    lp_sum_norm,
    norm_value,
    space_from_matrix,
)
from lipfree.freenorm import FOREST_LIMIT_MAX
from lipfree.generators import random_ball

from conftest import check_result_consistency, random_metric_space, random_molecule


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
    # points, so the solve runs through the primal-dual phases
    sp = random_ball(d=2, n=k, seed=k, alpha=alpha)
    for _ in range(2):
        m = dense_molecule(rng, sp)
        check_certificate(sp, m, free_norm_p1(sp, m))


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


def test_triangle_violation_is_tagged_upper_bound():
    # d(0, 2) = 3 > d(0, 1) + d(1, 2) = 2: the direct plan is not optimal,
    # and its c-transform witness is not 1-Lipschitz
    sp = space_from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    m = Molecule.delta(2, 0)
    res = free_norm_p1(sp, m)
    assert res.exactness == "upper-bound"
    assert res.certificate is None
    assert res.value == 3.0
    assert free_norm_exact_small(sp, m, 1.0).value == pytest.approx(2.0)


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
            m = Molecule.from_vector(vec, sp.base)
            for p in (1.0, 0.5, 0.25):
                res = free_norm_exact_small(sp, m, p)
                want = brute_force_norm(sp, m, p)
                assert res.value == pytest.approx(want, rel=1e-12, abs=1e-300)
                assert len(res.representation) <= sp.n - 1
                check_result_consistency(sp, m, res)


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
            up = free_norm_upper(sp, m, p, seed=3)
            ex = free_norm_exact_small(sp, m, p)
            assert up.value >= ex.value * (1 - 1e-9)
            check_result_consistency(sp, m, up)


def test_upper_bound_exact_on_easy_cases(rng):
    sp = random_metric_space(rng, 6)
    m = Molecule.delta(3, 0)
    up = free_norm_upper(sp, m, 0.5, seed=0)
    assert up.value == pytest.approx(sp.d(0, 3), rel=1e-12)
    sp2 = line_space([0.0, 1.0, 1.1])
    m2 = Molecule.balanced({1: 1.0, 2: 1.0}, 0)
    up2 = free_norm_upper(sp2, m2, 0.5, seed=0)
    expected = (math.sqrt(0.1) + math.sqrt(2.0)) ** 2
    assert up2.value == pytest.approx(expected, rel=1e-9)


def test_upper_deterministic_given_seed(rng):
    sp = random_metric_space(rng, 7)
    m = random_molecule(rng, sp)
    a = free_norm_upper(sp, m, 0.5, seed=11)
    b = free_norm_upper(sp, m, 0.5, seed=11)
    assert a.value == b.value
    assert a.representation == b.representation


def test_lp_sum_norm():
    sp = line_space([0.0, 1.0])
    m = Molecule.delta(1, 0)
    one = SumElement((SumPart(0, sp, m),), 1.0)
    assert lp_sum_norm(one) == pytest.approx(1.0, rel=1e-12)
    two = SumElement((SumPart(0, sp, m), SumPart(1, sp, m)), 1.0)
    assert lp_sum_norm(two) == pytest.approx(2.0, rel=1e-12)
    two_half = SumElement((SumPart(0, sp, m), SumPart(1, sp, m)), 0.5)
    assert lp_sum_norm(two_half) == pytest.approx(4.0, rel=1e-12)


def test_lipschitz_constant_identity_map(rng):
    sp = random_metric_space(rng, 6)
    image = [Molecule.delta(i, sp.base) for i in range(sp.n)]

    def norm(mol):
        return free_norm_p1(sp, mol).value

    val, pair = lipschitz_constant(sp, image, norm)
    assert val == pytest.approx(1.0, rel=1e-9)
    assert pair is not None


def test_lipschitz_constant_constant_and_scaling(rng):
    sp = random_metric_space(rng, 5)
    const = [np.zeros(2) for _ in range(sp.n)]
    val, _ = lipschitz_constant(sp, const, lambda d: float(np.linalg.norm(d)))
    assert val == 0.0
    doubled = [2.0 * sp.coords[i] for i in range(sp.n)]
    val, _ = lipschitz_constant(sp, doubled, lambda d: float(np.linalg.norm(d)))
    assert val == pytest.approx(2.0, rel=1e-12)


def test_norm_value_fast_path_matches_solvers(rng):
    sp = random_metric_space(rng, 7)
    for _ in range(10):
        m = random_molecule(rng, sp)
        vec = m.vector(sp.n)
        v1, exact1 = norm_value(sp, vec, 1.0)
        assert exact1
        assert v1 == pytest.approx(free_norm_p1(sp, m).value, rel=1e-12)
        v5, _ = norm_value(sp, vec, 0.5)
        oracle = free_norm_exact_small(sp, m, 0.5).value
        assert v5 >= oracle * (1 - 1e-9)  # restriction may only overestimate
