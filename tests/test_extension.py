import math
from types import SimpleNamespace

import numpy as np
import pytest

from lipfree import (
    BadParameter,
    BadSubset,
    InternalInvariantBroken,
    Molecule,
    SuiteConfig,
    TooSmall,
    amenability_defect,
    doubling_extension_map,
    extension_constant,
    free_norm_exact_small,
    line_space,
    linearization_residual,
    point_removal_map,
    run_suite,
    weight_variation_check,
    whitney_cover,
)
from lipfree import extension, freenorm
from lipfree.freenorm import FOREST_LIMIT_DEFAULT as LIMIT
from lipfree.freenorm import measure_lipschitz, norm_value
from lipfree.generators import grid_zd, random_ball
from lipfree.metric import maximal_separated_net, passes

from conftest import _measure_every_pair, random_metric_space


def _within_bounds(system):
    return all(c.measured <= c.bound * (1 + 1e-9) for c in system.checks)


def test_whitney_subset_equals_space():
    sp = line_space([0.0, 1.0, 2.0])
    system = whitney_cover(sp, [0, 1, 2])
    assert system.indices == ()
    assert system.checks == ()


def test_whitney_base_only_subset():
    sp = line_space([0.0, 1.0, 2.0, 4.0, 8.0])
    system = whitney_cover(sp, [0])
    assert _within_bounds(system)
    # every anchor is the base and the weights sum to one off the subset
    assert all(y == 0 for _, y in system.indices)
    assert np.abs(system.psi.sum(axis=0) - 1.0).max() <= 1e-12


def test_whitney_grid_halfplane():
    sp = grid_zd(d=2, lo=0, hi=5)
    net = [i for i in range(sp.n) if sp.coords[i][0] <= 1]
    net.append(sp.base)
    system = whitney_cover(sp, sorted(set(net)))
    assert _within_bounds(system)
    hist = system.overlap_histogram()
    assert max(hist) <= system.overlap_bound
    # phi functions are 1-Lipschitz with support exactly their patch
    comp = list(system.complement)
    dcomp = sp.dist[np.ix_(comp, comp)]
    patches = _reference_patches(sp, system)
    for i in range(len(system.indices)):
        diff = np.abs(system.phi[i][:, None] - system.phi[i][None, :])
        assert (diff - dcomp).max() <= 1e-9
        assert np.array_equal(system.phi[i] > 0, patches[i])
    # Phi lower bound from the construction
    assert np.all(system.phi.sum(axis=0) >= system.dist_to_net / 4.0 - 1e-12)


def test_whitney_cover_raises_on_a_check_above_its_bound(monkeypatch):
    """A Whitney ratio above its bound (here H3, by a doubled phi) is an
    internal fault, decided by the same rule as every report record."""
    h_checks = extension._h_checks

    def steep(space, comp, indices, phi, *rest):
        return h_checks(space, comp, indices, 2.0 * phi, *rest)

    monkeypatch.setattr(extension, "_h_checks", steep)
    with pytest.raises(InternalInvariantBroken,
                       match="H3_lipschitz_support 2 > 1"):
        whitney_cover(grid_zd(d=2, lo=0, hi=4), [0])


def test_whitney_requires_base_in_subset():
    sp = line_space([0.0, 1.0, 2.0])
    with pytest.raises(BadSubset):
        whitney_cover(sp, [1, 2])


def _run_on_subset(suite):
    def run(space, net):
        source = {"kind": "random-ball", "params": {"n": space.n},
                  "subset": {"indices": net}}
        return run_suite(SuiteConfig(suite=suite, space_source=source))
    return run


@pytest.mark.parametrize("entry", [
    whitney_cover,
    lambda space, net: doubling_extension_map(space, net, 1.0),
    lambda space, net: amenability_defect(space, net, 1.0),
    lambda space, net: maximal_separated_net(space, net, 0.5),
    _run_on_subset("whitney"),
    _run_on_subset("amenability"),
], ids=["whitney_cover", "doubling_extension_map", "amenability_defect",
        "maximal_separated_net", "whitney_suite", "amenability_suite"])
@pytest.mark.parametrize("net", [[0, 3, -1], [0, 3, 12], [0, 3.7],
                                 [0, float("nan")], [0, "3"]])
def test_subset_index_outside_the_space_is_refused(entry, net):
    """An index from the end, past the end or with a fraction is refused,
    not read as another point or truncated."""
    with pytest.raises(BadSubset, match="is not a whole number in"):
        entry(random_ball(n=12, seed=0), net)


def test_extension_refuses_a_net_other_than_the_systems():
    """A Whitney system passed in fixes the net: another net is refused,
    not replaced by the system's, and a repeat of the system's points in
    any order is the same net."""
    space = random_ball(n=12, seed=0)
    system = whitney_cover(space, [0, 2, 4])
    with pytest.raises(BadSubset, match=r"^net \[0, 5, 7, 9\] is not the "
                                        r"subset \[0, 2, 4\] "):
        doubling_extension_map(space, [0, 5, 7, 9], 1.0, system=system)
    ext = doubling_extension_map(space, [4, 0, 2, 2], 1.0, system=system)
    assert ext.net == (0, 2, 4)


def test_extension_restricts_to_delta():
    sp = line_space([0.0, 1.0, 2.0, 4.0, 8.0])
    net = [0, 1, 4]
    ext = doubling_extension_map(sp, net, 1.0)
    order = [0] + [g for g in ext.net if g != 0]
    for g in net:
        row = ext.coeffs[g]
        assert row[order.index(g)] == 1.0
        assert row.sum() == 1.0
    # off the subset: nonnegative weights summing to one
    for x in range(sp.n):
        if x in net:
            continue
        row = ext.coeffs[x]
        assert row.min() >= 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_extension_measured_below_bound():
    sp = grid_zd(d=2, lo=0, hi=4)
    net = sorted({i for i in range(sp.n) if sp.coords[i][0] <= 1} | {sp.base})
    for p in (1.0, 0.5):
        ext = doubling_extension_map(sp, net, p)
        assert ext.measured_lip <= ext.lip_bound * (1 + 1e-9)
        assert ext.lip_bound == extension_constant(p, whitney_cover(sp, net).doubling_value)
        assert linearization_residual(ext) <= 1e-10


def test_weight_variation_inequality():
    sp = grid_zd(d=2, lo=0, hi=4)
    net = sorted({i for i in range(sp.n) if sp.coords[i][0] <= 1} | {sp.base})
    system = whitney_cover(sp, net)
    for p in (1.0, 0.5):
        rep = weight_variation_check(system, p)
        assert rep.max_ratio <= 1 + 1e-9


def test_point_removal_two_point_space():
    sp = line_space([0.0, 1.0])
    rep = point_removal_map(sp, 1, 0.5)
    assert rep.measured_lip == 0.0
    assert rep.measured_lip <= rep.bound


def test_point_removal_three_point_line():
    sp = line_space([0.0, 1.0, 2.0])
    rep = point_removal_map(sp, 2, 1.0)
    assert rep.new_base == 1  # nearest remaining point
    assert rep.measured_lip <= 2.0 * (1 + 1e-9)
    assert rep.chain_ratio <= 1 + 1e-9


def test_point_removal_random_spaces(rng):
    for _ in range(15):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        x0 = int(rng.integers(1, sp.n))
        for p in (1.0, 0.5):
            rep = point_removal_map(sp, x0, p)
            assert rep.measured_lip <= rep.bound * (1 + 1e-9)
            assert rep.chain_ratio <= 1 + 1e-9


def test_point_removal_guards():
    sp = line_space([0.0])
    with pytest.raises(TooSmall):
        point_removal_map(sp, 0, 1.0)
    sp = line_space([0.0, 1.0])
    with pytest.raises(BadParameter):
        point_removal_map(sp, 0, 1.0)
    sp = line_space([0.0, 1.0, 2.0])
    for x0 in (-1, 3):  # outside [0, n)
        with pytest.raises(BadParameter):
            point_removal_map(sp, x0, 1.0)


def test_amenability_isometric_at_p1(rng):
    sp = random_metric_space(rng, 7)
    rep = amenability_defect(sp, [0, 2, 4, 6], 1.0, samples=40, seed=5)
    assert rep.max_ratio <= 1.0 + 1e-9
    assert rep.certified


def test_amenability_subset_equals_space(rng):
    sp = random_metric_space(rng, 6)
    rep = amenability_defect(sp, list(range(6)), 0.5, samples=20, seed=5)
    assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)


def test_amenability_refuses_to_compare_nothing():
    sp = line_space([0.0, 1.0, 2.0])
    with pytest.raises(BadSubset, match=r"^subset has no nonbase point$"):
        amenability_defect(sp, [0], 1.0)
    with pytest.raises(BadParameter, match=r"^samples=0 must be positive$"):
        amenability_defect(sp, [0, 1], 1.0, samples=0)


def test_amenability_lower_bound_certified_small(rng):
    sp = random_metric_space(rng, 7)
    rep = amenability_defect(sp, [0, 1, 3, 5], 0.5, samples=40, seed=5)
    assert rep.certified
    assert rep.max_ratio >= 1.0 - 1e-9  # fewer representations on the subset


def per_sample_amenability(space, net, p, samples, seed):
    """Reference: ``amenability_defect`` one sample at a time, each side
    normed by its own ``norm_value`` call, as (max ratio, mean ratio,
    certified)."""
    order = [space.base] + [i for i in net if i != space.base]
    sub = space.take(order, 0)
    rng = np.random.default_rng(seed)
    ratios, certified = [], True
    for _ in range(samples):
        size = int(rng.integers(1, sub.n))
        chosen = rng.choice(list(range(1, sub.n)), size=size, replace=False)
        coef = rng.standard_normal(size)
        vec_sub = np.zeros(sub.n)
        vec_sub[chosen] = coef
        vec_sub[0] = -coef.sum()
        num, exact_n = norm_value(sub, vec_sub, p)
        vec_amb = np.zeros(space.n)
        for li, c in zip(chosen, coef):
            vec_amb[order[li]] = c
        vec_amb[space.base] -= vec_amb.sum()
        den, exact_d = norm_value(space, vec_amb, p)
        certified = certified and exact_n and exact_d
        if den > 0:
            ratios.append(num / den)
    return float(max(ratios)), float(np.mean(ratios)), certified


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("seed", [0, 3])
def test_amenability_matches_per_sample_norms(p, seed):
    """Bit for bit the per-sample reference, on the amenability suite's
    every other point of an 8-point ball, within the exact limit, and of a
    20-point ball, where both sides norm on the support."""
    for n in (8, 20):
        space = random_ball(d=2, n=n, seed=seed)
        net = list(range(0, n, 2))
        rep = amenability_defect(space, net, p, samples=60, seed=seed)
        assert (rep.max_ratio, rep.mean_ratio, rep.certified) == \
            per_sample_amenability(space, net, p, 60, seed)


def test_amenability_ratio_agrees_with_direct_oracle(rng):
    sp = random_metric_space(rng, 6)
    net = [0, 1, 2, 3]
    sub = sp.take(net, 0)
    m_sub = Molecule.balanced({1: 1.0, 3: -0.7}, 0)
    num = free_norm_exact_small(sub, m_sub, 0.5).value
    m_amb = Molecule.balanced({1: 1.0, 3: -0.7}, 0)
    den = free_norm_exact_small(sp, m_amb, 0.5).value
    assert num >= den * (1 - 1e-9)


def _coeff_cases(rng, n, m):
    """Assignments with repeated rows, rows differing only in the base
    column (their differences balance to zero), and all rows equal."""
    distinct = rng.standard_normal((4, m))
    repeated = distinct[rng.integers(0, 4, size=n)]
    base_only = repeated.copy()
    base_only[rng.integers(0, n, size=n // 2), 0] += 1.0
    equal = np.tile(distinct[0], (n, 1))
    return repeated, base_only, equal


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("m", [6, 10])
def test_measure_assignment_matches_every_pair(rng, monkeypatch, p, m):
    sp = random_metric_space(rng, 16)
    sub = sp.take([sp.base] + sorted(rng.choice(
        np.arange(1, sp.n), size=m - 1, replace=False).tolist()), 0)
    for coeffs in _coeff_cases(rng, sp.n, m):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return norm_value(*args, **kwargs)
        monkeypatch.setattr(extension, "norm_value", counted)
        monkeypatch.setattr(freenorm, "norm_value", counted)
        got = measure_lipschitz(sp, [(sub, coeffs)], p, LIMIT)
        monkeypatch.undo()
        assert got == _measure_every_pair(sp, [(sub, coeffs)], p, LIMIT)
        assert calls == []  # every norm comes from the batched kernel


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_point_removal_and_extension_match_every_pair(rng, p):
    for _ in range(5):
        sp = random_metric_space(rng, int(rng.integers(3, 10)))
        x0 = int(rng.integers(1, sp.n))
        rep = point_removal_map(sp, x0, p)
        # the point-removal map over the free space based at the new base,
        # laid out by hand, and random rows over the same target
        keep = [rep.new_base] + [i for i in range(sp.n)
                                 if i not in (x0, rep.new_base)]
        sub = sp.take(keep, 0)
        delta = np.zeros((sp.n, sub.n))
        delta[keep, np.arange(sub.n)] = 1.0
        for coeffs in (delta, rng.standard_normal((sp.n, sub.n))):
            got = measure_lipschitz(sp, [(sub, coeffs)], p, LIMIT)
            assert got == _measure_every_pair(sp, [(sub, coeffs)], p, LIMIT)
        lip, pair, _ = measure_lipschitz(sp, [(sub, delta)], p, LIMIT)
        # delta is an isometry: norms agree with distances up to rounding
        assert lip == pytest.approx(rep.measured_lip, rel=1e-14, abs=0.0)
        assert pair == rep.witness_pair
    grid = grid_zd(d=2, lo=0, hi=4)
    # the sup-norm ball's extension rows balance at the base to within
    # rounding: at p = 0.25 a star bound that read the base's mass summed
    # other than row by row would fall below its norm, and the pruned scan
    # would drop the maximizing pair
    ball = random_ball(d=2, n=66, seed=43, norm="sup")
    for sp, net in (
            (grid, sorted({i for i in range(grid.n) if grid.coords[i][0] <= 1}
                          | {grid.base})),
            (ball, [0, 2, 3, 18, 25, 30, 37, 40])):
        ext = doubling_extension_map(sp, net, p)
        assert (ext.measured_lip, ext.witness_pair, ext.measured_exact) == \
            _measure_every_pair(sp, [(ext.net_subspace, ext.coeffs)], p, LIMIT)


def test_point_removal_measures_distances(rng, monkeypatch):
    def no_norms(*args, **kwargs):
        raise AssertionError("point removal made a norm call")
    for attr in ("norm_rows", "norm_value", "_tree_dp", "_transport"):
        monkeypatch.setattr(freenorm, attr, no_norms)
    monkeypatch.setattr(extension, "measure_lipschitz", no_norms)
    for _ in range(10):
        sp = random_metric_space(rng, int(rng.integers(3, 9)))
        x0 = int(rng.integers(1, sp.n))
        reps = [point_removal_map(sp, x0, p) for p in (1.0, 0.5, 0.25)]
        img = np.arange(sp.n)
        img[x0] = reps[0].new_base  # x0 goes to zero, the new base's delta
        want = freenorm._scan_pairs(
            sp, lambda xs, ys: sp.dist[img[xs], img[ys]])
        for rep in reps:
            assert (rep.measured_lip, rep.witness_pair) == want
            assert rep.measured_lip > 0.0


def _reference_patches(space, system):
    """Reference: the patch V_i of each index (scale n, net point y) as a
    mask over the complement, rebuilt point by point: the points within
    2^n / 2 of the cell of y, the shell-n points whose first nearest point
    of the 2^n-net is y."""
    comp = system.complement
    nets = {}
    masks = []
    for scale, y in system.indices:
        radius = 2.0 ** scale
        if scale not in nets:
            nets[scale] = maximal_separated_net(space, system.net, radius)
        cell = [x for x, dx in zip(comp, system.dist_to_net)
                if radius <= dx < 2 * radius
                and min(nets[scale], key=lambda z: space.dist[x, z]) == y]
        masks.append([min(space.dist[x, c] for c in cell) < radius / 2
                      for x in comp])
    return np.array(masks, dtype=bool)


def _reference_phi(space, system):
    """Reference: phi_i = d(., X minus V_i) on every complement row, then
    zeroed off V_i, with V_i the reference patch."""
    comp = system.complement
    patches = _reference_patches(space, system)
    phi = np.zeros((len(system.indices), len(comp)))
    for ii in range(len(system.indices)):
        outside = np.ones(space.n, dtype=bool)
        for c in np.nonzero(patches[ii])[0]:
            outside[comp[c]] = False
        phi[ii] = space.dist[np.ix_(comp, np.nonzero(outside)[0])].min(axis=1)
        phi[ii][~patches[ii]] = 0.0
    return phi


def _reference_weight_variation(system, p):
    """Reference: one row x at a time, every index's term summed."""
    comp = system.complement
    if len(comp) < 2:
        return extension.CrucialReport(None, 0.0)
    psi = system.psi
    d_net = system.dist_to_net
    K = system.overlap_bound
    dist = system.space.dist
    worst, wpair = 0.0, None
    m = len(comp)
    for a in range(m - 1):
        diff = np.abs(psi[:, a][:, None] - psi[:, a + 1:]) ** p
        lhs = diff.sum(axis=0)
        A = np.maximum(d_net[a], d_net[a + 1:])
        d = np.array([dist[comp[a], comp[b]] for b in range(a + 1, m)])
        rhs = 2.0 * 8.0 ** p * K * (d / A) ** p
        ratio = lhs / rhs
        j = int(np.argmax(ratio))
        if ratio[j] > worst:
            worst, wpair = float(ratio[j]), (comp[a], comp[a + 1 + j])
    return extension.CrucialReport(wpair, worst)


def _reference_coeffs(space, system):
    """Reference: one coefficient add per (complement point, index), laid
    out by the subset-map builder."""
    net = list(system.net)
    coeffs = np.zeros((space.n, len(net)))
    for ci, x in enumerate(system.complement):
        for ii, (_, y) in enumerate(system.indices):
            w = system.psi[ii, ci]
            if w != 0.0:
                coeffs[x, net.index(y)] += w
    return extension._subset_map(space, net, coeffs, 1.0, math.nan, LIMIT,
                                 False).coeffs


def _cloud_subset(n, k, seed):
    """A random-ball cloud and a k-point subset holding the base."""
    rng = np.random.default_rng(seed)
    subset = [0] + sorted((1 + rng.choice(n - 1, k - 1, replace=False)).tolist())
    return random_ball(d=2, n=n, seed=seed), subset


@pytest.fixture(scope="module", params=[(300, 30, 1), (120, 12, 4)],
                ids=["cloud300", "cloud120"])
def cloud_system(request):
    space, subset = _cloud_subset(*request.param)
    return space, whitney_cover(space, subset)


def test_whitney_weights_match_reference(cloud_system):
    space, system = cloud_system
    phi = _reference_phi(space, system)
    phi_total = phi.sum(axis=0)
    assert np.array_equal(system.phi, phi)
    assert np.array_equal(system.psi, phi / phi_total[None, :])
    checks = extension._h_checks(
        space, list(system.complement), list(system.indices), phi,
        system.dist_to_net, system.overlap_bound)
    assert system.checks == checks  # ratios and witnesses, bit for bit


def _reference_h3(space, system, phi):
    """Reference: the largest |phi_i(x) - phi_i(y)| / d(x, y) over every
    index and every pair x != y, named at the first index and then the
    first pair in row-major order where it is reached."""
    comp = list(system.complement)
    dcomp = space.dist[np.ix_(comp, comp)]
    off_diag = ~np.eye(len(comp), dtype=bool)
    worst, pair = 0.0, None
    for row in phi:
        ratio = np.zeros_like(dcomp)
        ratio[off_diag] = (np.abs(row[:, None] - row[None, :])[off_diag]
                           / dcomp[off_diag])
        a, b = divmod(int(np.argmax(ratio)), len(comp))
        if ratio[a, b] > worst:
            worst, pair = float(ratio[a, b]), (comp[a], comp[b])
    return worst, pair


@pytest.mark.parametrize("scale", [0.5, 1.0, 40.0])
def test_h3_scan_matches_full_reference(cloud_system, scale):
    """The support-restricted H3 scan finds the full scan's largest ratio
    and its first worst pair.  phi_i = d(., X - V_i) is attained at
    complement points off V_i, so the ratio is exactly 1 at scale 1 and
    exactly 1/2 at scale 1/2; at scale 40 the weights are too steep to
    pass."""
    space, system = cloud_system
    phi = system.phi * scale
    h3 = extension._h_checks(
        space, list(system.complement), list(system.indices), phi,
        system.dist_to_net, system.overlap_bound)[1]
    assert (h3.name, h3.bound) == ("H3_lipschitz_support", 1.0)
    assert (h3.measured, h3.witness) == _reference_h3(space, system, phi)
    assert passes(h3.measured, h3.bound, None) == (scale < 40)
    if scale < 40:
        assert h3.measured == scale


def test_h3_witness_is_the_first_worst_pair():
    """The H3 witness is the first worst pair in row-major order over all
    pairs, here one whose first point is off the worst phi's support."""
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    phi = np.array([[0.0, 5.0, 0.0], [0.5, 0.0, 0.5]])
    h3 = extension._h_checks(sp, [0, 1, 2], [(0, 3), (0, 3)], phi,
                             np.array([3.0, 2.0, 1.0]), 3.0)[1]
    assert (h3.measured, h3.witness) == (5.0, (0, 1))
    assert not passes(h3.measured, h3.bound, None)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
def test_weight_variation_and_coeffs_match_reference(cloud_system, p):
    space, system = cloud_system
    assert weight_variation_check(system, p) == \
        _reference_weight_variation(system, p)
    ext = doubling_extension_map(space, list(system.net), p, system=system,
                                 measure=False)
    assert np.array_equal(ext.coeffs, _reference_coeffs(space, system))


def _loop_phi(space, net):
    """Reference: the per-cell loop, one cell at a time, each with its own
    column minimum over its members and its own minimum over the points
    off its patch; returns (indices, phi)."""
    comp = [i for i in range(space.n) if i not in set(net)]
    comp_idx = np.array(comp, dtype=int)
    d_net = space.dist[np.ix_(comp, net)].min(axis=1)
    indices, phi = [], []
    for scale in range(int(math.floor(math.log2(d_net.min()))),
                       int(math.floor(math.log2(d_net.max()))) + 1):
        radius = 2.0 ** scale
        shell = np.nonzero((d_net >= radius) & (d_net < 2 * radius))[0]
        if shell.size == 0:
            continue
        net_pts = maximal_separated_net(space, net, radius)
        dmat = space.dist[np.ix_(comp_idx[shell], net_pts)]
        nearest = np.argmin(dmat, axis=1)
        for yi, y in enumerate(net_pts):
            members = shell[nearest == yi]
            if members.size == 0:
                continue
            dcell = space.dist[np.ix_(comp_idx, comp_idx[members])].min(axis=1)
            v = dcell < radius / 2.0
            rows = comp_idx[v]
            outside = np.ones(space.n, dtype=bool)
            outside[rows] = False
            phi_i = np.zeros(len(comp))
            phi_i[v] = space.dist[np.ix_(rows, np.flatnonzero(outside))].min(1)
            indices.append((scale, int(y)))
            phi.append(phi_i)
    return tuple(indices), np.array(phi)


def _loop_weight_variation(system, p):
    """Reference: all rows x < m - 1 in one block; index i adds its terms
    on the columns of its support and, on its support's rows, on the
    columns off it."""
    comp = np.array(system.complement, dtype=int)
    m = len(comp)
    psi = system.psi
    psi_p = psi ** p
    held = [(np.flatnonzero(row), np.flatnonzero(row == 0)) for row in psi]
    d_net = system.dist_to_net
    rhs = system.space.dist[np.ix_(comp[:m - 1], comp)]
    rhs /= np.maximum(d_net[:m - 1, None], d_net)
    rhs **= p
    rhs *= 2.0 * 8.0 ** p * system.overlap_bound
    rhs[np.arange(m) <= np.arange(m - 1)[:, None]] = np.inf
    lhs = np.zeros((m - 1, m))
    for row, row_p, (on, off) in zip(psi, psi_p, held):
        lhs[:, on] += np.abs(row[:m - 1, None] - row[on]) ** p
        x = on[on < m - 1]
        lhs[np.ix_(x, off)] += row_p[x, None]
    lhs[-1, -1] = (np.abs(psi[:, -2] - psi[:, -1]) ** p).sum()
    lhs /= rhs
    a, b = divmod(int(np.argmax(lhs)), m)
    if lhs[a, b] > 0.0:
        return extension.CrucialReport((int(comp[a]), int(comp[b])),
                                       float(lhs[a, b]))
    return extension.CrucialReport(None, 0.0)


@pytest.mark.parametrize("block", [None, 1000], ids=["one_block", "blocks"])
def test_whitney_passes_match_the_per_cell_loops(cloud_system, monkeypatch,
                                                 block):
    """phi, psi, the H-checks and the weight variation at p = 1, 0.5 and
    0.25 are bit for bit those of the per-cell and per-column loops, also
    when the patch rows and the weight rows run in blocks of 3 rows."""
    space, system = cloud_system
    if block is not None:
        monkeypatch.setattr(extension, "_BLOCK", block)
    got = whitney_cover(space, list(system.net))
    indices, phi = _loop_phi(space, list(system.net))
    assert got.indices == indices
    assert got.phi.tobytes() == phi.tobytes()
    assert got.psi.tobytes() == (phi / phi.sum(axis=0)[None, :]).tobytes()
    assert got.checks == extension._h_checks(
        space, list(got.complement), list(indices), phi, got.dist_to_net,
        got.overlap_bound)
    for p in (1.0, 0.5, 0.25):
        assert weight_variation_check(got, p) == \
            _loop_weight_variation(got, p), p


def test_weight_variation_last_pair_sum():
    # numpy sums the reference's single last column pairwise; these terms
    # give a different value summed in index order
    terms = np.zeros(16)
    terms[[0, 1, 8]] = 1e-16, 1.0, 1e-16
    assert terms.sum() != (terms[0] + terms[1]) + terms[8]
    system = SimpleNamespace(
        complement=(1, 2), psi=np.column_stack([terms, np.zeros(16)]),
        dist_to_net=np.ones(2), overlap_bound=1 / 16,
        space=SimpleNamespace(dist=1.0 - np.eye(3)))
    rep = weight_variation_check(system, 1.0)
    assert rep == _reference_weight_variation(system, 1.0)
    assert rep.max_ratio == terms.sum()
