import math

import numpy as np
import pytest

from lipfree import (
    BadFamily,
    BadParameter,
    CoverageGap,
    IntervalSpec,
    NotSigmaClosed,
    SupportMismatch,
    annulus_family,
    build_hat_partition,
    build_space,
    commuting_approximants,
    line_space,
    norm_bound_T,
    operator_P,
    operator_T,
    radial_clamp_builder,
    separated_family_bound,
    two_band_cores,
    verify_etp_identity,
    verify_pst_identity,
    verify_separated_inverse,
)
from lipfree import decomposition, freenorm
from lipfree.decomposition import _max_open_overlap, measure_map_into_sum
from lipfree.freenorm import measure_lipschitz, norm_value
from lipfree.generators import annulus_rays
from lipfree.geometry import outward_amenability_map, radial_retraction
from lipfree.metric import maximal_separated_net


def test_single_interval_partition_is_one():
    ws = build_hat_partition([(-2.0, 12.0)], r=1.0, k=1, window=(0.0, 10.0))
    grid = ws.refined_grid()
    vals = ws.psi_values(grid)
    assert np.abs(vals - 1.0).max() <= 1e-12


def test_two_trapezoids_split_evenly_at_three():
    ws = build_hat_partition([(0.0, 4.0), (2.0, 6.0)], r=1.0, k=2,
                             window=(1.0, 5.0))
    vals = ws.psi_values(np.array([3.0]))
    assert vals[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert vals[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_partition_sums_to_one_and_lipschitz_bound(rng):
    # random touching plateaus with enough slack to cover the window
    lows = np.cumsum(rng.uniform(1.0, 2.0, size=8))
    r = 0.4
    intervals = [(lo - r, hi + r) for lo, hi in zip(lows, lows[1:])]
    window = (float(lows[0]), float(lows[-1]))
    ws = build_hat_partition(intervals, r=r, k=3, window=window)
    grid = ws.refined_grid()
    vals = ws.psi_values(grid)
    assert np.abs(vals.sum(axis=0) - 1.0).max() <= 1e-12
    assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
    assert ws.measured_lipschitz() <= ws.lipschitz_bound() + 1e-9


def test_support_is_exactly_the_open_interval():
    ws = build_hat_partition([(0.0, 4.0), (2.0, 6.0)], r=1.0, k=2,
                             window=(1.0, 5.0))
    phi = ws.phis[0]
    assert phi(0.0) == 0.0         # endpoints carry no mass
    assert phi(1e-9) > 0.0         # interior
    assert phi(3.9999) > 0.0
    assert phi(4.0) == 0.0
    assert phi(4.5) == 0.0
    # normalized weights inherit the support inside the window
    vals = ws.psi_values(np.array([2.0 + 1e-9, 4.0, 4.5]))
    assert vals[1, 0] > 0.0
    assert vals[0, 1] == 0.0
    assert vals[0, 2] == 0.0


def test_coverage_gap_reported_with_witness():
    with pytest.raises(CoverageGap) as err:
        build_hat_partition([(0.0, 2.0), (5.0, 7.0)], r=0.5, k=1,
                            window=(1.0, 6.0))
    assert err.value.witness is not None
    assert 1.0 <= err.value.witness <= 6.0


def test_overlap_precondition_enforced():
    with pytest.raises(BadFamily):
        build_hat_partition([(0.0, 4.0), (1.0, 5.0), (2.0, 6.0)], r=1.0, k=2,
                            window=(2.0, 4.0))


INF = math.inf


@pytest.mark.parametrize("supports, overlap", [
    ([(0, 1), (1, 2)], 1),               # touching open intervals
    ([(0, 2)] * 3, 3),
    ([(0, 3), (1, 2)], 2),               # nested
    ([(-INF, 0), (-1, INF)], 2),
    ([(-INF, INF)], 1),
    ([(-INF, 1), (1, INF)], 1),
    ([(0, 1), (0.5, 1.5), (1, 2)], 2),   # one closes where another opens
])
def test_max_open_overlap_edge_cases(supports, overlap):
    assert _max_open_overlap(supports) == overlap


def test_norm_bound_examples():
    e = math.e
    assert norm_bound_T(1, 1, e, 1.0, 1.0) == pytest.approx(2 * (1 + e), rel=1e-12)
    want = 4 * (1 / e + e / (e - 1))
    assert norm_bound_T(1, 2, e, 1 / e, 1.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(BadParameter):
        norm_bound_T(1, 1, 0.5, 1.0, 1.0)
    with pytest.raises(BadParameter):
        norm_bound_T(2, 1, 2.0, 1.0, 1.0)


def test_norm_bound_decreasing_in_R_for_hat_weights():
    # the hat-weight regime ties K1 = 1/R; there the bound decays toward
    # its large-R limit (2k)^{1/p}
    for p in (1.0, 0.5):
        vals = [norm_bound_T(p, 2, R, 1.0 / R, 1.0)
                for R in (1.5, 2.0, 4.0, 8.0, 32.0, 128.0)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-12)
        assert vals[-1] >= (2 * 2) ** (1 / p)


def test_separated_bound_examples():
    assert separated_family_bound(3.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert separated_family_bound(4.0, 0.5) == pytest.approx(9.0, rel=1e-12)
    assert abs(separated_family_bound(1e6, 1.0) - 1.0) <= 1e-5
    with pytest.raises(BadParameter):
        separated_family_bound(1.0, 1.0)
    # K > 1, but K^p rounds to 1
    with pytest.raises(BadParameter):
        separated_family_bound(1.0 + 2.0 ** -52, 0.5)


def test_operator_p_is_inclusion():
    sp = line_space([0.0, 1.0, 2.0, 4.0])
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.5, 8.0)])
    P = operator_P(fam)
    assert P.matrix.shape == (3, 3)
    assert np.array_equal(P.matrix, np.eye(3))
    # columns are the deltas of the global points
    assert P.col_labels == ((0, 1), (0, 2), (0, 3))


def test_operator_t_single_active_weight():
    sp = line_space([0.0, 1.0, 2.0, 4.0])
    ws = build_hat_partition([(-2.0, 4.0)], r=1.0, k=1, window=(0.0, 2.0))
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.25, 16.0)])
    T = operator_T(fam, ws.psi_values)
    assert np.array_equal(T.matrix, np.eye(3))


def test_operator_t_support_mismatch():
    sp = line_space([0.0, 1.0, 2.0, 4.0])
    ws = build_hat_partition([(-2.0, 3.0)], r=0.5, k=1, window=(0.0, 2.0))
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.25, 2.0)])
    with pytest.raises(SupportMismatch,
                       match=r"^weight 0 is \S+ at point 3 outside its annulus$"):
        operator_T(fam, ws.psi_values)


def test_block_operators_place_their_entries(rng):
    sp = line_space([0.0, 1.0, 2.0, 4.0, 8.0])
    fine = annulus_family(sp, 2.0, [IntervalSpec(0.5, 2.0),
                                    IntervalSpec(2.0, 8.0)])
    coarse = annulus_family(sp, 2.0, [IntervalSpec(0.5, 4.0),
                                      IntervalSpec(1.0, 8.0)])
    S = decomposition.operator_block_inclusion(fine, coarse)
    assert S.row_labels == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4))
    assert S.col_labels == ((0, 1), (0, 2), (1, 3), (1, 4))
    assert np.array_equal(S.matrix, [[float(r == c) for c in S.col_labels]
                                     for r in S.row_labels])
    blocks = [rng.standard_normal((len(c.members), len(f.members)))
              for f, c in zip(fine.parts, coarse.parts)]
    blocks[0][0, 0], blocks[1][2, 1] = -0.0, 0.0
    E = decomposition.operator_block_diagonal(blocks, fine, coarse)
    want = np.zeros(E.matrix.shape)
    for i, (kr, gi) in enumerate(E.row_labels):
        for j, (kc, gj) in enumerate(E.col_labels):
            if kr == kc:
                want[i, j] = blocks[kr][coarse.parts[kr].members.index(gi),
                                        fine.parts[kc].members.index(gj)]
    assert np.array_equal(E.matrix, want)
    assert not np.signbit(E.matrix[E.matrix == 0]).any()  # -0.0 not placed
    with pytest.raises(BadFamily, match=r"^fine part member \(0, 3\) missing "
                                        r"from coarse family$"):
        decomposition.operator_block_inclusion(coarse, fine)


def test_pst_identity_on_line():
    sp = line_space([0.0, 0.3, 1.0, 2.0, 5.0, 9.0])
    cores = [(n + 0.5, n + 1.5) for n in range(-4, 5)]
    rep = verify_pst_identity(sp, cores, r=0.5, R=2.0, p=1.0)
    assert rep.residual <= 1e-10
    assert rep.weight_sum_error <= 1e-12
    assert rep.measured_T <= rep.bound_T * (1 + 1e-9)


def test_pst_identity_preset_unit_annuli_intervals():
    # outer intervals [n, n+2]: cores [n+1/2, n+3/2] with margin 1/2
    sp = line_space([0.0, 0.4, 1.0, 3.0, 8.0, 17.0])
    cores = [(n + 0.5, n + 1.5) for n in range(-4, 6)]
    outer = [IntervalSpec(float(n), float(n + 2), True, True)
             for n in range(-4, 6)]
    for p in (1.0, 0.5):
        rep = verify_pst_identity(sp, cores, r=0.5, R=2.0, p=p,
                                  outer_intervals=outer)
        assert rep.residual <= 1e-10
        assert rep.measured_T <= rep.bound_T * (1 + 1e-9)


def test_pst_single_covering_interval_trivial():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    rep = verify_pst_identity(sp, [(-3.0, 3.0)], r=0.5, R=2.0, p=1.0)
    assert rep.residual <= 1e-12


def test_annulus_family_keeps_closed_endpoints_at_sample_radii():
    # membership is tested on the radii themselves: 2 ** log2(5) is not 5,
    # so a log-scale interval could drop a point sitting on its endpoint
    sp = line_space([0.0, 3.0, 5.0])
    fam = annulus_family(sp, 2.0, [IntervalSpec(3.0, 3.0, True, True),
                                   IntervalSpec(3.0, 5.0, True, True),
                                   IntervalSpec(3.0, 5.0, False, True)])
    assert [part.members for part in fam.parts] == [(1,), (1, 2), (2,)]
    assert fam.parts[0].subspace.points == (0.0, 3.0)


def test_separated_inverse_single_annulus():
    sp = line_space([0.0, 1.0, 1.5, 2.0])
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.5, 2.5, True, True)])
    rep = verify_separated_inverse(fam, 1.0, samples=30, seed=0)
    assert rep.max_ratio <= 1.0 + 1e-9
    assert rep.bound == 1.0
    # no sample would give max_ratio 0, certified: a record that cannot fail
    for samples in (0, -1):
        with pytest.raises(BadParameter, match=r"^samples=-?\d must be positive$"):
            verify_separated_inverse(fam, 1.0, samples=samples)


def test_separated_inverse_geometric_family():
    # A_n = (c K^{2n}, c K^{2n+1}] with K = 3, c = 1: line instance
    K, c = 3.0, 1.0
    radii = []
    for n in range(3):
        lo, hi = c * K ** (2 * n), c * K ** (2 * n + 1)
        radii.extend([lo * 1.2, hi])
    sp = line_space([0.0] + radii)
    ivs = [IntervalSpec(c * K ** (2 * n), c * K ** (2 * n + 1))
           for n in range(3)]
    fam = annulus_family(sp, 2.0, ivs)
    for p in (1.0, 0.5):
        rep = verify_separated_inverse(fam, p, samples=100, seed=1)
        assert rep.gap == pytest.approx(K, rel=1e-12)
        assert rep.max_ratio <= rep.bound * (1 + 1e-9)
        if p == 1.0:
            assert rep.max_ratio <= 2.0 * (1 + 1e-9)
            assert rep.certified


def test_separated_inverse_rejects_gapless_family():
    sp = line_space([0.0, 1.0, 2.0, 4.0])
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.5, 2.0, True, True),
                                   IntervalSpec(2.0, 5.0, False, True)])
    with pytest.raises(BadFamily):
        verify_separated_inverse(fam, 1.0, samples=5, seed=0)


def test_separated_inverse_requires_partition():
    sp = line_space([0.0, 1.0, 2.0, 40.0])
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.5, 2.5, True, True)])
    with pytest.raises(BadFamily):
        verify_separated_inverse(fam, 1.0, samples=5, seed=0)


def _etp_fixture(rays=2):
    radii = [2.0 ** j for j in (-1, 0, 1, 1.5, 3, 4, 5, 5.5, 7, 8, 9)]
    return annulus_rays(rays=rays, radii=radii, include_origin=True)


def test_etp_identity_with_radial_extensions():
    # inner endpoints sit strictly between sample radii so float wobble in
    # off-axis ray norms cannot flip annulus membership
    for rays in (2, 3):
        sp = _etp_fixture(rays)
        bumps = [(4 * n - 2.0, 4 * n + 2.0) for n in range(3)]
        inners = [IntervalSpec(4 * n - 1.1, 4 * n + 1.1, True, True)
                  for n in range(3)]
        for p in (1.0, 0.5):
            rep = verify_etp_identity(sp, bumps, inners, r=0.8, R=2.0, p=p)
            assert rep.residual <= 1e-10
            assert rep.measured_T <= rep.bound_T * (1 + 1e-9)


def test_etp_residual_sees_the_bump_height(monkeypatch):
    """Unit bumps lowered to height 0.9 leave E o T o P at 0.9 times the
    identity: the residual, not a separate grid check, catches a wrong
    bump."""
    bumps = decomposition.unit_bump_family
    monkeypatch.setattr(decomposition, "unit_bump_family",
                        lambda js, r: lambda us: 0.9 * bumps(js, r)(us))
    rep = verify_etp_identity(
        _etp_fixture(2), [(4 * n - 2.0, 4 * n + 2.0) for n in range(3)],
        [IntervalSpec(4 * n - 1.1, 4 * n + 1.1, True, True) for n in range(3)],
        r=0.8, R=2.0, p=1.0)
    assert rep.residual == pytest.approx(0.1, rel=1e-12)


def _clamp_lip_every_pair(part_j, part_i, block):
    """Reference: the point map read off the extension block, and its
    ratio max over every pair of the bump annulus in one double loop."""
    sub_j = part_j.subspace
    local = {g: li + 1 for li, g in enumerate(part_j.members)}
    gmap = [0] + [local[part_i.members[int(np.argmax(block[:, cj]))]]
                  for cj in range(len(part_j.members))]
    lip = 0.0
    for a in range(sub_j.n):
        for b in range(a + 1, sub_j.n):
            img = sub_j.dist[gmap[a], gmap[b]]
            lip = max(lip, img / sub_j.dist[a, b])
    return float(lip)


@pytest.mark.parametrize("rays", [2, 3, 5])
def test_radial_clamp_constant_matches_every_pair(rays):
    sp = _etp_fixture(rays)
    fam_j = annulus_family(sp, 2.0, [IntervalSpec(4 * n - 2.0, 4 * n + 2.0,
                                                  False, False).exp_base(2.0)
                                     for n in range(3)])
    fam_i = annulus_family(sp, 2.0, [IntervalSpec(4 * n - 1.1, 4 * n + 1.1,
                                                  True, True).exp_base(2.0)
                                     for n in range(3)])
    for part_j, part_i in zip(fam_j.parts, fam_i.parts):
        block, lip = radial_clamp_builder(part_j, part_i)
        assert block.sum(axis=0).tolist() == [1.0] * len(part_j.members)
        assert lip == _clamp_lip_every_pair(part_j, part_i, block)


def test_radial_clamp_snaps_only_onto_the_inner_part():
    # (0, 3) is pulled to (0, 2): y lies 2e-10 from it but just above the
    # inner annulus [1, 2], z lies 8e-10 from it inside; both are within the
    # snap tolerance 2e-9 of the target radius 2
    z, y = 2.0 * (1 - 4e-10), 2.0 * (1 + 1e-10)
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, y],
           [0.0, 3.0], [0.0, z]]
    for coords in (pts, pts[:-1]):
        sp = build_space(coords, "euclidean")
        part_j, = annulus_family(sp, 2.0, [IntervalSpec(0.5, 4.0)]).parts
        part_i, = annulus_family(
            sp, 2.0, [IntervalSpec(1.0, 2.0, True, True)]).parts
        assert 4 in part_j.members and 4 not in part_i.members
        if len(coords) == len(pts):
            block, _ = radial_clamp_builder(part_j, part_i)
            for g in (4, 5):
                col = block[:, part_j.members.index(g)]
                assert col.tolist() == [float(h == 6) for h in part_i.members]
        else:  # without z no inner point is in reach: y is never taken
            with pytest.raises(NotSigmaClosed):
                radial_clamp_builder(part_j, part_i)


def test_etp_single_interval_reduces_to_retraction_identity():
    sp = annulus_rays(rays=2, radii=(1.0, 2.0, 4.0, 8.0), include_origin=True)
    rep = verify_etp_identity(sp, [(-2.0, 5.0)],
                              [IntervalSpec(-1.1, 3.1, True, True)],
                              r=0.8, R=2.0, p=1.0)
    assert rep.residual <= 1e-12


def test_commuting_approximants_semigroup():
    # points at hat centers R^(R j), inside the central plateau, and beyond
    # the last hat: there the truncated weight sums are exactly 0 or 1
    R = 2.0
    us = [-6.0, -4.0, -2.0, -1.3, 0.7, 2.0, 4.0, 6.0, 14.0]
    sp = line_space([0.0] + [R ** u for u in us])
    mats, rep = commuting_approximants(sp, R=R, m_max=4, p=1.0)
    assert rep.max_semigroup_residual <= 1e-12
    assert max(rep.measured_norms) <= rep.bound * (1 + 1e-9)
    # min-semigroup by hand on a pair (matrices are indexed by m-1)
    prod = mats[3].compose(mats[1]).matrix
    assert np.abs(prod - mats[1].matrix).max() <= 1e-12


def test_commuting_approximants_eventual_identity():
    radii = [2.0 ** u for u in (-1.0, 0.5, 1.0)]
    sp = line_space([0.0] + radii)
    mats, rep = commuting_approximants(sp, R=2.0, m_max=3, p=0.5)
    m = rep.identity_from
    assert m is not None
    assert np.abs(mats[m - 1].matrix - np.eye(3)).max() <= 1e-12


def test_measured_constants_scale_invariant():
    sp = line_space([0.0, 0.3, 1.0, 2.0, 5.0, 9.0])
    cores = [(n + 0.5, n + 1.5) for n in range(-4, 5)]
    rep1 = verify_pst_identity(sp, cores, r=0.5, R=2.0, p=1.0)
    scaled = build_space(sp.coords * 4.0, "euclidean")
    cores2 = [(n + 0.5, n + 1.5) for n in range(-4, 8)]
    rep2 = verify_pst_identity(scaled, cores2, r=0.5, R=2.0, p=1.0)
    # rescaling by a power of R shifts annuli; measured constants agree
    assert rep2.measured_T == pytest.approx(rep1.measured_T, rel=1e-9)


def test_two_band_family_on_sphere():
    # the proof's split of the sphere: unbounded band below the half level
    # and everything away from the pole, in chordal log-radii from the pole
    from lipfree.generators import sphere_fibonacci

    v = sphere_fibonacci(d=2, n=60)
    pole = np.zeros((1, 3))
    pole[0, -1] = 1.0
    sp = build_space(np.vstack([pole, v]), "euclidean", base=0)
    cores, r, outer = two_band_cores(0.5)
    for p in (1.0, 0.5):
        rep = verify_pst_identity(sp, cores, r, R=2.0, p=p,
                                  outer_intervals=outer)
        assert rep.residual <= 1e-10
        assert rep.weight_sum_error <= 1e-12
        assert rep.measured_T <= rep.bound_T * (1 + 1e-9)


def test_operator_t_with_measured_constant():
    sp = line_space([0.0, 1.0, 2.0, 4.0])
    ws = build_hat_partition([(-2.0, 4.0)], r=1.0, k=1, window=(0.0, 2.0))
    fam = annulus_family(sp, 2.0, [IntervalSpec(0.25, 16.0)])
    mat = operator_T(fam, ws.psi_values)
    wmat = decomposition._point_weights(sp, fam.R, ws.psi_values)
    measured, _, _ = measure_map_into_sum(fam, wmat, 1.0)
    assert np.array_equal(mat.matrix, np.eye(3))
    assert measured == pytest.approx(1.0, rel=1e-9)
    assert measured <= norm_bound_T(1.0, 1, 2.0, 3.0, 1.0)


def test_point_weights_read_no_weight_at_the_base():
    """Base column 0; the other columns are ``psi_values`` at the nonbase
    log-radii bit for bit, wherever the base sits."""
    cores, r, _ = two_band_cores(0.5)
    ws = build_hat_partition([(a - r, b + r) for a, b in cores], r, k=2)
    sp = annulus_rays(rays=3, radii=(0.5, 1.0, 2.0, 4.0), include_origin=True)
    for space in (sp, build_space(sp.coords, base=4),
                  build_space(sp.coords, base=sp.n - 1)):
        w = decomposition._point_weights(space, 2.0, ws.psi_values)
        nonbase = [i for i in range(space.n) if i != space.base]
        us = np.log(space.radii()[nonbase]) / math.log(2.0)
        assert w.shape == (2, space.n)
        assert w[:, space.base].tolist() == [0.0, 0.0]
        assert np.array_equal(w[:, nonbase], ws.psi_values(us))


def _sum_map_every_pair(family, weight_matrix, p, exact_limit):
    """Reference: per pair, one norm per part with a nonzero difference,
    their p-th powers summed in part order; first maximum kept."""
    space = family.space
    local = [{g: li + 1 for li, g in enumerate(part.members)}
             for part in family.parts]
    best, best_pair, all_exact = 0.0, None, True
    for x in range(space.n):
        for y in range(x + 1, space.n):
            acc = 0.0
            for ni, part in enumerate(family.parts):
                wx = float(weight_matrix[ni, x]) if x != space.base else 0.0
                wy = float(weight_matrix[ni, y]) if y != space.base else 0.0
                lx, ly = local[ni].get(x), local[ni].get(y)
                vec = np.zeros(part.subspace.n)
                if wx != 0.0 and lx is not None:
                    vec[lx] += wx
                    vec[0] -= wx
                if wy != 0.0 and ly is not None:
                    vec[ly] -= wy
                    vec[0] += wy
                if np.abs(vec).max(initial=0.0) == 0.0:
                    continue
                v, exact = norm_value(part.subspace, vec, p,
                                      exact_limit=exact_limit)
                all_exact = all_exact and exact
                acc += v ** p
            ratio = acc ** (1 / p) / space.dist[x, y] if acc > 0 else 0.0
            if ratio > best * (1 + 1e-15):
                best, best_pair = ratio, (x, y)
    return best, best_pair, all_exact


def _diagonal_map_every_pair(space, diag_weights, p, exact_limit):
    """Reference: one norm per pair x < y of w(x) delta(x) - w(y) delta(y)."""
    best, best_pair, all_exact = 0.0, None, True
    for x in range(space.n):
        wx = float(diag_weights[x]) if x != space.base else 0.0
        for y in range(x + 1, space.n):
            wy = float(diag_weights[y]) if y != space.base else 0.0
            if wx == 0.0 and wy == 0.0:
                continue
            vec = np.zeros(space.n)
            vec[x] += wx
            vec[y] -= wy
            vec[space.base] -= wx - wy
            v, exact = norm_value(space, vec, p, exact_limit=exact_limit)
            all_exact = all_exact and exact
            ratio = v / space.dist[x, y]
            if ratio > best * (1 + 1e-15):
                best, best_pair = ratio, (x, y)
    return best, best_pair, all_exact


def _repeating_weights(rng, shape):
    """Weights drawn from a few shared values (equal weights give a zero
    base coefficient) mixed with zeros and random ones."""
    w = rng.choice([0.0, 0.25, 0.5, 1.0, 1.0], size=shape)
    fresh = rng.random(shape) < 0.3
    w[fresh] = rng.random(int(fresh.sum()))
    return w


@pytest.mark.parametrize("p", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("exact_limit", [2, 8])
def test_sum_and_diagonal_maps_match_every_pair(rng, monkeypatch, p,
                                                exact_limit):
    """Bitwise the per-pair loops, on overlapping annuli, a hat partition
    and repeated weights; exact limit 2 sends 3-point supports to the upper
    bound.  No per-vector ``norm_value`` call is made."""
    sp = annulus_rays(rays=3, radii=(0.5, 1.0, 2.0, 4.0), include_origin=True)
    intervals = [IntervalSpec(2.0 ** n, 2.0 ** (n + 2), True, True)
                 for n in range(-3, 3)]
    fam = annulus_family(sp, 2.0, intervals)
    us = np.log2(np.where(sp.radii() > 0, sp.radii(), 1.0))
    hats = build_hat_partition([(n - 0.5, n + 1.5) for n in range(-3, 3)],
                               r=0.5, k=2, window=(-1.0, 2.0)).psi_values(us)
    moved = build_space(sp.coords, base=4)
    for wmat in (hats, _repeating_weights(rng, hats.shape)):
        monkeypatch.setattr(decomposition, "norm_value", None)
        got = measure_map_into_sum(fam, wmat, p, exact_limit=exact_limit)
        monkeypatch.undo()
        assert got == _sum_map_every_pair(fam, wmat, p, exact_limit)
    for space in (sp, moved):
        w = _repeating_weights(rng, space.n)
        rows = np.diag(np.where(np.arange(space.n) == space.base, 0.0, w))
        monkeypatch.setattr(freenorm, "norm_value", None)
        got = measure_lipschitz(space, [(space, rows)], p, exact_limit)
        monkeypatch.undo()
        assert got == _diagonal_map_every_pair(space, w, p, exact_limit)


def _dense_semigroup_facts(mats):
    """The residual and first identity index read from the dense matrix
    products, as the report gave them before it read the weight rows."""
    resid = 0.0
    for a in range(len(mats)):
        for b in range(len(mats)):
            prod = mats[a].compose(mats[b]).matrix
            resid = max(resid, float(np.abs(prod - mats[min(a, b)].matrix).max()))
    ones = [m for m, mat in enumerate(mats, start=1)
            if np.abs(np.diag(mat.matrix) - 1.0).max() <= 1e-12]
    return resid, ones[0] if ones else None


def test_commuting_approximants_read_the_dense_products_from_weight_rows():
    """The residual and identity index from the weight rows have the bits
    of the dense products: on the commuting-bap suite's fixtures at R = 2
    and 8, where the residual is 0, and on radii off the hat centres,
    where it is not."""
    for R in (2.0, 8.0):
        jmin = max(-5, int(math.ceil(math.log(1e-9) / (R * math.log(R)))))
        us = [R * j for j in range(jmin, 6)] + [R / 3.0]
        sp = annulus_rays(rays=1, include_origin=True,
                          radii=tuple(R ** u for u in us))
        mats, rep = commuting_approximants(sp, R=R, m_max=5, p=1.0)
        assert (rep.max_semigroup_residual, rep.identity_from) == (
            _dense_semigroup_facts(mats))
        assert rep.identity_from == 5
    sp = line_space([0.0] + [2.0 ** u for u in (-3.7, -1.3, 0.4, 2.9, 5.5)])
    mats, rep = commuting_approximants(sp, R=2.0, m_max=4, p=1.0)
    resid, identity_from = _dense_semigroup_facts(mats)
    assert rep.max_semigroup_residual == resid > 0.1
    assert rep.identity_from == identity_from


@pytest.mark.parametrize("m_max", [0, -3])
def test_commuting_approximants_refuse_m_max_below_one(m_max):
    with pytest.raises(BadParameter, match=f"m_max={m_max} must be at least 1"):
        commuting_approximants(line_space([0.0, 1.0, 2.0]), R=2.0,
                               m_max=m_max, p=1.0)


_NAN = float("nan")
_RAYS = annulus_rays(rays=3, radii=[1.0, 2.0, 4.0], include_origin=True)


@pytest.mark.parametrize("call", [
    lambda: radial_retraction(_RAYS, _NAN),
    lambda: outward_amenability_map(_RAYS, _NAN, 1.0),
    lambda: build_hat_partition([(-2.0, 12.0)], r=_NAN, k=1),
    lambda: build_hat_partition([(-2.0, 12.0)], r=1.0, k=_NAN),
    lambda: maximal_separated_net(_RAYS, range(_RAYS.n), _NAN),
    lambda: annulus_family(_RAYS, _NAN, [IntervalSpec(0.5, 5.0, True, True)]),
    lambda: commuting_approximants(_RAYS, _NAN, m_max=2, p=1.0),
    lambda: norm_bound_T(1.0, _NAN, 2.0, 1.0, 1.0),
    lambda: norm_bound_T(1.0, 2, _NAN, 1.0, 1.0),
    lambda: norm_bound_T(1.0, 2, 2.0, _NAN, 1.0),
    lambda: norm_bound_T(1.0, 2, 2.0, 1.0, _NAN),
    lambda: IntervalSpec(0.0, 1.0, True, True).exp_base(_NAN),
    lambda: two_band_cores(_NAN),
    lambda: annulus_rays(rays=3, radii=[1.0, _NAN]),
], ids=["retraction_S", "outward_S", "hat_r", "hat_k", "net_r", "family_R",
        "approximants_R", "bound_T_k", "bound_T_R", "bound_T_K1",
        "bound_T_K2", "exp_base_R", "two_band_c3", "rays_radii"])
def test_nan_fails_the_positivity_guards(call):
    """A NaN radius, margin, scale or constant is refused by the guard
    that refuses a value that is not positive, not run on or caught later
    by another check."""
    with pytest.raises(BadParameter, match="must be positive|must exceed 1"
                                           "|must be >= 1|requires R > 1"):
        call()
