import math

import numpy as np
import pytest

from lipfree import (
    BadSubset,
    NotSigmaClosed,
    PoleInDomain,
    SphereSample,
    build_space,
    eta,
    line_space,
    mirror_band_residual,
    outward_amenability_map,
    radial_retraction,
    snowflake,
    stereographic,
    verify_r_closed,
    xi,
)
from lipfree.generators import annulus_rays, sphere_fibonacci


def test_retraction_fixes_inner_points():
    sp = line_space([0.0, 1.0, 3.0])
    rep = radial_retraction(sp, 1.0)
    assert rep.point_map == (0, 1, 1)
    assert rep.fixes_ball and rep.idempotent
    assert rep.measured_lip <= 2.0


def test_retraction_on_sigma_closed_rays():
    sp = annulus_rays(rays=8, radii=(0.5, 1.0, 2.0, 4.0), include_origin=True)
    rep = radial_retraction(sp, 1.0)
    assert rep.measured_lip <= 2.0 + 1e-9
    assert rep.slack == 0.0
    assert rep.idempotent


def test_retraction_requires_sigma_closure():
    sp = line_space([0.0, 1.0, 3.0, 5.0])
    with pytest.raises(NotSigmaClosed):
        radial_retraction(sp, 2.0)  # 2/3 of point 3 is not a sample point


def test_outward_map_boundary_point_is_delta():
    sp = annulus_rays(rays=4, radii=(0.5, 1.0, 2.0), include_origin=False)
    # base must be an outer point: pick one at radius 1
    norms = np.sqrt((sp.coords ** 2).sum(axis=1))
    base = int(np.nonzero(np.isclose(norms, 1.0))[0][0])
    sp = build_space(sp.coords, "euclidean", base=base)
    ext = outward_amenability_map(sp, 1.0, 1.0)
    order = [base] + [i for i in sorted(ext.net) if i != base]
    for i in range(sp.n):
        if norms[i] >= 1.0:
            assert ext.coeffs[i, order.index(i)] == 1.0


def test_outward_map_halfway_point_formula():
    # x at radius S/2 on a ray: image is (1/2) delta(2x)
    sp = annulus_rays(rays=2, radii=(0.5, 1.0, 2.0), include_origin=False)
    norms = np.sqrt((sp.coords ** 2).sum(axis=1))
    base = int(np.nonzero(np.isclose(norms, 1.0))[0][0])
    sp = build_space(sp.coords, "euclidean", base=base)
    ext = outward_amenability_map(sp, 1.0, 1.0)
    x = int(np.nonzero(np.isclose(norms, 0.5))[0][0])
    target = 2.0 * sp.coords[x]
    j = int(np.nonzero(np.isclose(sp.coords, target).all(axis=1))[0][0])
    order = [base] + [i for i in sorted(ext.net) if i != base]
    row = ext.coeffs[x]
    assert row[order.index(j)] == pytest.approx(0.5, abs=1e-12)
    assert row.sum() == pytest.approx(0.5, abs=1e-12)


def test_outward_map_measured_constant():
    for alpha in (1.0, 0.5):
        for p in (1.0, 0.5):
            sp = annulus_rays(rays=6, radii=(0.25, 0.5, 1.0, 2.0, 4.0),
                              include_origin=False, alpha=alpha)
            norms = np.sqrt((sp.coords ** 2).sum(axis=1))
            base = int(np.nonzero(np.isclose(norms, 1.0))[0][0])
            sp = build_space(sp.coords, "euclidean", base=base, alpha=alpha)
            ext = outward_amenability_map(sp, 1.0, p)
            assert ext.measured_lip <= 3.0 ** (1.0 / p) * (1 + 1e-6)


def test_outward_map_rejects_origin_in_sample():
    sp = annulus_rays(rays=2, radii=(1.0, 2.0), include_origin=True)
    with pytest.raises(BadSubset):
        outward_amenability_map(sp, 1.0, 1.0)


def test_r_closed_doubling_map():
    radii = [2.0 ** k for k in range(-2, 3)]
    sp = annulus_rays(rays=4, radii=radii, include_origin=True)
    pmap = []
    for i in range(sp.n):
        target = 2.0 * sp.coords[i]
        hit = np.nonzero(np.isclose(sp.coords, target, atol=1e-12).all(axis=1))[0]
        pmap.append(int(hit[0]) if hit.size else None)
    assert any(m is None for m in pmap)  # images escape the finite sample
    rep = verify_r_closed(sp, pmap, 2.0)
    assert rep.passed


def test_r_closed_shift_fails():
    sp = line_space([0.0, 1.0, 2.0, 3.0])
    shift = [1, 2, 3, 3]  # not a scaling for any R
    rep = verify_r_closed(sp, shift, 1.0)
    assert not rep.passed
    rep2 = verify_r_closed(sp, shift, 2.0)
    assert not rep2.passed


def test_r_closed_names_the_worst_pair_where_defined():
    sp = line_space([0.0, 1.0, 2.0, 4.0, 8.0])
    assert verify_r_closed(sp, [0, 2, 3, 4, None], 2.0).passed
    # only points 1, 2 and 3 are mapped; 2 and 3 collapse, 4 apart before
    rep = verify_r_closed(sp, [None, 2, 3, 3, None], 2.0)
    assert (rep.max_rel_error, rep.witness) == (1.0, (2, 3))
    rep = verify_r_closed(sp, [None, None, 3, None, None], 2.0)
    assert (rep.max_rel_error, rep.witness) == (0.0, None)


def test_stereographic_levels():
    # equator, half level, near-south probes
    v = np.array([
        [1.0, 0.0, 0.0],
        [math.sqrt(3.0) / 2.0, 0.0, 0.5],
        [0.0, 0.0, -1.0],
    ])
    rep = stereographic(SphereSample(v))
    assert rep.radii[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.radii[1] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rep.radii[2] == pytest.approx(0.0, abs=1e-12)
    assert rep.max_abs_error <= 1e-12


def test_stereographic_sample_checks():
    v = sphere_fibonacci(d=2, n=300)
    rep = stereographic(SphereSample(v))
    assert rep.max_abs_error <= 1e-9
    assert rep.band_error <= 1e-9
    assert rep.injective
    order = np.argsort(rep.heights)
    assert np.all(np.diff(rep.radii[order]) > -1e-12)


def test_stereographic_rejects_pole():
    v = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(PoleInDomain):
        stereographic(SphereSample(v))


def test_eta_xi_relations():
    assert xi(0.0) == 1.0
    assert xi(0.5) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert xi(-1.0) == 0.0
    assert eta(2.0) == -1.0
    # chordal distance s from the pole has height 1 - s^2/2
    s = 0.7
    assert eta(s) == pytest.approx(1 - s * s / 2, rel=1e-15)


def test_mirror_band_isometry():
    v = sphere_fibonacci(d=2, n=150)
    band = v[v[:, -1] <= 0.0]
    assert mirror_band_residual(SphereSample(band)) <= 1e-12


def test_outward_map_explicit_alpha():
    sp = annulus_rays(rays=4, radii=(0.5, 1.0, 2.0), include_origin=False)
    norms = np.sqrt((sp.coords ** 2).sum(axis=1))
    base = int(np.nonzero(np.isclose(norms, 1.0))[0][0])
    sp = build_space(sp.coords, "euclidean", base=base)
    ext = outward_amenability_map(snowflake(sp, 0.5), 1.0, 1.0)
    x = int(np.nonzero(np.isclose(norms, 0.5))[0][0])
    # the scaled coefficient uses the snowflaked radius ratio
    assert ext.coeffs[x].sum() == pytest.approx(0.5 ** 0.5, abs=1e-12)
    assert ext.measured_lip <= 3.0 * (1 + 1e-6)


def test_measured_constants_rescale_invariant():
    # ratio measurements are invariant under global rescaling of the sample
    base_radii = (0.25, 0.5, 1.0, 2.0, 4.0)
    reps = []
    for c in (1.0, 7.0):
        sp = annulus_rays(rays=6, radii=tuple(c * r for r in base_radii),
                          include_origin=False)
        norms = np.sqrt((sp.coords ** 2).sum(axis=1))
        base = int(np.nonzero(np.isclose(norms, c))[0][0])
        sp = build_space(sp.coords, "euclidean", base=base)
        reps.append(outward_amenability_map(sp, c * 1.0, 0.5).measured_lip)
    assert abs(reps[0] - reps[1]) <= 1e-9

    rets = []
    for c in (1.0, 7.0):
        sp = annulus_rays(rays=6, radii=tuple(c * r for r in base_radii),
                          include_origin=True)
        rets.append(radial_retraction(sp, c * 1.0).measured_lip)
    assert abs(rets[0] - rets[1]) <= 1e-9
