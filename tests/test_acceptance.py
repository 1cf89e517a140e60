"""Acceptance checks: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import math
import time

import numpy as np
import pytest

from lipfree import (
    IntervalSpec,
    Molecule,
    SuiteConfig,
    annulus_family,
    build_hat_partition,
    build_space,
    commuting_approximants,
    doubling_extension_map,
    free_norm_exact_small,
    free_norm_p1,
    linearization_residual,
    mirror_band_residual,
    norm_bound_T,
    outward_amenability_map,
    point_removal_map,
    radial_retraction,
    run_suite,
    stereographic,
    verify_etp_identity,
    verify_pst_identity,
    verify_separated_inverse,
    weight_variation_check,
    whitney_cover,
)
from lipfree.decomposition import _max_open_overlap
from lipfree.generators import annulus_rays, grid_zd, line, sphere_fibonacci
from lipfree.geometry import SphereSample

from conftest import random_metric_space, random_molecule


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_norm_oracle_agreement(rng):
    t0 = time.time()
    worst_agree = 0.0
    for _ in range(200):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        m = random_molecule(rng, sp)
        a = free_norm_p1(sp, m).value
        b = free_norm_exact_small(sp, m, 1.0).value
        worst_agree = max(worst_agree, abs(a - b) / max(a, 1e-30))
    worst_gap = 0.0
    for _ in range(500):
        sp = random_metric_space(rng, int(rng.integers(5, 41)))
        m = random_molecule(rng, sp, max_support=10)
        res = free_norm_p1(sp, m)
        pairing = float(np.dot(m.vector(sp.n), res.certificate))
        worst_gap = max(worst_gap, abs(pairing - res.value) / max(res.value, 1e-30))
    elapsed = time.time() - t0
    ok = worst_agree <= 1e-9 and worst_gap <= 1e-9 and elapsed <= 120
    _line(1, ok, f"oracle/flow agreement {worst_agree:.2e}, duality gap "
                 f"{worst_gap:.2e}, {elapsed:.0f}s")


def test_criterion_02_delta_isometry(rng):
    worst = 0.0
    for _ in range(100):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        for p in (1.0, 0.75, 0.5, 0.25):
            for _ in range(4):
                x, y = rng.choice(sp.n, size=2, replace=False)
                m = Molecule.delta(int(x), sp.base) - Molecule.delta(int(y), sp.base)
                v = free_norm_exact_small(sp, m, p).value
                worst = max(worst, abs(v - sp.dist[x, y]) / sp.dist[x, y])
    _line(2, worst <= 1e-9, f"delta isometry max rel err {worst:.2e} over "
                            f"100 spaces x 4 exponents")


def test_criterion_03_partition_of_unity(rng):
    worst_sum = 0.0
    worst_lip = 0.0
    for _ in range(20):
        r = float(rng.uniform(0.2, 1.0))
        m = int(rng.integers(3, 9))
        bounds = np.cumsum(rng.uniform(2 * r + 0.1, 3.0, size=m))
        intervals = [(lo - r, hi + r) for lo, hi in zip(bounds, bounds[1:])]
        for _ in range(int(rng.integers(0, 3))):
            c = rng.uniform(bounds[0], bounds[-1])
            w = rng.uniform(2 * r + 0.2, 4.0)
            intervals.append((c - w / 2, c + w / 2))
        window = (float(bounds[0]), float(bounds[-1]))
        k = _max_open_overlap(intervals)
        ws = build_hat_partition(intervals, r, k, window=window)
        grid = ws.refined_grid()
        vals = ws.psi_values(grid)
        worst_sum = max(worst_sum, float(np.abs(vals.sum(axis=0) - 1.0).max()))
        worst_lip = max(worst_lip, ws.measured_lipschitz() - ws.lipschitz_bound())
    ok = worst_sum <= 1e-12 and worst_lip <= 1e-9
    _line(3, ok, f"20 random families: sum error {worst_sum:.2e}, "
                 f"lip excess over 3k/r {worst_lip:.2e}")


def _sphere_band_space(n=80):
    v = sphere_fibonacci(d=2, n=n)
    return build_space(v, "euclidean", base=0)


def test_criterion_04_pst_identity():
    fixtures = {
        "line": line(n=9, start=0.0, step=0.7),
        "grid_z2": grid_zd(d=2, lo=0, hi=6),
        "sphere_band": _sphere_band_space(),
    }
    worst_resid = 0.0
    ok_norm = True
    for name, sp in fixtures.items():
        radii = sp.radii()
        umin = math.floor(math.log2(radii[radii > 0].min())) - 1
        umax = math.ceil(math.log2(radii.max())) + 1
        cores = [(n + 0.5, n + 1.5) for n in range(umin - 1, umax + 1)]
        outer = [IntervalSpec(float(n), float(n + 2), True, True)
                 for n in range(umin - 1, umax + 1)]
        for p in (1.0, 0.5):
            rep = verify_pst_identity(sp, cores, r=0.5, R=2.0, p=p,
                                      outer_intervals=outer)
            worst_resid = max(worst_resid, rep.residual)
            ok_norm = ok_norm and rep.measured_T <= rep.bound_T * (1 + 1e-9)
    ok = worst_resid <= 1e-10 and ok_norm
    _line(4, ok, f"P*S*T identity on 3 fixtures with preset [n, n+2]: "
                 f"max residual {worst_resid:.2e}, T within bound: {ok_norm}")


def test_criterion_05_etp_identity():
    radii = [2.0 ** j for j in (-1, 0, 1, 1.5, 3, 4, 5, 5.5, 7, 8, 9)]
    sp = annulus_rays(rays=3, radii=radii, include_origin=True)
    bumps = [(4 * n - 2.0, 4 * n + 2.0) for n in range(3)]
    inners = [IntervalSpec(4 * n - 1.1, 4 * n + 1.1, True, True)
              for n in range(3)]
    worst = 0.0
    for p in (1.0, 0.5):
        rep = verify_etp_identity(sp, bumps, inners, r=0.8, R=2.0, p=p)
        worst = max(worst, rep.residual)
    _line(5, worst <= 1e-10,
          f"E*T*P identity with radial extensions: max residual {worst:.2e}")


def test_criterion_06_inverse_bound(rng):
    ok = True
    details = []
    for K in (2.0, 3.0, 10.0):
        radii = []
        for n in range(3):
            lo, hi = K ** (2 * n), K ** (2 * n + 1)
            radii.extend([lo * 1.5, hi])
        sp = line(n=1)  # placeholder replaced below
        sp = build_space(np.array([0.0] + radii)[:, None], "euclidean")
        ivs = [IntervalSpec(K ** (2 * n), K ** (2 * n + 1)) for n in range(3)]
        fam = annulus_family(sp, 2.0, ivs)
        for p in (1.0, 0.5):
            rep = verify_separated_inverse(fam, p, samples=1000,
                                           seed=int(K * 10 + p * 2))
            ok = (ok and rep.max_ratio <= rep.bound * (1 + 1e-9)
                  and rep.certified)
            details.append(f"K={K:g},p={p:g}:{rep.max_ratio:.3f}<={rep.bound:.3f}")
    _line(6, ok, "sampled |P^-1| lower bounds vs closed form: "
                 + "; ".join(details))


def test_criterion_07_commuting_approximants():
    ok = True
    details = []
    for R, jlo in ((2.0, -7), (8.0, -1)):
        centers = [R * j for j in range(jlo, 8)]
        rays = max(1, 60 // len(centers))
        sp = annulus_rays(rays=rays, radii=[R ** u for u in centers],
                          include_origin=True)
        for p in (1.0, 0.5):
            mats, rep = commuting_approximants(sp, R=R, m_max=6, p=p,
                                               exact_limit=6)
            bound = norm_bound_T(p, 2, R, 1.0 / R, 1.0)
            ok = (ok and rep.max_semigroup_residual <= 1e-12
                  and max(rep.measured_norms) <= bound * (1 + 1e-9))
            details.append(f"R={R:g},p={p:g}: resid={rep.max_semigroup_residual:.1e}"
                           f" sup|S_m|={max(rep.measured_norms):.3f}<={bound:.3f}")
    _line(7, ok, "min-semigroup and norms of truncated approximants: "
                 + "; ".join(details))


def _whitney_fixture(which, rng):
    if which == "grid2":
        sp = grid_zd(d=2, lo=0, hi=12)
        net = sorted({i for i in range(sp.n) if sp.coords[i][0] <= 6}
                     | {sp.base})
    elif which == "grid3":
        sp = grid_zd(d=3, lo=0, hi=6)
        net = sorted({i for i in range(sp.n)
                      if sp.coords[i][1] == 0 and sp.coords[i][2] == 0}
                     | {sp.base})
    else:
        coords = rng.uniform(0.0, 10.0, size=(300, 2))
        sp = build_space(coords, "euclidean")
        net = sorted(set(int(i) for i in rng.choice(300, 29, replace=False))
                     | {sp.base})
    return sp, net


@pytest.mark.parametrize("which", ["grid2", "grid3", "cloud300"])
def test_criterion_08_whitney_extension(which, rng):
    t0 = time.time()
    sp, net = _whitney_fixture(which, rng)
    system = whitney_cover(sp, net)
    ok = all(c.measured <= c.bound * (1 + 1e-9) for c in system.checks)
    details = [f"D^={system.doubling_value}"]
    for p in (1.0, 0.5):
        crucial = weight_variation_check(system, p)
        ok = ok and crucial.max_ratio <= 1 + 1e-9
        limit = 8 if p == 1.0 else 6
        ext = doubling_extension_map(sp, net, p, system=system,
                                     exact_limit=limit)
        resid = linearization_residual(ext)
        ok = (ok and ext.measured_lip <= ext.lip_bound * (1 + 1e-9)
              and resid <= 1e-10)
        details.append(f"p={p:g}: lip={ext.measured_lip:.2f}"
                       f"<={ext.lip_bound:.3g}, Lf*Li resid={resid:.1e}")
        budget = 300 if p == 1.0 else 900
        elapsed = time.time() - t0
        ok = ok and elapsed <= budget
        t0 = time.time()
    _line(8, ok, f"{which}: (H.1)-(H.4), weight variation, extension bound: "
                 + "; ".join(details))


def test_criterion_09_retraction_and_outward():
    # 500-point convex disc sample with an exterior ring, sigma-closed at S=1
    rays, radii = 25, np.linspace(0.1, 2.0, 20)
    sp = annulus_rays(rays=rays, radii=radii, include_origin=True)
    rep = radial_retraction(sp, 1.0)
    ok = rep.measured_lip <= 2.0 * (1 + 1e-9) and rep.slack <= 0.1
    details = [f"retraction lip={rep.measured_lip:.4f} slack={rep.slack:.4f}"]
    for alpha in (1.0, 0.5):
        for p in (1.0, 0.5):
            sq = annulus_rays(rays=8, radii=(0.25, 0.5, 1.0, 2.0, 4.0),
                              include_origin=False, alpha=alpha)
            norms = np.sqrt((sq.coords ** 2).sum(axis=1))
            base = int(np.nonzero(np.isclose(norms, 1.0))[0][0])
            sq = build_space(sq.coords, "euclidean", base=base, alpha=alpha)
            ext = outward_amenability_map(sq, 1.0, p)
            bound = 3.0 ** (1.0 / p) * (1 + 1e-6)
            ok = ok and ext.measured_lip <= bound
            details.append(f"outward a={alpha:g},p={p:g}: "
                           f"{ext.measured_lip:.3f}<={bound:.3f}")
    _line(9, ok, "; ".join(details))


def test_criterion_10_point_removal(rng):
    worst = 0.0
    chain = 0.0
    for _ in range(50):
        sp = random_metric_space(rng, int(rng.integers(3, 8)))
        x0 = int(rng.integers(1, sp.n))
        for p in (1.0, 0.5):
            rep = point_removal_map(sp, x0, p)
            worst = max(worst, rep.measured_lip / rep.bound)
            chain = max(chain, rep.chain_ratio)
    ok = worst <= 1 + 1e-9 and chain <= 1 + 1e-9
    _line(10, ok, f"point removal: max measured/bound ratio {worst:.6f}, "
                  f"worst chain ratio {chain:.6f}")


def test_criterion_11_stereographic():
    v = sphere_fibonacci(d=2, n=500)
    probe = np.array([[math.sqrt(3.0) / 2.0, 0.0, 0.5]])
    sample = SphereSample(np.vstack([v, probe]))
    rep = stereographic(sample)
    half_err = abs(rep.radii[-1] - math.sqrt(3.0))
    band = v[v[:, -1] <= 0.0]
    resid = mirror_band_residual(SphereSample(band))
    ok = (rep.max_abs_error <= 1e-9 and half_err <= 1e-9 and resid <= 1e-12)
    _line(11, ok, f"stereographic radii err {rep.max_abs_error:.2e}, "
                  f"half-level err {half_err:.2e}, mirror residual {resid:.2e}")


def test_criterion_12_determinism(tmp_path):
    suites = ("norm-oracle", "decomposition", "whitney", "retraction",
              "sphere", "commuting-bap", "point-removal", "amenability")
    ok = True
    for suite in suites:
        a = tmp_path / f"{suite}-a.json"
        b = tmp_path / f"{suite}-b.json"
        _, ok_a = run_suite(SuiteConfig(suite=suite, seed=13, out=str(a)))
        _, ok_b = run_suite(SuiteConfig(suite=suite, seed=13, out=str(b)))
        ok = ok and ok_a and ok_b and a.read_bytes() == b.read_bytes()
    _line(12, ok, "all 8 suites rerun with a fixed seed are byte-identical "
                  "and green")
