"""Verification suites: named bundles of checks with JSON reports.

Every check record carries the measured value next to exactly one of the
closed-form bound it tests against (with the inputs that produced it) or an
absolute tol, and its pass flag is ``metric.passes`` of those printed
numbers, so reports are self-contained.  Reports are deterministic for a
fixed seed; wall-clock timing goes to stderr, never into the report body.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .decomposition import (
    annulus_family,
    commuting_approximants,
    unit_interval_cores,
    verify_pst_identity,
    verify_separated_inverse,
)
from .errors import BadFamily, BadSuite, Mismatch
from .extension import (
    amenability_defect,
    doubling_extension_map,
    extension_constant,
    linearization_residual,
    point_removal_map,
    weight_variation_check,
    whitney_cover,
)
from .freenorm import (
    FOREST_LIMIT_DEFAULT,
    FOREST_LIMIT_MAX,
    Molecule,
    _certificate_defects,
    free_norm_exact_small,
    free_norm_p1,
    free_norm_upper,
    measure_lipschitz,
    norm_rows,
    norm_value,
)
from .generators import generate
from .geometry import (
    SphereSample,
    mirror_band_residual,
    radial_retraction,
    stereographic,
)
from .metric import (
    REL_TOL,
    IntervalSpec,
    _subset_indices,
    build_space,
    doubling_constant_upper,
    maximal_separated_net,
    passes,
)
from .serialization import dump_report, load_space

# No code here calls ``norm_value`` any more, but the benchmark's tracer
# (perfbench/tracing.py) wraps ``lipfree.suites.norm_value`` by name, so
# the name stays bound until that patch point goes (ROADMAP item 2)
_TRACED_NAMES = (norm_value,)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    space_source: dict | None = None
    p_list: tuple = (1.0, 0.5)
    seed: int = 0
    exact_limit: int = FOREST_LIMIT_DEFAULT
    out: str | None = None


def _record(check, measured, bound=None, tol=None, witness=None,
            bound_inputs=None):
    """One check: ``measured`` against exactly one of ``bound`` and
    ``tol``, passed by the one rule ``passes``."""
    return {
        "check": check,
        "measured": None if measured is None else float(measured),
        "bound": None if bound is None else float(bound),
        "bound_inputs": bound_inputs or {},
        "passed": passes(measured, bound, tol),
        "witness": witness,
        "tol": tol,
    }


def _resolve_space(config, default_source):
    src = config.space_source or default_source
    if "file" in src:
        return load_space(src["file"])
    return generate(src["kind"], config.seed, **src.get("params", {}))


def _subset(config, space, default):
    """The indices of ``space_source["subset"]``, else those ``default()``
    gives, with the base point added, in index order."""
    spec = (config.space_source or {}).get("subset")
    net = default() if spec is None else spec["indices"]
    return sorted({space.base, *_subset_indices(space, net)})


def _random_molecule(rng, space, max_support=4):
    mol = Molecule(())
    while not mol.coeffs:  # drawn again when the one point drawn is the base
        k = int(rng.integers(1, min(max_support, space.n) + 1))
        pts = rng.choice(space.n, size=k, replace=False)
        mol = Molecule.balanced(dict(zip(pts, rng.standard_normal(k))),
                                space.base)
    return mol


# ---------------------------------------------------------------------------
# individual suites


def suite_norm_oracle(config):
    space = _resolve_space(config, {"kind": "random-ball",
                                    "params": {"d": 2, "n": 6}})
    _nonbase_points(space)
    rng = np.random.default_rng(config.seed)
    records = []
    tol = 1e-9

    exact = space.n <= config.exact_limit
    gap_worst = 0.0
    lip_worst = 0.0
    missing = 0
    agree_worst = 0.0
    for _ in range(40):
        mol = _random_molecule(rng, space)
        res = free_norm_p1(space, mol)
        if res.certificate is None:
            missing += 1
        else:
            gap, lip = _certificate_defects(space, mol.vector(space.n),
                                            res.value, res.certificate)
            gap_worst = max(gap_worst, gap)
            lip_worst = max(lip_worst, lip)
        if exact:
            oracle = free_norm_exact_small(space, mol, 1.0,
                                           forest_limit=config.exact_limit)
            agree_worst = max(agree_worst, abs(oracle.value - res.value)
                              / max(res.value, 1e-30))
    certified = missing == 0 and lip_worst <= tol
    records.append(_record(
        "duality_gap_p1", gap_worst if certified else None, tol=tol,
        witness=None if certified else {"missing_certificates": missing,
                                        "lipschitz_excess": lip_worst}))

    xs, ys = np.triu_indices(space.n, 1)
    deltas = np.eye(space.n)[xs] - np.eye(space.n)[ys]  # delta(x) - delta(y)
    d = space.dist[xs, ys]
    for p in config.p_list:
        v, _ = norm_rows(space, deltas, p, config.exact_limit)
        iso_worst = float(np.max(np.abs(v - d) / d, initial=0.0))
        records.append(_record(f"delta_isometry_p{p}", iso_worst, tol=tol))

    mono_worst = 0.0
    upper_worst = 0.0
    for _ in range(10 if exact else 0):
        mol = _random_molecule(rng, space)
        vals = []
        for p in sorted(set(config.p_list) | {1.0}):
            r = free_norm_exact_small(space, mol, p,
                                      forest_limit=config.exact_limit)
            vals.append((p, r.value))
            up = free_norm_upper(space, mol, p)
            upper_worst = max(upper_worst,
                              (r.value - up.value) / max(r.value, 1e-30))
        for (p1, v1), (p2, v2) in zip(vals, vals[1:]):
            mono_worst = max(mono_worst, (v2 - v1) / max(v1, 1e-30))
    skip = {"skipped": f"n={space.n} > exact_limit={config.exact_limit}"}
    for check, worst in (("oracle_vs_flow_p1", agree_worst),
                         ("norm_monotone_in_p", mono_worst),
                         ("upper_never_below_oracle", upper_worst)):
        records.append(_record(check, worst, tol=tol)
                       if exact else  # the oracle did not run
                       _record(check, None, tol=tol, witness=skip))
    return records


def _nonbase_points(space):
    """The nonbase points in index order; a space without any is refused,
    as no check could measure anything on it."""
    points = [i for i in range(space.n) if i != space.base]
    if not points:
        raise BadFamily("space has no nonbase points")
    return points


def _base_radii(space):
    """The distinct distances of the nonbase points from the base, in
    increasing order."""
    return sorted(set(float(space.dist[space.base, i])
                      for i in _nonbase_points(space)))


def _unit_cores(space, R):
    """Width-1 plateau cores covering the realized log-radii (margin 1/2)."""
    radii = _base_radii(space)
    umin = math.log(radii[0]) / math.log(R)
    umax = math.log(radii[-1]) / math.log(R)
    cores, margin, _ = unit_interval_cores(umin, umax)
    return cores, margin


def suite_decomposition(config):
    space = _resolve_space(
        config, {"kind": "annulus-rays",
                 "params": {"rays": 2, "radii": (0.5, 1.0, 2.0, 4.0),
                            "include_origin": True}})
    records = []
    R = 2.0
    cores, margin = _unit_cores(space, R)
    for p in config.p_list:
        rep = verify_pst_identity(space, cores, margin, R, p,
                                  exact_limit=config.exact_limit)
        records.append(_record(f"pst_identity_residual_p{p}", rep.residual,
                               tol=1e-10))
        records.append(_record(
            f"T_norm_p{p}", rep.measured_T, rep.bound_T,
            witness=rep.witness_pair,
            bound_inputs={"p": p, "R": R, "k": 2, "K1": 3 * 2 / margin,
                          "K2": 1.0, "measured_exact": rep.measured_exact}))
        records.append(_record(f"weight_sums_p{p}", rep.weight_sum_error,
                               tol=1e-12))

    # separated partition into one closed annulus per radius, where radii
    # within REL_TOL (relative) of the annulus' smallest count as one radius
    groups = []
    for r in _base_radii(space):
        if groups and r <= groups[-1][0] * (1 + REL_TOL):
            groups[-1][1] = r
        else:
            groups.append([r, r])
    intervals = [IntervalSpec(lo, hi, True, True) for lo, hi in groups]
    fam = annulus_family(space, R, intervals)
    for p in config.p_list:
        rep = verify_separated_inverse(fam, p, samples=60, seed=config.seed,
                                       exact_limit=config.exact_limit)
        records.append(_record(
            f"P_inverse_ratio_p{p}", rep.max_ratio, rep.bound,
            bound_inputs={"K": rep.gap, "p": p, "certified": rep.certified}))

    # ||P|| = max over parts of ||F_1(M_n) -> F_1(M)||, which by
    # linearization is the Lipschitz constant of x -> delta(x) on M_n
    best, best_pair, all_exact = 0.0, None, True
    for part in fam.parts:
        points = [space.base, *part.members]
        rows = np.zeros((len(points), space.n))  # delta(base) = 0
        rows[np.arange(1, len(points)), part.members] = 1.0
        lip, pair, exact = measure_lipschitz(part.subspace, [(space, rows)],
                                             1.0, config.exact_limit)
        all_exact = all_exact and exact
        if lip > best:
            best, best_pair = lip, (points[pair[0]], points[pair[1]])
    records.append(_record("P_norm_one", best, 1.0, witness=best_pair,
                           bound_inputs={"measured_exact": all_exact}))
    return records


def suite_whitney(config):
    space = _resolve_space(config, {"kind": "grid-zd",
                                    "params": {"d": 2, "lo": 0, "hi": 5}})
    net = _subset(config, space, lambda: maximal_separated_net(
        space, list(range(space.n)), space.diameter() / 4))
    system = whitney_cover(space, net)
    records = []
    for c in system.checks:
        records.append(_record(f"whitney_{c.name}", c.measured, c.bound,
                               witness=c.witness))
    hist = system.overlap_histogram()
    max_overlap = max(hist) if hist else 0
    records.append(_record("whitney_overlap_vs_3D4", max_overlap,
                           system.overlap_bound,
                           bound_inputs={"doubling_upper": system.doubling_value}))
    for p in config.p_list:
        crucial = weight_variation_check(system, p)
        records.append(_record(f"weight_variation_p{p}", crucial.max_ratio, 1.0,
                               witness=crucial.worst_pair))
        ext = doubling_extension_map(space, net, p, system=system,
                                     exact_limit=config.exact_limit)
        records.append(_record(
            f"extension_lip_p{p}", ext.measured_lip, ext.lip_bound,
            witness=ext.witness_pair,
            bound_inputs={"p": p, "doubling_upper": system.doubling_value,
                          "measured_exact": ext.measured_exact}))
        resid = linearization_residual(ext)
        records.append(_record(f"linearization_residual_p{p}", resid,
                               tol=1e-10))
    return records


def suite_retraction(config):
    space = _resolve_space(
        config, {"kind": "annulus-rays",
                 "params": {"rays": 6, "radii": (0.5, 1.0, 2.0, 4.0),
                            "include_origin": True}})
    radii = _base_radii(space)
    S = radii[len(radii) // 2]
    rep = radial_retraction(space, S)
    records = [
        _record("retraction_lip", rep.measured_lip, 2.0,
                witness=rep.witness_pair, bound_inputs={"S": S}),
        _record("retraction_slack", rep.slack, tol=0.1),
    ]
    # scale invariance of the measured ratio
    scaled = build_space(space.coords * 3.0, space.norm, alpha=space.alpha,
                         base=space.base)
    rep2 = radial_retraction(scaled, 3.0 * S)
    drift = abs(rep2.measured_lip - rep.measured_lip)
    records.append(_record("retraction_scale_invariance", drift, tol=1e-9))
    return records


def suite_sphere(config):
    space = _resolve_space(config, {"kind": "sphere-fibonacci",
                                    "params": {"d": 2, "n": 200}})
    sample = SphereSample(space.coords)
    rep = stereographic(sample)
    records = [
        _record("stereo_radius_error", rep.max_abs_error, tol=1e-9),
        _record("stereo_band_correspondence", rep.band_error, tol=1e-9),
        _record("stereo_injective", rep.coincident_pairs, tol=0.0),
    ]
    # the half-height level maps onto radius sqrt(3)
    d = space.coords.shape[1] - 1
    probe = np.zeros((3, d + 1))
    probe[0, 0], probe[0, -1] = math.sqrt(3.0) / 2.0, 0.5
    probe[1, 0], probe[1, -1] = 1.0, 0.0
    probe[2, -1] = -1.0
    prep = stereographic(SphereSample(probe))
    for level, radius, expected in zip(
            ("half_level", "equator", "south_pole"), prep.radii,
            (math.sqrt(3.0), 1.0, 0.0)):
        records.append(_record(f"stereo_{level}_radius",
                               abs(radius - expected), tol=1e-9,
                               bound_inputs={"expected": expected}))
    # the radius never falls as the height rises
    r = rep.radii[np.argsort(rep.heights)]
    records.append(_record("stereo_radius_monotone",
                           np.max(r[:-1] - r[1:], initial=0.0), tol=1e-12))
    resid = mirror_band_residual(sample)
    records.append(_record("mirror_band_residual", resid, tol=1e-12))
    return records


def suite_commuting_bap(config):
    records = []
    m_max = 5
    for R in (2.0, 8.0):
        # points at hat centers R^(R j) plus one core point: the truncated
        # weight sums take only the values 0 and 1 there, making the
        # min-semigroup relation exact; tiny radii are avoided so no two
        # points collide within the duplicate tolerance
        jmin = max(-5, int(math.ceil(math.log(1e-9) / (R * math.log(R)))))
        us = [R * j for j in range(jmin, 6)] + [R / 3.0]
        src = {"kind": "annulus-rays",
               "params": {"rays": 1, "include_origin": True,
                          "radii": tuple(R ** u for u in us)}}
        space = _resolve_space(config, src)
        for p in config.p_list:
            mats, rep = commuting_approximants(space, R, m_max=m_max, p=p,
                                               exact_limit=config.exact_limit)
            records.append(_record(
                f"semigroup_residual_R{R}_p{p}", rep.max_semigroup_residual,
                tol=1e-12))
            records.append(_record(
                f"approximant_norms_R{R}_p{p}", max(rep.measured_norms),
                rep.bound,
                bound_inputs={"p": p, "k": 2, "R": R, "K1": 1.0 / R,
                              "K2": 1.0}))
            records.append(_record(
                f"approximant_identity_R{R}_p{p}", rep.identity_from, m_max))
    return records


def suite_point_removal(config):
    """Remove each nonbase point of the given space once, in index order;
    without a space, one random point of each of 20 random 3-6 point
    spaces."""
    if config.space_source is None:
        rng = np.random.default_rng(config.seed)
        cases = []
        for _ in range(20):
            n = int(rng.integers(3, 7))
            space = build_space(rng.standard_normal((n, 2)), "euclidean")
            cases.append((space, int(rng.integers(1, n))))
    else:
        space = _resolve_space(config, None)
        cases = [(space, x0) for x0 in _nonbase_points(space)]
    worst = {p: 0.0 for p in config.p_list}
    chain = 0.0
    for space, x0 in cases:
        for p in config.p_list:
            rep = point_removal_map(space, x0, p)
            worst[p] = max(worst[p], rep.measured_lip / rep.bound)
            chain = max(chain, rep.chain_ratio)
    records = [_record(f"point_removal_ratio_p{p}", worst[p], 1.0,
                       bound_inputs={"bound": 2 ** (1 / p)})
               for p in config.p_list]
    records.append(_record("point_removal_chain", chain, 1.0))
    return records


def suite_amenability(config):
    """Sampled norm ratios of molecules on a subset N, in F_p(N) against
    F_p(M): 1 at p = 1, and below p the doubling extension's closed-form
    constant, since its linearization L_E is a left inverse of the
    inclusion."""
    space = _resolve_space(config, {"kind": "random-ball",
                                    "params": {"d": 2, "n": 7}})
    _nonbase_points(space)
    net = _subset(config, space, lambda: range(0, space.n, 2))
    doubling = doubling_constant_upper(space.take(net, net.index(space.base)))
    records = []
    for p in config.p_list:
        rep = amenability_defect(space, net, p, samples=60, seed=config.seed,
                                 exact_limit=config.exact_limit)
        if p == 1.0:
            records.append(_record("amenability_isometry_p1", rep.max_ratio,
                                   1.0, bound_inputs={"certified": rep.certified}))
        else:
            records.append(_record(
                f"amenability_lower_bound_p{p}", rep.max_ratio,
                extension_constant(p, doubling.value),
                bound_inputs={"certified": rep.certified,
                              "doubling_upper": doubling.value,
                              "mean": rep.mean_ratio}))
    return records


SUITES = {
    "norm-oracle": suite_norm_oracle,
    "decomposition": suite_decomposition,
    "whitney": suite_whitney,
    "retraction": suite_retraction,
    "sphere": suite_sphere,
    "commuting-bap": suite_commuting_bap,
    "point-removal": suite_point_removal,
    "amenability": suite_amenability,
}


def run_suite(config):
    """Run one suite; returns (report document, all passed)."""
    if config.suite not in SUITES:
        raise BadSuite(f"unknown suite {config.suite!r}; "
                       f"choose from {sorted(SUITES)}")
    seed = config.seed
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise BadSuite(f"seed {seed!r} is not an integer >= 0")
    if not config.p_list:
        raise BadSuite("empty p list")
    for p in config.p_list:
        if not 0 < p <= 1:
            raise BadSuite(f"p={p} outside (0, 1]")
    limit = config.exact_limit
    if (isinstance(limit, bool) or not isinstance(limit, int)
            or not 1 <= limit <= FOREST_LIMIT_MAX):
        raise BadSuite(f"exact limit {limit!r} is not an int from 1 to "
                       f"{FOREST_LIMIT_MAX}")
    t0 = time.monotonic()
    records = SUITES[config.suite](config)
    elapsed = time.monotonic() - t0
    records.sort(key=lambda r: r["check"])
    doc = {
        "suite": config.suite,
        "config": {
            "p": list(config.p_list),
            "seed": int(seed),
            "space": config.space_source,
            "exact_limit": config.exact_limit,
        },
        "environment": {"version": __version__, "seed": int(seed),
                        "timing": None},
        "checks": records,
        "passed": all(r["passed"] for r in records),
    }
    print(f"[lipfree] suite {config.suite}: {len(records)} checks, "
          f"{elapsed:.2f}s", file=sys.stderr)
    if config.out:
        dump_report(doc, config.out)
    return doc, doc["passed"]


def _key_lines(prefix, old, new):
    """One line per key of the dicts ``old`` and ``new`` whose value
    differs, as ``prefix`` + key; a key on one side only says which."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new or key not in old:
            side, value = ("old", old[key]) if key in old else ("new", new[key])
            lines.append(f"{prefix}{key}: only in {side}: {value!r}")
        elif old[key] != new[key]:
            lines.append(f"{prefix}{key} {old[key]!r} -> {new[key]!r}")
    return lines


def report_diff(old, new):
    """Textual diff of two reports of one suite: first one line per
    differing ``config`` key (a missing block counts as empty); then one
    line per change to a check's measured value, bound or tol; a changed
    pass flag is tagged on the first of them, or gets a line of its own;
    then one line per changed ``bound_inputs`` key.  A record on one side
    only gets one line with its value, its bound (its tol if it has no
    bound) and its pass flag.  Only a record with a bound is flagged for
    growth.  A document that is not an object with a ``checks`` list is
    refused, naming its side."""
    for side, doc in (("old", old), ("new", new)):
        if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
            raise Mismatch(f"the {side} document is not a report: "
                           f"it has no checks list")
    if old.get("suite") != new.get("suite"):
        raise Mismatch(f"suite mismatch: {old.get('suite')} vs {new.get('suite')}")
    old_checks = {r["check"]: r for r in old["checks"]}
    new_checks = {r["check"]: r for r in new["checks"]}
    lines = _key_lines("config.", old.get("config") or {},
                       new.get("config") or {})
    for name in sorted(set(old_checks) | set(new_checks)):
        o, n = old_checks.get(name), new_checks.get(name)
        if o is None or n is None:
            rec = n if o is None else o
            key = ("tol" if rec.get("bound") is None
                   and rec.get("tol") is not None else "bound")
            lines.append(f"{name}: only in {'new' if o is None else 'old'}: "
                         f"{rec.get('measured')!r}, {key} {rec.get(key)!r}, "
                         f"passed {rec.get('passed')}")
            continue
        changes = []
        for key in ("measured", "bound", "tol"):
            vo, vn = o.get(key), n.get(key)
            if vo == vn:
                continue
            label = "" if key == "measured" else f"{key} "
            text = f"{name}: {label}{vo!r} -> {vn!r}"
            if vo is not None and vn is not None:
                text += f" (delta {vn - vo:+.3e})"
                if (key == "measured" and n.get("bound") is not None
                        and n["passed"] and vo != 0
                        and (vn - vo) / abs(vo) > 0.01):
                    text += "  [regression: measured constant grew > 1%]"
            changes.append(text)
        if o["passed"] != n["passed"]:
            flip = f"passed {o['passed']} -> {n['passed']}"
            if changes:
                changes[0] += f"  [{flip}]"
            else:
                changes.append(f"{name}: {flip}")
        changes += _key_lines(f"{name}: bound_inputs.",
                              o.get("bound_inputs") or {},
                              n.get("bound_inputs") or {})
        lines.extend(changes)
    return "\n".join(lines)
