"""Geometric maps on embedded samples: radial retractions, outward scaling
maps into free spaces, and the stereographic decomposition of spheres.

Scaling maps act through coordinates (sigma(x, t) = t * x) and land back
in the sample by snap-to-nearest within a tolerance proportional to the
working radius; generators that emit points on rays through the origin are
sigma-closed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadSubset, NotSigmaClosed, PoleInDomain
from .extension import ExtensionMap
from .freenorm import FOREST_LIMIT_DEFAULT, _scan_pairs, measure_lipschitz
from .metric import REL_TOL


def _ambient_norms(space):
    if space.coords is None:
        raise BadParameter("operation needs an embedded sample (coords)")
    c = space.coords
    if space.norm == "sup":
        return np.abs(c).max(axis=1)
    if space.norm == "taxicab":
        return np.abs(c).sum(axis=1)
    return np.sqrt((c ** 2).sum(axis=1))


def _snap(space, target, tol):
    diff = space.coords - target[None, :]
    if space.norm == "sup":
        d = np.abs(diff).max(axis=1)
    elif space.norm == "taxicab":
        d = np.abs(diff).sum(axis=1)
    else:
        d = np.sqrt((diff ** 2).sum(axis=1))
    j = int(np.argmin(d))
    if d[j] > tol:
        raise NotSigmaClosed(
            f"scaled point {target} is {d[j]:.3g} from the nearest sample")
    return j


@dataclass(frozen=True)
class RetractionReport:
    point_map: tuple
    measured_lip: float
    slack: float
    witness_pair: tuple | None
    fixes_ball: bool
    idempotent: bool


def radial_retraction(space, S, snap_tol=None):
    """Radial retraction onto the ball of radius S around the origin.

    Points inside stay put; outer points are pulled along their ray to the
    boundary (and snapped to the sample).  The measured Lipschitz constant
    is reported together with its excess over 2, which only reflects sample
    resolution.
    """
    if S <= 0:
        raise BadParameter(f"S={S} must be positive")
    if snap_tol is None:
        snap_tol = 1e-9 * S
    norms = _ambient_norms(space)
    pmap = []
    for i in range(space.n):
        if norms[i] <= S + snap_tol:
            pmap.append(i)
            continue
        pmap.append(_snap(space, (S / norms[i]) * space.coords[i], snap_tol))
    img = np.array(pmap)
    best, pair = _scan_pairs(space, lambda xs, ys: space.dist[img[xs], img[ys]])
    fixes = all(pmap[i] == i for i in range(space.n) if norms[i] <= S + snap_tol)
    idem = all(pmap[pmap[i]] == pmap[i] for i in range(space.n))
    return RetractionReport(point_map=tuple(pmap), measured_lip=float(best),
                            slack=float(max(0.0, best - 2.0)),
                            witness_pair=pair, fixes_ball=fixes,
                            idempotent=idem)


def outward_amenability_map(space, S, p, exact_limit=FOREST_LIMIT_DEFAULT):
    """Scaled outward map onto the part of the sample at radius >= S.

    Inner points are pushed out along their ray and their delta is scaled
    by (radius / S)^alpha, with alpha the space's snowflake exponent, so the
    map restricts to delta on the outer part; measured constant compared
    against 3^{1/p}.  The sample must not contain the origin, and the base
    point must already be outer.  Radii within 1e-9 * S count as equal.
    """
    if S <= 0:
        raise BadParameter(f"S={S} must be positive")
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")
    snap_tol = 1e-9 * S
    norms = _ambient_norms(space)
    if norms.min() <= snap_tol:
        raise BadSubset("sample contains the origin")
    outer = [i for i in range(space.n) if norms[i] >= S - snap_tol]
    if space.base not in outer:
        raise BadParameter("base point must lie at radius >= S")
    order = [space.base] + [i for i in outer if i != space.base]
    sub = space.take(order, 0)
    pos = {g: k for k, g in enumerate(order)}
    coeffs = np.zeros((space.n, sub.n))
    alpha = space.alpha
    for i in range(space.n):
        if norms[i] >= S - snap_tol:
            coeffs[i, pos[i]] = 1.0
        else:
            j = _snap(space, (S / norms[i]) * space.coords[i], snap_tol)
            coeffs[i, pos[j]] = (norms[i] / S) ** alpha
    lip, pair, exact = measure_lipschitz(space, [(sub, coeffs)], p, exact_limit)
    bound = 3.0 ** (1.0 / p)
    return ExtensionMap(space=space, net=tuple(sorted(outer)),
                        net_subspace=sub, coeffs=coeffs, p=p,
                        measured_lip=float(lip), lip_bound=float(bound),
                        witness_pair=pair, measured_exact=exact)


@dataclass(frozen=True)
class RClosedReport:
    R: float
    max_rel_error: float
    witness: tuple | None

    @property
    def passed(self):
        return self.max_rel_error <= REL_TOL


def verify_r_closed(space, point_map, R):
    """Check that a point self-map scales all distances by exactly R.

    Entries of ``point_map`` may be None where the scaled image leaves the
    finite sample; such points are skipped (the map is checked where it is
    defined).
    """
    if R <= 0:
        raise BadParameter(f"R={R} must be positive")
    worst, witness = 0.0, None
    defined = [i for i in range(space.n) if point_map[i] is not None]
    for a, x in enumerate(defined):
        for y in defined[a + 1:]:
            want = R * space.dist[x, y]
            got = space.dist[point_map[x], point_map[y]]
            rel = abs(got - want) / want
            if rel > worst:
                worst, witness = rel, (x, y)
    return RClosedReport(R=float(R), max_rel_error=float(worst), witness=witness)


# ---------------------------------------------------------------------------
# spheres


@dataclass(frozen=True)
class SphereSample:
    """Unit vectors in R^{d+1}; heights are the last coordinates."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] < 2:
            raise BadParameter("sphere sample must be an (n, d+1) array")
        err = np.abs(np.sqrt((v ** 2).sum(axis=1)) - 1.0).max()
        if err > 1e-12:
            raise BadParameter(f"sample deviates from the unit sphere by {err:.3g}")
        object.__setattr__(self, "vectors", v)

    @property
    def heights(self):
        return self.vectors[:, -1]


def xi(h):
    """Image radius of the height-h level circle under the projection."""
    h = np.asarray(h, dtype=float)
    return np.sqrt((1.0 + h) / (1.0 - h))


def eta(s):
    """Height of the level set at chordal distance s from the north pole."""
    s = np.asarray(s, dtype=float)
    return np.maximum(1.0 - s ** 2 / 2.0, -1.0)


@dataclass(frozen=True)
class StereoReport:
    image: np.ndarray
    heights: np.ndarray
    radii: np.ndarray
    expected_radii: np.ndarray
    max_abs_error: float
    band_error: float
    injective: bool


def stereographic(sample):
    """Project from the north pole; verify level-set radii and the band
    correspondence between chordal distance and height on the sample."""
    v = sample.vectors
    h = sample.heights
    pole_dist = np.sqrt(((v - np.eye(v.shape[1])[-1]) ** 2).sum(axis=1))
    if pole_dist.min() <= 1e-12:
        raise PoleInDomain("sample contains the projection pole")
    image = v[:, :-1] / (1.0 - h)[:, None]
    radii = np.sqrt((image ** 2).sum(axis=1))
    expected = xi(h)
    err = float(np.abs(radii - expected).max())
    # band correspondence: height equals eta(chordal distance to the pole)
    band_err = float(np.abs(h - eta(pole_dist)).max())
    # injectivity on the sample
    injective = True
    order = np.lexsort(image.T)
    for a, b in zip(order, order[1:]):
        if np.abs(image[a] - image[b]).max() <= 1e-12:
            injective = False
            break
    return StereoReport(image=image, heights=h, radii=radii,
                        expected_radii=expected, max_abs_error=err,
                        band_error=band_err, injective=injective)


def mirror_band_residual(sample):
    """Distance-matrix residual between a band and its height-mirrored copy."""
    v = sample.vectors
    w = v.copy()
    w[:, -1] *= -1.0
    dv = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    dw = np.sqrt(((w[:, None, :] - w[None, :, :]) ** 2).sum(axis=2))
    return float(np.abs(dv - dw).max())


def radial_clamp_builder(part_j, part_i, p):
    """Extension operator E_n of a sigma-closed annulus family: the matrix
    of the linearized radial retraction of the bump part onto the inner
    part, with its measured Lipschitz constant.  ``p`` is unused, since the
    constant of a point map is read off the metric.

    Outer points are pulled along their ray to the nearest realized inner
    radius and snapped onto an inner sample point within 1e-9 times the
    largest inner radius (at least 1e-9), so interval endpoints never need
    to coincide with sample radii exactly.
    """
    sub_j = part_j.subspace
    norms = _ambient_norms(sub_j)
    member_pos = {g: li + 1 for li, g in enumerate(part_j.members)}
    inner_local = [member_pos[g] for g in part_i.members]
    if not inner_local:
        raise NotSigmaClosed("inner annulus holds no sample points")
    inner_coords = sub_j.coords[inner_local]
    inner_radii = np.array(sorted({float(norms[li]) for li in inner_local}))
    inner_set = set(inner_local)
    tol = 1e-9 * max(float(inner_radii.max()), 1.0)
    gmap = [0]  # base stays put
    for li in range(1, sub_j.n):
        if li in inner_set:
            gmap.append(li)
            continue
        rad = norms[li]
        s = float(inner_radii[int(np.argmin(np.abs(inner_radii - rad)))])
        target = (s / rad) * sub_j.coords[li]
        d = np.abs(inner_coords - target[None, :]).max(axis=1)
        j = int(np.argmin(d))
        if d[j] > tol:
            raise NotSigmaClosed(
                f"retracted image of local point {li} is {d[j]:.3g} from "
                f"the nearest inner sample")
        gmap.append(inner_local[j])
    pos_i = {g: ri for ri, g in enumerate(part_i.members)}
    block = np.zeros((len(part_i.members), len(part_j.members)))
    for cj, gj in enumerate(part_j.members):
        target_local = gmap[cj + 1]
        g_target = part_j.members[target_local - 1]
        block[pos_i[g_target], cj] = 1.0
    img = np.array(gmap)
    lip, _ = _scan_pairs(sub_j, lambda xs, ys: sub_j.dist[img[xs], img[ys]])
    return block, float(lip)
