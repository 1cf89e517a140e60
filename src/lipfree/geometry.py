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
from .extension import _subset_map
from .freenorm import FOREST_LIMIT_DEFAULT, _scan_pairs
from .metric import REL_TOL, _check_p, _distances


def _ambient_norms(space):
    if space.coords is None:
        raise BadParameter("operation needs an embedded sample (coords)")
    origin = np.zeros((1, space.coords.shape[1]))
    return _distances(space.coords, origin, space.norm)[:, 0]


def _ray_snap(space, norms, i, radius, targets=None):
    """The sample point at ``radius`` on the ray through point i (``norms``
    holds the ambient norms), found within ``REL_TOL * radius`` in the
    space's norm among ``targets`` (default: every point)."""
    cand = np.arange(space.n) if targets is None else np.asarray(targets)
    target = (radius / norms[i]) * space.coords[i]
    d = _distances(space.coords[cand], target[None], space.norm)[:, 0]
    j = int(np.argmin(d))
    if d[j] > REL_TOL * radius:
        raise NotSigmaClosed(
            f"scaled point {target} is {d[j]:.3g} from the nearest sample")
    return int(cand[j])


@dataclass(frozen=True)
class RetractionReport:
    point_map: tuple
    measured_lip: float
    slack: float
    witness_pair: tuple | None


def radial_retraction(space, S):
    """Radial retraction onto the ball of radius S around the origin.

    Points inside (radius at most S, up to ``REL_TOL * S``) stay put; outer
    points are pulled along their ray to the boundary and snapped to the
    sample.  The measured Lipschitz constant is reported together with its
    excess over 2, which only reflects sample resolution.
    """
    if not S > 0:
        raise BadParameter(f"S={S} must be positive")
    norms = _ambient_norms(space)
    inside = norms <= S * (1 + REL_TOL)
    pmap = [i if inside[i] else _ray_snap(space, norms, i, S)
            for i in range(space.n)]
    img = np.array(pmap)
    best, pair = _scan_pairs(space, lambda xs, ys: space.dist[img[xs], img[ys]])
    return RetractionReport(point_map=tuple(pmap), measured_lip=float(best),
                            slack=float(max(0.0, best - 2.0)),
                            witness_pair=pair)


def outward_amenability_map(space, S, p, exact_limit=FOREST_LIMIT_DEFAULT):
    """Scaled outward map onto the part of the sample at radius >= S.

    Inner points are pushed out along their ray and their delta is scaled
    by (radius / S)^alpha, with alpha the space's snowflake exponent, so the
    map restricts to delta on the outer part; measured constant compared
    against 3^{1/p}.  The sample must not contain the origin, and the base
    point must already be outer.  Radii within ``REL_TOL * S`` count as
    equal.
    """
    if not S > 0:
        raise BadParameter(f"S={S} must be positive")
    _check_p(p)
    norms = _ambient_norms(space)
    if norms.min() <= REL_TOL * S:
        raise BadSubset("sample contains the origin")
    outer = [i for i in range(space.n) if norms[i] >= S * (1 - REL_TOL)]
    if space.base not in outer:
        raise BadParameter("base point must lie at radius >= S")
    coeffs = np.zeros((space.n, len(outer)))
    for i in range(space.n):
        if norms[i] < S * (1 - REL_TOL):
            j = _ray_snap(space, norms, i, S, outer)
            coeffs[i, outer.index(j)] = (norms[i] / S) ** space.alpha
    return _subset_map(space, outer, coeffs, p, 3.0 ** (1.0 / p), exact_limit,
                       True)


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
    heights: np.ndarray
    radii: np.ndarray
    max_abs_error: float
    band_error: float
    coincident_pairs: int  # neighbours in lexicographic order, within 1e-12


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
    # injectivity on the sample: images next to each other in lexicographic
    # order that agree within 1e-12
    steps = np.diff(image[np.lexsort(image.T)], axis=0)
    coincident = int((np.abs(steps).max(axis=1) <= 1e-12).sum())
    return StereoReport(heights=h, radii=radii, max_abs_error=err,
                        band_error=band_err, coincident_pairs=coincident)


def mirror_band_residual(sample):
    """Distance-matrix residual between a band and its height-mirrored copy."""
    v = sample.vectors
    w = v.copy()
    w[:, -1] *= -1.0
    dv = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    dw = np.sqrt(((w[:, None, :] - w[None, :, :]) ** 2).sum(axis=2))
    return float(np.abs(dv - dw).max())


def radial_clamp_builder(part_j, part_i):
    """Extension operator E_n of a sigma-closed annulus family: the matrix
    of the linearized radial retraction of the bump part onto the inner
    part, with its measured Lipschitz constant.

    Outer points are pulled along their ray to the nearest realized inner
    radius and snapped onto an inner sample point, so interval endpoints
    never need to coincide with sample radii exactly.
    """
    sub_j = part_j.subspace
    norms = _ambient_norms(sub_j)
    member_pos = {g: li + 1 for li, g in enumerate(part_j.members)}
    inner_local = [member_pos[g] for g in part_i.members]
    if not inner_local:
        raise NotSigmaClosed("inner annulus holds no sample points")
    inner_radii = np.array(sorted({float(norms[li]) for li in inner_local}))
    inner_set = set(inner_local)
    gmap = [0]  # base stays put
    for li in range(1, sub_j.n):
        if li in inner_set:
            gmap.append(li)
            continue
        s = float(inner_radii[int(np.argmin(np.abs(inner_radii - norms[li])))])
        gmap.append(_ray_snap(sub_j, norms, li, s, inner_local))
    pos_i = {g: ri for ri, g in enumerate(part_i.members)}
    block = np.zeros((len(part_i.members), len(part_j.members)))
    for cj, gj in enumerate(part_j.members):
        target_local = gmap[cj + 1]
        g_target = part_j.members[target_local - 1]
        block[pos_i[g_target], cj] = 1.0
    img = np.array(gmap)
    lip, _ = _scan_pairs(sub_j, lambda xs, ys: sub_j.dist[img[xs], img[ys]])
    return block, float(lip)
