"""Whitney covers of a subset and the doubling extension operator.

The cover is the deterministic construction over dyadic scales: maximal
2^n-separated nets of the subset, annular shells of the complement by their
distance to the subset, nearest-net-point cells, and half-scale
neighborhoods.  The derived weights give a Lipschitz map from the ambient
space into the free space over the subset that restricts to delta on the
subset, with constant controlled by a power of the subset's doubling bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadSubset, InternalInvariantBroken, TooSmall
from .freenorm import (FOREST_LIMIT_DEFAULT, _scan_pairs, measure_lipschitz,
                       norm_rows, norm_value)
from .metric import (_BLOCK, _check_p, _subset_indices,
                     doubling_constant_upper, maximal_separated_net, passes)

# No code here calls ``norm_value`` any more, but the benchmark's tracer
# (perfbench/tracing.py) wraps ``lipfree.extension.norm_value`` by name, so
# the name stays bound until that patch point goes (ROADMAP item 2)
_TRACED_NAMES = (norm_value,)


@dataclass(frozen=True)
class HCheck:
    """One Whitney property as a scale-free ratio against its bound; the
    witness is the first point or pair where the ratio is largest."""

    name: str
    measured: float
    bound: float
    witness: tuple | None


@dataclass(frozen=True)
class WhitneySystem:
    """Indexed family (V_i, phi_i, x_i) over a subset of a finite space.

    Arrays are laid out over ``complement`` positions (points off the
    subset); ``indices`` pairs (scale n, net point) in construction order.
    The patch V_i is where phi_i = d(., X minus V_i) is positive, and the
    total Phi is ``phi.sum(axis=0)``.
    """

    space: object
    net: tuple                 # global indices of the subset, base included
    complement: tuple          # global indices off the subset
    indices: tuple             # (scale n, net point global index)
    phi: np.ndarray            # (n_idx, n_comp)
    psi: np.ndarray            # (n_idx, n_comp)
    dist_to_net: np.ndarray    # (n_comp,)
    doubling_value: int
    overlap_bound: float       # K = 3 * doubling_value**4
    checks: tuple              # HCheck records

    def overlap_histogram(self):
        counts = (self.phi > 0).sum(axis=0)
        hist = {}
        for c in counts:
            hist[int(c)] = hist.get(int(c), 0) + 1
        return hist


def _first_max_pair(ratio, rows, comp):
    """The first position, in row-major order, of the largest entry of a
    symmetric non-negative matrix M over ``comp``, given the rows ``rows``
    of M as ``ratio``, where M[x, y] = 0 unless x or y is in ``rows`` and
    some entry is positive; as a pair of points of ``comp``."""
    a, b = np.nonzero(ratio == ratio.max())
    x, y = rows[a], b
    r = min(x.min(), y.min())
    return int(comp[r]), int(comp[min(np.r_[y[x == r], x[y == r]])])


def _h_checks(space, comp, indices, phi, d_net, K):
    """The Whitney properties of the system as scale-free ratios:

    H1   max d(x_i, x) / d(x, N) over x in V_i    against 7,
    H3   max |phi_i(x) - phi_i(y)| / d(x, y)      against 1,
    H4   max d(x, N) / (4 max_i phi_i(x))         against 1,
    Phi  max |Phi(x) - Phi(y)| / d(x, y)          against 2K.

    The K-overlap of the cover is the suite's overlap record, and the
    cover itself holds by construction (each cell lies in its own V_i), as
    does phi_i = 0 off V_i; Phi >= max_i phi_i, so H4 gives Phi >= d(x, N)/4.
    V_i is read as the support of phi_i.
    Ties go to the first index, then the first point or pair.
    """
    comp = np.asarray(comp)
    dcomp = space.dist[np.ix_(comp, comp)]
    np.fill_diagonal(dcomp, math.inf)  # x = y has no ratio
    h1, w1 = 0.0, None
    for ii, (_, y) in enumerate(indices):
        cols = np.flatnonzero(phi[ii])
        ratio = space.dist[y, comp[cols]] / d_net[cols]
        j = int(np.argmax(ratio))
        if ratio[j] > h1:
            h1, w1 = float(ratio[j]), (int(y), int(comp[cols[j]]))
    # only pairs with a point in phi_i's support can have a positive ratio
    h3, w3 = 0.0, None
    for row in phi:
        on = np.flatnonzero(row)
        ratio = np.abs(row[on, None] - row) / dcomp[on]
        if ratio.max(initial=0.0) > h3:
            h3, w3 = float(ratio.max()), _first_max_pair(ratio, on, comp)
    low = d_net / (4.0 * phi.max(axis=0))
    j = int(np.argmax(low))
    total = phi.sum(axis=0)
    ratio = total[:, None] - total
    np.abs(ratio, out=ratio)
    ratio /= dcomp
    hp = float(ratio.max(initial=0.0))
    wp = _first_max_pair(ratio, np.arange(len(comp)), comp) if hp else None
    return (
        HCheck("H1_anchor_distance", h1, 7.0, w1),
        HCheck("H3_lipschitz_support", h3, 1.0, w3),
        HCheck("H4_lower_bound", float(low[j]), 1.0, (int(comp[j]),)),
        HCheck("Phi_lipschitz", hp, 2.0 * K, wp),
    )


def whitney_cover(space, net):
    """Whitney system for a subset ``net`` (global indices, base included).

    Scales range over the dyadic exponents realized by distances to the
    subset; nets are greedy in stored point order, nearest-net cells break
    ties by point order, and patches are half-scale neighborhoods of the
    cells.  All structural properties are checked exhaustively.
    """
    net = _subset_indices(space, net)
    if not net:
        raise BadSubset("subset must be nonempty")
    if space.base not in net:
        raise BadSubset("subset must contain the base point")
    comp = [i for i in range(space.n) if i not in set(net)]
    comp_idx = np.array(comp, dtype=int)
    net_sub = space.take(net, net.index(space.base))
    doubling = doubling_constant_upper(net_sub)
    K = 3 * doubling.value ** 4

    if not comp:
        system = WhitneySystem(
            space=space, net=tuple(net), complement=(), indices=(),
            phi=np.zeros((0, 0)), psi=np.zeros((0, 0)),
            dist_to_net=np.zeros(0),
            doubling_value=doubling.value, overlap_bound=float(K), checks=())
        return system

    d_net = space.dist[np.ix_(comp, net)].min(axis=1)
    n_lo = int(math.floor(math.log2(d_net.min())))
    n_hi = int(math.floor(math.log2(d_net.max())))

    # phi_i = d(., X \ V_i) on V_i and 0 off it, computed on V_i's rows only
    indices = []
    phi = []
    for scale in range(n_lo, n_hi + 1):
        radius = 2.0 ** scale
        shell = np.nonzero((d_net >= radius) & (d_net < 2 * radius))[0]
        if shell.size == 0:
            continue
        net_pts = maximal_separated_net(space, net, radius)
        dmat = space.dist[np.ix_(comp_idx[shell], net_pts)]
        nearest = np.argmin(dmat, axis=1)  # ties -> first (stored order)
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

    phi = np.array(phi)  # every complement point lies in some cell
    phi_total = phi.sum(axis=0)
    if np.any(phi_total <= 0):
        raise InternalInvariantBroken("weight total vanishes off the subset")
    psi = phi / phi_total[None, :]

    checks = _h_checks(space, comp, indices, phi, d_net, K)
    system = WhitneySystem(
        space=space, net=tuple(net), complement=tuple(comp),
        indices=tuple(indices), phi=phi, psi=psi, dist_to_net=d_net,
        doubling_value=doubling.value, overlap_bound=float(K), checks=checks)
    failed = [c for c in checks if not passes(c.measured, c.bound, None)]
    if failed:
        raise InternalInvariantBroken(
            "whitney properties failed: "
            + "; ".join(f"{c.name} {c.measured:.6g} > {c.bound:.6g} at "
                        f"{c.witness}" for c in failed))
    return system


@dataclass(frozen=True)
class ExtensionMap:
    """Point-to-molecule assignment restricting to delta on the subset.

    coeffs[x] holds the delta-coordinates of the image of point x over the
    subset subspace; ``net`` lists the subset in that subspace's order,
    the base first and stored order otherwise.
    """

    space: object
    net: tuple              # global indices, in the columns' order
    net_subspace: object
    coeffs: np.ndarray      # (n_points, n_net)
    p: float
    measured_lip: float
    lip_bound: float
    witness_pair: tuple | None
    measured_exact: bool


def _subset_map(space, net, coeffs, p, bound, exact_limit, measure):
    """The map x -> sum_j coeffs[x, j] delta(net[j]) into the free space
    over ``net`` (sorted global indices, base included), with delta on
    ``net`` itself, so callers fill only the rows off it.  The columns are
    laid out base first, and the measured constant, if ``measure``, is
    compared against ``bound``."""
    net = list(net)
    cols = np.arange(len(net))
    coeffs[net, cols] = 1.0
    at = net.index(space.base)
    cols = np.r_[at, np.delete(cols, at)]
    order = tuple(net[j] for j in cols)
    sub = space.take(order, 0)
    coeffs = coeffs[:, cols]
    if measure:
        lip, pair, exact = measure_lipschitz(space, [(sub, coeffs)], p,
                                             exact_limit)
    else:
        lip, pair, exact = float("nan"), None, False
    return ExtensionMap(space=space, net=order, net_subspace=sub,
                        coeffs=coeffs, p=p, measured_lip=float(lip),
                        lip_bound=float(bound), witness_pair=pair,
                        measured_exact=exact)


def extension_constant(p, doubling_value):
    """The closed-form target 112 * 15^{1/p} * D^{4/p}."""
    return 112.0 * 15.0 ** (1.0 / p) * float(doubling_value) ** (4.0 / p)


@dataclass(frozen=True)
class CrucialReport:
    worst_pair: tuple | None
    max_ratio: float  # lhs / rhs, should stay <= 1


def weight_variation_check(system, p):
    """Per-pair weight-variation inequality off the subset:

    sum_i |psi_i(x) - psi_i(y)|^p <= (2 * 8^p * K / A^p) * d^p(x, y)
    with A the larger of the two distances to the subset.

    The sums run over blocks of rows x.  Index i adds its terms only on
    the pairs where x or y lies in psi_i's support; every other term is
    +0.0, which leaves a non-negative sum unchanged, so each sum is the
    one over all i in index order.  The worst pair is the first maximum
    in (x, y) order.
    """
    comp = np.array(system.complement, dtype=int)
    m = len(comp)
    if m < 2:
        return CrucialReport(None, 0.0)
    psi = system.psi
    psi_p = psi ** p  # |psi_i(x) - 0|^p
    held = [(np.flatnonzero(row), np.flatnonzero(row == 0)) for row in psi]
    d_net = system.dist_to_net
    K = system.overlap_bound
    worst, wpair = 0.0, None
    step = max(1, _BLOCK // m)
    for lo in range(0, m - 1, step):
        hi = min(lo + step, m - 1)
        # the right-hand side, built in place; inf on and below the
        # diagonal leaves a ratio of 0 there, which never beats ``worst``
        rhs = system.space.dist[np.ix_(comp[lo:hi], comp)]
        rhs /= np.maximum(d_net[lo:hi, None], d_net)
        rhs **= p
        rhs *= 2.0 * 8.0 ** p * K
        rhs[np.arange(m) <= np.arange(lo, hi)[:, None]] = np.inf
        lhs = np.zeros((hi - lo, m))
        for row, row_p, (on, off) in zip(psi, psi_p, held):
            lhs[:, on] += np.abs(row[lo:hi, None] - row[on]) ** p
            x = on[(on >= lo) & (on < hi)]
            lhs[np.ix_(x - lo, off)] += row_p[x, None]
        if hi == m - 1:
            # numpy sums a single column pairwise: the last pair keeps that
            lhs[-1, -1] = (np.abs(psi[:, -2] - psi[:, -1]) ** p).sum()
        lhs /= rhs
        a, b = divmod(int(np.argmax(lhs)), m)
        if lhs[a, b] > worst:
            worst, wpair = float(lhs[a, b]), (int(comp[lo + a]), int(comp[b]))
    return CrucialReport(wpair, worst)


def doubling_extension_map(space, net, p, system=None,
                           exact_limit=FOREST_LIMIT_DEFAULT, measure=True):
    """The doubling extension: delta on the subset, Whitney-weighted
    averages of net anchors off it.

    The measured Lipschitz constant (free-norm target over the subset) is
    compared against 112 * 15^{1/p} * D^{4/p} with D the subset's doubling
    bound.  At p < 1 part norms are exact up to ``exact_limit`` points and
    upper bounds above, which keeps the comparison sound.
    """
    _check_p(p)
    if system is None:
        system = whitney_cover(space, net)
    net = system.net
    coeffs = np.zeros((space.n, len(net)))
    comp = np.array(system.complement, dtype=int)
    for (_, y), w in zip(system.indices, system.psi):
        coeffs[comp, net.index(y)] += w  # index order; +0.0 changes nothing
    return _subset_map(space, net, coeffs, p,
                       extension_constant(p, system.doubling_value),
                       exact_limit, measure)


def linearization_residual(ext):
    """Residual of L_f o L_iota = Id on the subset delta-basis; the base
    coefficient is quotiented out."""
    held = ext.coeffs[list(ext.net)] - np.eye(len(ext.net))
    return float(np.abs(held[1:, 1:]).max(initial=0.0))


@dataclass(frozen=True)
class PointRemovalReport:
    new_base: int
    measured_lip: float
    bound: float
    witness_pair: tuple | None
    chain_ratio: float  # worst link of the chain inequality, <= 1


def point_removal_map(space, x0, p):
    """Collapse one point to zero, re-basing at its nearest neighbor.

    The map sends every other point to its own delta and x0 to zero, the
    delta of the new base; with the nearest-neighbor base choice it is
    2^{1/p}-Lipschitz.  Since delta is an isometry into F_p for every p,
    its constant is the largest distance ratio d(f x, f y) / d(x, y).  The
    summed power-distance chain inequality is measured at every remaining
    point.
    """
    if space.n < 2:
        raise TooSmall("need at least two points to remove one")
    x0 = int(x0)
    if not 0 <= x0 < space.n:
        raise BadParameter(f"point {x0} out of range for {space.n} points")
    if x0 == space.base:
        raise BadParameter("removal of the base point is not supported")
    keep = [i for i in range(space.n) if i != x0]
    d0 = space.dist[x0]
    new_base = min(keep, key=lambda i: (d0[i], i))
    img = np.arange(space.n)
    img[x0] = new_base
    lip, pair = _scan_pairs(space, lambda xs, ys: space.dist[img[xs], img[ys]])
    # chain, at every x off {x0, b}: d^p(x0, b) + d^p(x, b)
    #   <= d^p(x0, x) + 2 d^p(x0, b) <= 3 d^p(x0, x), the last as b is a
    #   nearest point to x0; chain_ratio is the worst ratio of either link
    xs = np.array([x for x in keep if x != new_base], dtype=int)
    lhs = d0[new_base] ** p + space.dist[xs, new_base] ** p
    mid = d0[xs] ** p + 2 * d0[new_base] ** p
    chain = np.maximum(lhs / mid, mid / (3 * d0[xs] ** p)).max(initial=0.0)
    return PointRemovalReport(new_base=new_base,
                              measured_lip=float(lip), bound=2.0 ** (1.0 / p),
                              witness_pair=pair, chain_ratio=float(chain))


@dataclass(frozen=True)
class AmenabilityReport:
    max_ratio: float
    mean_ratio: float
    certified: bool
    p: float


def amenability_defect(space, net, p, samples=100, seed=0,
                       exact_limit=FOREST_LIMIT_DEFAULT):
    """Sampled lower bound for the inverse norm of the canonical inclusion.

    Random molecules supported on the subset are normed both in the free
    space over the subset and in the ambient free space; the max ratio is a
    lower bound for the amenability constant when both solves are exact
    (oracle regime), and a logged estimate otherwise (numerator upper bound,
    denominator exact-or-upper).  At p = 1 the canonical embedding is
    isometric, so every ratio is 1 up to solver tolerance.  All samples are
    drawn first, and each side is normed by one ``norm_rows`` call.
    """
    net = _subset_indices(space, net)
    if space.base not in net:
        raise BadSubset("subset must contain the base point")
    if len(net) == 1:
        raise BadSubset("subset has no nonbase point")
    if samples < 1:
        raise BadParameter(f"samples={samples} must be positive")
    order = [space.base] + [i for i in net if i != space.base]
    sub = space.take(order, 0)
    rng = np.random.default_rng(seed)
    nonbase = list(range(1, sub.n))
    vec_sub = np.zeros((samples, sub.n))
    vec_amb = np.zeros((samples, space.n))
    for i in range(samples):
        size = int(rng.integers(1, len(nonbase) + 1))
        chosen = rng.choice(nonbase, size=size, replace=False)
        coef = rng.standard_normal(size)
        vec_sub[i, chosen] = coef
        vec_sub[i, 0] = -coef.sum()
        vec_amb[i, np.take(order, chosen)] = coef
        vec_amb[i, space.base] -= vec_amb[i].sum()
    num, exact_n = norm_rows(sub, vec_sub, p, exact_limit)
    den, exact_d = norm_rows(space, vec_amb, p, exact_limit)
    certified = bool(exact_n.all() and exact_d.all())
    positive = den > 0
    ratios = (num[positive] / den[positive]).tolist()
    return AmenabilityReport(float(max(ratios)), float(np.mean(ratios)),
                             certified, p)
