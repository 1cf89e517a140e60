"""Annulus decompositions of a pointed space and the operators between the
free space and the ell_p-sum of free spaces over starred annuli.

All operators are realized as matrices on delta-bases (column = image of a
basis molecule), so identity compositions are checked in plain matrix
arithmetic.  Operator norms of linearized point maps are reported as the
measured Lipschitz constant of the generating map; for inverse-type maps
only sampled lower bounds are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    BadFamily,
    BadParameter,
    CoverageGap,
    SupportMismatch,
)
from .freenorm import FOREST_LIMIT_DEFAULT, measure_lipschitz, norm_value
from .geometry import radial_clamp_builder
from .metric import ABS_TOL, IntervalSpec, _check_p

GRID_SAMPLES_PER_SEGMENT = 64


# ---------------------------------------------------------------------------
# piecewise-linear weights


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function with constant extension beyond breakpoints."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, u):
        return np.interp(u, self.xs, self.ys)


def trapezoid(lo, hi, r, height=None):
    """1-Lipschitz bump supported on (lo, hi), flat at ``height`` (default r)
    on [lo + r, hi - r]; infinite endpoints drop the corresponding ramp.

    With ``height`` set, slopes become height/r instead of 1.
    """
    h = r if height is None else height
    lo_inf = lo == -math.inf
    hi_inf = hi == math.inf
    if lo_inf and hi_inf:
        return PiecewiseLinear(np.array([0.0]), np.array([h]))
    if lo_inf:
        return PiecewiseLinear(np.array([hi - r, hi]), np.array([h, 0.0]))
    if hi_inf:
        return PiecewiseLinear(np.array([lo, lo + r]), np.array([0.0, h]))
    if hi - lo >= 2 * r:
        return PiecewiseLinear(np.array([lo, lo + r, hi - r, hi]),
                               np.array([0.0, h, h, 0.0]))
    mid = 0.5 * (lo + hi)
    peak = h * (hi - lo) / (2 * r)
    return PiecewiseLinear(np.array([lo, mid, hi]), np.array([0.0, peak, 0.0]))


def _max_open_overlap(supports):
    """Maximum number of open intervals covering any single real point, by
    one sweep over the sorted endpoints; at a shared endpoint the closing
    interval is counted out before the opening one is counted in."""
    events = sorted(e for lo, hi in supports if lo < hi
                    for e in ((lo, 1), (hi, -1)))
    return max(accumulate(step for _, step in events), default=0)


def _coverage_gap(plateaus, window):
    """First point of ``window`` not covered by the closed plateaus, or None."""
    lo_w, hi_w = window
    segs = sorted((lo, hi) for lo, hi in plateaus if hi >= lo)
    reach = lo_w
    for lo, hi in segs:
        if lo > reach + ABS_TOL:
            return 0.5 * (reach + min(lo, hi_w))
        reach = max(reach, hi)
        if reach >= hi_w:
            return None
    return 0.5 * (reach + hi_w) if reach < hi_w - ABS_TOL else None


@dataclass(frozen=True)
class WeightSystem:
    """Partition of unity built from 1-Lipschitz trapezoids.

    psi_n = phi_n / Phi sums to one on the working window; each psi_n is
    positive exactly on the open support of its bump phi_n.
    """

    phis: tuple          # PiecewiseLinear bumps
    phi_total: PiecewiseLinear
    k: int
    r: float
    window: tuple

    def psi_values(self, us):
        """Matrix of psi_n(u) values, shape (n_pieces, len(us))."""
        us = np.atleast_1d(np.asarray(us, dtype=float))
        raw = np.vstack([phi(us) for phi in self.phis])
        total = self.phi_total(us)
        if np.any(total <= 0):
            u = float(us[int(np.argmin(total))])
            raise CoverageGap(f"weight total vanishes at u={u}", witness=u)
        return raw / total

    def refined_grid(self):
        """Breakpoint union refined with intermediate samples, within window."""
        lo, hi = self.window
        xs = {lo, hi}
        for phi in self.phis:
            xs.update(float(x) for x in phi.xs if lo <= x <= hi)
        xs = sorted(xs)
        grid = []
        for a, b in zip(xs, xs[1:]):
            grid.extend(np.linspace(a, b, GRID_SAMPLES_PER_SEGMENT + 2)[:-1])
        grid.append(xs[-1])
        return np.unique(np.array(grid))  # near-coincident breakpoints

    def lipschitz_bound(self):
        """The closed-form bound 3k/r for each normalized weight."""
        return 3.0 * self.k / self.r

    def measured_lipschitz(self):
        """Largest difference quotient of any psi_n on the refined grid."""
        grid = self.refined_grid()
        vals = self.psi_values(grid)
        dq = np.abs(np.diff(vals, axis=1)) / np.diff(grid)[None, :]
        return float(dq.max())


def build_hat_partition(intervals, r, k, window=None):
    """Partition of unity subordinate to a k-overlapping open interval family.

    ``intervals`` are the open supports (a_n, b_n); the plateaus
    [a_n + r, b_n - r] must cover the working window.  Each psi_n is
    (3k/r)-Lipschitz and positive exactly on (a_n, b_n).
    """
    if not r > 0:
        raise BadParameter(f"margin r={r} must be positive")
    if not k >= 1:
        raise BadParameter(f"overlap bound k={k} must be >= 1")
    supports = [(float(lo), float(hi)) for lo, hi in intervals]
    if not supports:
        raise BadParameter("need at least one interval")
    for lo, hi in supports:
        if not lo < hi:
            raise BadParameter(f"empty support interval ({lo}, {hi})")
    overlap = _max_open_overlap(supports)
    if overlap > k:
        raise BadFamily(f"family is {overlap}-overlapping, declared k={k}")
    if window is None:
        finite = [x for s in supports for x in s if math.isfinite(x)]
        if not finite:
            window = (-1.0, 1.0)
        else:
            window = (min(finite), max(finite))
    plateaus = [(lo + r, hi - r) for lo, hi in supports]
    gap = _coverage_gap(plateaus, window)
    if gap is not None:
        raise CoverageGap(f"window point u={gap} not covered by any plateau",
                          witness=gap)
    phis = tuple(trapezoid(lo, hi, r) for lo, hi in supports)
    xs = sorted({float(x) for phi in phis for x in phi.xs})
    if not xs:
        xs = [0.0]
    xs = np.array(xs)
    total = np.sum([phi(xs) for phi in phis], axis=0)
    phi_total = PiecewiseLinear(xs, total)
    return WeightSystem(phis=phis, phi_total=phi_total, k=k, r=r,
                        window=tuple(window))


def unit_bump_family(intervals, r):
    """The unnormalized weights of pairwise disjoint unit-height bumps,
    value 1 on [a_n + r, b_n - r] and support (a_n, b_n): the function
    taking a vector of log-radii to one row per bump."""
    supports = [(float(lo), float(hi)) for lo, hi in intervals]
    for (_, hi), (lo2, _) in zip(sorted(supports), sorted(supports)[1:]):
        if hi > lo2 + ABS_TOL:
            raise BadFamily("unit bump supports must be pairwise disjoint")
    bumps = [trapezoid(lo, hi, r, height=1.0) for lo, hi in supports]
    return lambda us: np.vstack([bump(us) for bump in bumps])


# ---------------------------------------------------------------------------
# annulus families and operator matrices


@dataclass(frozen=True)
class AnnulusPart:
    key: int
    radius_interval: IntervalSpec
    members: tuple                # global indices of nonbase points
    subspace: object              # PointedMetricSpace, base first


@dataclass(frozen=True)
class AnnulusFamily:
    """Starred annuli M*_{A_n} of a pointed space, one per interval A_n of
    base distances; ``R`` is the log scale the weights read."""

    space: object
    R: float
    parts: tuple


def annulus_family(space, R, radius_intervals):
    """The starred annuli {base} + {x : d(base, x) in A_n}, one part per
    interval A_n of base distances.  Membership is tested on the radii
    themselves, so closed endpoints at sample radii are kept; ``R`` is the
    scale in which ``operator_T``'s weights read log-radii."""
    if not R > 1:
        raise BadParameter(f"R={R} must exceed 1")
    radii = space.radii()
    parts = []
    for key, riv in enumerate(radius_intervals):
        mask = riv.contains(radii)
        members = tuple(i for i in range(space.n) if mask[i] and i != space.base)
        subspace = space.take([space.base] + list(members), 0)
        parts.append(AnnulusPart(key, riv, members, subspace))
    return AnnulusFamily(space=space, R=R, parts=tuple(parts))


@dataclass(frozen=True)
class LinearMapMatrix:
    """Matrix of a linear map between free spaces on their delta-bases."""

    row_labels: tuple
    col_labels: tuple
    matrix: np.ndarray

    def compose(self, other):
        if self.col_labels != other.row_labels:
            raise BadParameter("label mismatch in composition")
        return LinearMapMatrix(self.row_labels, other.col_labels,
                               self.matrix @ other.matrix)

    def residual_vs_identity(self):
        if self.row_labels != self.col_labels:
            raise BadParameter("identity residual needs matching bases")
        eye = np.eye(len(self.row_labels))
        if len(self.row_labels) == 0:
            return 0.0
        return float(np.abs(self.matrix - eye).max())


def _sum_basis(family):
    labels = []
    for part in family.parts:
        labels.extend((part.key, g) for g in part.members)
    return tuple(labels)


def _space_basis(space):
    return tuple(i for i in range(space.n) if i != space.base)


def _placed(rows, cols, entries):
    """The matrix over the labels ``rows`` and ``cols`` holding each (row
    label, column label, value) of ``entries``."""
    row_pos = {lab: i for i, lab in enumerate(rows)}
    col_pos = {lab: i for i, lab in enumerate(cols)}
    m = np.zeros((len(rows), len(cols)))
    for r, c, v in entries:
        m[row_pos[r], col_pos[c]] = v
    return LinearMapMatrix(rows, cols, m)


def operator_P(family):
    """Sum of canonical inclusions: (mu_n)_n -> sum_n L_n(mu_n)."""
    return _placed(_space_basis(family.space), _sum_basis(family),
                   ((g, (key, g), 1.0) for key, g in _sum_basis(family)))


def _log_radii(space, R):
    """log_R d(base, x) for the nonbase points x, in basis order."""
    return np.log(np.delete(space.radii(), space.base)) / math.log(R)


def _point_weights(space, R, psi):
    """The (parts x points) matrix of ``psi`` at each nonbase point's log_R
    radius; ``psi`` maps a vector of log-radii to one row per part.  The
    base column is 0: delta(base) = 0, so no weight is read there."""
    return np.insert(psi(_log_radii(space, R)), space.base, 0.0, axis=1)


def operator_T(family, psi):
    """Weighted diagonal-to-sum operator delta(x) -> (psi_n(u_x) delta_n(x))_n,
    with u_x = log_R d(base, x) and ``psi`` mapping a vector of log-radii to
    one row per part, as ``_point_weights`` reads it.

    Requires each weight's support to stay inside its annulus interval on
    the realized radii (up to ``ABS_TOL``), so the extension choice
    delta_n(x) = 0 off the annulus is never exercised with a nonzero weight.
    ``measure_map_into_sum`` measures the generating map.
    """
    space = family.space
    w = _point_weights(space, family.R, psi)
    member_sets = [set(part.members) for part in family.parts]

    def entries():
        for g in _space_basis(space):
            for ni, part in enumerate(family.parts):
                val = float(w[ni, g])
                if val == 0.0:
                    continue
                if g not in member_sets[ni]:
                    if abs(val) <= ABS_TOL:
                        continue
                    raise SupportMismatch(
                        f"weight {ni} is {val} at point {g} outside its annulus")
                yield (part.key, g), g, val
    return _placed(_sum_basis(family), _space_basis(space), entries())


def operator_block_inclusion(fine, coarse):
    """Canonical embedding of the sum over subsets (per-part inclusion)."""
    rows, cols = _sum_basis(coarse), _sum_basis(fine)
    held = set(rows)
    missing = [lab for lab in cols if lab not in held]
    if missing:
        raise BadFamily(f"fine part member {missing[0]} missing from coarse "
                        f"family")
    return _placed(rows, cols, ((lab, lab, 1.0) for lab in cols))


def operator_block_diagonal(blocks, fine, coarse):
    """Block-diagonal operator from per-part matrices (J-basis to I-basis)."""
    return _placed(_sum_basis(coarse), _sum_basis(fine), (
        ((part_c.key, gi), (part_f.key, gj), block[ri, cj])
        for part_f, part_c, block in zip(fine.parts, coarse.parts, blocks)
        for cj, gj in enumerate(part_f.members)
        for ri, gi in enumerate(part_c.members) if block[ri, cj] != 0.0))


# ---------------------------------------------------------------------------
# closed-form bounds


def norm_bound_T(p, k, R, K1, K2):
    """Norm bound for the weighted annulus operator, exactly as printed:

    (2k)^{1/p} * (K1^p / log^p R + max(K1^p R^p / log^p R,
                                       K2^p R^p / (R-1)^p))^{1/p}
    """
    _check_p(p)
    if not R > 1:
        raise BadParameter(f"R={R} must exceed 1")
    if not k >= 1:
        raise BadParameter(f"k={k} must be >= 1")
    if not (K1 > 0 and K2 > 0):
        raise BadParameter("K1 and K2 must be positive")
    lr = math.log(R)
    inner = (K1 ** p / lr ** p
             + max(K1 ** p * R ** p / lr ** p, K2 ** p * R ** p / (R - 1) ** p))
    return (2 * k) ** (1 / p) * inner ** (1 / p)


def separated_family_bound(K, p):
    """Inverse bound (K^p + 1)^{1/p} (K^p - 1)^{-1/p} for gap K > 1."""
    _check_p(p)
    if not K > 1 or K ** p <= 1:
        raise BadParameter(f"gap K={K!r} must exceed 1, with K^p > 1 at p={p}")
    return (K ** p + 1) ** (1 / p) * (K ** p - 1) ** (-1 / p)


# ---------------------------------------------------------------------------
# measured constants


def measure_map_into_sum(family, weight_matrix, p,
                         exact_limit=FOREST_LIMIT_DEFAULT):
    """Measured Lipschitz constant of x -> (w_n(x) delta_n(x))_n into the
    ell_p-sum over the parts of ``family``, by ``measure_lipschitz``.

    weight_matrix has shape (n_parts, n_points) over global indices.  Part
    norms are exact at p = 1 and on parts of at most ``exact_limit`` points,
    and otherwise support-restricted upper bounds, which keeps the
    comparison against closed-form bounds sound.  Returns (value, pair,
    all_exact).
    """
    n = family.space.n
    parts = []
    for ni, part in enumerate(family.parts):
        members = list(part.members)
        rows = np.zeros((n, part.subspace.n))
        rows[members, np.arange(1, part.subspace.n)] = weight_matrix[ni, members]
        parts.append((part.subspace, rows))
    return measure_lipschitz(family.space, parts, p, exact_limit)


# ---------------------------------------------------------------------------
# preset families


def unit_interval_cores(umin, umax):
    """Cores [n + 1/2, n + 3/2] with margin 1/2 whose bumps fill the outer
    intervals [n, n + 2]; covers log-radii in [umin, umax]."""
    lo = int(math.floor(umin)) - 2
    hi = int(math.ceil(umax)) + 1
    cores = [(n + 0.5, n + 1.5) for n in range(lo, hi)]
    outer = [IntervalSpec(float(n), float(n + 2), True, True)
             for n in range(lo, hi)]
    return cores, 0.5, outer


def two_band_cores(c3=0.5):
    """The two-set split {(-inf, c3], [0, inf)} of the log-radius line:
    cores (-inf, c3/2] and [c3/2, inf) with margin c3/2, so the bumps are
    exactly (-inf, c3) and (0, inf)."""
    if not c3 > 0:
        raise BadParameter(f"split point c3={c3} must be positive")
    r = c3 / 2.0
    cores = [(-math.inf, r), (r, math.inf)]
    outer = [IntervalSpec(-math.inf, c3, False, True),
             IntervalSpec(0.0, math.inf, True, False)]
    return cores, r, outer


@dataclass(frozen=True)
class SeparatedInverseReport:
    gap: float
    bound: float
    max_ratio: float
    certified: bool


def verify_separated_inverse(family, p, samples=200, seed=0,
                             exact_limit=FOREST_LIMIT_DEFAULT):
    """Sampled lower bound for the inverse norm of P on a separated partition.

    The family must partition the nonbase points and have multiplicative gap
    K > 1 between consecutive annuli; the sampled max of |e| / |P(e)| is
    compared against the closed-form bound.
    """
    if samples < 1:
        raise BadParameter(f"samples={samples} must be positive")
    members = sorted(g for part in family.parts for g in part.members)
    if members != list(_space_basis(family.space)):
        raise BadFamily("annuli must partition the nonbase points")
    ivs = sorted((part.radius_interval for part in family.parts),
                 key=lambda iv: iv.lo)
    gap = math.inf
    for m_iv, n_iv in zip(ivs, ivs[1:]):
        if m_iv.hi <= 0 or not math.isfinite(m_iv.hi):
            raise BadFamily("separated family needs finite positive annulus tops")
        gap = min(gap, n_iv.lo / m_iv.hi)
    if not gap > 1:
        raise BadFamily(f"gap K={gap} is not > 1")
    # a single annulus has no gap constraint; the bound degenerates to 1
    bound = 1.0 if math.isinf(gap) else separated_family_bound(gap, p)
    rng = np.random.default_rng(seed)
    space = family.space
    best = 0.0
    certified = True
    for _ in range(samples):
        vec_total = np.zeros(space.n)
        acc = 0.0
        for part in family.parts:
            sub = part.subspace
            coef = rng.standard_normal(len(part.members))
            vec = np.zeros(sub.n)
            vec[1:] = coef
            vec[0] = -coef.sum()
            v, exact = norm_value(sub, vec, p, exact_limit=exact_limit)
            certified = certified and exact
            acc += v ** p
            for li, g in enumerate(part.members):
                vec_total[g] += coef[li]
        vec_total[space.base] = -vec_total.sum() + vec_total[space.base]
        num = acc ** (1 / p)
        den, exact = norm_value(space, vec_total, p, exact_limit=exact_limit)
        certified = certified and exact
        if den > 0:
            best = max(best, num / den)
    return SeparatedInverseReport(gap=float(gap), bound=float(bound),
                                  max_ratio=float(best), certified=certified)


@dataclass(frozen=True)
class IdentityReport:
    residual: float
    measured_T: float
    bound_T: float
    witness_pair: tuple | None
    weight_sum_error: float
    measured_exact: bool


def verify_pst_identity(space, cores, r, R, p, outer_intervals=None,
                        exact_limit=FOREST_LIMIT_DEFAULT):
    """The complementation identity P o S o T = Id on the delta-basis.

    ``cores`` are the closed plateau intervals [a_n, b_n]; the weights live
    on J_n = (a_n - r, b_n + r) and the outer annuli default to the closure
    of J_n.  Returns the matrix residual together with the measured norm of
    T against its closed-form bound, with k the largest overlap of the J_n.
    """
    cores = [(float(a), float(b)) for a, b in cores]
    js = [(a - r, b + r) for a, b in cores]
    if outer_intervals is None:
        outer_intervals = [IntervalSpec(lo, hi, math.isfinite(lo),
                                        math.isfinite(hi)) for lo, hi in js]
    for (lo, hi), iv in zip(js, outer_intervals):
        inner = IntervalSpec(lo, hi, False, False)
        if iv.intersect(inner) != inner:
            raise BadFamily(f"margin interval ({lo}, {hi}) escapes outer {iv}")
    k = max(1, _max_open_overlap(js))
    us = _log_radii(space, R)
    if us.size == 0:
        raise BadFamily("space has no nonbase points")
    window = (float(us.min()), float(us.max()))
    weights = build_hat_partition(js, r, k, window=window)

    j_ivs = [IntervalSpec(lo, hi, False, False).exp_base(R) for lo, hi in js]
    fam_j = annulus_family(space, R, j_ivs)
    fam_i = annulus_family(space, R, [iv.exp_base(R) for iv in outer_intervals])
    T = operator_T(fam_j, weights.psi_values)
    S = operator_block_inclusion(fam_j, fam_i)
    P = operator_P(fam_i)
    residual = P.compose(S).compose(T).residual_vs_identity()

    wmat = _point_weights(space, R, weights.psi_values)
    sums = np.delete(wmat, space.base, axis=1).sum(axis=0)
    weight_sum_error = float(np.abs(sums - 1.0).max())

    bound = norm_bound_T(p, k, R, weights.lipschitz_bound(), 1.0)
    measured, pair, exact = measure_map_into_sum(fam_j, wmat, p,
                                                 exact_limit=exact_limit)
    return IdentityReport(residual=residual, measured_T=float(measured),
                          bound_T=float(bound), witness_pair=pair,
                          weight_sum_error=weight_sum_error,
                          measured_exact=exact)


@dataclass(frozen=True)
class ReverseIdentityReport:
    residual: float
    measured_T: float
    bound_T: float
    measured_E: float
    measured_exact: bool


def verify_etp_identity(space, bump_intervals, inner_intervals, r, R, p,
                        exact_limit=FOREST_LIMIT_DEFAULT):
    """The reverse identity E o T o P = Id on the ell_p-sum basis.

    ``bump_intervals`` are the pairwise disjoint open J_n = (a_n, b_n);
    ``inner_intervals`` the I_n with I_n inside [a_n + r, b_n - r].  Each
    per-part extension operator E_n is the radial clamp of the bump part
    onto the inner part (``radial_clamp_builder``), so the space must be an
    embedded sigma-closed sample.
    """
    js = [(float(a), float(b)) for a, b in bump_intervals]
    for (a, b), iv in zip(js, inner_intervals):
        inner = IntervalSpec(a + r, b - r, True, True)
        if iv.intersect(inner) != iv:
            raise BadFamily(f"inner interval {iv} escapes plateau [{a + r}, {b - r}]")
    psi = unit_bump_family(js, r)
    j_ivs = [IntervalSpec(a, b, False, False).exp_base(R) for a, b in js]
    fam_j = annulus_family(space, R, j_ivs)
    fam_i = annulus_family(space, R, [iv.exp_base(R) for iv in inner_intervals])
    for pj, pi in zip(fam_j.parts, fam_i.parts):
        missing = set(pi.members) - set(pj.members)
        if missing:
            raise BadFamily(f"inner annulus points {missing} missing from bump annulus")

    e_blocks = []
    measured_E = 0.0
    for pj, pi in zip(fam_j.parts, fam_i.parts):
        block, lip = radial_clamp_builder(pj, pi)
        e_blocks.append(block)
        measured_E = max(measured_E, lip)

    T = operator_T(fam_j, psi)
    P_i = operator_P(fam_i)
    E = operator_block_diagonal(e_blocks, fam_j, fam_i)
    residual = E.compose(T).compose(P_i).residual_vs_identity()

    wmat = _point_weights(space, R, psi)
    bound = norm_bound_T(p, 1, R, 1.0 / r, 1.0)
    measured, _, exact = measure_map_into_sum(fam_j, wmat, p, exact_limit=exact_limit)
    return ReverseIdentityReport(residual=residual, measured_T=float(measured),
                                 bound_T=float(bound),
                                 measured_E=float(measured_E),
                                 measured_exact=exact)


@dataclass(frozen=True)
class CommutingReport:
    max_semigroup_residual: float
    identity_from: int | None
    measured_norms: tuple
    bound: float


def commuting_approximants(space, R, m_max, p, exact_limit=FOREST_LIMIT_DEFAULT):
    """Truncated hat-weight approximants S_m with the min-semigroup law.

    S_m(delta(x)) = (sum of the 2m+1 central hat weights at log_R d(0,x))
    times delta(x); the hats have width 2R around centers R*n, slope 1/R,
    and m runs over 1..m_max.  Returns the matrices (indexed by m-1), the
    max residual of S_m S_m' = S_min(m, m'), the first m with S_m = Id, and
    measured norms against the closed-form bound with k = 2, K1 = 1/R,
    K2 = 1.

    The min-semigroup relation with m = m' forces the truncated weight sum
    to take only the values 0 and 1 on realized radii; fixtures should
    place points at hat centers R^(R n), inside the central plateau, or
    beyond the last hat.
    """
    if not R > 1:
        raise BadParameter(f"R={R} must exceed 1")
    nonbase = _space_basis(space)
    if not nonbase:
        raise BadFamily("space has no nonbase points")

    def truncated_sums(us):
        sums = np.zeros((m_max, us.size))
        for m in range(1, m_max + 1):
            for n in range(-m, m + 1):
                sums[m - 1] += np.maximum(1.0 - np.abs(us - R * n) / R, 0.0)
        return sums

    diags = _point_weights(space, R, truncated_sums)
    mats = [LinearMapMatrix(nonbase, nonbase, np.diag(np.delete(w, space.base)))
            for w in diags]
    resid = 0.0
    for a in range(len(mats)):
        for b in range(len(mats)):
            prod = mats[a].compose(mats[b]).matrix
            resid = max(resid, float(np.abs(prod - mats[min(a, b)].matrix).max()))
    identity_from = None
    for m, mat in enumerate(mats, start=1):
        if np.abs(np.diag(mat.matrix) - 1.0).max(initial=0.0) <= 1e-12:
            identity_from = m
            break
    bound = norm_bound_T(p, 2, R, 1.0 / R, 1.0)
    # x -> S_m(delta(x)) has one part, F_p(space), whose row x is w(x) on
    # point x; the base row is 0, as delta(base) = 0
    norms = [float(measure_lipschitz(space, [(space, np.diag(w))], p,
                                     exact_limit)[0]) for w in diags]
    return mats, CommutingReport(max_semigroup_residual=resid,
                                 identity_from=identity_from,
                                 measured_norms=tuple(norms), bound=float(bound))
