"""Free-space norms of molecules over finite pointed spaces.

Three solvers cover the (0, 1] exponent range:

* ``free_norm_p1`` -- exact transportation cost at p = 1 by the primal-dual
  method on the dense source x sink cost block, emitting the c-transform of
  the final potentials as a checked 1-Lipschitz dual witness.
* ``free_norm_exact_small`` -- exact for any p in (0, 1] as the cheapest
  spanning tree (vertex solutions of the flow polyhedron have acyclic
  support, and zero-weight edges extend any feasible forest to a spanning
  tree), found by a subset DP and capped at ``forest_limit`` points.
* ``free_norm_upper`` -- feasible representation found by local search over
  tree supports; never below the true norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .errors import BadParameter, InternalInvariantBroken, SizeLimit
from .metric import ABS_TOL

FOREST_LIMIT_DEFAULT = 8
FOREST_LIMIT_MAX = 12  # an exact oracle call: ~0.1 s at 12 points, ~0.35 s at 13


@dataclass(frozen=True)
class Molecule:
    """Finitely supported zero-sum coefficient function on point indices.

    Entered as coefficients on arbitrary points and completed with the
    balancing coefficient at the base point, so the total always vanishes.
    """

    coeffs: tuple  # sorted tuple of (index, coefficient)

    @staticmethod
    def balanced(coeffs, base):
        """Build from a {index: coefficient} map, balancing at ``base``."""
        acc = {}
        for i, c in dict(coeffs).items():
            acc[int(i)] = acc.get(int(i), 0.0) + float(c)
        total = sum(acc.values())
        acc[base] = acc.get(base, 0.0) - total
        items = tuple(sorted((i, c) for i, c in acc.items() if c != 0.0))
        return Molecule(items)

    @staticmethod
    def delta(i, base):
        """The point evaluation molecule of point ``i``."""
        return Molecule.balanced({int(i): 1.0}, base)

    @staticmethod
    def from_vector(vec, base):
        vec = np.asarray(vec, dtype=float)
        return Molecule.balanced({i: v for i, v in enumerate(vec) if v != 0.0 and i != base},
                                 base)

    def as_dict(self):
        return dict(self.coeffs)

    def vector(self, n):
        v = np.zeros(n)
        for i, c in self.coeffs:
            v[i] = c
        return v

    def support(self):
        return tuple(i for i, _ in self.coeffs)

    def total(self):
        return sum(c for _, c in self.coeffs)

    def __add__(self, other):
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, 0.0) + c
        return Molecule(tuple(sorted((i, c) for i, c in acc.items() if c != 0.0)))

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        s = float(scalar)
        if s == 0.0:
            return Molecule(())
        return Molecule(tuple((i, c * s) for i, c in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class FreeNormResult:
    """Norm value with the representation that realizes it.

    representation lists (tail, head, weight) edges so the molecule equals
    the sum of weight * (delta(tail) - delta(head)).  The certificate, when
    present (p = 1), is a 1-Lipschitz function vanishing at the base whose
    pairing with the molecule equals the value.
    """

    value: float
    representation: tuple
    exactness: str  # "exact" or "upper-bound"
    p: float
    certificate: np.ndarray | None = None

    def cost_of_representation(self, space):
        acc = 0.0
        for t, h, w in self.representation:
            acc += abs(w) ** self.p * space.dist[t, h] ** self.p
        return acc ** (1.0 / self.p) if acc > 0 else 0.0


@dataclass(frozen=True)
class SumPart:
    key: int
    space: object  # PointedMetricSpace
    molecule: Molecule


@dataclass(frozen=True)
class SumElement:
    """Element of a finite ell_p-sum of free spaces."""

    parts: tuple  # tuple of SumPart
    p: float

    def __sub__(self, other):
        if other.p != self.p:
            raise BadParameter("cannot combine sum elements with different p")
        by_key = {part.key: part for part in self.parts}
        out = dict(by_key)
        for part in other.parts:
            if part.key in by_key:
                mine = by_key[part.key]
                out[part.key] = SumPart(part.key, mine.space, mine.molecule - part.molecule)
            else:
                out[part.key] = SumPart(part.key, part.space, part.molecule * -1.0)
        return SumElement(tuple(out[k] for k in sorted(out)), self.p)


# ---------------------------------------------------------------------------
# exact oracle: subset dynamic programme over tree supports


def _subsets(mask):
    """Non-empty subsets of a bitmask, largest first."""
    t = mask
    while t:
        yield t
        t = (t - 1) & mask


def _child_splits(s, x):
    """Subtrees T hung below the root x of a tree on s: the subsets of
    s - {x} holding its lowest point, so each tree is counted once."""
    rest = s ^ 1 << x
    low = rest & -rest
    return [low | t for t in _subsets(rest ^ low)] + [low] if rest else []


@cache
def _dp_plan(n):
    """Schedule for ``_tree_dp``: per proper subset S of 2+ points, in
    increasing bitmask order, S, its lowest point lo, its members, the
    points outside it, the splits (T, S - T, members of S - T) with lo in T
    and the splits (T, S - T) below lo; then the root splits per point."""
    full = (1 << n) - 1
    members = [tuple(b for b in range(n) if s >> b & 1)
               for s in range(full + 1)]
    steps = []
    for s in range(3, full):
        low = s & -s
        if s != low:
            lo = low.bit_length() - 1
            steps.append((s, lo, members[s], members[full ^ s],
                          [(s ^ r, r, members[r]) for r in _subsets(s ^ low)],
                          [(t, s ^ t) for t in _child_splits(s, lo)]))
    return steps, [_child_splits(full, x) for x in range(n)]


def _tree_dp(dist, vec, p, root, tree=False):
    """Cheapest spanning tree under the concave cost sum |mu(subtree)|^p d^p.

    Subset DP after Dreyfus & Wagner, Networks 1 (1971) 195-207, in
    O(n 3^n).  For a bitmask S, ``G[S][x]`` is, for x in S, the cheapest
    tree on S rooted at x and, for x outside S, the cheapest tree on S hung
    below x by one edge.  For x in S, ``G[S][x] = min G[T][x] + G[S - T][x]``
    over ``_child_splits(S, x)``.  Returns ``(norm, edges)``; with ``tree``,
    the (child, parent, mass) edges of a cheapest tree, found by
    backtracking which T and u reach each stored minimum.
    """
    n = len(vec)
    steps, roots = _dp_plan(n)
    dpow = (dist ** p).tolist()
    mass = [0.0]  # mass[S], summed in increasing point order
    for v in vec.tolist():
        mass += [m + v for m in mass]
    w = [abs(m) ** p for m in mass]
    G = [None] * len(mass)
    for u in range(n):
        G[1 << u] = gu = [w[1 << u] * dx[u] for dx in dpow]
        gu[u] = 0.0  # not dist[u, u] ** p: the diagonal may hold ABS_TOL
    for s, lo, mem, out, pairs, lows in steps:
        G[s] = gs = [math.inf] * n
        for t, r, r_mem in pairs:
            gt, gr = G[t], G[r]
            for x in r_mem:
                v = gt[x] + gr[x]
                if v < gs[x]:
                    gs[x] = v
        gs[lo] = min([G[t][lo] + G[r][lo] for t, r in lows])
        ws = w[s]
        for x in out:
            dx = dpow[x]
            gs[x] = min([gs[u] + ws * dx[u] for u in mem])
    full = len(mass) - 1
    cost = min([G[t][root] + G[full ^ t][root] for t in roots[root]],
               default=0.0)
    edges, stack = [], [(full, root, cost)] if tree else []
    while stack:
        s, x, target = stack.pop()
        for t in _child_splits(s, x):
            if G[t][x] + G[s ^ t][x] == target:
                u = next(u for u in range(n) if t >> u & 1 and
                         G[t][u] + w[t] * dpow[x][u] == G[t][x])
                edges.append((u, x, mass[t]))
                stack += [(t, u, G[t][u]), (s ^ t, x, G[s ^ t][x])]
                break
    return cost ** (1.0 / p), edges


def _scale(vec):
    s = float(np.abs(vec).sum())
    return s if s > 0 else 1.0


def _check_limit(limit):
    if limit > FOREST_LIMIT_MAX:
        raise SizeLimit(f"exact limit {limit} exceeds the exact oracle's "
                        f"ceiling of {FOREST_LIMIT_MAX} points")


def free_norm_exact_small(space, molecule, p, forest_limit=FOREST_LIMIT_DEFAULT):
    """Exact free norm for p in (0, 1] by the subset DP ``_tree_dp``."""
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")
    _check_limit(forest_limit)
    n = space.n
    if n > forest_limit:
        raise SizeLimit(f"{n} points exceeds forest_limit={forest_limit}")
    vec = molecule.vector(n)
    if abs(vec.sum()) > ABS_TOL * _scale(vec):
        raise BadParameter("molecule does not sum to zero")
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "exact", p)
    value, edges = _tree_dp(space.dist, vec, p, space.base, tree=True)
    eps = 1e-15 * _scale(vec)
    rep = tuple((c, a, m) if m > 0 else (a, c, -m)
                for c, a, m in edges if abs(m) > eps)
    return FreeNormResult(value, rep, "exact", p)


# ---------------------------------------------------------------------------
# p = 1: primal-dual transport on the dense source x sink cost block, with
# the c-transform of the sink potentials as the Kantorovich dual witness

_CERT_TOL = 1e-9


def _transport(dist, vec):
    """Min-cost transportation between the positive and negative parts of vec.

    Returns ``(value, flows, sinks, g)``: ``flows`` lists the sorted
    (source, sink, mass) arcs of an optimal plan, ``sinks`` the sink indices
    and ``g`` their dual potentials.  On a metric, the c-transform
    ``f(x) = min_j dist[x, sinks[j]] + g[j]`` is 1-Lipschitz and pairs with
    ``vec`` to the value.

    Primal-dual method (Ford & Fulkerson, 1957).  Node potentials keep every
    residual reduced cost ``cost + pot_s - pot_t`` non-negative, so flow arcs
    are tight.  Each phase finds the shortest-path forest from all sources
    with excess by whole-matrix label-correcting sweeps.  It lifts the
    potentials by the distances, capped at the largest finite one, which
    keeps reduced costs non-negative and makes the forest tight.  It then
    pushes flow along every forest path that reaches unmet demand, until
    either side has at most 1e-14 of the total mass left.  With a single
    source or sink the only feasible plan is returned directly.
    """
    eps = 1e-14 * _scale(vec)
    srcs = (vec > eps).nonzero()[0]
    sinks = (vec < -eps).nonzero()[0]
    if len(srcs) == 0 or len(sinks) == 0:
        return 0.0, (), sinks, np.zeros(len(sinks))
    cost = dist[srcs[:, None], sinks]
    ns, nt = cost.shape
    if nt == 1:
        flow, pot_t = vec[srcs, None], np.zeros(1)
    elif ns == 1:
        flow, pot_t = -vec[None, sinks], cost[0]
    else:
        excess, deficit = vec[srcs], -vec[sinks]
        cols = np.arange(nt)
        flow = np.zeros((ns, nt))
        pot_s, pot_t = np.zeros(ns), np.zeros(nt)
        for _ in range(1000 + 40 * (ns + nt) ** 2):
            live, short = excess > eps, deficit > eps
            if not (live.any() and short.any()):
                break
            fwd = np.maximum(cost + pot_s[:, None] - pot_t, 0.0)
            back = np.where(flow > eps, 0.0, np.inf)  # flow arcs are tight
            ds = np.where(live, 0.0, np.inf)
            dt = np.full(nt, np.inf)
            pred_s, pred_t = np.full(ns, -1), cols  # first sweep sets pred_t
            while True:  # labels only fall, along simple paths
                reach = ds[:, None] + fwd
                via = reach.argmin(axis=0)
                low = reach[via, cols]
                better = low < dt
                if not better.any():
                    break
                dt = np.where(better, low, dt)
                pred_t = np.where(better, via, pred_t)
                reach = back + dt
                via = reach.argmin(axis=1)
                low = reach.min(axis=1)
                better = low < ds
                if not better.any():
                    break
                ds = np.where(better, low, ds)
                pred_s = np.where(better, via, pred_s)
            # every reached source sits at a sink's distance, so dt.max()
            # is the largest finite distance
            pot_s += np.minimum(ds, dt.max())
            pot_t += dt
            pred_s, pred_t = pred_s.tolist(), pred_t.tolist()
            for t in sorted(short.nonzero()[0].tolist(), key=dt.__getitem__):
                root = pred_t[t]
                fwd_arcs, back_arcs = [(root, t)], []
                for _ in range(ns):  # a forest path visits each source once
                    if pred_s[root] < 0:
                        break
                    j = pred_s[root]
                    back_arcs.append((root, j))
                    root = pred_t[j]
                    fwd_arcs.append((root, j))
                else:
                    raise InternalInvariantBroken("cycle in shortest-path forest")
                amt = min([excess[root], deficit[t]]
                          + [flow[e] for e in back_arcs])
                if amt <= eps:
                    continue
                for e in fwd_arcs:
                    flow[e] += amt
                for e in back_arcs:
                    flow[e] -= amt
                excess[root] -= amt
                deficit[t] -= amt
        else:
            raise InternalInvariantBroken("transport phase guard exceeded")
    keep = flow > eps
    mass = flow[keep]
    a, b = np.nonzero(keep)
    flows = tuple(zip(srcs[a].tolist(), sinks[b].tolist(), mass.tolist()))
    return float(mass @ cost[keep]), flows, sinks, -pot_t


def _certificate_defects(space, vec, value, cert):
    """(pairing gap relative to the value, Lipschitz excess of ``cert`` over
    ``space.dist`` relative to the diameter); both 0 for a valid witness."""
    gap = abs(float(vec @ cert) - value) / (value or 1.0)
    excess = float((cert[:, None] - cert[None, :] - space.dist).max())
    return gap, excess / (space.diameter() or 1.0)


def free_norm_p1(space, molecule):
    """Exact transportation-cost norm at p = 1 with dual certificate.

    The plan comes from the primal-dual solver ``_transport``; the
    certificate is the c-transform of its sink potentials, shifted to vanish
    at the base.  Both are checked at run time: the certificate must pair
    with the molecule to the value within 1e-9 relative and be 1-Lipschitz
    against ``space.dist`` within 1e-9 of the diameter.  That holds for any
    genuine metric, snowflaked or not.  When a check fails (a distance
    matrix that breaks the triangle inequality), the result is tagged
    ``upper-bound`` with no certificate: the value is still the cost of a
    feasible plan.
    """
    n = space.n
    vec = molecule.vector(n)
    if abs(vec.sum()) > ABS_TOL * _scale(vec):
        raise BadParameter("molecule does not sum to zero")
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "exact", 1.0, certificate=np.zeros(n))
    value, flows, sinks, g = _transport(space.dist, vec)
    cert = np.min(space.dist[:, sinks] + g, axis=1)
    cert -= cert[space.base]
    if max(_certificate_defects(space, vec, value, cert)) <= _CERT_TOL:
        return FreeNormResult(value, flows, "exact", 1.0, certificate=cert)
    return FreeNormResult(value, flows, "upper-bound", 1.0)


# ---------------------------------------------------------------------------
# upper bound by local search over tree supports


def _tree_flows(vec, parents, order):
    """Subtree sums: flow carried by the edge (v, parents[v])."""
    s = vec.copy()
    for v in reversed(order[1:]):
        s[parents[v]] += s[v]
    return s


def _bfs_order(parents, k):
    children = [[] for _ in range(k)]
    for v in range(1, k):
        children[parents[v]].append(v)
    order = [0]
    for x in order:
        order.extend(children[x])
    return order


def _cost_of(parents, vec, dpow, p):
    k = len(parents)
    order = _bfs_order(parents, k)
    s = _tree_flows(vec, parents, order)
    acc = 0.0
    for v in range(1, k):
        acc += abs(s[v]) ** p * dpow[v, parents[v]]
    return acc, s


def _mst_parents(dsub):
    k = dsub.shape[0]
    mst = minimum_spanning_tree(csr_matrix(dsub)).toarray()
    adj = [[] for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if mst[a, b] > 0 or mst[b, a] > 0:
                adj[a].append(b)
                adj[b].append(a)
    parents = [-1] * k
    parents[0] = 0
    order = [0]
    for x in order:
        for y in adj[x]:
            if parents[y] < 0:
                parents[y] = x
                order.append(y)
    parents[0] = 0
    return parents


def _descendants(parents, v):
    k = len(parents)
    out = {v}
    grown = True
    while grown:
        grown = False
        for w in range(1, k):
            if w not in out and parents[w] in out:
                out.add(w)
                grown = True
    return out


def free_norm_upper(space, molecule, p, budget=60, seed=0, restarts=2):
    """Feasible-representation upper bound for the free norm at p in (0, 1].

    Starts from the all-mass-to-base star, a minimum-spanning-tree routing,
    and seeded random trees; improves by re-hanging subtrees (edge swaps;
    re-hanging under a third point implements one-intermediate reroutes, and
    tree supports merge parallel mass by construction).  Moves are accepted
    on strict improvement; deterministic for a fixed seed.
    """
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")
    n = space.n
    vec_full = molecule.vector(n)
    if abs(vec_full.sum()) > ABS_TOL * _scale(vec_full):
        raise BadParameter("molecule does not sum to zero")
    if np.abs(vec_full).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "upper-bound", p)
    sub = sorted({space.base} | {i for i in range(n) if vec_full[i] != 0.0})
    sub = [space.base] + [i for i in sub if i != space.base]
    k = len(sub)
    dsub = space.dist[np.ix_(sub, sub)]
    dpow = dsub ** p
    vec = vec_full[sub]

    starts = [[0] * k]
    if k > 2:
        starts.append(_mst_parents(dsub))
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        parents = [0] * k
        for v in range(2, k):
            parents[v] = int(rng.integers(0, v))
        starts.append(parents)

    best_cost = math.inf
    best_parents = None
    for parents in starts:
        parents = list(parents)
        cost, _ = _cost_of(parents, vec, dpow, p)
        for _ in range(max(1, budget)):
            gain_move = None
            gain_cost = cost
            for v in range(1, k):
                blocked = _descendants(parents, v)
                old = parents[v]
                for w in range(k):
                    if w == old or w in blocked:
                        continue
                    parents[v] = w
                    c, _ = _cost_of(parents, vec, dpow, p)
                    if c < gain_cost - 1e-12 * max(1.0, gain_cost):
                        gain_cost = c
                        gain_move = (v, w)
                parents[v] = old
            if gain_move is None:
                break
            parents[gain_move[0]] = gain_move[1]
            cost = gain_cost
        if cost < best_cost:
            best_cost = cost
            best_parents = list(parents)

    _, flows = _cost_of(best_parents, vec, dpow, p)
    eps = 1e-15 * _scale(vec)
    rep = []
    for v in range(1, k):
        s = float(flows[v])
        if abs(s) <= eps:
            continue
        a, b = sub[v], sub[best_parents[v]]
        rep.append((a, b, s) if s > 0 else (b, a, -s))
    value = best_cost ** (1.0 / p)
    return FreeNormResult(float(value), tuple(rep), "upper-bound", p)


# ---------------------------------------------------------------------------
# dense fast paths shared by the measurement loops


def _dense_restrict(space, vec):
    """Support of ``vec`` with the base first, then increasing index; the
    distance block and coefficients on it."""
    off_base = vec != 0
    off_base[space.base] = False
    sub = np.concatenate(([space.base], np.flatnonzero(off_base)))
    return sub, space.dist[sub[:, None], sub], vec[sub]


def _upper_value(dsub, vsub, p):
    """min(star routing, MST routing) -- a cheap certified upper bound."""
    k = len(vsub)
    if k <= 1:
        return 0.0
    dpow = dsub ** p
    star = float((np.abs(vsub[1:]) ** p * dpow[0, 1:]).sum())
    best = star
    if k > 2:
        parents = _mst_parents(dsub)
        c, _ = _cost_of(parents, vsub, dpow, p)
        best = min(best, c)
    return best ** (1.0 / p)


def norm_value(space, vec, p, exact_limit=FOREST_LIMIT_DEFAULT, prefer="auto",
               certify=False):
    """Fast dense-vector norm used by measurement loops.

    Returns (value, exact_flag).  At p = 1 the value is exact (transport on
    the support, valid for metric distances).  For p < 1 the oracle runs on
    the support-restricted space when small enough, which upper-bounds the
    full-space norm; otherwise the star/MST upper bound is used.  With
    ``certify`` the oracle runs on the whole space whenever it fits under
    ``exact_limit``, trading speed for a certified exact value.
    """
    _check_limit(exact_limit)
    vec = np.asarray(vec, dtype=float)
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return 0.0, True
    sub, dsub, vsub = _dense_restrict(space, vec)
    if prefer == "p1" or (prefer == "auto" and p == 1.0):
        return _transport(dsub, vsub)[0], True
    if prefer == "upper":
        return _upper_value(dsub, vsub, p), False
    if certify and space.n <= exact_limit:
        return _tree_dp(space.dist, vec, p, space.base)[0], True
    if len(sub) <= exact_limit:
        exact = len(sub) == space.n  # restriction can only overestimate
        return _tree_dp(dsub, vsub, p, 0)[0], exact
    return _upper_value(dsub, vsub, p), False


def lp_sum_norm(element, norm_backend="auto", exact_limit=FOREST_LIMIT_DEFAULT):
    """Norm of an element of a finite ell_p-sum of free spaces."""
    p = element.p
    if not 0 < p <= 1:
        raise BadParameter(f"p={p} outside (0, 1]")
    acc = 0.0
    for part in element.parts:
        if callable(norm_backend):
            v = norm_backend(part.space, part.molecule, p)
            v = v.value if isinstance(v, FreeNormResult) else float(v)
        else:
            vec = part.molecule.vector(part.space.n)
            v, _ = norm_value(part.space, vec, p, exact_limit=exact_limit,
                              prefer=norm_backend)
        acc += v ** p
    return acc ** (1.0 / p) if acc > 0 else 0.0


def _diff(a, b):
    if isinstance(a, Molecule):
        return a - b
    if isinstance(a, SumElement):
        return a - b
    return np.asarray(a, dtype=float) - np.asarray(b, dtype=float)


def lipschitz_constant(source, image, target_norm, pairs=None):
    """Measured Lipschitz constant of a point map into a normed target.

    image: sequence indexed like the source points, values are molecules,
    sum elements, or coordinate tuples.  target_norm evaluates the norm of
    a difference of two image values.  Exhaustive over all unordered pairs
    unless ``pairs`` is given; returns (value, (i, j)) with the first
    maximizing pair in lexicographic order.
    """
    n = source.n
    if pairs is None:
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    best = 0.0
    best_pair = None
    for i, j in pairs:
        d = source.dist[i, j]
        if d <= 0:
            continue
        ratio = target_norm(_diff(image[i], image[j])) / d
        if ratio > best * (1 + 1e-15):
            best = ratio
            best_pair = (i, j)
    return best, best_pair
