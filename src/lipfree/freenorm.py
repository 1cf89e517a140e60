"""Free-space norms of molecules over finite pointed spaces.

The free p-norm at every p in (0, 1] is the cost of the cheapest network
carrying the molecule, sum |mass(edge)|^p d(edge)^p (Gilbert, 1967); at
p = 1 that is the transportation cost.  Three solvers cover the range:

* ``free_norm_p1`` -- exact transportation cost at p = 1 by the network
  simplex ``_network_simplex`` on the dense source x sink cost block,
  emitting the c-transform of its basis tree's sink potentials as a
  checked 1-Lipschitz dual witness.
* ``free_norm_exact_small`` -- exact for any p in (0, 1] as the cheapest
  network (vertex solutions of the flow polyhedron have acyclic support),
  found by the send-and-split subset DP ``_tree_dp`` over the support's
  k points off the base in O(3^k n + 2^k n^2), with the other points as
  relays, and capped at ``forest_limit`` points.  The loops'
  ``norm_rows`` (one row: ``norm_value``) norms every row this way, at
  every p, on a space of at most ``exact_limit`` points.
* ``free_norm_upper`` -- the support regime the loops use above that
  limit: the same DP over the support alone, base first, up to
  ``FOREST_LIMIT_DEFAULT`` points, and otherwise the network simplex at
  p = 1 and the cheaper of the star and the minimum-spanning-tree
  routings at p < 1; never below the true norm, and tagged exact when
  the support is the whole space within that limit.
Every entry refuses a p outside (0, 1] and, at any scale, a space whose d^p
breaks the triangle inequality (``metric._check_p_metric``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import BadParameter, InternalInvariantBroken, SizeLimit
from .metric import _BLOCK, ABS_TOL, _check_p, _check_p_metric

FOREST_LIMIT_DEFAULT = 8
# one exact oracle call with the support the whole space, the worst case, on
# a 2-core Xeon: ~0.009 s at 12 points, ~0.025 s at 13, after building the
# schedule once per size (~0.015 s and ~0.06 s)
FOREST_LIMIT_MAX = 12


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

    def vector(self, n):
        v = np.zeros(n)
        for i, c in self.coeffs:
            v[i] = c
        return v

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


# ---------------------------------------------------------------------------
# exact oracle: subset dynamic programme over tree supports


def _child_splits(s, x):
    """Subtrees T hung below the root x of a tree on s: the subsets of
    s - {x} holding its lowest point, so each tree is counted once, from
    the largest down."""
    rest = s ^ 1 << x
    low = rest & -rest
    splits, t = [], rest ^ low
    while t:
        splits.append(low | t)
        t = (t - 1) & (rest ^ low)
    return splits + [low] if rest else []


@cache
def _dp_levels(k, n):
    """Schedule for ``_tree_dp`` over terminals 0..k-1 of n points, one
    level per subset size 2..k, as rows S * n + x of the table flattened to
    (mask, point).  Per level: the subsets S; per S, its split points,
    first its members, then each point off the terminals twice; and per S
    and split point x, a rectangle of 2^(size-2) splits (A, S - A), as the
    rows of A and of S - A at x.  At a member x these are the splits that
    can set its tree: A a subset of S - {lo(S)} holding x, or S's second
    point when x = lo(S).  At a point off the terminals the two rectangles
    hold the 2^(size-1) - 1 splits with lo(S) in A and S - A not empty,
    the last one padded with the first split."""
    masks = np.arange(1 << k)
    held = masks[:, None] >> np.arange(k) & 1 == 1
    far = np.repeat(np.arange(k, n), 2)
    levels = []
    for size in range(2, k + 1):
        s = masks[held.sum(axis=1) == size]
        inside = held[s].nonzero()[1].reshape(len(s), size)
        local = held[:1 << size - 1, :size - 1]  # subsets of S - {lo}
        pick = local[:, np.r_[0, :size - 1]].T.nonzero()[1].reshape(size, -1)
        spread = (local @ (1 << inside[:, 1:]).T).T
        split = spread[:, np.r_[:(1 << size - 1) - 1, 0]] | 1 << inside[:, :1]
        a = np.concatenate((spread[:, pick], np.tile(
            split.reshape(len(s), 2, -1), (1, n - k, 1))), axis=1)
        x = np.concatenate((inside, np.broadcast_to(far, (len(s), len(far)))),
                           axis=1)
        levels.append((s, a * n + x[:, :, None],
                       (s[:, None, None] ^ a) * n + x[:, :, None], x))
    return levels


def _tree_dp(dist, masses, p, cols, tree=False):
    """Cheapest network under the concave cost sum |mu(edge)|^p d^p that
    carries row i's masses ``masses[i]``, at its k terminals, to its root,
    for every row i over its own column order ``cols[i]`` of the points of
    ``dist``: the terminals, in the order of ``masses[i]``, then the root,
    then the points that may relay.  That is the free p-norm, when the
    network may relay through the other points (Gilbert, Bell Syst. Tech.
    J. 46 (1967) 2209-2227).

    Send-and-split after Erickson, Monma & Veinott, Math. Oper. Res. 12
    (1987) 634-664, in O(3^k n + 2^k n^2) for k terminals and n columns.
    For a terminal subset S, ``G[S][v]`` is the cheapest network that
    brings S's mass to the point v.  Each level of ``_dp_levels`` fills one
    subset size, vectorised across rows.  Split: at each split point x (a
    member of S or a point off the terminals), ``J[S][x] = min G[A][x] +
    G[S - A][x]`` over x's rectangles.  Send: ``G[S][v] = min over x of
    J[S][x] + |mu(S)|^p d(x, v)^p``, with d(v, v) taken as 0.  Every value
    is the cost of a network that carries the masses, so none is below the
    norm.  One hop reaches the norm, as on a p-metric a relay of degree two
    can be skipped.  A row's values depend on its own columns alone, so
    they have the same bits in any batch.  |mass|^p and the root use
    Python's float power (numpy's array power can differ in the last ulp).
    Returns ``(norms, edges)``; with ``tree``, the (child, parent, mass)
    edges of a cheapest network for row 0, as points of ``dist`` through
    ``cols[0]``, found by backtracking which split point and split reach
    each stored minimum.
    """
    b, n = cols.shape
    k = masses.shape[1]
    if k == 0:
        return [0.0] * b, []
    dp = dist[cols[:, :, None], cols[:, None, :]] ** p
    dp.reshape(b, -1)[:, ::n + 1] = 0.0  # the diagonal may be ABS_TOL
    dp = dp.transpose(1, 2, 0)  # rows last, as in every table
    mass = np.zeros((1 << k, b))  # mass[S], summed in increasing terminal order
    for j in range(k):
        mass[1 << j:2 << j] = mass[:1 << j] + masses[:, j]
    w = np.reshape([abs(m) ** p for m in mass.ravel().tolist()], mass.shape)
    G = np.empty((1 << k, n, b))
    one = 1 << np.arange(k)
    G[one] = w[one, None] * dp[:k]
    flat, found = G.reshape(-1, b), {}
    for size, (s, a, r, x) in enumerate(_dp_levels(k, n), 2):
        gs = (flat[a] + flat[r]).min(axis=2)
        G[s] = (gs[:, :, None] + w[s][:, None, None] * dp[x]).min(axis=1)
        if tree:  # J[S] at the members, then at each point off the terminals
            j = np.concatenate((gs[:, :size], np.minimum(gs[:, size::2],
                                                         gs[:, size + 1::2])), axis=1)
            found.update(zip(s.tolist(), j[..., 0].tolist()))
    cost = G[-1, k].tolist()
    norms = [c ** (1.0 / p) for c in cost]
    if not tree:
        return norms, []
    G, w = G[..., 0].tolist(), w[:, 0].tolist()
    dp, mass, cols = dp[..., 0].tolist(), mass[:, 0].tolist(), cols[0].tolist()
    edges, stack = [], [(len(w) - 1, k, cost[0])]
    while stack:
        s, v, target = stack.pop()
        if s & (s - 1) == 0:  # one terminal, sent straight to v
            u = s.bit_length() - 1
        else:
            points = [x for x in range(k) if s >> x & 1] + list(range(k, n))
            value, u = next((j, u) for j, u in zip(found[s], points)
                            if j + w[s] * dp[u][v] == target)
            # the splits of S at u; off the terminals, every split of S
            # into two whose first part holds lo(S)
            splits = (_child_splits(s, u) if u < k else
                      _child_splits(s | 1 << k, k)[1:])
            t = next(t for t in splits if G[t][u] + G[s ^ t][u] == value)
            stack += [(t, u, G[t][u]), (s ^ t, u, G[s ^ t][u])]
        if u != v:
            edges.append((cols[u], cols[v], mass[s]))
    return norms, edges


@cache
def _dp_width(k, n):
    """Per row, ``_tree_dp``'s largest table for k terminals of n columns:
    its distances, G, or its widest level's split rectangles (three live at
    once)."""
    return max([n * n, n << k] + [a.size for _, a, _, _ in _dp_levels(k, n)])


def _columns(held, base):
    """Per row of the mask ``held`` of its terminals (never the base), the
    column order of ``_tree_dp``: the terminals in index order, then the
    base, then the other points in index order."""
    key = np.where(held, 0, 2)
    key[:, base] = 1
    return np.argsort(key, axis=1, kind="stable")


def _whole_row(space, vec, p, tree=False):
    """Exact norm of one row by ``_tree_dp`` over the whole space, as
    (value, its network's edges with ``tree``): the terminals are the
    support off the base, and the other points may relay by one hop."""
    held = vec != 0
    held[space.base] = False
    (value,), edges = _tree_dp(space.dist, vec[held][None], p,
                               _columns(held[None], space.base), tree)
    return value, edges


def _scale(vec):
    s = float(np.abs(vec).sum())
    return s if s > 0 else 1.0


def _check_limit(limit):
    if limit > FOREST_LIMIT_MAX:
        raise SizeLimit(f"exact limit {limit} exceeds the exact oracle's "
                        f"ceiling of {FOREST_LIMIT_MAX} points")


def _molecule_vector(space, molecule, p):
    """The coefficients of ``molecule`` over ``space``, once the space passes
    ``_check_p_metric`` and they sum to zero, as each solver requires."""
    _check_p_metric(space, p)
    vec = molecule.vector(space.n)
    if abs(vec.sum()) > ABS_TOL * _scale(vec):
        raise BadParameter("molecule does not sum to zero")
    return vec


def _tree_result(value, exact, edges, p, vec):
    """A result from (child, parent, mass) edges: edges carrying no more
    than 1e-15 of the molecule's mass are dropped, and each is oriented so
    that its weight is positive."""
    eps = 1e-15 * _scale(vec)
    rep = tuple((c, a, m) if m > 0 else (a, c, -m)
                for c, a, m in edges if abs(m) > eps)
    return FreeNormResult(value, rep, "exact" if exact else "upper-bound", p)


def free_norm_exact_small(space, molecule, p, forest_limit=FOREST_LIMIT_DEFAULT):
    """Exact free norm for p in (0, 1] by the subset DP ``_tree_dp`` over
    the whole space (``_whole_row``); the representation may route mass
    through points outside the support."""
    _check_limit(forest_limit)
    if space.n > forest_limit:
        raise SizeLimit(f"{space.n} points exceeds forest_limit={forest_limit}")
    vec = _molecule_vector(space, molecule, p)
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "exact", p)
    value, edges = _whole_row(space, vec, p, tree=True)
    return _tree_result(value, True, edges, p, vec)


# ---------------------------------------------------------------------------
# p = 1: the network simplex on the dense source x sink cost block, with
# the c-transform of the sink potentials as the Kantorovich dual witness

_CERT_TOL = 1e-9
_BLAND_RUN = 1  # degenerate pivots in a row, per ns + nt, before Bland's rule


def _greedy_start(cost, excess, deficit):
    """The least-cost greedy basis of ``_network_simplex``, as adjacency
    lists of (node, flow): ns + nt - 1 cells that span the source x sink
    graph.  Cells are taken in increasing cost, ties in row-major order;
    each ships what its row and column have left and closes one of them,
    the row when its supply runs out first (or no other column is open),
    and only the last cell closes both.  So a cell that empties a row and a
    column at once leaves the column open, and a later cell ships 0 there.
    Each closed line has its cell in a line closed later, so the cells form
    a tree.  Cells are sorted by numpy's default argsort, stably only when
    two costs tie (else the orders agree), and screened for closed lines by
    a numpy mask in chunks of ns + nt that double, then by a list."""
    ns, nt = cost.shape
    n = ns + nt
    left = excess.tolist() + deficit.tolist()
    closed, shut = np.zeros(n, dtype=bool), [False] * n
    lines = [ns, nt]  # rows and columns still open
    adj = [[] for _ in range(n)]
    order = np.argsort(cost, axis=None)
    keys = cost.ravel()[order]
    if (keys[1:] == keys[:-1]).any():  # a tie
        order = np.argsort(cost, axis=None, kind="stable")
    rows, cols = np.divmod(order, nt)
    cols += ns
    lo, size = 0, n
    while lo < ns * nt:
        s_, t_ = rows[lo:lo + size], cols[lo:lo + size]
        live = ~(closed[s_] | closed[t_])
        for s, t in zip(s_[live].tolist(), t_[live].tolist()):
            if shut[s] or shut[t]:
                continue
            amount = min(left[s], left[t])
            adj[s].append((t, amount))
            adj[t].append((s, amount))
            if lines == [1, 1]:
                return adj
            side = int(lines[1] > 1 and (lines[0] == 1 or left[s] > left[t]))
            left[s] -= amount
            left[t] -= amount
            x = (s, t)[side]
            closed[x] = shut[x] = True
            lines[side] -= 1
        lo, size = lo + size, 2 * size
    raise InternalInvariantBroken("greedy start ran out of cells")


def _network_simplex(cost, excess, deficit):
    """An optimal plan for one transportation problem, shipping ``excess``
    from ns sources to ``deficit`` at nt sinks over ``cost``, by the
    transportation simplex (Dantzig, 1951; Orlin, Math. Program. 78 (1997)
    109-129).  Returns the plan and the sink potentials, ``(flow, pot_t)``,
    with ``cost + pot_s - pot_t`` zero on the plan's arcs and nowhere below
    -1e-12 times the largest cost.

    With one source or one sink the plan is forced.  Otherwise the basis is
    a spanning tree of ns + nt - 1 cells of the bipartite source x sink
    graph, rooted at source 0 and started by ``_greedy_start``; zero cells
    in it make pivots degenerate.  Each pivot prices every cell into one
    buffer (Dantzig's rule, the most negative reduced cost, until none is
    below the stop), finds the cycle by walking up from both ends of the
    entering cell to their meeting point, ships the least flow on the
    cycle's decreasing arcs (one pass; ties go to the lowest cell index)
    unless it is 0, and re-hangs the subtree cut off by the leaving arc,
    shifting the potentials on that subtree alone.  These are the float
    operations of ``cost + pot_s - pot_t`` and a full cycle update, in
    the same order, less only additions of 0: the same pivots and bits.

    Termination: a pivot that ships a positive amount lowers the cost, so
    no basis before it recurs.  Only degenerate pivots (shipping 0) can
    cycle; once ``_BLAND_RUN`` times ns + nt of them come in a row, the
    entering cell is the lowest-indexed one below the stop, until a pivot
    ships again: with the lowest-index leaving rule this is Bland's rule
    (Math. Oper. Res. 2 (1977) 103-107), which never repeats a basis.  There
    are finitely many bases, so the method stops; the pivot guard raises
    ``InternalInvariantBroken`` if rounding ever defeats that argument.
    """
    ns, nt = cost.shape
    if nt == 1:
        return excess[:, None], np.zeros(1)
    if ns == 1:
        return deficit[None, :], cost[0]
    n = ns + nt  # node s < ns is source s, node ns + t is sink t
    adj = _greedy_start(cost, excess, deficit)
    # the tree rooted at source 0: parent, depth and the flow on the arc to
    # the parent per node, and the potentials pot[t] - pot[s] = cost[s, t]
    parent, depth, flow = [-1] * n, [0] * n, [0.0] * n
    children = [[] for _ in range(n)]
    pot = [0.0] * n
    order = [0]
    for x in order:
        for y, amount in adj[x]:
            if y != parent[x]:
                parent[y], depth[y], flow[y] = x, depth[x] + 1, amount
                children[x].append(y)
                pot[y] = (pot[x] + cost[x, y - ns] if x < ns
                          else pot[x] - cost[y, x - ns])
                order.append(y)
    if len(order) < n:  # else a cycle walk below would never meet
        raise InternalInvariantBroken("greedy start does not span")
    pot = np.array(pot)
    pot_s, pot_t, reduced = pot[:ns, None], pot[ns:], np.empty((ns, nt))

    def cell_of(x):  # of the arc to x's parent: the source is the lower end
        return min(x, parent[x]) * nt + max(x, parent[x]) - ns
    stop = -1e-12 * float(cost.max())
    bland, degenerate = _BLAND_RUN * n, 0
    for _ in range(1000 + 40 * n * n):
        np.add(cost, pot_s, out=reduced)
        np.subtract(reduced, pot_t, out=reduced)
        if degenerate < bland:
            cell = int(reduced.argmin())
        else:  # Bland's rule: the lowest-indexed improving cell
            cell = int((reduced < stop).argmax())
        gain = reduced.item(cell)
        if not gain < stop:
            break
        s, t = divmod(cell, nt)
        t += ns
        # the cycle: up from s and from t to their meeting point; the
        # entering cell ships s -> t, so an arc to a parent decreases on
        # s's side when its node is a source, on t's side when a sink:
        # every other node of each side, from s and from t
        s_side, t_side = [], []
        a, b = s, t
        while a != b:
            if depth[a] >= depth[b]:
                s_side.append(a)
                a = parent[a]
            if depth[b] > depth[a]:
                t_side.append(b)
                b = parent[b]
        down, out, theta = s_side[::2] + t_side[::2], -1, float("inf")
        for x in down:
            if flow[x] < theta or (flow[x] == theta
                                   and cell_of(x) < cell_of(out)):
                out, theta = x, flow[x]
        if theta > 0:  # shipping 0 would leave every flow as it was
            for x in down:
                flow[x] -= theta
            for x in s_side[1::2] + t_side[1::2]:
                flow[x] += theta
        degenerate = 0 if theta > 0 else degenerate + 1
        # re-hang the subtree below the leaving arc from the entering cell:
        # the path from the cell's end on that side up to ``out`` turns over
        side = out >= ns  # the leaving arc is on t's side
        inner, outer, path = (t, s, t_side) if side else (s, t, s_side)
        up, carried = outer, theta
        for x in path[:path.index(out) + 1]:
            children[parent[x]].remove(x)
            children[up].append(x)
            parent[x], up = up, x
            flow[x], carried = carried, flow[x]
        depth[inner] = depth[outer] + 1
        moved = [inner]
        for x in moved:
            below = children[x]
            for y in below:
                depth[y] = depth[x] + 1
            moved += below
        pot[moved if len(moved) > 1 else inner] += gain if side else -gain
    else:
        raise InternalInvariantBroken("network simplex pivot guard exceeded")
    plan, x, up = np.zeros(ns * nt), np.arange(1, n), np.array(parent[1:])
    plan[np.minimum(x, up) * nt + np.maximum(x, up) - ns] = flow[1:]
    return plan.reshape(ns, nt), pot[ns:]


def _transport(dist, vec):
    """Min-cost transportation between the positive and negative parts of vec.

    Returns ``(value, flows, sinks, g)``: ``flows`` lists the sorted
    (source, sink, mass) arcs of an optimal plan, ``sinks`` the sink indices
    and ``g`` their dual potentials.  On a metric, the c-transform
    ``f(x) = min_j dist[x, sinks[j]] + g[j]`` is 1-Lipschitz and pairs with
    ``vec`` to the value.  Entries within 1e-14 of the total mass are
    dropped.  The plan is found by ``_network_simplex``, for
    ``free_norm_p1`` and for the loops' p = 1 supports above the exact
    limit (``_support_row``).
    """
    eps = 1e-14 * _scale(vec)
    srcs = (vec > eps).nonzero()[0]
    sinks = (vec < -eps).nonzero()[0]
    if len(srcs) == 0 or len(sinks) == 0:
        return 0.0, (), sinks, np.zeros(len(sinks))
    cost = dist[srcs[:, None], sinks]
    flow, pot_t = _network_simplex(cost, vec[srcs], -vec[sinks])
    keep = flow > eps
    mass = flow[keep]
    a, b = np.nonzero(keep)
    flows = tuple(zip(srcs[a].tolist(), sinks[b].tolist(), mass.tolist()))
    return float(mass @ cost[keep]), flows, sinks, -pot_t


def _certificate_defects(space, vec, value, cert):
    """(pairing gap relative to the value, Lipschitz excess of ``cert`` over
    ``space.dist`` relative to the diameter); both 0 for a valid witness."""
    gap = abs(float(vec @ cert) - value) / (value or 1.0)
    excess = np.subtract.outer(cert, cert)  # over every pair of the space
    excess -= space.dist
    return gap, float(excess.max()) / (space.diameter() or 1.0)


def free_norm_p1(space, molecule):
    """Exact transportation-cost norm at p = 1 with dual certificate.

    The plan comes from the network simplex (``_transport``); the
    certificate is the c-transform of its sink potentials, shifted to
    vanish at the base.  Both are checked at run time: the certificate must
    pair with the molecule to the value within 1e-9 relative and be
    1-Lipschitz against ``space.dist`` within 1e-9 of the diameter.  That
    holds on every metric the gate admits, snowflaked or not; should
    rounding ever break a check, the result is tagged ``upper-bound`` with
    no certificate: the value is still the cost of a feasible plan.
    """
    vec = _molecule_vector(space, molecule, 1.0)
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "exact", 1.0,
                              certificate=np.zeros(space.n))
    value, flows, sinks, g = _transport(space.dist, vec)
    cert = space.dist[:, sinks]  # one (n, sinks) temporary
    cert = np.add(cert, g, out=cert).min(axis=1)
    cert -= cert[space.base]
    if max(_certificate_defects(space, vec, value, cert)) <= _CERT_TOL:
        return FreeNormResult(value, flows, "exact", 1.0, certificate=cert)
    return FreeNormResult(value, flows, "upper-bound", 1.0)


# ---------------------------------------------------------------------------
# the support regime of the measurement loops above the exact limit: the
# subset DP on the support alone, or the star and minimum-spanning-tree routings


def _tree_flows(vec, parents):
    """Subtree sums of a tree rooted at point 0: the flow carried by the
    edge (v, parents[v])."""
    k = len(parents)
    children = [[] for _ in range(k)]
    for v in range(1, k):
        children[parents[v]].append(v)
    order = [0]
    for x in order:
        order.extend(children[x])
    s = vec.copy()
    for v in reversed(order[1:]):
        s[parents[v]] += s[v]
    return s


def _mst_parents(dsub):
    """Parent list of a minimum spanning tree rooted at point 0, by Prim's
    algorithm (Prim, Bell Syst. Tech. J. 36 (1957) 1389-1401) in O(k^2).
    Ties go to the lowest index, and a point keeps its first-found parent
    unless a later tree point is strictly closer."""
    k = dsub.shape[0]
    parents = np.zeros(k, dtype=int)
    best = dsub[0].astype(float)
    out = np.ones(k, dtype=bool)
    out[0] = False
    for _ in range(k - 1):
        v = int(np.where(out, best, np.inf).argmin())
        out[v] = False
        closer = out & (dsub[v] < best)
        best[closer] = dsub[v, closer]
        parents[closer] = v
    return parents.tolist()


def _dense_restrict(space, vec):
    """Support of ``vec`` with the base first, then increasing index; the
    distance block and coefficients on it."""
    off_base = vec != 0
    off_base[space.base] = False
    sub = np.concatenate(([space.base], np.flatnonzero(off_base)))
    return sub, space.dist[sub[:, None], sub], vec[sub]


def _upper_value(dsub, vsub, p):
    """min(star routing, routing along Prim's minimum spanning tree
    ``_mst_parents``) -- a cheap certified upper bound -- as (value,
    parents of the cheaper tree, rooted at point 0)."""
    k = len(vsub)
    parents = [0] * k  # the star
    if k <= 1:
        return 0.0, parents
    dpow = dsub ** p
    best = float((np.abs(vsub[1:]) ** p * dpow[0, 1:]).sum())
    if k > 2:
        mst = _mst_parents(dsub)
        flows = _tree_flows(vsub, mst)
        cost = 0.0
        for v in range(1, k):
            cost += abs(flows[v]) ** p * dpow[v, mst[v]]
        if cost < best:
            best, parents = cost, mst
    return best ** (1.0 / p), parents


def _support_row(space, vec, p, limit, tree=False):
    """One nonzero row by the loops' regime above the exact limit, as
    (value, exact, edges): ``_tree_dp`` on the support alone, base first
    (``_dense_restrict``), while it has at most ``limit`` points.  A larger
    support goes at p = 1 to the network simplex (``_transport``), and at
    p < 1 to ``_upper_value``.  ``_tree_dp`` reads the base entry as the
    balance of the others; so does the simplex, once the row is out of
    balance by more than its 1e-14 band.  Restricting to the support can
    only overestimate, so ``exact`` holds only when the support is the
    whole space and fits the limit; at p = 1 on a metric the support's
    cost is the norm all the same (F_1 of a subset is a subspace), and the
    loops tag it exact.  With ``tree``, ``edges`` lists the (child,
    parent, mass) edges of the network that costs the value; at p = 1
    above the limit, the (source, sink, mass) arcs of the plan."""
    sub, dsub, vsub = _dense_restrict(space, vec)
    k = len(sub)
    if k <= limit:
        (value,), edges = _tree_dp(dsub, vsub[None, 1:], p,
                                   np.r_[1:k, 0][None], tree)
    elif p == 1.0:
        if abs(vsub.sum()) > 1e-14 * _scale(vsub):  # beyond _transport's band
            vsub[0] = -vsub[1:].sum()
        value, edges = _transport(dsub, vsub)[:2]
    else:
        value, parents = _upper_value(dsub, vsub, p)
        edges = zip(range(1, k), parents[1:],
                    _tree_flows(vsub, parents)[1:].tolist()) if tree else ()
    sub = sub.tolist()
    return value, k == space.n and k <= limit, [(sub[c], sub[a], m)
                                                for c, a, m in edges]


def free_norm_upper(space, molecule, p):
    """Upper bound on the free norm for any p in (0, 1], with a
    representation that costs it, by the support regime the loops use
    above the exact limit (``_support_row`` at ``FOREST_LIMIT_DEFAULT``
    points): the subset DP on the support, and above that many points the
    network simplex's plan at p = 1 or the star/MST routing at p < 1.
    Tagged exact only when the support is the whole space and fits the
    limit."""
    vec = _molecule_vector(space, molecule, p)
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return FreeNormResult(0.0, (), "exact", p)
    return _tree_result(*_support_row(space, vec, p, FOREST_LIMIT_DEFAULT,
                                      tree=True), p, vec)


def norm_value(space, vec, p, exact_limit=FOREST_LIMIT_DEFAULT, prefer="auto",
               certify=True):
    """Free p-norm of one dense vector, as (value, exact flag); the
    measurement loops use ``norm_rows``, which gives the same bits.

    One rule at every p in (0, 1]: on a space of at most ``exact_limit``
    points, the oracle over the whole space, with the points off the
    support as relays (``_whole_row``), exact.  Above it,
    ``_support_row``: the oracle on the support while that has at most
    ``exact_limit`` points, and otherwise the network simplex at p = 1 and
    the star/MST bound at p < 1.  The entry at the base is read as the
    balance of the others.  At p = 1 every value is tagged exact: on a
    metric the support's transport cost is the norm.
    """
    _check_limit(exact_limit)
    _check_p_metric(space, p)
    # ``prefer`` and ``certify`` take one value each and stay only because
    # the benchmark's tracer binds them by name (ROADMAP items 2 and 3)
    if prefer != "auto":
        raise BadParameter(f"prefer={prefer!r} is not 'auto'")
    if certify is not True:
        raise BadParameter(f"certify={certify!r} is not True")
    vec = np.asarray(vec, dtype=float)
    if np.abs(vec).max(initial=0.0) <= ABS_TOL:
        return 0.0, True
    if space.n <= exact_limit:
        return _whole_row(space, vec, p)[0], True
    value, exact, _ = _support_row(space, vec, p, exact_limit)
    return value, exact or p == 1.0


# ---------------------------------------------------------------------------
# batched evaluation for the measurement loops


def norm_rows(space, rows, p, exact_limit=FOREST_LIMIT_DEFAULT):
    """``norm_value(space, rows[i], p, exact_limit)`` for every row i, as
    arrays (values, exact), bitwise equal to the per-row calls.

    Nonzero rows are grouped by their number k of terminals, the points of
    the support off the base, and each group runs ``_tree_dp`` in blocks,
    every row over its own columns (``_columns``).  On a space of at most
    ``exact_limit`` points the columns are the whole space, as in
    ``_whole_row``.  Above it they are the support, as in ``_support_row``,
    while it has at most ``exact_limit`` points; larger supports go to
    ``_support_row`` one at a time.
    """
    _check_limit(exact_limit)
    _check_p_metric(space, p)
    rows = np.asarray(rows, dtype=float)
    values = np.zeros(len(rows))
    held = rows != 0
    held[:, space.base] = False
    nonzero = np.abs(rows).max(axis=1, initial=0.0) > ABS_TOL
    count = np.where(nonzero, held.sum(axis=1), 0)
    whole = space.n <= exact_limit
    # above the limit, p < 1 gives upper bounds
    exact = whole | ~nonzero | (p == 1.0)
    for k in np.unique(count[count > 0]).tolist():
        todo = np.flatnonzero(count == k)
        if not whole and k >= exact_limit:
            values[todo] = [_support_row(space, rows[i], p, exact_limit)[0]
                            for i in todo.tolist()]
            continue
        width = space.n if whole else k + 1
        step = max(1, _BLOCK // _dp_width(k, width))
        for lo in range(0, len(todo), step):
            at = todo[lo:lo + step]
            masses = rows[at][held[at]].reshape(-1, k)  # in index order
            values[at] = _tree_dp(space.dist, masses, p,
                                  _columns(held[at], space.base)[:, :width])[0]
    return values, exact


def _row_blocks(n):
    """Blocks of whole rows [lo, hi) of the pairs x < y of n points, about
    ``_BLOCK`` pairs each, as (lo, hi, mask of y > x over the block)."""
    step = max(1, _BLOCK // n)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n)
        yield lo, hi, np.arange(lo, hi)[:, None] < np.arange(n)


def _first_max(best, best_pair, ratios, xs, ys):
    """The scan's rule over the next pairs (xs, ys) in lexicographic order:
    a pair whose ratio beats the best so far by a relative 1e-15 becomes
    the best.  Only a pair above every ratio before it in the batch can
    beat the best, so the rule steps through those alone."""
    before = np.fmax.accumulate(np.r_[0.0, ratios])[:-1]
    for i in np.flatnonzero(ratios > before).tolist():
        if ratios[i] > best * (1 + 1e-15):
            best, best_pair = float(ratios[i]), (int(xs[i]), int(ys[i]))
    return best, best_pair


def _scan_pairs(space, norms):
    """The first pair x < y, in lexicographic order, whose ratio
    ``norms(xs, ys) / d(xs, ys)`` beats the best so far by a relative 1e-15,
    as (best ratio, pair or None).  ``norms`` gets the pairs of the upper
    triangle as index arrays, in the blocks of ``_row_blocks``."""
    best, best_pair = 0.0, None
    for lo, _, upper in _row_blocks(space.n):
        xs, ys = np.nonzero(upper)
        xs += lo
        best, best_pair = _first_max(best, best_pair, norms(xs, ys)
                                     / space.dist[xs, ys], xs, ys)
    return best, best_pair


def _star_bounds(target, dpow, diff, p, exact_limit):
    """Upper bounds U on the norms ``norm_rows`` gives the balanced
    differences over ``target`` held in the columns of ``diff``, as the
    p-th power of the cheapest star, min over hubs h of sum_i |v_i|^p
    d(i, h)^p, with ``dpow`` = max(d, d^T)^p and a zero diagonal, and with
    the base's mass read as the balance of the others summed in index
    order, as ``_tree_dp`` reads it.  The hubs are the points of v's
    support and the base.  Each such star is a network that v's regime also
    costs, so U^(1/p) (1 + 1e-9) is at least the value, the network
    simplex's too: on a metric, shipping straight from source to sink costs
    no more than through a hub.  A support of more than ``exact_limit`` points
    on a target above that limit goes at p < 1 to ``_upper_value``, whose
    only star is at the base.  ``diff`` is overwritten if it is
    C-contiguous, and copied in C order otherwise."""
    base = target.base
    weight = np.ascontiguousarray(diff)
    weight[base] = 0.0
    off = weight == 0  # the points off the support, but for the base
    off[base] = False
    # the base row's sum runs row by row, in index order: numpy sums
    # pairwise only along the fast axis
    weight[base] = weight.sum(axis=0)
    np.abs(weight, out=weight)
    if p != 1.0:
        np.power(weight, p, out=weight)
    star = dpow @ weight  # dpow is symmetric: the base's term is d(h, base)
    if target.n > exact_limit and p != 1.0:
        wide = target.n - off.sum(axis=0) > exact_limit
        off[:, wide] = (np.arange(target.n) != base)[:, None]
    star[off] = np.inf
    return star.min(axis=0)


def _differences(target, distinct, ka, kb):
    """The rows distinct[ka] - distinct[kb], balanced at the base of
    ``target``: the differences ``measure_lipschitz`` norms."""
    diff = distinct[ka] - distinct[kb]
    diff[:, target.base] -= diff.sum(axis=1)
    return diff


def _norm_differences(target, distinct, ka, kb, p, exact_limit):
    """``norm_rows`` of ``_differences(target, distinct, ka, kb)`` in
    blocks of about ``_BLOCK`` entries; rows within ``ABS_TOL`` of zero are
    0 without a call."""
    values = np.zeros(len(ka))
    step = max(1, _BLOCK // target.n)
    for lo in range(0, len(ka), step):
        diff = _differences(target, distinct, ka[lo:lo + step], kb[lo:lo + step])
        live = np.flatnonzero(np.abs(diff).max(axis=1) > ABS_TOL)
        if len(live):
            values[lo + live] = norm_rows(target, diff[live], p, exact_limit)[0]
    return values


def _bound_part(target, rows, p, exact_limit):
    """One part of ``measure_lipschitz``: the rows' labels (equal rows
    share one), the distinct rows, the upper bound of ``_star_bounds`` of
    every label pair's difference as a (labels, points) table read at
    [label of x, y], and whether every difference of rows x < y is normed
    exactly by its regime: at p = 1, within the exact limit, or when it is
    0 within ``ABS_TOL``."""
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    last = len(rows) - 1 - np.unique(label[::-1], return_index=True)[1]
    some = first[:, None] < last  # labels of some x < y
    # a difference and its negative have the same bits up to sign, and so
    # the same bounds and norm regime
    a, b = np.nonzero(np.triu(some | some.T, 1))
    distinct = rows[first]
    cols = np.ascontiguousarray(distinct.T)
    dpow = np.maximum(target.dist, target.dist.T) ** p
    np.fill_diagonal(dpow, 0.0)
    bounds = np.zeros((len(first), len(first)))
    exact, zero = p == 1.0 or target.n <= exact_limit, True
    step = max(1, _BLOCK // rows.shape[1])
    for lo in range(0, len(a), step):
        ka, kb = a[lo:lo + step], b[lo:lo + step]
        # one difference per column: off the base its entries have the
        # bits of ``_differences``; ``_star_bounds`` rebuilds the base entry
        diff = cols.take(ka, axis=1)  # C order, for ``_star_bounds``
        diff -= cols.take(kb, axis=1)
        if zero and not exact:
            off_base = np.abs(np.delete(diff, target.base, axis=0)) > ABS_TOL
            zero = not off_base.any() and not (np.abs(_differences(
                target, distinct, ka, kb)) > ABS_TOL).any()
        bounds[ka, kb] = bounds[kb, ka] = _star_bounds(
            target, dpow, diff, p, exact_limit)
    return label, distinct, bounds[:, label], exact or zero


def measure_lipschitz(space, parts, p, exact_limit=FOREST_LIMIT_DEFAULT):
    """Max over pairs x < y of |F(x) - F(y)| / d(x, y), for a map F of the
    points of ``space`` into an ell_p-sum of free spaces.

    ``parts`` lists (target space, rows): row x holds F(x)'s coefficients
    over that target, and differences are balanced at its base.  One part
    gives its free norm; several give (sum of part norms^p)^(1/p), summed
    in part order.  Returns (value, first maximizing pair or None, whether
    every nonzero difference is normed exactly by its regime).  These are,
    bit for bit, what norming every pair's difference with ``norm_rows``
    and scanning the pairs in lexicographic order (``_scan_pairs``) gives,
    but only the pairs that can reach the maximum are normed.

    Bound, then solve.  Each target must pass ``_check_p_metric``.  In each
    part, pairs with the same two rows share one label pair.  Every label
    pair's difference is bounded from above first, in blocks, by the
    cheapest star routing (``_star_bounds``), which on a p-metric its regime
    can only undercut; across parts the p-th powers add.  The pairs whose
    upper bound per distance reaches the 16th largest / (1 + 1e-6) are
    normed, and r is the best ratio among them.  Then every pair whose
    upper bound per distance reaches r / (1 + 1e-6) is normed, r becomes
    the best ratio of all normed pairs, and the pairs whose bound reaches
    r / (1 + 1e-6) are scanned in lexicographic order by the scan's
    first-maximum rule (``_first_max``).  Each step collects its pairs
    block by block (``_row_blocks``) and keeps only those that reach its
    cut, and never a pair whose bound is 0, so a constant map holds none.

    Why the result cannot move.  A kept pair's ratio has the same bits as
    in the full scan, since ``norm_rows`` values do not depend on the
    batch, and r is one of these ratios.  When r is 0 (no pair kept, or
    all kept ratios 0), every ratio is 0 and neither scan finds a pair.
    Otherwise a dropped pair's ratio is below t = r / (1 + 1e-6).  In the
    full scan, a pair whose ratio is at least t and beats every earlier
    ratio by a relative 1e-15 also updates the kept-pair scan, and from
    then on both agree: no dropped pair can beat a best of t or more.  Such
    a pair exists, or else the running maximum, once past t, would grow by
    at most (1 + 1e-15) per pair and stay below t (1 + 1e-15)^P < r for
    P < 10^8 pairs, though r is a ratio.
    """
    _check_limit(exact_limit)
    _check_p(p)
    all_exact, tables = True, []
    for target, rows in parts:
        _check_p_metric(target, p)
        label, distinct, bounds, exact = _bound_part(target, rows, p,
                                                     exact_limit)
        all_exact = all_exact and exact
        table = np.full((len(distinct),) * 2, np.nan)  # NaN until normed
        tables.append((target, distinct, label, bounds, table))
    if space.n < 2 or not tables:
        return 0.0, None, all_exact

    def bound(lo, hi, upper):  # upper bounds per distance of a row block
        acc = tables[0][3].take(tables[0][2][lo:hi], axis=0)
        for _, _, label, bounds, _ in tables[1:]:
            acc += bounds.take(label[lo:hi], axis=0)
        if p != 1.0:
            np.power(acc, 1 / p, out=acc)
        np.divide(acc, space.dist[lo:hi], out=acc, where=upper)
        acc *= 1 + 1e-9  # the star's rounding against the regime's
        return acc

    def reach(floor):  # (xs, ys, upper bounds) of the pairs whose bound
        # reaches floor, or with floor None the 16th largest / (1 + 1e-6);
        # a bound of 0 leaves a ratio of 0, which never updates the scan
        top, found = np.full(16, -np.inf), []
        for lo, hi, upper in _row_blocks(space.n):
            up = bound(lo, hi, upper)
            if floor is None:
                top = np.partition(np.r_[top, up[upper]], -16)[-16:]
            cut = top[0] / (1 + 1e-6) if floor is None else floor
            xs, ys = np.nonzero(upper & ~(up < cut) & (up > 0))
            found.append((xs + lo, ys, up[xs, ys]))
        xs, ys, up = (np.concatenate(f) for f in zip(*found))
        at = ~(up < cut)
        return xs[at], ys[at], up[at]

    def ratios(xs, ys):  # norms the label pairs not normed yet
        acc = np.zeros(len(xs))
        for target, distinct, label, _, table in tables:
            ka, kb = label[xs], label[ys]
            todo = np.isnan(table[ka, kb])
            if todo.any():
                todo = np.divmod(np.unique(ka[todo] * len(table) + kb[todo]),
                                 len(table))
                v = _norm_differences(target, distinct, *todo, p, exact_limit)
                table[todo] = (v if len(tables) == 1 else
                               [x ** p for x in v.tolist()])
            acc += table[ka, kb]
        if len(tables) > 1:
            acc = np.array([x ** (1 / p) for x in acc.tolist()])
        return acc / space.dist[xs, ys]

    best = ratios(*reach(None)[:2]).max(initial=0.0)
    xs, ys, up = reach(best / (1 + 1e-6))
    got = ratios(xs, ys)
    at = ~(up < got.max(initial=best) / (1 + 1e-6))
    best, best_pair = _first_max(0.0, None, got[at], xs[at], ys[at])
    return best, best_pair, all_exact
