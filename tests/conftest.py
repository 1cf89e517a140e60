import itertools

import numpy as np
import pytest

from lipfree import Molecule, build_space, norm_value


def random_metric_space(rng, n, d=2, alpha=1.0, norm="euclidean"):
    """Seeded point cloud; retries until all points are distinct."""
    while True:
        coords = rng.standard_normal((n, d))
        try:
            return build_space(coords, norm, alpha=alpha, base=0)
        except Exception:
            continue


def random_molecule(rng, space, max_support=None):
    n = space.n
    cap = max_support or n
    k = int(rng.integers(1, min(cap, n) + 1))
    pts = rng.choice(n, size=k, replace=False)
    return Molecule.balanced(
        {int(i): float(c) for i, c in zip(pts, rng.standard_normal(k))},
        space.base)


def check_result_consistency(space, molecule, result, rel=1e-9):
    """Representation reproduces the molecule and realizes the stated cost."""
    n = space.n
    vec = molecule.vector(n)
    recon = np.zeros(n)
    for t, h, w in result.representation:
        recon[t] += w
        recon[h] -= w
    assert np.abs(recon - vec).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(vec).max(initial=1.0))
    cost = result.cost_of_representation(space)
    assert abs(cost - result.value) <= rel * max(result.value, 1e-12)


def _every_pair_ratio(space, parts, p, exact_limit):
    """Per pair x < y, in lexicographic order, its ratio from one
    ``norm_value`` per part with a nonzero difference; and whether every
    norm was exact."""
    ratios, all_exact = [], True
    for x, y in itertools.combinations(range(space.n), 2):
        norms = []
        for target, rows in parts:
            vec = rows[x] - rows[y]
            vec[target.base] -= vec.sum()
            if np.abs(vec).max() > 0:
                v, exact = norm_value(target, vec, p, exact_limit=exact_limit)
                all_exact = all_exact and exact
                norms.append(v)
        if len(parts) == 1:
            ratios.append(norms[0] / space.dist[x, y] if norms else 0.0)
        else:
            acc = 0.0
            for v in norms:
                acc += v ** p
            ratios.append(acc ** (1 / p) / space.dist[x, y])
    return ratios, all_exact


def _first_max_pair(n, ratios):
    """The first pair x < y whose ratio beats the best so far by a relative
    1e-15, with the pairs of n points in lexicographic order."""
    best, best_pair = 0.0, None
    for pair, ratio in zip(itertools.combinations(range(n), 2), ratios):
        if ratio > best * (1 + 1e-15):
            best, best_pair = ratio, pair
    return best, best_pair


def _measure_every_pair(space, parts, p, exact_limit):
    """Reference for ``measure_lipschitz``: every pair's ratio, first
    maximum kept."""
    ratios, all_exact = _every_pair_ratio(space, parts, p, exact_limit)
    return (*_first_max_pair(space.n, ratios), all_exact)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
