"""Deterministic fixture generators for embedded point samples."""

from __future__ import annotations

import inspect
import math
from itertools import product

import numpy as np

from .errors import BadParameter, TooLarge
from .metric import build_space

POINT_CAP = 4096


def _check_cap(n):
    if n > POINT_CAP:
        raise TooLarge(f"{n} points exceeds the desk-scale cap {POINT_CAP}")


def grid_zd(d=2, lo=0, hi=3, norm="sup", alpha=1.0):
    """Integer lattice box [lo, hi]^d in lexicographic order."""
    side = hi - lo + 1
    if side < 1:
        raise BadParameter("empty box")
    _check_cap(side ** d)
    coords = np.array(list(product(range(lo, hi + 1), repeat=d)), dtype=float)
    origin = np.nonzero((coords == 0).all(axis=1))[0]
    base = int(origin[0]) if origin.size else 0
    return build_space(coords, norm, alpha=alpha, base=base)


def grid_nd(d=2, hi=3, norm="sup", alpha=1.0):
    """Nonnegative lattice box [0, hi]^d."""
    return grid_zd(d=d, lo=0, hi=hi, norm=norm, alpha=alpha)


def line(n=4, start=0.0, step=1.0, alpha=1.0):
    """Evenly spaced points on the real line."""
    _check_cap(n)
    coords = (start + step * np.arange(n))[:, None]
    return build_space(coords, "euclidean", alpha=alpha, base=0)


def sphere_fibonacci(d=2, n=100, seed=0):
    """Unit vectors in R^{d+1}: Fibonacci spiral for d = 2, even angles for
    d = 1, normalized seeded gaussians otherwise."""
    _check_cap(n)
    if d == 1:
        th = 2 * math.pi * np.arange(n) / n
        v = np.stack([np.cos(th), np.sin(th)], axis=1)
    elif d == 2:
        i = np.arange(n)
        phi = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - (2.0 * i + 1.0) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z ** 2))
        v = np.stack([r * np.cos(phi * i), r * np.sin(phi * i), z], axis=1)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, d + 1))
        v /= np.sqrt((v ** 2).sum(axis=1))[:, None]
    # re-normalize so the unit-norm invariant holds to full precision
    v = v / np.sqrt((v ** 2).sum(axis=1))[:, None]
    return v


def sphere_space(d=2, n=100, seed=0, alpha=1.0, base=0):
    """Sphere sample as a pointed space under the euclidean distance."""
    v = sphere_fibonacci(d=d, n=n, seed=seed)
    return build_space(v, "euclidean", alpha=alpha, base=base)


def random_ball(d=2, n=30, radius=1.0, seed=0, norm="euclidean", alpha=1.0):
    """Seeded uniform sample of the d-ball (rejection-free)."""
    _check_cap(n)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.sqrt((dirs ** 2).sum(axis=1))[:, None]
    rad = radius * rng.uniform(size=n) ** (1.0 / d)
    coords = dirs * rad[:, None]
    return build_space(coords, norm, alpha=alpha, base=0)


def annulus_rays(rays=8, radii=(1.0, 2.0, 4.0), d=2, include_origin=False,
                 alpha=1.0):
    """Points on rays through the origin at shared radii.

    Sigma-closed by construction: scaling any sample point onto a sample
    radius lands on a sample point.  With include_origin the origin is
    prepended and becomes the base.
    """
    radii = [float(r) for r in radii]
    if not all(r > 0 for r in radii):
        raise BadParameter("radii must be positive")
    if d < 2:
        raise BadParameter("rays need ambient dimension >= 2")
    _check_cap(rays * len(radii) + (1 if include_origin else 0))
    th = 2 * math.pi * np.arange(rays) / rays
    dirs = np.zeros((rays, d))
    dirs[:, 0] = np.cos(th)
    dirs[:, 1] = np.sin(th)
    pts = [r * u for u in dirs for r in radii]
    if include_origin:
        pts = [np.zeros(d)] + pts
    coords = np.array(pts)
    return build_space(coords, "euclidean", alpha=alpha, base=0)


BUILDERS = {"grid-zd": grid_zd, "grid-nd": grid_nd,
            "sphere-fibonacci": sphere_space, "random-ball": random_ball,
            "annulus-rays": annulus_rays, "line": line}
KINDS = tuple(BUILDERS)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# per type of a builder's default: what a value must be, and its name
_TYPES = {
    int: (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
            "a list of numbers"),
}


def generate(kind, seed=0, /, **params):
    """Dispatch by generator name (file-format kinds of the CLI).  ``seed``
    goes to the kinds that draw at random; a parameter the kind's builder
    does not take is refused, ``seed`` among them, as it comes on its own,
    and so is a value not of the type of the builder's default (an int is
    a number, a bool is neither)."""
    if kind not in BUILDERS:
        raise BadParameter(f"unknown generator kind {kind!r}")
    defaults = {name: p.default for name, p in
                inspect.signature(BUILDERS[kind]).parameters.items()}
    takes = [name for name in defaults if name != "seed"]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise BadParameter(f"generator {kind} takes no parameter {unknown}; "
                           f"it takes {takes}")
    for name, value in params.items():
        fits, wanted = _TYPES[type(defaults[name])]
        if not fits(value):
            raise BadParameter(f"generator {kind} parameter {name}={value!r} "
                               f"is not {wanted}")
    if "seed" in defaults:
        params["seed"] = seed
    return BUILDERS[kind](**params)
