"""JSON and CSV interchange for spaces and reports.

Reports are dumped with sorted keys and a fixed indent so reruns with the
same seed are byte-identical and diffs stay stable.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import BadParameter
from .metric import _check_p_metric, build_space, space_from_matrix


def space_to_json(space):
    return {
        "points": None if space.coords is None else space.coords.tolist(),
        "matrix": None if space.coords is not None else space.dist.tolist(),
        "norm": space.norm,
        "alpha": space.alpha,
        "base": space.base,
    }


def space_from_json(doc):
    norm = doc.get("norm", "euclidean")
    alpha = float(doc.get("alpha", 1.0))
    base = int(doc.get("base", 0))
    if doc.get("points") is not None:
        return build_space(np.asarray(doc["points"], dtype=float), norm,
                           alpha=alpha, base=base)
    if doc.get("matrix") is not None:
        return space_from_matrix(np.asarray(doc["matrix"], dtype=float),
                                 base=base, alpha=alpha)
    raise BadParameter("space document needs either points or matrix")


def save_space(space, path):
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_space(path):
    """Read a JSON or CSV space file.  A distance matrix is refused, at any
    scale, unless it is a metric (``metric._check_p_metric`` at p = 1), and
    so a p-metric for every p <= 1: the gate of every norm entry."""
    path = str(path)
    if path.endswith(".csv"):
        return space_from_csv(path)
    with open(path) as fh:
        space = space_from_json(json.load(fh))
    try:
        _check_p_metric(space, 1.0)
    except BadParameter as exc:
        raise BadParameter(f"{path}: {exc}") from None
    return space


def space_from_csv(path):
    """One point per row, coordinates as columns; the euclidean norm with
    alpha = 1, based at the first row."""
    rows = []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or all(not c.strip() for c in row):
                continue
            rows.append([float(c) for c in row])
    return build_space(np.asarray(rows), "euclidean")


def dump_report(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path):
    with open(path) as fh:
        return json.load(fh)
