import json

import numpy as np
import pytest

from lipfree import BadParameter, TooLarge, space_from_matrix
from lipfree.cli import main
from lipfree.generators import (
    annulus_rays,
    generate,
    grid_zd,
    random_ball,
    sphere_fibonacci,
)
from lipfree.serialization import (load_space, space_from_csv, space_from_json,
                                  space_to_json)


def test_grid_zd_shape_and_metric():
    sp = grid_zd(d=2, lo=0, hi=3)
    assert sp.n == 16
    assert sp.norm == "sup"
    assert sp.points[sp.base] == (0.0, 0.0)


def test_sphere_sample_unit_norms():
    v = sphere_fibonacci(d=2, n=100)
    assert np.abs(np.sqrt((v ** 2).sum(axis=1)) - 1.0).max() <= 1e-12


def test_annulus_rays_count_and_closure():
    sp = annulus_rays(rays=8, radii=(1.0, 2.0, 4.0))
    assert sp.n == 24
    # sigma-closure: rescaling any point to any sample radius hits a sample
    norms = np.sqrt((sp.coords ** 2).sum(axis=1))
    for i in range(sp.n):
        for r in (1.0, 2.0, 4.0):
            target = sp.coords[i] * (r / norms[i])
            d = np.abs(sp.coords - target).max(axis=1).min()
            assert d <= 1e-12


def test_generator_cap():
    with pytest.raises(TooLarge):
        grid_zd(d=2, lo=0, hi=99)


def test_generate_dispatch_deterministic():
    a = generate("random-ball", 42, d=3, n=20)
    b = generate("random-ball", 42, d=3, n=20)
    assert np.array_equal(a.coords, b.coords)
    c = generate("random-ball", 43, d=3, n=20)
    assert not np.array_equal(a.coords, c.coords)


def test_space_json_roundtrip_coords(tmp_path):
    sp = random_ball(d=2, n=10, seed=1, alpha=0.5)
    doc = space_to_json(sp)
    back = space_from_json(json.loads(json.dumps(doc)))
    assert np.allclose(back.dist, sp.dist, atol=1e-15)
    assert back.alpha == sp.alpha
    assert back.base == sp.base


def test_space_json_roundtrip_matrix():
    mat = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
    sp = space_from_matrix(mat, base=1)
    back = space_from_json(space_to_json(sp))
    assert np.array_equal(back.dist, sp.dist)
    assert back.base == 1
    assert back.norm == "matrix"


def test_load_space_rejects_non_metric_matrix(tmp_path):
    """A matrix file that breaks the triangle inequality is refused where it
    is loaded, naming the worst triple and its slack, and ``lipfree run``
    exits 2 on it without writing a report; a metric matrix still loads."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    with pytest.raises(BadParameter,
                       match=r"d\(0, 2\) > d\(0, 1\) \+ d\(1, 2\), slack -1$"):
        load_space(bad)
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "norm-oracle", "--space", str(bad),
                 "--out", str(out)]) == 2
    assert not out.exists()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    assert load_space(good).dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_space_csv_ingestion(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0\n0,2\n")
    sp = space_from_csv(str(path))
    assert sp.n == 3
    assert sp.d(0, 2) == 2.0
