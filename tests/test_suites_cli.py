import dataclasses
import json
import re

import numpy as np
import pytest

from lipfree import (Mismatch, SuiteConfig, annulus_family, freenorm,
                     norm_value, report_diff, run_suite, space_from_matrix,
                     suites)
from lipfree.cli import main
from lipfree.errors import BadParameter, BadSuite
from lipfree.extension import point_removal_map
from lipfree.generators import generate
from lipfree.serialization import load_report, load_space

ALL_SUITES = ("norm-oracle", "decomposition", "whitney", "retraction",
              "sphere", "commuting-bap", "point-removal", "amenability")


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_suite_runs_and_passes(suite, tmp_path):
    out = tmp_path / f"{suite}.json"
    config = SuiteConfig(suite=suite, seed=7, out=str(out))
    doc, ok = run_suite(config)
    assert ok, [r for r in doc["checks"] if not r["passed"]]
    for r in doc["checks"]:
        # exactly one of bound and tol, and the pass flag is the one rule
        assert (r["bound"] is None) != (r["tol"] is None), r["check"]
        limit = r["tol"] if r["bound"] is None else r["bound"] * (1 + 1e-9)
        assert r["passed"] == (r["measured"] is not None
                               and r["measured"] <= limit), r["check"]
        assert r["measured"] is not None or not r["passed"], r["check"]
    assert out.exists()
    loaded = load_report(str(out))
    assert loaded["suite"] == suite
    assert loaded["environment"]["timing"] is None


def test_suite_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_suite(SuiteConfig(suite="norm-oracle", seed=3, out=str(a)))
    run_suite(SuiteConfig(suite="norm-oracle", seed=3, out=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_missing_p1_certificate_fails_duality_record(monkeypatch):
    solve = suites.free_norm_p1

    def uncertified(space, molecule):
        return dataclasses.replace(solve(space, molecule), certificate=None)

    monkeypatch.setattr(suites, "free_norm_p1", uncertified)
    doc, ok = run_suite(SuiteConfig(suite="norm-oracle", seed=3))
    record, = [r for r in doc["checks"] if r["check"] == "duality_gap_p1"]
    assert not ok and not record["passed"]
    assert record["witness"]["missing_certificates"] == 40


def test_norm_oracle_skips_oracle_checks_above_exact_limit():
    source = {"kind": "random-ball", "params": {"d": 2, "n": 12}}
    doc, ok = run_suite(SuiteConfig(suite="norm-oracle", space_source=source,
                                    seed=3))
    records = {r["check"]: r for r in doc["checks"]}
    for name in ("oracle_vs_flow_p1", "norm_monotone_in_p",
                 "upper_never_below_oracle"):
        assert records[name]["measured"] is None
        assert records[name]["passed"] is False
        assert records[name]["witness"] == {"skipped": "n=12 > exact_limit=8"}
    assert not ok
    assert records["duality_gap_p1"]["passed"]
    assert records["delta_isometry_p0.5"]["passed"]


@pytest.mark.parametrize("n", [2, 6, 12])
def test_delta_isometry_matches_every_pair(n):
    """The batched record equals one ``norm_value`` per pair, bit for bit."""
    source = {"kind": "random-ball", "params": {"d": 2, "n": n}}
    config = SuiteConfig(suite="norm-oracle", space_source=source, seed=5,
                         p_list=(1.0, 0.5, 0.25, 0.7))
    doc, _ = run_suite(config)
    records = {r["check"]: r for r in doc["checks"]}
    space = generate("random-ball", 5, **source["params"])
    for p in config.p_list:
        worst = 0.0
        for x in range(n):
            for y in range(x + 1, n):
                vec = np.zeros(n)
                vec[x], vec[y] = 1.0, -1.0
                v, _ = norm_value(space, vec, p, config.exact_limit)
                worst = max(worst, abs(v - space.dist[x, y]) / space.dist[x, y])
        assert records[f"delta_isometry_p{p}"]["measured"] == worst


_RAYS85 = {"kind": "annulus-rays",
           "params": {"rays": 12, "radii": (0.25, 0.5, 1, 2, 4, 8, 16),
                      "include_origin": True}}
_BALL8 = {"kind": "random-ball", "params": {"n": 8}}


@pytest.mark.parametrize("source, seed", [(None, 0), (_BALL8, 0),
                                          (_BALL8, 3), (_RAYS85, 0)])
def test_p_norm_one_matches_every_pair(monkeypatch, source, seed):
    """``P_norm_one`` equals, bit for bit, the largest ratio
    |delta(x) - delta(y)| / d(x, y) over F(M), by one ``norm_value`` per
    pair within each part of the family the suite builds; it reads 1."""
    families = []

    def kept(*args):
        families.append(annulus_family(*args))
        return families[-1]

    monkeypatch.setattr(suites, "annulus_family", kept)
    config = SuiteConfig(suite="decomposition", space_source=source,
                         seed=seed, p_list=(1.0,))
    doc, _ = run_suite(config)
    record = {r["check"]: r for r in doc["checks"]}["P_norm_one"]
    (family,) = families
    space = family.space
    worst, ratios = 0.0, {}
    for part in family.parts:
        points = [space.base, *part.members]
        for i, x in enumerate(points):
            for y in points[i + 1:]:
                vec = np.zeros(space.n)
                vec[x], vec[y] = 1.0, -1.0
                v, _ = norm_value(space, vec, 1.0, config.exact_limit)
                ratios[x, y] = v / space.dist[x, y]
                worst = max(worst, ratios[x, y])
    assert record["measured"] == worst
    assert ratios[tuple(record["witness"])] == worst
    assert abs(worst - 1.0) <= 1e-9
    assert record["passed"]
    assert record["bound_inputs"] == {"measured_exact": True}


def test_p_norm_one_can_fail(monkeypatch):
    """The record's falsifier: norms inflated by a relative 1e-6 put the
    inclusions' constant above its bound 1."""
    norm_rows = freenorm.norm_rows

    def inflated(*args):
        values, exact = norm_rows(*args)
        return values * (1 + 1e-6), exact

    monkeypatch.setattr(freenorm, "norm_rows", inflated)
    doc, ok = run_suite(SuiteConfig(suite="decomposition", p_list=(1.0,)))
    record = {r["check"]: r for r in doc["checks"]}["P_norm_one"]
    assert record["measured"] > 1.0 + 1e-7
    assert not record["passed"]
    assert not ok


def test_unknown_suite_and_empty_p():
    with pytest.raises(BadSuite):
        run_suite(SuiteConfig(suite="nonsense"))
    with pytest.raises(BadSuite):
        run_suite(SuiteConfig(suite="norm-oracle", p_list=()))
    with pytest.raises(BadSuite):
        run_suite(SuiteConfig(suite="norm-oracle", p_list=(1.5,)))


@pytest.mark.parametrize("limit", [True, 8.0])
def test_run_suite_refuses_a_bad_exact_limit(limit):
    """A bool or a float is refused, even one of an admissible value."""
    with pytest.raises(BadSuite, match="exact limit"):
        run_suite(SuiteConfig(suite="sphere", exact_limit=limit))


@pytest.mark.parametrize("suite", ["norm-oracle", "sphere"])
@pytest.mark.parametrize("limit", ["0", "-3", "13"])
def test_cli_bad_exact_limit_is_refused_before_any_work(capsys, monkeypatch,
                                                        suite, limit):
    """An exact limit outside 1..FOREST_LIMIT_MAX is a usage error of every
    suite, raised before the suite runs, not only once a norm call reads
    it."""
    def no_work(config):
        raise AssertionError("the suite ran")
    monkeypatch.setitem(suites.SUITES, suite, no_work)
    rc = main(["run", "--suite", suite, "--exact-limit", limit])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: exact limit {limit} is not an int from 1 to 12\n")


@pytest.mark.parametrize("limit", ["1", "12"])
def test_cli_exact_limit_at_either_end_is_accepted(tmp_path, limit):
    rc = main(["run", "--suite", "sphere", "--exact-limit", limit,
               "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_report_diff_empty_on_identical(tmp_path):
    doc, _ = run_suite(SuiteConfig(suite="sphere", seed=1))
    assert report_diff(doc, doc) == ""


def test_report_diff_seed_change_lists_deltas():
    old, _ = run_suite(SuiteConfig(suite="amenability", seed=1,
                                   p_list=(1.0, 0.5)))
    new, _ = run_suite(SuiteConfig(suite="amenability", seed=2,
                                   p_list=(1.0, 0.5)))
    text = report_diff(old, new)
    # sampled values move with the seed but pass flags stay put
    assert "passed" not in text or "-> False" not in text


def test_report_diff_suite_mismatch():
    a, _ = run_suite(SuiteConfig(suite="sphere", seed=1))
    b, _ = run_suite(SuiteConfig(suite="retraction", seed=1))
    with pytest.raises(Mismatch):
        report_diff(a, b)


def test_report_diff_flags_regression():
    base = {"suite": "s", "checks": [
        {"check": "c", "measured": 1.0, "bound": 5.0, "passed": True}]}
    worse = {"suite": "s", "checks": [
        {"check": "c", "measured": 1.5, "bound": 5.0, "passed": True}]}
    text = report_diff(base, worse)
    assert "regression" in text


def test_report_diff_does_not_flag_noise_on_a_tol_record():
    """A tol record's value may double as float noise far below its tol:
    the change is listed, and only a flipped pass flag would be tagged."""
    old = {"suite": "s", "checks": [
        {"check": "duality_gap_p1", "measured": 2.1921260503392604e-16,
         "bound": None, "tol": 1e-9, "passed": True}]}
    new = json.loads(json.dumps(old))
    new["checks"][0]["measured"] = 4.2966376373247026e-16
    assert report_diff(old, new).splitlines() == [
        "duality_gap_p1: 2.1921260503392604e-16 -> 4.2966376373247026e-16"
        " (delta +2.105e-16)"]
    new["checks"][0]["passed"] = False
    assert report_diff(old, new).endswith("  [passed True -> False]")


def test_report_diff_lists_bound_tol_and_new_measured():
    old = {"suite": "s", "checks": [
        {"check": "retraction_lip", "measured": 1.0, "bound": 2.1,
         "tol": None, "passed": True},
        {"check": "residual", "measured": None, "bound": None, "tol": 1e-9,
         "passed": True}]}
    new = {"suite": "s", "checks": [
        {"check": "retraction_lip", "measured": 1.0, "bound": 2.0,
         "tol": 1e-9, "passed": True},
        {"check": "residual", "measured": 1e-9, "bound": None, "tol": 1e-9,
         "passed": True}]}
    assert report_diff(old, new).splitlines() == [
        "residual: None -> 1e-09",
        "retraction_lip: bound 2.1 -> 2.0 (delta -1.000e-01)",
        "retraction_lip: tol None -> 1e-09",
    ]


def test_report_diff_lists_changed_tags():
    old = {"suite": "s", "checks": [
        {"check": "T_norm_p0.5", "measured": 1.0, "bound": 2.0, "tol": None,
         "passed": True, "bound_inputs": {"p": 0.5, "measured_exact": True}}]}
    new = json.loads(json.dumps(old))
    new["checks"][0]["bound_inputs"]["measured_exact"] = False
    assert report_diff(old, new).splitlines() == [
        "T_norm_p0.5: bound_inputs.measured_exact True -> False"]


def test_report_diff_prints_a_one_sided_record_in_full():
    """A renamed record shows its value, bound (or tol) and pass flag on
    both sides, so the move can be read from the diff alone."""
    old = {"suite": "decomposition", "checks": [
        {"check": "P_norm_one_sampled", "measured": 0.9943580497206198,
         "bound": 1.0, "tol": None, "passed": True},
        {"check": "gap", "measured": 2e-16, "bound": None, "tol": 1e-9,
         "passed": True}]}
    new = {"suite": "decomposition", "checks": [
        {"check": "P_norm_one", "measured": 1.0, "bound": 1.0, "tol": None,
         "passed": True}]}
    assert report_diff(old, new).splitlines() == [
        "P_norm_one: only in new: 1.0, bound 1.0, passed True",
        "P_norm_one_sampled: only in old: 0.9943580497206198, bound 1.0, "
        "passed True",
        "gap: only in old: 2e-16, tol 1e-09, passed True",
    ]


def test_cli_generate_and_run(tmp_path):
    space_file = tmp_path / "space.json"
    rc = main(["generate", "--kind", "line", "--param", "n=5",
               "--out", str(space_file)])
    assert rc == 0
    assert space_file.exists()

    report = tmp_path / "report.json"
    rc = main(["run", "--suite", "norm-oracle", "--space", str(space_file),
               "--p", "1,0.5", "--seed", "5", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True


def test_cli_diff(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "--suite", "sphere", "--seed", "1", "--out", str(a)])
    main(["run", "--suite", "sphere", "--seed", "1", "--out", str(b)])
    assert main(["diff", str(a), str(b)]) == 0


def test_cli_diff_refuses_a_file_that_is_not_a_report(tmp_path, capsys):
    """A space fixture, or any document without a checks list, is a usage
    error (exit 2) naming its side, not a failed check."""
    space, report = tmp_path / "b5.json", tmp_path / "r.json"
    main(["generate", "--kind", "random-ball", "--param", "n=5",
          "--out", str(space)])
    main(["run", "--suite", "sphere", "--out", str(report)])
    capsys.readouterr()
    for old, new, side in ((space, space, "old"), (report, space, "new")):
        assert main(["diff", str(old), str(new)]) == 2
        assert capsys.readouterr().err == (
            f"error: the {side} document is not a report: it has no checks "
            f"list\n")
    for doc in ([], {"checks": {}}):
        with pytest.raises(Mismatch, match="the new document"):
            report_diff({"checks": []}, doc)


def test_report_diff_lists_config_keys_first():
    """Each differing config key gets a line, a key on one side only says
    which side; a missing config block counts as empty."""
    old = {"suite": "s", "config": {"seed": 1, "p": [1.0],
                                    "tol_overrides": {}},
           "checks": [{"check": "c", "measured": 1.0, "bound": 2.0,
                       "passed": True}]}
    new = {"suite": "s", "config": {"seed": 9, "p": [1.0]},
           "checks": [{"check": "c", "measured": 1.5, "bound": 2.0,
                       "passed": True}]}
    assert report_diff(old, new).splitlines() == [
        "config.seed 1 -> 9",
        "config.tol_overrides: only in old: {}",
        "c: 1.0 -> 1.5 (delta +5.000e-01)  "
        "[regression: measured constant grew > 1%]"]
    del new["config"]
    assert report_diff(old, new).splitlines()[:3] == [
        "config.p: only in old: [1.0]", "config.seed: only in old: 1",
        "config.tol_overrides: only in old: {}"]


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_cli_refuses_a_negative_seed(tmp_path, capsys, seed):
    out = tmp_path / "x.json"
    for argv in (["run", "--suite", "norm-oracle"],
                 ["generate", "--kind", "random-ball", "--out", str(out)]):
        assert main(argv + ["--seed", seed]) == 2
        assert capsys.readouterr().err == (
            f"error: seed {seed} is not an integer >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
def test_a_seed_that_is_not_a_whole_number_from_zero_is_refused(seed):
    with pytest.raises(BadSuite, match="is not an integer >= 0"):
        run_suite(SuiteConfig(suite="sphere", seed=seed))
    with pytest.raises(BadParameter, match="is not an integer >= 0"):
        generate("random-ball", seed)


def test_numpy_integer_seeds_are_taken(tmp_path):
    out = tmp_path / "r.json"
    run_suite(SuiteConfig(suite="sphere", seed=np.int64(2), out=str(out)))
    assert load_report(out)["config"]["seed"] == 2
    assert generate("random-ball", np.uint32(2)).n == 30


def test_cli_error_exit_codes(tmp_path):
    # missing space file -> usage/parse error
    rc = main(["run", "--suite", "norm-oracle", "--space",
               str(tmp_path / "missing.json")])
    assert rc == 2
    rc = main(["run", "--suite", "norm-oracle", "--p", "nope"])
    assert rc == 2
    rc = main(["run", "--suite", "norm-oracle", "--p", ""])
    assert rc == 2
    rc = main(["run", "--suite", "norm-oracle", "--exact-limit", "13"])
    assert rc == 2


def test_cli_exact_limit_above_default(tmp_path):
    space_file = tmp_path / "line9.json"
    main(["generate", "--kind", "line", "--param", "n=9",
          "--out", str(space_file)])
    report = tmp_path / "report.json"
    rc = main(["run", "--suite", "norm-oracle", "--space", str(space_file),
               "--exact-limit", "9", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert all(r["measured"] is not None for r in doc["checks"])


def test_cli_near_equal_radii_share_an_annulus(tmp_path):
    # the rays generator puts points at radii 1.0 and 0.9999999999999999;
    # they form one annulus, not two with gap K = 1 + 2^-52
    space_file = tmp_path / "rays.json"
    report = tmp_path / "r.json"
    main(["generate", "--kind", "annulus-rays", "--param", "rays=3",
          "--param", "radii=[1, 2]", "--param", "include_origin=true",
          "--out", str(space_file)])
    rc = main(["run", "--suite", "decomposition", "--space", str(space_file),
               "--p", "0.5", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["checks"]
    assert all(r["measured"] is not None for r in doc["checks"])


@pytest.mark.parametrize("radii", ["[4, 8]", "[0.1, 0.25]"])
def test_cli_decomposition_with_no_radius_near_one(tmp_path, radii):
    # every log-radius is at least 2 away from 0, where the partition of
    # unity may vanish; no weight is read at the base, so none is needed
    space_file = tmp_path / "rays.json"
    report = tmp_path / "r.json"
    main(["generate", "--kind", "annulus-rays", "--param", "rays=2",
          "--param", f"radii={radii}", "--param", "include_origin=true",
          "--out", str(space_file)])
    rc = main(["run", "--suite", "decomposition", "--space", str(space_file),
               "--p", "1,0.5,0.25", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    names = [f"{check}_p{p}" for p in (1.0, 0.5, 0.25)
             for check in ("pst_identity_residual", "T_norm", "weight_sums")]
    names += [f"P_inverse_ratio_p{p}" for p in (1.0, 0.5, 0.25)]
    assert (sorted(r["check"] for r in doc["checks"])
            == sorted(names + ["P_norm_one"]))
    assert all(r["passed"] for r in doc["checks"])


@pytest.mark.parametrize("suite", ["decomposition", "retraction",
                                   "norm-oracle", "amenability",
                                   "point-removal"])
def test_cli_base_only_space_is_rejected(tmp_path, capsys, suite):
    space_file = tmp_path / "one.json"
    main(["generate", "--kind", "line", "--param", "n=1",
          "--out", str(space_file)])
    rc = main(["run", "--suite", suite, "--space", str(space_file)])
    assert rc == 2
    assert "space has no nonbase points" in capsys.readouterr().err


def test_cli_amenability_base_only_subset_is_rejected(tmp_path, capsys):
    # two points: the default subset {0} holds only the base
    space_file = tmp_path / "two.json"
    main(["generate", "--kind", "line", "--param", "n=2",
          "--out", str(space_file)])
    rc = main(["run", "--suite", "amenability", "--space", str(space_file)])
    assert rc == 2
    assert "subset has no nonbase point" in capsys.readouterr().err


def test_point_removal_removes_each_point_of_the_space(tmp_path):
    space_file = tmp_path / "line.json"
    main(["generate", "--kind", "line", "--param", "n=5",
          "--out", str(space_file)])
    doc, ok = run_suite(SuiteConfig(suite="point-removal",
                                    space_source={"file": str(space_file)},
                                    p_list=(1.0, 0.5)))
    assert ok
    space = load_space(str(space_file))
    records = {r["check"]: r for r in doc["checks"]}
    chain = 0.0
    for p in (1.0, 0.5):
        reps = [point_removal_map(space, x0, p) for x0 in range(1, space.n)]
        assert records[f"point_removal_ratio_p{p}"]["measured"] == max(
            r.measured_lip / r.bound for r in reps)
        chain = max([chain] + [r.chain_ratio for r in reps])
    assert records["point_removal_chain"]["measured"] == chain


def test_point_removal_chain_can_fail(monkeypatch):
    """The record's falsifier: on a distance matrix that breaks the
    triangle inequality (d(0, 2) = 5 > d(0, 1) + d(1, 2)), removing point
    1 re-bases at 0, and the chain's first link d(x0, b) + d(x, b) <=
    d(x0, x) + 2 d(x0, b) fails at x = 2 by a ratio of 2.  The loaders
    refuse such a matrix, so it is handed to the suite directly."""
    space = space_from_matrix([[0, 1, 5, 5], [1, 0, 1, 5], [5, 1, 0, 1],
                               [5, 5, 1, 0]])
    assert point_removal_map(space, 1, 1.0).chain_ratio == 2.0
    monkeypatch.setattr(suites, "_resolve_space",
                        lambda config, default: space)
    doc, ok = run_suite(SuiteConfig(suite="point-removal",
                                    space_source={"file": "matrix"},
                                    p_list=(1.0,)))
    record = {r["check"]: r for r in doc["checks"]}["point_removal_chain"]
    assert (record["measured"], record["bound"]) == (2.0, 1.0)
    assert not record["passed"] and not ok


def test_upper_never_below_oracle_can_fail(monkeypatch):
    """The record's falsifier: both of its sides run the subset DP, so it
    reads exactly 0; an upper bound 1 % below its value reads 0.01 against
    tol 1e-9 and fails the report."""
    config = SuiteConfig(suite="norm-oracle", p_list=(1.0, 0.5, 0.25))

    def record(doc):
        name = "upper_never_below_oracle"
        return {r["check"]: r for r in doc["checks"]}[name]
    assert record(run_suite(config)[0])["measured"] == 0.0
    upper = suites.free_norm_upper

    def low(space, molecule, p):
        res = upper(space, molecule, p)
        return dataclasses.replace(res, value=0.99 * res.value)
    monkeypatch.setattr(suites, "free_norm_upper", low)
    doc, ok = run_suite(config)
    rec = record(doc)
    assert rec["measured"] == pytest.approx(0.01, rel=1e-9)
    assert rec["tol"] == 1e-9
    assert not rec["passed"] and not doc["passed"] and not ok


def test_norm_oracle_norms_no_zero_molecule(monkeypatch):
    """At seed 0 three of the suite's 50 draws land on the base alone; each
    is drawn again, so every molecule the suite norms is nonzero."""
    seen = []
    for name in ("free_norm_p1", "free_norm_exact_small", "free_norm_upper"):
        def spy(space, molecule, *args, solver=getattr(suites, name), **kw):
            seen.append(molecule)
            return solver(space, molecule, *args, **kw)
        monkeypatch.setattr(suites, name, spy)
    run_suite(SuiteConfig(suite="norm-oracle", seed=0,
                          p_list=(1.0, 0.5, 0.25)))
    # 40 draws through the flow and the oracle at p = 1, then 10 through
    # the oracle and the upper bound at each p
    assert len(seen) == 40 * 2 + 10 * 3 * 2
    assert all(m.coeffs for m in seen)


@pytest.mark.parametrize("kind, param, takes", [
    ("line", "bogus=1", "['n', 'start', 'step', 'alpha']"),
    ("grid-nd", "lo=1", "['d', 'hi', 'norm', 'alpha']"),
    ("random-ball", "seed=3", "['d', 'n', 'radius', 'norm', 'alpha']"),
])
def test_cli_generate_refuses_a_parameter_the_kind_does_not_take(
        tmp_path, capsys, kind, param, takes):
    """A usage error, exit 2, naming the parameters the kind takes; the
    seed comes from ``--seed`` only."""
    out = tmp_path / "space.json"
    rc = main(["generate", "--kind", kind, "--param", param,
               "--out", str(out)])
    assert rc == 2
    name = param.split("=")[0]
    assert capsys.readouterr().err == (
        f"error: generator {kind} takes no parameter ['{name}']; "
        f"it takes {takes}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, param, wanted", [
    ("line", "n=abc", "n='abc' is not an integer"),
    ("random-ball", "n=2.5", "n=2.5 is not an integer"),
    ("random-ball", "n=true", "n=True is not an integer"),
    ("random-ball", "radius=false", "radius=False is not a number"),
    ("grid-zd", "norm=1", "norm=1 is not a string"),
    ("annulus-rays", "include_origin=1", "include_origin=1 is not true or false"),
    ("annulus-rays", "radii=[1, \"2\"]", "radii=[1, '2'] is not a list of numbers"),
])
def test_cli_generate_refuses_a_parameter_of_the_wrong_type(
        tmp_path, capsys, kind, param, wanted):
    """A value not of the type of the builder's default is a usage error,
    exit 2, naming the parameter and the type it takes."""
    out = tmp_path / "space.json"
    rc = main(["generate", "--kind", kind, "--param", param,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: generator {kind} parameter {wanted}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, params, n", [
    ("grid-zd", ["d=2", "lo=-1", "hi=1", "norm=taxicab", "alpha=1"], 9),
    ("grid-nd", ["d=3", "hi=1", "alpha=0.5"], 8),
    ("sphere-fibonacci", ["d=2", "n=12", "alpha=1.0", "base=3"], 12),
    ("random-ball", ["d=3", "n=10", "radius=2", "norm=sup"], 10),
    ("annulus-rays", ["rays=3", "radii=[1, 2.5]", "include_origin=true"], 7),
    ("line", ["n=4", "start=-1", "step=0.5"], 4),
])
def test_cli_generate_takes_each_kind_s_parameters(tmp_path, kind, params, n):
    """An int is a number, and a JSON list a list of numbers."""
    out = tmp_path / "space.json"
    argv = ["generate", "--kind", kind, "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 0
    assert load_space(out).n == n


def test_cli_prints_the_bound_or_the_tol(tmp_path, capsys):
    rc = main(["run", "--suite", "retraction", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    lines = {line.split()[1]: line
             for line in capsys.readouterr().out.splitlines()}
    assert re.fullmatch(r"PASS retraction_lip measured=\S+ bound=2",
                        lines["retraction_lip"])
    assert re.fullmatch(r"PASS retraction_slack measured=\S+ tol=0\.1",
                        lines["retraction_slack"])


def test_cli_parse_error_line_info(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0,0],\n  broken\n]}')
    rc = main(["run", "--suite", "norm-oracle", "--space", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err
