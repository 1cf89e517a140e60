"""The workloads: inputs made from the seed, the jobs that call lipfree
through its public entry points, and the checks of their outputs.

Jobs only run; checks run after a round, outside the timed region.  The
suites do not return the solver results or the extension maps they build, so
a round wraps the few suite-level entry points below to keep their results
for checking (one list append per call, negligible next to the call).
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from lipfree import decomposition, freenorm, generators, suites
from lipfree.freenorm import Molecule
from lipfree.suites import SuiteConfig

from tracing import binder, patched

EXACT_LIMIT = 8          # the CLI default of --exact-limit
REL = 1e-9               # relative tolerance of every numeric check

# transport-p1: (support size, molecules of that size per round).  Many
# small supports and few large ones: solve time grows like k^3.3 and one
# instance's time varies by about 20 % between seeds, so a round is kept
# from hanging on any single instance.  Molecules cycle through
# full-support clouds and subsets of the 400-point cloud, each under
# euclidean and snowflaked (alpha = 0.5) distances.
TRANSPORT_SIZES = ((60, 16), (90, 8), (120, 4), (150, 2))
SHAPES = tuple((shape, alpha) for alpha in (1.0, 0.5)
               for shape in ("full", "subset"))
TRANSPORT_CLOUD = 400

# operator-lip: the cloud300 shape and the 85-point annulus-rays fixture
WHITNEY_POINTS, WHITNEY_SUBSET = 300, 30
RAYS, RAY_RADII = 12, tuple(2.0 ** j for j in range(-2, 5))
OPERATOR_P = (1.0, 0.5)

# oracle-small
ORACLE_POINTS = 8
ORACLE_P = (1.0, 0.5, 0.25)

CAPTURED = ("free_norm_p1", "free_norm_exact_small", "free_norm_upper",
            "doubling_extension_map")


@dataclass
class Job:
    name: str
    run: object      # () -> output
    judge: object    # (outcome, output, captured) -> None


@dataclass
class Outcome:
    """Checks attempted (name, passed) and exact-or-certified flags."""

    checks: list = field(default_factory=list)
    exact: list = field(default_factory=list)

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))

    @property
    def failed(self):
        return [name for name, ok in self.checks if not ok]


# ---------------------------------------------------------------------------
# running a round


class Raised:
    """Output of a job that raised; judged as one failed check."""

    def __init__(self, text):
        self.text = text


def run_round(jobs):
    """Run every job once, in order; returns [(job, output, captured,
    seconds)]."""
    results = []
    captured = []

    def capture(name):
        def make(fn):
            bind = binder(fn)

            def kept(*args, **kwargs):
                out = fn(*args, **kwargs)
                captured.append((name, bind(args, kwargs), out))
                return out
            return kept
        return make

    with patched([("lipfree.suites", name, capture(name))
                  for name in CAPTURED]):
        for job in jobs:
            captured.clear()
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:  # a raising job is a failed check, not a crash
                out = Raised(traceback.format_exc())
            results.append((job, out, list(captured),
                            time.perf_counter() - t0))
    return results


def judge_round(results, outcome):
    for job, out, captured, _ in results:
        if isinstance(out, Raised):
            outcome.check(f"{job.name}/raised", False)
            print(out.text, file=sys.stderr, flush=True)
            continue
        job.judge(outcome, out, captured)


# ---------------------------------------------------------------------------
# output checks


def judge_free_norm(outcome, prefix, space, molecule, result,
                    certificate=False):
    """The representation reproduces the molecule and costs the value; at
    p = 1 the certificate pairs to the value and is 1-Lipschitz."""
    vec = molecule.vector(space.n)
    rebuilt = np.zeros(space.n)
    for tail, head, weight in result.representation:
        rebuilt[tail] += weight
        rebuilt[head] -= weight
    outcome.check(f"{prefix}/representation_reproduces_molecule",
                  np.abs(rebuilt - vec).max() <= REL * np.abs(vec).sum())
    value = result.value
    outcome.check(f"{prefix}/representation_cost_equals_value",
                  abs(result.cost_of_representation(space) - value)
                  <= REL * value)
    if certificate:
        cert = result.certificate
        outcome.check(f"{prefix}/certificate_pairing_equals_value",
                      cert is not None
                      and abs(float(vec @ cert) - value) <= REL * value)
        outcome.check(
            f"{prefix}/certificate_1_lipschitz",
            cert is not None
            and bool((np.abs(cert[:, None] - cert[None, :])
                      <= space.dist + REL * space.diameter()).all()))
    outcome.exact.append(result.exactness == "exact")


def judge_captured(outcome, prefix, captured):
    """Checks of the solver results and extension maps a suite built."""
    oracle = {}
    for i, (name, args, out) in enumerate(captured):
        if name == "doubling_extension_map":
            outcome.exact.append(bool(out.measured_exact))
            continue
        p = args.get("p", 1.0)
        judge_free_norm(outcome, f"{prefix}/{name}#{i}", args["space"],
                        args["molecule"], out,
                        certificate=name == "free_norm_p1")
        key = (id(args["space"]), args["molecule"], p)
        if name == "free_norm_exact_small":
            oracle[key] = out.value
        elif name == "free_norm_upper" and key in oracle:
            outcome.check(f"{prefix}/{name}#{i}/upper_not_below_oracle",
                          out.value >= oracle[key] * (1 - REL))


def judge_suite(outcome, out, captured, name):
    doc, _ = out
    for rec in doc["checks"]:
        outcome.check(f"{name}/{rec['check']}", rec["passed"])
        if "certified" in rec["bound_inputs"]:
            outcome.exact.append(bool(rec["bound_inputs"]["certified"]))
    judge_captured(outcome, name, captured)


def judge_pst(outcome, reports, captured, name):
    """The record criteria of the decomposition suite, per p."""
    for p, rep in reports:
        outcome.check(f"{name}/pst_identity_residual_p{p}",
                      rep.residual <= 1e-10)
        outcome.check(f"{name}/T_norm_p{p}",
                      rep.measured_T <= rep.bound_T * (1 + REL))
        outcome.check(f"{name}/weight_sums_p{p}",
                      rep.weight_sum_error <= 1e-12)
        outcome.exact.append(bool(rep.measured_exact))


def suite_job(name, config):
    # looked up at call time, so the traced run sees its wrapper
    return Job(name, lambda: suites.run_suite(config),
               partial(judge_suite, name=name))


# ---------------------------------------------------------------------------
# workloads


def _seeds(rng):
    return int(rng.integers(2 ** 31))


def transport_p1(seed):
    """Molecules of 60-150 points solved with ``free_norm_p1``."""
    rng = np.random.default_rng(seed)
    clouds = {a: generators.random_ball(d=2, n=TRANSPORT_CLOUD,
                                        seed=_seeds(rng), alpha=a)
              for a in (1.0, 0.5)}
    jobs = []
    for k, count in TRANSPORT_SIZES:
        for _ in range(count):
            shape, alpha = SHAPES[len(jobs) % len(SHAPES)]
            if shape == "full":
                space = generators.random_ball(d=2, n=k, seed=_seeds(rng),
                                               alpha=alpha)
                points = np.arange(1, k)
            else:
                space = clouds[alpha]
                points = 1 + rng.choice(space.n - 1, size=k - 1,
                                        replace=False)
            coef = rng.standard_normal(k - 1)
            mol = Molecule.balanced(dict(zip(points.tolist(), coef.tolist())),
                                    space.base)
            name = f"p1/{len(jobs):02d}-k{k}-{shape}-a{alpha:g}"
            jobs.append(Job(
                name,
                lambda space=space, mol=mol: freenorm.free_norm_p1(space, mol),
                partial(_judge_p1, name=name, space=space, mol=mol)))
    return jobs


def _judge_p1(outcome, result, captured, name, space, mol):
    judge_free_norm(outcome, name, space, mol, result, certificate=True)


def _unit_cores(space):
    """Width-1 plateau cores over the realized log2-radii (margin 1/2),
    as the decomposition suite builds them."""
    radii = space.radii()
    pos = radii[radii > 0]
    cores, margin, _ = decomposition.unit_interval_cores(
        math.log2(pos.min()), math.log2(pos.max()))
    return cores, margin


def operator_lip(seed):
    """The whitney suite on the cloud300 shape, and ``verify_pst_identity``
    on 12 rays at radii 2^-2..2^4, both at p = 1 and 0.5."""
    rng = np.random.default_rng(seed)
    subset = [0] + sorted((1 + rng.choice(WHITNEY_POINTS - 1,
                                          size=WHITNEY_SUBSET - 1,
                                          replace=False)).tolist())
    whitney = SuiteConfig(
        suite="whitney",
        space_source={"kind": "random-ball",
                      "params": {"d": 2, "n": WHITNEY_POINTS},
                      "subset": {"indices": subset}},
        p_list=OPERATOR_P, seed=_seeds(rng), exact_limit=EXACT_LIMIT)
    rays = generators.annulus_rays(rays=RAYS, radii=RAY_RADII,
                                   include_origin=True)
    cores, margin = _unit_cores(rays)

    def pst():
        return [(p, decomposition.verify_pst_identity(
            rays, cores, margin, 2.0, p, exact_limit=EXACT_LIMIT))
            for p in OPERATOR_P]
    return [suite_job("whitney", whitney),
            Job("pst", pst, partial(judge_pst, name="pst"))]


def oracle_small(seed):
    """norm-oracle and amenability on 8-point random-ball fixtures, and the
    decomposition suite on its default 9-point fixture."""
    rng = np.random.default_rng(seed)
    ball = {"kind": "random-ball", "params": {"d": 2, "n": ORACLE_POINTS}}
    return [suite_job(suite, SuiteConfig(
        suite=suite, space_source=source, p_list=ORACLE_P, seed=_seeds(rng),
        exact_limit=EXACT_LIMIT))
        for suite, source in (("norm-oracle", ball), ("amenability", ball),
                              ("decomposition", None))]


def warm_transport():
    space = generators.random_ball(d=2, n=5, seed=0)
    freenorm.free_norm_p1(space, Molecule.balanced({1: 1.0, 2: -0.5}, 0))


def warm_oracle():
    """One exact oracle call per support size up to the exact limit, which
    fills the per-size tables the oracle keeps for the process."""
    warm_transport()
    for n in range(2, EXACT_LIMIT + 1):
        space = generators.random_ball(d=2, n=n, seed=n)
        mol = Molecule.balanced({i: 1.0 for i in range(1, n)}, 0)
        freenorm.free_norm_exact_small(space, mol, 0.5,
                                       forest_limit=EXACT_LIMIT)


@dataclass(frozen=True)
class Workload:
    build: object    # seed -> [Job]
    warmup: object   # () -> None


WORKLOADS = {
    "transport-p1": Workload(transport_p1, warm_transport),
    "operator-lip": Workload(operator_lip, warm_oracle),
    "oracle-small": Workload(oracle_small, warm_oracle),
}
