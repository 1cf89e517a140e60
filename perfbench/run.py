"""lipfree benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Set-up (import, fixture generation from the seed, and a
warm-up that fills the process-level caches the jobs use) is timed in this
process and in one fresh child process.  The timed phase then runs rounds,
one pass over the workload's jobs each, one job after the other: at least
three, then more while the next round is expected to end within
``--seconds``.  Outputs are checked after each round, outside the timed
region.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced rounds alternate and the metrics are per layer (see
``tracing.py``); spans, counts and suite reports are then written under
``.perfbench_out/``.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit status: 0 when every check passed, 1 when a check failed or a job
raised (each failing check is printed by name), 2 when the library sources
are missing or the arguments are bad.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: BLAS pools are pinned before numpy is first imported (in
# setup), and child processes inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_SETUPS = 1          # set-up samples besides this process's own
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 3            # per-job medians need at least three samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="directory for spans, counts and reports "
                         "(traced runs; default .perfbench_out/...)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def setup(workload, seed):
    """Import, build the jobs from the seed, warm up; returns (jobs, s),
    or (None, 0) for an unknown workload."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lipfree
    if Path(lipfree.__file__).resolve().parent != SRC / "lipfree":
        raise ImportError(f"lipfree imported from {lipfree.__file__}, "
                          f"not from {SRC}")
    import workloads
    if workload not in workloads.WORKLOADS:
        return None, 0.0
    wl = workloads.WORKLOADS[workload]
    jobs = wl.build(seed)
    wl.warmup()
    return jobs, time.perf_counter() - t0


def child_setup(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def loop(seconds, step, min_steps):
    """Call ``step()`` at least ``min_steps`` times, then until the next
    call would end past ``seconds``."""
    start = time.perf_counter()
    for done in itertools.count(1):
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if done >= min_steps and (now - start) + (now - t0) > seconds:
            return


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, jobs, setup_s, outcome):
    """End-to-end metrics: set-up samples, then timed rounds."""
    import workloads
    samples = [setup_s] + [child_setup(args) for _ in range(CHILD_SETUPS)]
    job_times = [[] for _ in jobs]

    def step():
        results = workloads.run_round(jobs)
        for times, result in zip(job_times, results):
            times.append(result[3])
        workloads.judge_round(results, outcome)

    loop(args.seconds, step, MIN_ROUNDS)
    rounds = [sum(r) for r in zip(*job_times)]
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
    print(f"round walls ({len(rounds)}): "
          + " ".join(f"{w:.4f}" for w in rounds))
    attempted = len(outcome.checks)
    return {
        # one pass over all jobs: each job's median over the rounds, summed
        "wall_s": metric(sum(statistics.median(t) for t in job_times), "s"),
        "setup_s": metric(statistics.median(samples), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": metric(
            (attempted - len(outcome.failed)) / attempted, "ratio"),
        "exact_share": metric(sum(outcome.exact) / len(outcome.exact),
                              "ratio"),
    }


def traced(args, jobs, outcome):
    """Per-layer metrics: untraced and traced rounds alternate; self times
    are medians over the traced rounds, counts repeat in every round."""
    import tracing
    import workloads

    walls, traced_walls, tracers, first = [], [], [], []

    def step():
        t0 = time.perf_counter()
        results = workloads.run_round(jobs)
        walls.append(time.perf_counter() - t0)
        workloads.judge_round(results, outcome)
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        results = tracer.run(lambda: workloads.run_round(jobs))
        traced_walls.append(time.perf_counter() - t0)
        tracers.append(tracer)
        judged = workloads.Outcome()
        workloads.judge_round(results, judged)
        outcome.checks += judged.checks
        outcome.exact += judged.exact
        if not first:
            first.extend([results, judged])

    loop(args.seconds, step, 1)
    aggs = [tracing.aggregate(t.spans) for t in tracers]
    metrics = {name: metric(statistics.median(a[name] for a in aggs), unit)
               for name, unit in tracing.METRICS}
    metrics["trace.overhead_s"]["value"] = (
        statistics.median(traced_walls) - statistics.median(walls))
    out = args.out or ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}")
    write_trace(out, *first, aggs, walls, traced_walls, tracers)
    print(f"traced rounds {len(tracers)}; spans, counts and reports in {out}")
    return metrics


def write_trace(out, results, judged, aggs, walls, traced_walls, tracers):
    """Suite reports and counts of the first traced round, the accounting
    of every traced round, and all spans."""
    from lipfree.serialization import dump_report
    import tracing

    (out / "reports").mkdir(parents=True, exist_ok=True)
    for job, output, _, _ in results:
        if isinstance(output, tuple) and isinstance(output[0], dict):
            dump_report(output[0], out / "reports" / f"{job.name}.json")
    counts = {name: aggs[0][name] for name in tracing.COUNT_METRICS}
    (out / "counts.json").write_text(json.dumps(
        {"counts": counts, "exact_flags": judged.exact}, indent=2) + "\n")
    accounting = [
        {"traced_wall_s": wall,
         "self_s_total": sum(tracing.self_times(t.spans)),
         "bookkeeping_s": tracing.bookkeeping(t.spans)}
        for wall, t in zip(traced_walls, tracers)]
    (out / "summary.json").write_text(json.dumps(
        {"untraced_walls_s": walls, "traced_walls_s": traced_walls,
         "accounting": accounting, "rounds": aggs}, indent=2) + "\n")
    tracing.write_spans(tracers, out / "spans.tsv")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lipfree" / "__init__.py").is_file():
        print(f"error: no lipfree sources under {SRC}", file=sys.stderr)
        return 2
    jobs, setup_s = setup(args.workload, args.seed)
    if jobs is None:
        import workloads
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for key, value in machine_facts().items():
        print(f"machine {key}: {value}")
    outcome = workloads.Outcome()
    if args.trace:
        metrics = traced(args, jobs, outcome)
    else:
        metrics = untraced(args, jobs, setup_s, outcome)
    failed = outcome.failed
    attempted = len(outcome.checks)
    for name in failed:
        print(f"FAIL {name}")
    print(f"fail_ratio {len(failed) / attempted:.6g} "
          f"({len(failed)} failed / {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
