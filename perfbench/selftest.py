"""Self-test of the benchmark; needs nothing outside its own directory.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it makes two traced runs with the same seed and checks:

* both exit 0 and report exactly the per-layer metrics of BENCHMARK.json;
* the counts (calls, balls, pairs, exactness) and the exact flags repeat
  exactly, and the suite reports are byte-identical;
* in every traced round, the self times of all spans (the benchmark's own
  root span included) plus the span bookkeeping add up to the traced wall
  time.

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out" / "selftest"
WORKLOADS = ("transport-p1", "operator-lip", "oracle-small")
# set-up of the patch points and the root span happens outside the spans
ACCOUNTING_TOL_S = 0.05


def traced_run(workload, seed, out):
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1",
           "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, last


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{' ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    for workload in args.workload or WORKLOADS:
        runs = [OUT / f"{workload}-{tag}" for tag in ("a", "b")]
        docs = []
        for out in runs:
            code, last = traced_run(workload, args.seed, out)
            check(f"{workload}/{out.name}/exit_0", code == 0, f"exit {code}")
            try:
                docs.append(json.loads(last))
            except json.JSONDecodeError:
                docs.append({"metrics": {}})
        for out, doc in zip(runs, docs):
            check(f"{workload}/{out.name}/per_layer_metrics",
                  set(doc["metrics"]) == layer_names)
        counts = [json.loads((out / "counts.json").read_text())
                  for out in runs]
        check(f"{workload}/counts_repeat", counts[0] == counts[1])
        reports = [sorted(p.name for p in (out / "reports").glob("*.json"))
                   for out in runs]
        same = reports[0] == reports[1] and all(
            (runs[0] / "reports" / name).read_bytes()
            == (runs[1] / "reports" / name).read_bytes()
            for name in reports[0])
        check(f"{workload}/reports_byte_identical", same,
              f"{len(reports[0])} reports")
        for out in runs:
            summary = json.loads((out / "summary.json").read_text())
            for i, acc in enumerate(summary["accounting"]):
                gap = acc["traced_wall_s"] - acc["self_s_total"] \
                    - acc["bookkeeping_s"]
                check(f"{workload}/{out.name}/round{i}/self_times_add_up",
                      0 <= gap <= ACCOUNTING_TOL_S, f"gap {gap:.6f} s")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
