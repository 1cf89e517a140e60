"""Running verification suites programmatically and diffing their reports.

Every suite bundles checks that pair a measured constant with the
closed-form bound it must respect (up to a relative 1e-9), or with an
absolute tol.  Reports are deterministic for a fixed
seed (byte-identical JSON), so they work as regression baselines; the diff
flags any measured constant that grew by more than 1% even while passing.
"""

import tempfile
from pathlib import Path

from lipfree import SuiteConfig, report_diff, run_suite

with tempfile.TemporaryDirectory() as tmp:
    out_a = Path(tmp) / "whitney-a.json"
    out_b = Path(tmp) / "whitney-b.json"

    doc, ok = run_suite(SuiteConfig(suite="whitney", seed=1, out=str(out_a)))
    print(f"whitney suite: {'all green' if ok else 'FAILURES'}")
    for rec in doc["checks"]:
        bound = rec["bound"]
        bound_txt = (f" <= tol {rec['tol']:.6g}" if bound is None
                     else f" <= {bound:.6g}")
        measured = rec["measured"]
        m_txt = "" if measured is None else f"{measured:.6g}"
        print(f"  [{'ok' if rec['passed'] else 'XX'}] {rec['check']}: "
              f"{m_txt}{bound_txt}")

    # determinism: a rerun with the same seed is byte-identical
    run_suite(SuiteConfig(suite="whitney", seed=1, out=str(out_b)))
    same = out_a.read_bytes() == out_b.read_bytes()
    print(f"\nrerun with the same seed byte-identical: {same}")

    # a different seed moves sampled values but never the pass flags
    doc2, _ = run_suite(SuiteConfig(suite="amenability", seed=1))
    doc3, _ = run_suite(SuiteConfig(suite="amenability", seed=9))
    text = report_diff(doc2, doc3)
    print("\nseed 1 vs seed 9 on the amenability suite:")
    print(text if text else "  (no measured differences)")
