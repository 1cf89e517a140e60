"""Command-line front end: fixture generation, suite runs, report diffs.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import LipfreeError
from .freenorm import FOREST_LIMIT_DEFAULT
from .generators import KINDS, generate
from .serialization import dump_report, load_report, save_space
from .suites import SUITES, SuiteConfig, report_diff, run_suite


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise LipfreeError(f"parameter {item!r} is not KEY=VAL")
        key, val = item.split("=", 1)
        try:
            params[key.replace("-", "_")] = json.loads(val)
        except json.JSONDecodeError:
            params[key.replace("-", "_")] = val
    return params


def _parse_p_list(text):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise LipfreeError(f"bad p list {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lipfree",
        description="free-space norm solvers and constant-certifying suites")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a space fixture file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--param", action="append", metavar="KEY=VAL",
                     help="generator parameter (repeatable)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", required=True, choices=sorted(SUITES))
    run.add_argument("--space", help="space fixture file (JSON or CSV)")
    run.add_argument("--p", default="1,0.5", help="comma-separated p values")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="report output path")
    run.add_argument("--exact-limit", type=int, default=FOREST_LIMIT_DEFAULT,
                     help="forest oracle size cap")

    diff = sub.add_parser("diff", help="diff two reports of the same suite")
    diff.add_argument("old")
    diff.add_argument("new")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            params = _parse_params(args.param)
            space = generate(args.kind, args.seed, **params)
            save_space(space, args.out)
            print(f"wrote {space.n}-point space to {args.out}")
            return 0
        if args.command == "run":
            source = {"file": args.space} if args.space else None
            config = SuiteConfig(
                suite=args.suite,
                space_source=source,
                p_list=_parse_p_list(args.p),
                seed=args.seed,
                exact_limit=args.exact_limit,
                out=args.out,
            )
            doc, ok = run_suite(config)
            for rec in doc["checks"]:
                status = "PASS" if rec["passed"] else "FAIL"
                bound = rec["bound"]
                extra = (f" tol={rec['tol']:.6g}" if bound is None
                         else f" bound={bound:.6g}")
                meas = rec["measured"]
                mtxt = "" if meas is None else f" measured={meas:.6g}"
                print(f"{status} {rec['check']}{mtxt}{extra}")
            if args.out is None:
                dump_report(doc, "/dev/stdout")
            return 0 if ok else 1
        if args.command == "diff":
            text = report_diff(load_report(args.old), load_report(args.new))
            if text:
                print(text)
            else:
                print("(no differences)")
            return 0
    except LipfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: parse failure at line {exc.lineno}, column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
