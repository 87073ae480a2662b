"""Command-line interface: verify, sum, constants, compare; sum and compare
take their exact d sums from correlate.streamed_d_sums, with no d-table.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
error.  The DIVCORR_MEMCAP environment variable overrides the memory cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from divcorr.constants import (
    compute_zeta_constants,
    estermann_coefficients,
    shifted_product_coefficients,
)
from divcorr.correlate import streamed_d_sums
from divcorr.errors import ContractError, RangeError, ResourceError
from divcorr.harness import KINDS, SUITES, RunConfig, emit, run_compare, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def int_list(text: str) -> list[int]:
    """The ints of a comma list such as "1,2,6", for argparse's type=."""
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divcorr",
        description="divisor correlation sums: exact identity suites and "
        "empirical-vs-asymptotic comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "--suite", nargs="+", choices=SUITES, default=list(SUITES),
        help="suite names (default: all)",
    )
    p_verify.add_argument("--xmax", type=int, default=None)
    p_verify.add_argument("--vmax", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_sum = sub.add_parser("sum", help="print one exact correlation sum")
    p_sum.add_argument("--kind", choices=("dd", "dpoly"), required=True)
    p_sum.add_argument("--x", type=int, required=True)
    p_sum.add_argument("--v", type=int, required=True)
    p_sum.set_defaults(func=_cmd_sum)

    p_const = sub.add_parser(
        "constants", help="print analytic constants (and coefficients at v)"
    )
    p_const.add_argument("--v", type=int, default=None)
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(func=_cmd_constants)

    p_cmp = sub.add_parser(
        "compare", help="empirical sums against truncated main terms"
    )
    p_cmp.add_argument("--x", type=int_list, required=True, help="comma list")
    p_cmp.add_argument("--v", type=int_list, required=True, help="comma list")
    p_cmp.add_argument("--kind", choices=KINDS, required=True)
    p_cmp.add_argument("--alpha", type=int, default=None)
    p_cmp.add_argument("--out", choices=("csv", "json"), default="csv")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.suite, xmax=args.xmax, vmax=args.vmax)
    for s in report:
        line = f"suite {s.name}: {s.checks} checks, {s.failures} failures"
        if s.first_counterexample:
            line += f" (first: {s.first_counterexample})"
        print(line, "[PASS]" if s.passed else "[FAIL]")
    return EXIT_OK if all(s.passed for s in report) else EXIT_VERIFY_FAIL


def _cmd_sum(args: argparse.Namespace) -> int:
    print(streamed_d_sums(args.kind, [(args.x, args.v)])[0])
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    zc = compute_zeta_constants()
    payload = dataclasses.asdict(zc)
    if args.v is not None:
        c1, c2 = estermann_coefficients(args.v, zc)
        a1, a2 = shifted_product_coefficients(args.v, zc)
        payload["coefficients"] = {
            "v": args.v, "c1": c1, "c2": c2, "A1": a1, "A2": a2,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = RunConfig(x_list=args.x, v_list=args.v, kind=args.kind, alpha=args.alpha)
    rows = run_compare(config)
    sys.stdout.buffer.write(emit(rows, args.out))
    sys.stdout.buffer.flush()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ContractError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
