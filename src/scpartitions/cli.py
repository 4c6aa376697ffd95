"""Command-line interface: map, inverse, count, series, and verify.

Output is machine-readable and deterministic: JSON with sorted keys, or
CSV for count tables. Exit codes: 0 success, 1 verification failure,
2 usage or validation error. Relative --out paths resolve against the
SCPARTITIONS_OUT_DIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bijection, enumeration, verify
from . import series as series_mod
from .partitions import Partition, PartitionError, parse_partition, sc_from_diagonal

OUT_DIR_ENV = "SCPARTITIONS_OUT_DIR"


class UsageError(Exception):
    """Invalid arguments or payloads; reported on stderr with exit code 2."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}")


def _diagram_lines(p: Partition) -> str:
    return "\n".join("#" * x for x in p.parts) if p else "(empty)"


def _load_sc(args) -> Partition:
    if args.diagonal is not None:
        if args.partition is not None:
            raise UsageError("give either a partition or --diagonal, not both")
        return sc_from_diagonal(_parse_int_list(args.diagonal, "--diagonal"))
    if args.partition is None:
        raise UsageError("a partition argument or --diagonal is required")
    p = parse_partition(args.partition)
    if not p.is_self_conjugate():
        raise UsageError(f"partition ({p}) is not self-conjugate")
    return p


def _cmd_map(args) -> int:
    if args.format != "json":
        raise UsageError("map supports only --format json")
    lam = _load_sc(args)
    m, mu = bijection.phi(lam)
    tri = m * (m + 1) // 2
    payload = {
        "m": m,
        "mu": str(mu),
        "weight_check": {
            "lambda_weight": lam.weight,
            "mu_weight": mu.weight,
            "triangular_part": tri,
            "holds": lam.weight == 4 * mu.weight + tri,
        },
    }
    if args.verbose:
        sys.stderr.write(f"lambda:\n{_diagram_lines(lam)}\nmu:\n{_diagram_lines(mu)}\n")
    _emit_json(payload, args.out)
    return 0


def _cmd_inverse(args) -> int:
    if args.format != "json":
        raise UsageError("inverse supports only --format json")
    if args.m < 0:
        raise UsageError(f"--m must be >= 0, got {args.m}")
    mu = parse_partition(args.mu)
    lam = bijection.psi(args.m, mu)
    payload = {
        "lambda": str(lam),
        "diagonal": ",".join(str(d) for d in lam.diagonal_hooks()),
    }
    if args.verbose:
        sys.stderr.write(f"lambda:\n{_diagram_lines(lam)}\n")
    _emit_json(payload, args.out)
    return 0


def _count_table(args) -> enumeration.CountTable:
    family = args.family
    if family == "p":
        return enumeration.partition_count_table(args.max)
    if family == "sc":
        return enumeration.sc_count_table(args.max)
    if family == "core":
        if args.t is None:
            raise UsageError("--t is required for --family core")
        return enumeration.core_count_table(args.t, args.max)
    if family == "sc-core":
        if args.t is None:
            raise UsageError("--t is required for --family sc-core")
        return enumeration.sc_core_count_table(args.t, args.max)
    if family == "sim":
        if args.ts is None:
            raise UsageError("--ts is required for --family sim")
        return enumeration.sim_core_count_table(_parse_int_list(args.ts, "--ts"), args.max)
    if family == "sc-sim":
        if args.ts is None or args.m is None:
            raise UsageError("--ts and --m are required for --family sc-sim")
        return enumeration.count_sc_sim_core_m(
            _parse_int_list(args.ts, "--ts"), args.m, args.max
        )
    raise UsageError(f"unknown family {family!r}")


def _cmd_count(args) -> int:
    if args.max < 0:
        raise UsageError(f"--max must be >= 0, got {args.max}")
    table = _count_table(args)
    if args.format == "csv":
        _emit(table.to_csv_text(), args.out)
    else:
        _emit_json(table.to_json_dict(), args.out)
    return 0


def _cmd_series(args) -> int:
    if args.format != "json":
        raise UsageError("series supports only --format json")
    if args.order < 0:
        raise UsageError(f"--order must be >= 0, got {args.order}")
    kind = args.kind
    if kind == "triangular":
        out = series_mod.triangular_series(args.order)
    elif kind == "gauss_rhs":
        out = series_mod.gauss_product_series(args.order)
    elif kind == "core_gf":
        if args.t is None:
            raise UsageError("--t is required for --kind core_gf")
        out = series_mod.core_product_series(args.t, args.order)
    elif kind == "sc2t_gf":
        if args.t is None:
            raise UsageError("--t is required for --kind sc2t_gf")
        out = series_mod.sc_even_core_product_series(args.t, args.order)
    else:
        raise UsageError(f"unknown series kind {kind!r}")
    _emit_json(out.to_json_dict(), args.out)
    return 0


# (flag, SweepBounds field, help) of each verify bound; the field is the flag's argparse dest.
_BOUND_FLAGS = (
    ("--max-weight", "max_weight", "partition-weight sweep bound"),
    ("--order", "order", "series truncation order"),
    ("--max-mu", "max_mu_weight", "image-weight bound for round trips"),
    ("--max-m", "max_class", "largest class index swept"),
)


def _cmd_verify(args) -> int:
    if args.format == "csv":
        raise UsageError("verify supports only --format json")
    ids = verify.all_ids() if args.all else [args.theorem]
    if not args.all and args.theorem is None:
        raise UsageError("a theorem id or --all is required")
    bounds = {"seed": args.seed}
    for flag, field, _ in _BOUND_FLAGS:
        value = getattr(args, field)
        if value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
        bounds[field] = value
    reports = []
    for theorem in ids:
        report = verify.run_check(theorem, **bounds)
        reports.append(report)
        sys.stderr.write(report.summary_line() + "\n")
    payload = [r.to_json_dict() for r in reports]
    _emit_json(payload if args.all else payload[0], args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (csv applies to count tables only)",
    )
    common.add_argument("--out", help=f"write output to a file (relative to ${OUT_DIR_ENV} if set)")
    common.add_argument("--verbose", action="store_true", help="diagrams to stderr (map, inverse)")

    parser = argparse.ArgumentParser(
        prog="scpart",
        description="Self-conjugate partition correspondences, core counts, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser(
        "map", parents=[common],
        help="map a self-conjugate partition to its class and image partition",
    )
    p_map.add_argument("partition", nargs="?", help='partition as "4,4,4,3" ("" for empty)')
    p_map.add_argument("--diagonal", help='diagonal hooks as "21,15,13,9,3,1"')
    p_map.set_defaults(func=_cmd_map)

    p_inv = sub.add_parser(
        "inverse", parents=[common],
        help="rebuild the self-conjugate partition from a class and image",
    )
    p_inv.add_argument("--m", type=int, required=True, help="class index (>= 0)")
    p_inv.add_argument("--mu", required=True, help='image partition as "4,3,3,2,1,1"')
    p_inv.set_defaults(func=_cmd_inverse)

    p_count = sub.add_parser(
        "count", parents=[common], help="tabulate a counting family over n = 0..max"
    )
    p_count.add_argument(
        "--family", required=True,
        choices=("p", "sc", "core", "sc-core", "sim", "sc-sim"),
    )
    p_count.add_argument("--t", type=int, help="modulus for core / sc-core")
    p_count.add_argument("--ts", help='comma-separated moduli for sim / sc-sim, e.g. "3,4"')
    p_count.add_argument("--m", type=int, help="class index for sc-sim")
    p_count.add_argument("--max", type=int, default=40, help="largest weight tabulated")
    p_count.set_defaults(func=_cmd_count)

    p_series = sub.add_parser(
        "series", parents=[common], help="expand a named series to a truncation order"
    )
    p_series.add_argument(
        "--kind", required=True,
        choices=("core_gf", "sc2t_gf", "gauss_rhs", "triangular"),
    )
    p_series.add_argument("--t", type=int, help="modulus parameter for core_gf / sc2t_gf")
    p_series.add_argument("--order", type=int, default=40, help="truncation order")
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run exhaustive identity checks"
    )
    p_verify.add_argument(
        "theorem", nargs="?", choices=verify.all_ids(), metavar="THEOREM",
        help="check id: " + ", ".join(verify.all_ids()),
    )
    p_verify.add_argument("--all", action="store_true", help="run every registered check")
    for flag, field, help_text in _BOUND_FLAGS:
        p_verify.add_argument(
            flag, dest=field, metavar=flag[2:].upper().replace("-", "_"), type=int,
            default=getattr(verify.SweepBounds, field), help=help_text,
        )
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized ring-law checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, PartitionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
