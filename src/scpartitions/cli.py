"""Command-line interface: map, inverse, count, series, and verify.

Output is machine-readable and deterministic: JSON with sorted keys, or
CSV ("n,count", then one row per weight) for count tables. Each
subcommand offers only the flags it acts on: --out on all five, --format
on count, --verbose on map and inverse. A count family or series kind is
one row of a table naming the parameter flags it reads; a missing one or
any other one exits 2, and count's JSON lists them with their parsed
values. Every bound that enumerates partitions is admitted against a
budget before any work. Exit codes: 0 success, 1 verification failure, 2
usage or validation error. Relative --out paths resolve against the
SCPARTITIONS_OUT_DIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt
from pathlib import Path

from . import bijection, enumeration, verify
from . import series as series_mod
from .partitions import Partition, PartitionError, parse_ints, parse_partition, sc_from_diagonal

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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return parse_ints(text)
    except PartitionError as exc:
        raise UsageError(f"{flag} {exc}") from None


def _nonneg(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")
    return value


def _diagram_lines(p: Partition) -> str:
    return "\n".join("#" * x for x in p.parts) if p else "(empty)"


# Heaviest self-conjugate partition that map and inverse build. Its weight is known before any
# work, and the bound caps the parts held, the JSON and the --verbose diagram alike (map
# --diagonal 9999999 took 1.3 s and 283 MiB on a 2-vCPU host).
WEIGHT_LIMIT = 10_000_000


def _admit_weight(weight: int, what: str) -> None:
    if weight > WEIGHT_LIMIT:
        raise UsageError(f"{what} weighs {weight}; the largest weight admitted is {WEIGHT_LIMIT}")


def _load_sc(args) -> Partition:
    if args.diagonal is not None:
        if args.partition is not None:
            raise UsageError("give either a partition or --diagonal, not both")
        hooks = _parse_int_list(args.diagonal, "--diagonal")
        _admit_weight(sum(hooks), "the partition with these diagonal hooks")
        return sc_from_diagonal(hooks)
    if args.partition is None:
        raise UsageError("a partition argument or --diagonal is required")
    p = parse_partition(args.partition)
    _admit_weight(p.weight, "the partition")
    if not p.is_self_conjugate():
        raise UsageError(f"partition ({p}) is not self-conjugate")
    return p


def _cmd_map(args) -> int:
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
    m = _nonneg(args.m, "--m")
    mu = parse_partition(args.mu)
    weight = 4 * mu.weight + m * (m + 1) // 2
    _admit_weight(weight, f"the partition of class {m} and an image of weight {mu.weight}")
    lam = bijection.psi(m, mu)
    payload = {
        "lambda": str(lam),
        "diagonal": ",".join(str(d) for d in lam.diagonal_hooks()),
    }
    if args.verbose:
        sys.stderr.write(f"lambda:\n{_diagram_lines(lam)}\n")
    _emit_json(payload, args.out)
    return 0


# Most partitions `count` may visit: the sum of p(n) over n <= --max for --family core|sim,
# and of sc(n) for sc-core|sc-sim, whose search adds hooks to self-conjugate cores. Either
# search visits that many only when every modulus exceeds --max.
COUNT_BUDGET = 6_000_000

# Most partitions verify may push through a per-case law: the sum of p(w) * (--max-m + 1)
# over w <= --max-mu (thm3.1's round trips through psi and phi), and the sum of sc(w) over
# w <= --max-weight (the self-conjugate sweeps).
ROUND_TRIP_BUDGET = 1_000_000


# Largest --order of series and verify, and --max of count --family p|sc (product-series
# coefficients up to q^max). verify eq1.1 searches every 5-core up to the order, 4x the time
# per doubling (4.2 s at --order 2000 on a 2-vCPU host), so a huge order would hang, not fail.
ORDER_LIMIT = 2000


# Largest --max-m of verify: the largest m with 32 + T(m) <= ORDER_LIMIT, T(m) = m(m + 1)/2.
# prop3.4 tabulates self-conjugate counts to weight 4 * 8 + T(--max-m), and thm3.1's psi(m, ())
# builds a staircase of weight T(m), so both grow as --max-m squared whatever --max-mu is
# (prop3.4 --max-m 80 took 10.9 s and --max-m 62 2.8 s on a 2-vCPU host).
CLASS_LIMIT = (isqrt(8 * (ORDER_LIMIT - 32) + 1) - 1) // 2


def _admit_order(flag: str, order: int) -> None:
    if order > ORDER_LIMIT:
        raise UsageError(f"{flag} {order} would expand series past q^{ORDER_LIMIT}; "
                         f"the largest {flag} admitted is {ORDER_LIMIT}")


def _admit(flag: str, value: int, counts, budget: int, overrun: str) -> None:
    """Refuse `flag value` once the sum of counts(n)[w] over w <= value passes budget,
    naming the largest value admitted. counts(n) is built for doubling n, so a huge value
    costs no more than reading up to the first weight past the budget."""
    total, rows = 0, ()
    for w in range(value + 1):
        if w == len(rows):
            rows = counts(2 * w + 63)
        total += rows[w]
        if total > budget:
            largest = w - 1 if w else "none"
            raise UsageError(f"{flag} {value} {overrun}; the largest {flag} admitted is {largest}")


def _chosen(args, flag: str, table: dict) -> tuple:
    """The table row of the family or kind chosen by flag, once every parameter flag the
    row reads is given and no other parameter flag of the table is."""
    choice = getattr(args, flag[2:])
    row = table[choice]
    reads = row[0]
    if any(getattr(args, param[2:]) is None for param in reads):
        verb = "are" if len(reads) > 1 else "is"
        raise UsageError(f"{' and '.join(reads)} {verb} required for {flag} {choice}")
    for param in dict.fromkeys(param for other in table.values() for param in other[0]):
        if param not in reads and getattr(args, param[2:]) is not None:
            raise UsageError(f"{flag} {choice} does not read {param}")
    return row


# family -> (parameter flags it reads, per-weight count table bounding its work or None
# when --max is capped at ORDER_LIMIT instead, table builder); --ts is parsed by then
_FAMILIES = {
    "p": ((), None, lambda a: enumeration.partition_count_table(a.max)),
    "sc": ((), None, lambda a: enumeration.sc_count_table(a.max)),
    "core": (("--t",), enumeration.partition_count_table,
             lambda a: enumeration.sim_core_count_table((a.t,), a.max)),
    "sc-core": (("--t",), enumeration.sc_count_table,
                lambda a: enumeration.sc_sim_core_count_table((a.t,), a.max)),
    "sim": (("--ts",), enumeration.partition_count_table,
            lambda a: enumeration.sim_core_count_table(a.ts, a.max)),
    "sc-sim": (("--ts", "--m"), enumeration.sc_count_table,
               lambda a: enumeration.count_sc_sim_core_m(a.ts, _nonneg(a.m, "--m"), a.max)),
}

# kind -> (parameter flags it reads, series builder)
_KINDS = {
    "core_gf": (("--t",), lambda a: series_mod.core_product_series(a.t, a.order)),
    "sc2t_gf": (("--t",), lambda a: series_mod.sc_even_core_product_series(a.t, a.order)),
    "gauss_rhs": ((), lambda a: series_mod.gauss_product_series(a.order)),
    "triangular": ((), lambda a: series_mod.triangular_series(a.order)),
}


def _cmd_count(args) -> int:
    _nonneg(args.max, "--max")
    reads, work, build = _chosen(args, "--family", _FAMILIES)
    if work is None:
        _admit_order("--max", args.max)
    else:
        overrun = f"would enumerate more than {COUNT_BUDGET} partitions"
        _admit("--max", args.max, work, COUNT_BUDGET, overrun)
    if args.ts is not None:
        args.ts = _parse_int_list(args.ts, "--ts")
    counts = build(args)
    if args.format == "csv":
        _emit("n,count\n" + "".join(f"{n},{c}\n" for n, c in enumerate(counts)), args.out)
    else:
        params = {flag[2:]: getattr(args, flag[2:]) for flag in reads}
        rows = [[n, c] for n, c in enumerate(counts)]
        _emit_json({"family": args.family, "params": params, "rows": rows}, args.out)
    return 0


def _cmd_series(args) -> int:
    _admit_order("--order", _nonneg(args.order, "--order"))
    _, build = _chosen(args, "--kind", _KINDS)
    _emit_json(build(args).to_json_dict(), args.out)
    return 0


# (flag, SweepBounds field, help) of each verify bound; the field is the flag's argparse dest.
_BOUND_FLAGS = (
    ("--max-weight", "max_weight", "partition-weight sweep bound"),
    ("--order", "order", "series truncation order"),
    ("--max-mu", "max_mu_weight", "image-weight bound for round trips"),
    ("--max-m", "max_class", "largest class index swept"),
)


def _cmd_verify(args) -> int:
    if args.all and args.theorem is not None:
        raise UsageError("give either a theorem id or --all, not both")
    if not args.all and args.theorem is None:
        raise UsageError("a theorem id or --all is required")
    ids = verify.all_ids() if args.all else [args.theorem]
    bounds = {field: _nonneg(getattr(args, field), flag) for flag, field, _ in _BOUND_FLAGS}
    _admit_order("--order", bounds["order"])
    m = bounds["max_class"]
    if m > CLASS_LIMIT:
        raise UsageError(f"--max-m {m} would tabulate self-conjugate partitions to weight "
                         f"{32 + m * (m + 1) // 2}, past {ORDER_LIMIT}; "
                         f"the largest --max-m admitted is {CLASS_LIMIT}")
    budget, copies = ROUND_TRIP_BUDGET, m + 1
    overrun = f"would sweep more than {budget} self-conjugate partitions"
    _admit("--max-weight", bounds["max_weight"], enumeration.sc_count_table, budget, overrun)
    # copies * total > budget exactly when the integer total > budget // copies.
    overrun = f"with --max-m {copies - 1} would round-trip more than {budget} partition-class pairs"
    _admit("--max-mu", bounds["max_mu_weight"], enumeration.partition_count_table,
           budget // copies, overrun)
    reports = verify.run_checks(ids, seed=args.seed, **bounds)
    for report in reports:
        sys.stderr.write(report.summary_line() + "\n")
    payload = [r.to_json_dict() for r in reports]
    _emit_json(payload if args.all else payload[0], args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help=f"write output to a file (relative to ${OUT_DIR_ENV} if set)")
    drawn = argparse.ArgumentParser(add_help=False)
    drawn.add_argument("--verbose", action="store_true", help="Young diagrams to stderr")

    parser = argparse.ArgumentParser(
        prog="scpart",
        description="Self-conjugate partition correspondences, core counts, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser(
        "map", parents=[common, drawn],
        help="map a self-conjugate partition to its class and image partition",
    )
    p_map.add_argument("partition", nargs="?", help='partition as "4,4,4,3" ("" for empty)')
    p_map.add_argument("--diagonal", help='diagonal hooks as "21,15,13,9,3,1"')
    p_map.set_defaults(func=_cmd_map)

    p_inv = sub.add_parser(
        "inverse", parents=[common, drawn],
        help="rebuild the self-conjugate partition from a class and image",
    )
    p_inv.add_argument("--m", type=int, required=True, help="class index (>= 0)")
    p_inv.add_argument("--mu", required=True, help='image partition as "4,3,3,2,1,1"')
    p_inv.set_defaults(func=_cmd_inverse)

    p_count = sub.add_parser(
        "count", parents=[common], help="tabulate a counting family over n = 0..max"
    )
    p_count.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p_count.add_argument("--t", type=int, help="modulus for core / sc-core")
    p_count.add_argument("--ts", help='comma-separated moduli for sim / sc-sim, e.g. "3,4"')
    p_count.add_argument("--m", type=int, help="class index for sc-sim")
    p_count.add_argument("--max", type=int, default=40, help="largest weight tabulated")
    p_count.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p_count.set_defaults(func=_cmd_count)

    p_series = sub.add_parser(
        "series", parents=[common], help="expand a named series to a truncation order"
    )
    p_series.add_argument("--kind", required=True, choices=tuple(_KINDS))
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
            default=verify.SweepBounds._field_defaults[field], help=help_text,
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
