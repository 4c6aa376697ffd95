"""The benchmark's workloads: seeded inputs, one timed pass, expected outputs.

Each workload runs as a closed loop with one caller: a pass starts only
after the previous one returned. The seed is a benchmark argument; the
library sees only the inputs built from it. Every library function is
looked up through its module at call time, so the traced run's wrappers
see each call.

A pass returns its raw outputs and, for each operation it timed
separately, the operation's time and the time of a fixed reference
computation measured beside it (see `OpTimer`); `collect` turns the raw
outputs into the gate's form outside the timed region.
"""

from __future__ import annotations

import io
import json
import operator
import random
import sys
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

from gate import error

SRC = Path(__file__).resolve().parent.parent / "src"

# Beside the `why` in BENCHMARK.json: which layers each workload stresses
# and bypasses, and which end-to-end metric a change to each layer should
# move on it.
DESCRIPTIONS = {
    "verify-all": {
        "stresses": ["enumeration", "partitions", "bijection", "verify", "cli"],
        "bypasses": [],
        "predictions": {
            "partitions.beta_set, partitions.is_core": "pass_cost",
            "bijection.*": "pass_cost (in part)",
            "enumeration.partitions_of, enumeration.tables": "pass_cost, peak_rss_mib",
            "series.*": "no change (series work is under 2% of a pass)",
            "verify.*": "pass_cost",
            "cli.*": "setup_s, pass_cost",
        },
    },
    "correspondence-sweep": {
        "stresses": ["partitions", "bijection", "enumeration.self_conjugate_of", "verify"],
        "bypasses": ["series", "cli", "enumeration.tables",
                     "enumeration.partitions_of beyond weight 12"],
        "predictions": {
            "partitions.*": "pass_cost",
            "bijection.*": "pass_cost",
            "enumeration.self_conjugate_of": "pass_cost",
            "verify.*": "pass_cost",
            "series.*": "no change",
        },
    },
    "series-expand": {
        "stresses": ["series"],
        "bypasses": ["partitions", "bijection", "enumeration", "verify", "cli"],
        "predictions": {
            "series.mul, series.times_geometric, series.builders": "pass_cost",
            "everything else": "no change",
        },
    },
}

# Layer counts that must be nonzero in a traced pass of each workload; a
# zero means the tracer missed the calls it exists to see.
TRACED = {
    "verify-all": (
        "partitions.beta_set.calls", "partitions.hook_multiset.calls",
        "partitions.is_core.calls", "partitions.sc_from_diagonal.calls",
        "partitions.conjugate.calls", "partitions.diagonal_hooks.calls",
        "bijection.phi.calls", "bijection.psi.calls", "bijection.classify.calls",
        "enumeration.partitions_of.yielded", "enumeration.self_conjugate_of.yielded",
        "enumeration.tables.calls", "series.mul.calls", "series.mul.term_products",
        "series.times_geometric.calls", "series.check_identity.calls",
        "verify.cases", "cli.main.calls", "cli.output_bytes",
    ),
    "correspondence-sweep": (
        "partitions.beta_set.calls", "partitions.hook_multiset.calls",
        "partitions.is_core.calls", "partitions.sc_from_diagonal.calls",
        "partitions.conjugate.calls", "partitions.diagonal_hooks.calls",
        "bijection.phi.calls", "bijection.psi.calls", "bijection.classify.calls",
        "enumeration.partitions_of.yielded", "enumeration.self_conjugate_of.yielded",
        "verify.cases",
    ),
    "series-expand": (
        "series.mul.calls", "series.mul.term_products",
        "series.times_geometric.calls", "series.builders.calls",
    ),
}

REFERENCE = Path(__file__).with_name("reference.json")


def partition_reference() -> int:
    """Streams the 1958 partitions of 25; counts the 3-cores among them (2)."""
    count = 0
    stack = [25]
    while True:
        ell = len(stack)
        beta = {x + ell - i for i, x in enumerate(stack, start=1)}
        count += all(x < 3 or x - 3 in beta for x in beta)
        i = ell - 1
        while i >= 0 and stack[i] == 1:
            i -= 1
        if i < 0:
            return count
        rest = ell - i
        del stack[i + 1:]
        stack[i] -= 1
        cap = stack[i]
        while rest > 0:
            part = min(cap, rest)
            stack.append(part)
            rest -= part


def series_reference() -> int:
    """Truncated product of two dense series of order 350; sums its coefficients (-1012)."""
    order = 350
    a = [(7 * i) % 19 - 9 for i in range(order + 1)]
    b = [(11 * i) % 19 - 9 for i in range(order + 1)]
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                if y:
                    out[i + j] += x * y
    return sum(out)


def reference_seconds(reference, expect: int) -> float:
    """Time one run of a reference computation, checking its result."""
    start = perf_counter()
    if reference() != expect:
        raise RuntimeError(f"{reference.__name__} miscounted")
    return perf_counter() - start


class OpTimer:
    """Times operations, each beside a fixed reference computation.

    On a shared host, other tenants can slow a process by up to ~1.7x in
    phases lasting seconds to minutes (seen on a 2-vCPU Xeon VM), and they
    slow a reference computation of the same kind nearly alike. An
    operation's time divided by the reference time measured just before
    and after it stays steady where the time alone does not. The reference
    computations are pure Python of the library's kind, independent of the
    library; never change them, as their time is the unit of pass_cost
    and of setup_s.
    """

    def __init__(self, reference, expect: int):
        self.reference, self.expect = reference, expect
        self.ops: dict[str, tuple[float, float]] = {}  # op -> (seconds, reference seconds)
        self.reference_spent = 0.0

    def __call__(self, op: str, fn, *args, **kwargs):
        began = perf_counter()
        before = reference_seconds(self.reference, self.expect)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            after = reference_seconds(self.reference, self.expect)
            self.ops[op] = (took, (before + after) / 2)
            self.reference_spent += perf_counter() - began - took


class VerifyAll:
    """`cli.main(["verify", "--all", ...])` writing its JSON to a file."""

    name = "verify-all"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.out = workdir / "verify-all.json"
        self.argv = ["verify", "--all", "--seed", str(seed), "--out", str(self.out)]
        self.output_bytes = 0
        self.stderr = ""

    def run_pass(self):
        # Each check is timed on its own through verify.run_check, which the
        # command calls once per check; the rest of the command is one more
        # operation. If the command stops calling verify.run_check, the whole
        # command is that one operation, timed beside the reference
        # computations run around it.
        verify, run_check = self.lib.verify, self.lib.verify.run_check
        timer = OpTimer(partition_reference, 2)
        captured = io.StringIO()
        verify.run_check = lambda theorem, **bounds: timer(theorem, run_check, theorem, **bounds)
        outer = reference_seconds(partition_reference, 2)
        start = perf_counter()
        try:
            with redirect_stderr(captured):
                code = self.lib.cli.main(self.argv)
        finally:
            total = perf_counter() - start
            verify.run_check = run_check
        outer = (outer + reference_seconds(partition_reference, 2)) / 2
        rest = total - timer.reference_spent - sum(t for t, _ in timer.ops.values())
        references = sorted(r for _, r in timer.ops.values()) or [outer]
        timer.ops["cli"] = (rest, references[len(references) // 2])
        return (code, captured), timer.ops

    def collect(self, raw) -> dict:
        code, captured = raw
        self.stderr = captured.getvalue()
        text = self.out.read_text()
        self.output_bytes = len(text.encode())
        self.out.unlink()
        reports = {r["theorem"]: r for r in json.loads(text)}
        if code != 0:
            return {op: error(f"exit code {code}") for op in reports}
        return reports

    def expected(self, recorded: dict) -> dict:
        want = {}
        for op, report in recorded[self.name].items():
            report = dict(report, params=dict(report["params"]))
            if "seed" in report["params"]:
                report["params"]["seed"] = self.seed
            want[op] = report
        return want


class CorrespondenceSweep:
    """`verify.run_check` on the per-partition laws at max_weight=80."""

    name = "correspondence-sweep"
    ids = ("lem2.2", "prop2.3", "thm3.1", "prop4.2", "thm4.4", "prop4.4", "cor4.5")
    max_weight = 80

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.order = random.Random(seed).sample(self.ids, len(self.ids))

    def run_pass(self):
        raw, timer = {}, OpTimer(partition_reference, 2)
        for theorem in self.order:
            try:
                raw[theorem] = timer(
                    theorem, self.lib.verify.run_check, theorem, max_weight=self.max_weight
                )
            except Exception as exc:
                raw[theorem] = exc
        return raw, timer.ops

    def collect(self, raw) -> dict:
        return {
            op: error(f"raised {r!r}") if isinstance(r, Exception) else r.to_json_dict()
            for op, r in raw.items()
        }

    def expected(self, recorded: dict) -> dict:
        return dict(recorded[self.name])


def _triangular(order: int) -> list[int]:
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return coeffs


def _exact_product(a: list[int], b: list[int], order: int) -> list[int]:
    """Truncated product by Kronecker substitution: an independent route."""
    width = 64  # bits per coefficient; products here stay far below 2**63
    pack = lambda cs: sum(c << (width * i) for i, c in enumerate(cs))  # noqa: E731
    value = pack(a) * pack(b)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(order + 1):
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        out.append(digit)
        value = (value - digit) >> width
    return out


class SeriesExpand:
    """The product builders plus seeded dense x dense products at order 400."""

    name = "series-expand"
    order = 400
    builders = (
        ("core_gf(2)", "core_product_series", 2),
        ("core_gf(3)", "core_product_series", 3),
        ("core_gf(5)", "core_product_series", 5),
        ("sc2t_gf(1)", "sc_even_core_product_series", 1),
        ("sc2t_gf(2)", "sc_even_core_product_series", 2),
        ("sc2t_gf(3)", "sc_even_core_product_series", 3),
        ("gauss", "gauss_product_series", None),
    )
    # Closed forms needing no enumeration: these equal the triangular series.
    triangular = ("core_gf(2)", "sc2t_gf(1)", "gauss")
    products = 10

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(seed)
        make = lib.series.TruncatedSeries
        self.pairs = [
            tuple(
                make([rng.randint(-9, 9) for _ in range(self.order + 1)], self.order)
                for _ in range(2)
            )
            for _ in range(self.products)
        ]

    def run_pass(self):
        series = self.lib.series
        calls = [
            (op, getattr(series, builder), (self.order,) if t is None else (t, self.order))
            for op, builder, t in self.builders
        ]
        calls += [(f"dense[{i}]", operator.mul, pair) for i, pair in enumerate(self.pairs)]
        raw, timer = {}, OpTimer(series_reference, -1012)
        for op, fn, args in calls:
            try:
                raw[op] = timer(op, fn, *args)
            except Exception as exc:
                raw[op] = exc
        return raw, timer.ops

    def collect(self, raw) -> dict:
        return {
            op: error(f"raised {r!r}") if isinstance(r, Exception) else r.to_json_dict()
            for op, r in raw.items()
        }

    def expected(self, recorded: dict) -> dict:
        want = {op: dict(s) for op, s in recorded[self.name].items()}
        for op in self.triangular:
            want[op] = {"order": self.order, "coefficients": _triangular(self.order)}
        for i, (x, y) in enumerate(self.pairs):
            want[f"dense[{i}]"] = {
                "order": self.order,
                "coefficients": _exact_product(list(x.coeffs), list(y.coeffs), self.order),
            }
        return want


WORKLOADS = {w.name: w for w in (VerifyAll, CorrespondenceSweep, SeriesExpand)}


def set_up(name: str, seed: int, workdir: Path):
    """Import scpartitions from ./src and build a workload's inputs.

    Call it once, in a fresh interpreter, after the harness's own imports,
    so that the time covers only the library's imports and the workload's
    constructor. Returns the workload, the seconds this took, and the
    seconds of partition_reference timed just before and after it (the
    mean of the two), for the same reason OpTimer times it.
    """
    sys.path.insert(0, str(SRC))
    before = reference_seconds(partition_reference, 2)
    start = perf_counter()
    import scpartitions
    from scpartitions import bijection, cli, enumeration, partitions, series, verify  # noqa: F401

    workload = WORKLOADS[name](scpartitions, seed, workdir)
    setup_s = perf_counter() - start
    after = reference_seconds(partition_reference, 2)
    if not Path(scpartitions.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"scpartitions imported from {scpartitions.__file__}, not {SRC}")
    return workload, setup_s, (before + after) / 2
