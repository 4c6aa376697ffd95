"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each scpartitions module from
outside and rebinds every name that refers to them, so a call made
through any import path opens a span. A span records its name, start,
end, parent span and run (pass) id. Self time is a span's duration minus
the time its child spans cover; the tracer's own bookkeeping after a
child closes is hidden from the parent as well.

A call to a layer made while a span of the same name is already the
innermost open span belongs to that span (for example ``is_t_core``
calling the core predicate), so nested calls of one layer are counted
once.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A dotted attribute names a method. The
# public functions BENCHMARK.json does not report one by one are wrapped
# too, so that each layer's self time covers the whole layer.
TARGETS = (
    ("partitions", "Partition.conjugate", "partitions.conjugate"),
    ("partitions", "Partition.is_self_conjugate", "partitions.is_self_conjugate"),
    ("partitions", "Partition.durfee_side", "partitions.durfee_side"),
    ("partitions", "Partition.hook_length", "partitions.hook_length"),
    ("partitions", "Partition.hook_multiset", "partitions.hook_multiset"),
    ("partitions", "Partition.beta_set", "partitions.beta_set"),
    ("partitions", "Partition.diagonal_hooks", "partitions.diagonal_hooks"),
    ("partitions", "Partition.disparity", "partitions.disparity"),
    ("partitions", "Partition.is_t_core", "partitions.is_core"),
    ("partitions", "Partition.is_simultaneous_core", "partitions.is_core"),
    ("partitions", "_beta_core", "partitions.is_core"),
    ("partitions", "parse_partition", "partitions.parse_partition"),
    ("partitions", "sc_from_diagonal", "partitions.sc_from_diagonal"),
    ("partitions", "split_diagonal_classes", "partitions.split_diagonal_classes"),
    ("partitions", "beta_from_diagonal", "partitions.beta_from_diagonal"),
    ("bijection", "classify", "bijection.classify"),
    ("bijection", "diagonal_sequence_pair", "bijection.diagonal_sequence_pair"),
    ("bijection", "phi", "bijection.phi"),
    ("bijection", "psi", "bijection.psi"),
    ("bijection", "half_even_beta", "bijection.half_even_beta"),
    ("bijection", "complement_beta", "bijection.complement_beta"),
    ("bijection", "delete_principal_hook", "bijection.delete_principal_hook"),
    (
        "bijection",
        "corresponding_partition_after_deletion",
        "bijection.corresponding_partition_after_deletion",
    ),
    ("enumeration", "partitions_of", "enumeration.partitions_of"),
    ("enumeration", "self_conjugate_of", "enumeration.self_conjugate_of"),
    ("enumeration", "count_sc_m", "enumeration.tables"),
    ("enumeration", "count_t_core", "enumeration.tables"),
    ("enumeration", "count_sc_sim_core_m", "enumeration.tables"),
    ("enumeration", "partition_count_table", "enumeration.tables"),
    ("enumeration", "sc_count_table", "enumeration.tables"),
    ("enumeration", "core_count_table", "enumeration.tables"),
    ("enumeration", "core_count_tables", "enumeration.tables"),
    ("enumeration", "sc_core_count_table", "enumeration.tables"),
    ("enumeration", "sc_sim_core_count_table", "enumeration.tables"),
    ("enumeration", "sim_core_count_table", "enumeration.tables"),
    ("enumeration", "partition_count", "enumeration.closed_forms"),
    ("enumeration", "catalan", "enumeration.closed_forms"),
    ("enumeration", "motzkin", "enumeration.closed_forms"),
    ("enumeration", "sufficient_core_bound", "enumeration.closed_forms"),
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("series", "TruncatedSeries.times_geometric", "series.times_geometric"),
    ("series", "core_product_series", "series.builders"),
    ("series", "sc_even_core_product_series", "series.builders"),
    ("series", "gauss_product_series", "series.builders"),
    ("series", "triangular_series", "series.builders"),
    ("series", "series_from_counts", "series.series_from_counts"),
    ("series", "check_identity", "series.check_identity"),
    ("verify", "run_check", "verify"),
    ("cli", "main", "cli.main"),
)

# Generators: each resume is a span, and each item counts as yielded.
STREAMS = {"enumeration.partitions_of", "enumeration.self_conjugate_of"}

LAYERS = ("partitions", "bijection", "enumeration", "series", "verify", "cli")


def _term_products(a, b) -> int:
    """Nonzero a_i * b_j pairs with i + j <= order."""
    order = len(a) - 1
    nz_b = [j for j, c in enumerate(b) if c]
    return sum(bisect_right(nz_b, order - i) for i, c in enumerate(a) if c)


def _table_outcome(result):
    """(accepted rows, tables) of a count sweep's result."""
    if isinstance(result, int):
        return result, 1
    if isinstance(result, dict):
        return sum(t.total() for t in result.values()), len(result)
    return result.total(), 1


class Tracer:
    """In-memory spans and per-pass aggregates for the wrapped layers."""

    def __init__(self):
        self.stack = []  # open spans: [name, span id, child seconds, streamed at open]
        self.next_id = 0
        self.run_id = 0
        self.streamed = 0  # items yielded by wrapped generators, ever
        self.keep_spans = True
        self.verify_ids: list[str] = []
        self.names: dict[str, int] = {}
        self.spans = {
            "id": array("i"),
            "parent": array("i"),
            "run": array("i"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of aggregates (one per pass)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, self.next_id, 0.0, self.streamed]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        name = frame[0]
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[2]
        parent = stack[-1] if stack else None
        if self.keep_spans:
            spans = self.spans
            spans["id"].append(frame[1])
            spans["parent"].append(parent[1] if parent else -1)
            spans["run"].append(self.run_id)
            spans["name"].append(self.names.setdefault(name, len(self.names)))
            spans["start"].append(start)
            spans["end"].append(end)
        if parent is not None:
            parent[2] += perf_counter() - start

    def _count_terms(self, frame: list, args, result) -> None:
        self.counts["series.mul.term_products"] += _term_products(
            args[0].coeffs, args[1].coeffs
        )

    def _count_accepts(self, frame: list, args, result) -> None:
        streamed = self.streamed - frame[3]
        if streamed:
            accepted, tables = _table_outcome(result)
            self.counts["enumeration.core_accepted"] += accepted
            self.counts["enumeration.core_tested"] += streamed * tables

    def _count_cases(self, frame: list, args, result) -> None:
        self.counts["verify.cases"] += result.cases

    def wrap(self, name: str, fn):
        tracer = self
        dynamic = name == "verify"
        observe = {
            "series.mul": self._count_terms,
            "enumeration.tables": self._count_accepts,
            "verify": self._count_cases,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = f"verify.{args[0] if args else kwargs['theorem']}" if dynamic else name
            stack = tracer.stack
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = tracer._open(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, perf_counter())
                raise
            end = perf_counter()
            if observe is not None:
                observe(frame, args, result)
            tracer._close(frame, start, end)
            return result

        return traced

    def wrap_stream(self, name: str, fn):
        tracer = self
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = None
            while True:
                frame = tracer._open(name)
                start = perf_counter()
                try:
                    if it is None:
                        it = iter(fn(*args, **kwargs))
                    item = next(it)
                except StopIteration:
                    tracer._close(frame, start, perf_counter())
                    return
                except BaseException:
                    tracer._close(frame, start, perf_counter())
                    raise
                tracer._close(frame, start, perf_counter())
                tracer.counts[yielded] += 1
                tracer.streamed += 1
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every module-level name bound to it.

        A target the library no longer defines is skipped; the traced run's
        nonzero check (workloads.TRACED) catches a layer that lost coverage.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "scpartitions" or n.startswith("scpartitions."))
        ]
        replaced = {}
        for module_name, attr, span in TARGETS:
            owner = sys.modules.get(f"scpartitions.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                continue
            wrapper = (self.wrap_stream if span in STREAMS else self.wrap)(span, original)
            setattr(owner, leaf, wrapper)
            replaced[id(original)] = (original, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for module in modules:
            for attr, value in vars(module).items():
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} still bypasses the tracer")
        self.verify_ids = sys.modules["scpartitions.verify"].all_ids()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Aggregates since the last reset, under the benchmark's metric names.

        Every span the tracer can open is reported, with zeros for a layer
        the pass never called.
        """
        spans = {span for _, _, span in TARGETS if span != "verify"}
        spans |= {f"verify.{theorem}" for theorem in self.verify_ids} | set(self.calls)
        out: dict[str, float] = {}
        for name in spans:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            if name.startswith("verify."):
                out[f"{name}.wall_s"] = self.total_s.get(name, 0.0)
        for name in STREAMS:
            out[f"{name}.yielded"] = 0
        out["series.mul.term_products"] = out["verify.cases"] = 0
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for n, s in self.self_s.items() if n.startswith(layer + ".")
            )
        tested = self.counts.get("enumeration.core_tested", 0)
        accepted = self.counts.get("enumeration.core_accepted", 0)
        out["enumeration.core_accept_ratio"] = accepted / tested if tested else 0.0
        return out

    def dump(self, path) -> None:
        """Write the kept spans: a JSON header and the raw columns after it."""
        spans = self.spans
        header = {
            "count": len(spans["id"]),
            "columns": [[k, spans[k].typecode, spans[k].itemsize] for k in spans],
            "names": sorted(self.names, key=self.names.get),
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in spans.values():
                column.tofile(f)
