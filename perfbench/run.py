"""scpartitions benchmark: one workload, its metrics, and the correctness gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Workloads and metrics are listed in BENCHMARK.json; why each workload
was chosen, what it stresses and bypasses, and what each layer should
move are in workloads.py. The library is imported from ./src, with no
install step, into this interpreter, which runs the workload's passes
as a closed loop with one caller.

With --trace 0 the end-to-end metrics are reported:
  setup_s       time to import scpartitions and build the workload's
                inputs in a fresh interpreter, after the harness's own
                imports. Each set-up is timed beside a fixed reference
                computation, as pass_cost's operations are, and the
                median ratio, over this process's set-up and at least 24
                fresh ones (setup_probe.py) taken between the passes, is
                given in seconds on a machine where the reference takes
                SETUP_REFERENCE_S. The raw seconds are in the record;
  pass_cost     time of one pass of the workload in units of a fixed
                reference computation timed beside each operation (see
                workloads.OpTimer): over the operations the harness times
                separately, the sum of each one's median ratio over the
                run's passes;
  peak_rss_mib  peak resident memory of this process.
With --trace 1 the first half of the time runs untraced passes and the
second half traced ones (see tracer.py); the per-layer metrics are the
median over the traced passes, and trace.overhead_ratio is the traced
pass_cost over the untraced one.

Every pass's outputs go through the gate (gate.py), after a self-test
of the gate; failed operations over attempted ones is the fail ratio,
reported as `failed` and `attempted`. Each run also writes
perfbench/out/<workload>-seed<n>-trace<t>.json with the Python version,
CPU count, git SHA and seed beside the metrics and the raw pass times.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import gate
from workloads import DESCRIPTIONS, REFERENCE, TRACED, WORKLOADS, set_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUP_SAMPLES = 25
# setup_s is reported in seconds on a machine where partition_reference
# (workloads.py) takes exactly this long; see the module docstring.
SETUP_REFERENCE_S = 0.005


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def overrun(signum, frame):
    raise SystemExit(f"perfbench: no result within {TIME_LIMIT_S} s")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload, expected, seconds, on_pass):
    """Timed passes within `seconds` (at least one).

    Returns, per pass, each separately timed operation's (seconds,
    reference seconds); the operations attempted; the named failures.
    """
    passes, attempted, failures = [], 0, []
    start = perf_counter()
    while True:
        gc.collect()
        began = perf_counter()
        try:
            raw, op_seconds = workload.run_pass()
            outputs = workload.collect(raw)
        except Exception as exc:  # a crashed pass fails every operation in it
            op_seconds = {}
            outputs = {op: gate.error(f"raised {exc!r}") for op in expected}
        passes.append(op_seconds)
        failures += gate.compare(outputs, expected)
        attempted += len(expected)
        on_pass()
        now = perf_counter()
        if now - start + (now - began) > seconds:  # the next pass would overrun
            return passes, attempted, failures


def setup_probe(args, workdir: Path) -> tuple[float, float]:
    """Set-up seconds of this workload in a fresh interpreter, and reference seconds."""
    cmd = [sys.executable, "-s", str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    sample = json.loads(probe.stdout)
    return sample["setup_s"], sample["reference_s"]


def per_op_median(passes, value) -> float:
    """Sum over operations of the median over passes of value(seconds, reference)."""
    ops = set().union(*passes)
    return sum(median(value(*p[op]) for p in passes if op in p) for op in ops)


def pass_cost(passes) -> float:
    """One pass's time in units of the reference computation's time."""
    return per_op_median(passes, lambda took, reference: took / reference)


def pass_seconds(passes) -> float:
    """One pass's time in seconds, as measured."""
    return per_op_median(passes, lambda took, reference: took)


def untraced_run(workload, expected, args, workdir, setup):
    """Untraced passes with set-up probes between them.

    Returns the passes, operations attempted, failures and the end-to-end
    metrics (with the set-up samples beside them).
    """
    # Set-up samples come between passes, so that their median spans the
    # run's machine conditions as the passes do.
    samples = [setup]
    passes, attempted, failures = measure(
        workload, expected, args.seconds,
        lambda: samples.append(setup_probe(args, workdir)),
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(setup_probe(args, workdir))
    return passes, attempted, failures, {
        "setup_s": SETUP_REFERENCE_S * median(took / reference for took, reference in samples),
        "setup_samples": samples,
        "pass_cost": pass_cost(passes),
        "peak_rss_mib": peak_rss_mib,
    }


def traced_run(workload, expected, args):
    """Untraced, then traced passes.

    Returns the untraced passes, operations attempted and failures over
    both halves, and the per-layer metrics: per traced pass, by median.
    """
    from tracer import Tracer

    untraced, attempted, failures = measure(workload, expected, args.seconds / 2, lambda: None)
    tracer = Tracer()
    tracer.install()
    per_pass = []

    def on_pass():
        layer = tracer.metrics()
        layer["cli.output_bytes"] = getattr(workload, "output_bytes", 0)
        per_pass.append(layer)
        tracer.keep_spans = False  # the span dump holds the first traced pass
        tracer.run_id += 1
        tracer.reset()

    passes, more_attempted, more_failures = measure(workload, expected, args.seconds / 2, on_pass)
    layers = {}
    for name in set().union(*per_pass):
        values = [p.get(name, 0) for p in per_pass]
        # Counts stay whole numbers; times take the usual median.
        layers[name] = (median_low if all(isinstance(v, int) for v in values) else median)(values)
    layers["trace.overhead_ratio"] = pass_cost(passes) / pass_cost(untraced)
    missed = [name for name in TRACED[args.workload] if not layers.get(name)]
    if missed:
        raise RuntimeError(f"traced run saw no calls for {missed}")
    tracer.dump(HERE / "out" / f"spans-{args.workload}.bin")  # overwritten by the next traced run
    return untraced, attempted + more_attempted, failures + more_failures, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(TIME_LIMIT_S)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} not found")
    if not (ROOT / "src" / "scpartitions" / "__init__.py").is_file():
        return fail("src/scpartitions not found: run from the root of a scpartitions checkout")
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why or args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    out_dir = HERE / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, *setup = set_up(args.workload, args.seed, workdir)
        self_test = gate.self_test(workload.lib)
        expected = workload.expected(json.loads(REFERENCE.read_text()))
        if args.trace:
            passes, attempted, failures, values = traced_run(workload, expected, args)
        else:
            passes, attempted, failures, values = untraced_run(
                workload, expected, args, workdir, setup
            )
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    wall_s = pass_seconds(passes)
    reference_s = median([r for p in passes for _, r in p.values()] or [0.0])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "fail_ratio": len(failures) / attempted,
        **summary,
        "workload_description": {"why": why[args.workload], **DESCRIPTIONS[args.workload]},
        "self_test": self_test,
        "failures": failures[:20],
        "wall_s": wall_s,
        "reference_s": reference_s,
        "passes": passes,
        "measured": values,
        "verify_stderr": getattr(workload, "stderr", "").splitlines(),
    }
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in self_test:
        print(f"gate self-test caught: {line}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    timed = "untraced passes" if args.trace else "passes"
    print(f"{args.workload}: {len(passes)} {timed}, fail_ratio {len(failures)}/{attempted}, "
          f"pass {wall_s:.4f} s, reference computation {reference_s:.6f} s; "
          f"details in {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
