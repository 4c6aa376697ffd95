"""Record reference.json: the outputs the correctness gate compares against.

Usage: python3 perfbench/record_reference.py

Runs one pass of each workload at seed 0 and keeps the report fields
theorem, passed, params, cases and counterexample, and the exact
coefficients of the product builders that have no closed form. Record
only from a commit whose outputs are trusted: the gate treats these as
the truth for every later commit.
"""

import json
import sys
from pathlib import Path

from workloads import REFERENCE, WORKLOADS, set_up

FIELDS = ("theorem", "passed", "params", "cases", "counterexample")


def main() -> int:
    workdir = Path(__file__).resolve().parent / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, cls in WORKLOADS.items():
        workload, *_ = set_up(name, 0, workdir)
        raw, _ = workload.run_pass()
        outputs = workload.collect(raw)
        failed = [op for op, out in outputs.items() if "error" in out or not out.get("passed", True)]
        if failed:
            raise SystemExit(f"{name}: refusing to record failing outputs {failed}")
        if name == "series-expand":
            keep = {op for op, *_ in cls.builders} - set(cls.triangular)
            reference[name] = {op: out for op, out in outputs.items() if op in keep}
        else:
            reference[name] = {op: {k: out[k] for k in FIELDS} for op, out in outputs.items()}
    workdir.rmdir()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
