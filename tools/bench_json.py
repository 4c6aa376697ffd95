"""Summarise benchmark run records, parent against change, as one JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_json.py --parent SHA --change SHA --out BENCH_N.json [DIR ...]

Reads the per-run records that perfbench/run.py writes to DIR/*.json
(perfbench/out by default; give one DIR per checkout when parent and
change ran in separate ones) and groups them by git_sha and workload.
For the parent and the change it writes, per workload, the median of
each end-to-end metric over the untraced runs, with the runs' seeds,
Python versions, CPU counts and failed/attempted operations, and the
change's medians over the parent's. A SHA may be given by a unique
prefix. Standard library only; it reads records and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median


def load(dirs: list[Path]) -> dict:
    """{git_sha: {workload: [record, ...]}} over the untraced runs in dirs."""
    groups = defaultdict(lambda: defaultdict(list))
    for directory in dirs:
        for path in sorted(directory.glob("*.json")):
            record = json.loads(path.read_text())
            if record.get("trace") == 0 and record.get("git_sha"):
                groups[record["git_sha"]][record["workload"]].append(record)
    return groups


def resolve(prefix: str, shas) -> str:
    found = [sha for sha in shas if sha.startswith(prefix)]
    if len(found) != 1:
        raise SystemExit(f"bench_json: {len(found)} run groups match {prefix!r}")
    return found[0]


def summarise(records: list[dict]) -> dict:
    records = sorted(records, key=lambda r: r["seed"])
    names = records[0]["metrics"]
    return {
        "runs": len(records),
        "seeds": [r["seed"] for r in records],
        "seconds": sorted({r["seconds"] for r in records}),
        "python": sorted({r["python"] for r in records}),
        "nproc": sorted({r["nproc"] for r in records}),
        "failed": sum(r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "median": {n: median(r["metrics"][n]["value"] for r in records) for n in names},
        "unit": {n: names[n]["unit"] for n in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("dirs", nargs="*", type=Path, default=[Path("perfbench/out")])
    args = parser.parse_args()

    groups = load(args.dirs)
    sides = {side: resolve(getattr(args, side), groups) for side in ("parent", "change")}
    out = {
        side: {
            "git_sha": sha,
            "workloads": {w: summarise(rs) for w, rs in sorted(groups[sha].items())},
        }
        for side, sha in sides.items()
    }
    parent, change = out["parent"]["workloads"], out["change"]["workloads"]
    out["change_over_parent"] = {
        w: {n: change[w]["median"][n] / v for n, v in parent[w]["median"].items() if v}
        for w in sorted(parent.keys() & change.keys())
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
