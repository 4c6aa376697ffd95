"""Time one set-up of a workload in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR

run.py starts this between its passes. The harness's own imports come
first, so the timed region (workloads.set_up) holds only importing
scpartitions from ./src and building the workload's inputs. Prints one
JSON object: {"setup_s": seconds, "reference_s": seconds of the
reference computation timed around it}.
"""

import argparse
import json
import sys
from pathlib import Path

from workloads import set_up


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    _, setup_s, reference_s = set_up(args.workload, args.seed, Path(args.workdir))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
