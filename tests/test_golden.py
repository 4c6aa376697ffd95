"""Golden CLI outputs: every README example, every count family, the
moduli errors and a small `verify --all`, each run in-process through
`cli.main`.

Exit code, stdout and stderr must match tests/golden/cli.json byte for
byte, apart from timings: `elapsed_ms` values and the "N.N ms" of the
verify summary lines are masked. An output recorded as `sha256` is
compared by its SHA-256 digest.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from scpartitions import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

# (name, argv, stdout stored as a digest)
CASES = (
    ("readme-map-diagonal", ["map", "--diagonal", "21,15,13,9,3,1"], False),
    ("readme-map-parts", ["map", "4,4,4,3"], False),
    ("readme-inverse", ["inverse", "--m", "4", "--mu", "4,3,3,2,1,1"], False),
    ("readme-count-core-csv", ["count", "--family", "core", "--t", "3", "--max", "20",
                               "--format", "csv"], False),
    ("readme-count-sc-sim", ["count", "--family", "sc-sim", "--ts", "4,6", "--m", "0",
                             "--max", "20"], False),
    ("readme-series-core-gf-3", ["series", "--kind", "core_gf", "--t", "3", "--order", "40"],
     False),
    ("readme-series-core-gf-5-2000", ["series", "--kind", "core_gf", "--t", "5",
                                      "--order", "2000"], True),
    ("readme-verify-prop2.3", ["verify", "prop2.3", "--max-weight", "40"], False),
    ("readme-verify-all", ["verify", "--all"], False),
    ("count-p", ["count", "--family", "p", "--max", "30"], False),
    ("count-sc", ["count", "--family", "sc", "--max", "30"], False),
    ("count-sc-core", ["count", "--family", "sc-core", "--t", "4", "--max", "30"], False),
    ("count-sim", ["count", "--family", "sim", "--ts", "3,4", "--max", "20"], False),
    ("count-sim-zero-modulus", ["count", "--family", "sim", "--ts", "3,0", "--max", "5"], False),
    ("count-sim-no-moduli", ["count", "--family", "sim", "--ts", "", "--max", "5"], False),
    ("count-sc-sim-odd-modulus", ["count", "--family", "sc-sim", "--ts", "4,5", "--m", "0",
                                  "--max", "5"], False),
    ("verify-all-small", ["verify", "--all", "--max-weight", "12", "--order", "10",
                          "--max-mu", "4", "--max-m", "2", "--seed", "9"], False),
)

_ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')
_SUMMARY_MS = re.compile(r"cases, [0-9.]+ ms\)")


def _mask(text: str) -> str:
    text = _ELAPSED.sub('"elapsed_ms": "<masked>"', text)
    return _SUMMARY_MS.sub("cases, <masked> ms)", text)


def run_case(argv: list[str], digest: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = _mask(out.getvalue())
    if digest:
        stdout = {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return {"argv": list(argv), "exit": code, "stdout": stdout, "stderr": _mask(err.getvalue())}


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name, argv, digest", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, digest):
    assert run_case(argv, digest) == _recorded()[name]


def test_golden_file_has_exactly_these_cases():
    assert sorted(_recorded()) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {name: run_case(argv, digest) for name, argv, digest in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} cases to {GOLDEN}\n")
