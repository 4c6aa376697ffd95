"""tools/bench_json.py on hand-made run records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def record(directory, sha, workload, seed, pass_cost, trace=0, passes=None):
    body = {
        "workload": workload, "seed": seed, "seconds": 40, "trace": trace,
        "python": "3.11.7", "nproc": 2, "git_sha": sha, "failed": 0, "attempted": 10,
        "metrics": {"pass_cost": {"value": pass_cost, "unit": "ref"}},
    }
    if passes is not None:
        body["passes"] = passes
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(body))


def run(*args):
    command = [sys.executable, str(TOOL), *map(str, args)]
    return subprocess.run(command, capture_output=True, text=True, timeout=60)


def test_medians_by_sha_and_workload(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, cost in ((1, 20.0), (2, 24.0), (3, 22.0)):
        record(parent, "aaaa1111", "series-expand", seed, cost)
        record(change, "bbbb2222", "series-expand", seed, cost / 2)
    record(change, "bbbb2222", "series-expand", 9, 99.0, trace=1)  # traced runs are left out
    out = tmp_path / "bench.json"
    assert run("--parent", "aaaa", "--change", "bbbb", "--out", out, parent, change).returncode == 0
    summary = json.loads(out.read_text())
    assert summary["parent"]["git_sha"] == "aaaa1111"
    series = summary["change"]["workloads"]["series-expand"]
    assert series["median"] == {"pass_cost": 11.0}
    assert series["seeds"] == [1, 2, 3]
    assert series["failed"] == 0 and series["attempted"] == 30
    assert summary["change_over_parent"] == {"series-expand": {"pass_cost": pytest.approx(0.5)}}


def test_pairs_by_seed_and_parent_quartiles(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, cost in ((1, 10.0), (2, 12.0), (3, 14.0), (4, 16.0), (5, 18.0)):
        record(parent, "aaaa1111", "verify-all", seed, cost)
    # Lower on seeds 1, 2 and 4, higher on 3; seed 6 has no parent run to pair with.
    for seed, cost in ((1, 9.0), (2, 11.0), (3, 15.0), (4, 15.5), (6, 1.0)):
        record(change, "bbbb2222", "verify-all", seed, cost)
    out = tmp_path / "bench.json"
    assert run("--parent", "aaaa", "--change", "bbbb", "--out", out, parent, change).returncode == 0
    pairs = json.loads(out.read_text())["pairs"]
    assert pairs == {
        "verify-all": {
            "pass_cost": {"parent_quartiles": [11.0, 14.0, 17.0], "lower_pairs": [3, 4]}
        }
    }


def test_per_operation_medians(tmp_path):
    # passes: one {operation: [took, reference]} per pass. Per run, the median
    # over passes of took / reference; per side, the median over runs.
    runs = {
        1: [{"gauss": [2.0, 1.0], "sc2t_gf(1)": [1.0, 2.0]},
            {"gauss": [4.0, 1.0], "sc2t_gf(1)": [3.0, 2.0]}],  # gauss 3.0, sc2t_gf 1.0
        2: [{"gauss": [5.0, 1.0]}, {"gauss": [5.0, 1.0]}, {"gauss": [8.0, 1.0]}],  # gauss 5.0
        3: [{"gauss": [1.0, 2.0], "sc2t_gf(1)": [3.0, 1.0]}],  # gauss 0.5, sc2t_gf 3.0
    }
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, passes in runs.items():
        record(parent, "aaaa1111", "series-expand", seed, 1.0, passes=passes)
    record(parent, "aaaa1111", "series-expand", 4, 1.0)  # no passes: left out of "ops"
    record(change, "bbbb2222", "series-expand", 1, 1.0, passes=[])
    out = tmp_path / "bench.json"
    assert run("--parent", "aaaa", "--change", "bbbb", "--out", out, parent, change).returncode == 0
    summary = json.loads(out.read_text())
    assert summary["parent"]["workloads"]["series-expand"]["ops"] == {
        "gauss": 3.0, "sc2t_gf(1)": 2.0,
    }
    assert summary["change"]["workloads"]["series-expand"]["ops"] == {}


def test_unknown_sha_refused(tmp_path):
    record(tmp_path, "aaaa1111", "verify-all", 1, 5.0)
    result = run("--parent", "aaaa", "--change", "cccc", "--out", tmp_path / "o.json", tmp_path)
    assert result.returncode != 0
    assert "0 run groups match 'cccc'" in result.stderr
