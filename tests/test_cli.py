import json
import time

import pytest

from scpartitions import cli, verify
from scpartitions.verify import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMap:
    def test_golden_diagonal(self, capsys):
        code, out, _ = run(capsys, "map", "--diagonal", "21,15,13,9,3,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["m"] == 3
        assert obj["mu"] == "4,3,3,2,1,1"
        assert obj["weight_check"]["holds"] is True
        assert obj["weight_check"]["lambda_weight"] == 62

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "map", "")
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "m": 0,
            "mu": "",
            "weight_check": {
                "holds": True,
                "lambda_weight": 0,
                "mu_weight": 0,
                "triangular_part": 0,
            },
        }

    def test_parts_input(self, capsys):
        code, out, _ = run(capsys, "map", "4,4,4,3")
        assert code == 0
        obj = json.loads(out)
        assert (obj["m"], obj["mu"]) == (2, "3")

    def test_non_self_conjugate_rejected(self, capsys):
        code, _, err = run(capsys, "map", "5,4,2,1")
        assert code == 2
        assert "not self-conjugate" in err

    def test_malformed_partition_rejected(self, capsys):
        code, _, err = run(capsys, "map", "1,2,3")
        assert code == 2
        assert "error" in err

    def test_missing_input_rejected(self, capsys):
        code, _, err = run(capsys, "map")
        assert code == 2

    def test_verbose_diagram_on_stderr(self, capsys):
        code, out, err = run(capsys, "map", "--verbose", "2,1")
        assert code == 0
        assert "##" in err
        json.loads(out)


class TestInverse:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "inverse", "--m", "4", "--mu", "4,3,3,2,1,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["diagonal"] == "31,19,11,5"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "inverse", "--m", "0", "--mu", "")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"lambda": "", "diagonal": ""}

    def test_weight_five(self, capsys):
        code, out, _ = run(capsys, "inverse", "--m", "1", "--mu", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == "3,1,1"

    def test_round_trips_through_map(self, capsys):
        code, out, _ = run(capsys, "inverse", "--m", "3", "--mu", "4,3,3,2,1,1")
        lam = json.loads(out)["lambda"]
        code, out, _ = run(capsys, "map", lam)
        assert code == 0
        assert json.loads(out)["m"] == 3

    def test_negative_m_rejected(self, capsys):
        code, _, err = run(capsys, "inverse", "--m", "-1", "--mu", "1")
        assert code == 2


class TestCount:
    def test_core_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "core", "--t", "3", "--max", "2", "--format", "csv"
        )
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n"

    def test_p_minimal(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "p", "--max", "0")
        assert code == 0
        assert json.loads(out)["rows"] == [[0, 1]]

    def test_sim_total(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "sim", "--ts", "3,4", "--max", "5")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert sum(c for _, c in rows) == 5

    def test_sc_sim_requires_m(self, capsys):
        code, _, err = run(capsys, "count", "--family", "sc-sim", "--ts", "4,6", "--max", "5")
        assert code == 2

    def test_missing_t_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--family", "core", "--max", "5")
        assert code == 2

    def test_sc_sim_counts(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "sc-sim", "--ts", "4,6", "--m", "0", "--max", "4"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["params"] == {"m": 0, "ts": [4, 6]}
        assert sum(c for _, c in obj["rows"]) == 2

    def test_sc_sim_negative_m_names_the_flag(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "sc-sim", "--ts", "4,6", "--m", "-1", "--max", "5"
        )
        assert (code, out, err) == (2, "", "error: --m must be >= 0, got -1\n")

    @pytest.mark.parametrize("family", [["core", "--t", "3"], ["sim", "--ts", "3,4"]])
    def test_over_budget_refused_before_enumerating(self, capsys, family):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--family", *family, "--max", "200")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max 200 would enumerate more than {cli.COUNT_BUDGET} partitions;"
            " the largest --max admitted is 59\n"
        )

    def test_under_budget_still_counts(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "core", "--t", "3", "--max", "40")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 41


class TestSeries:
    def test_gauss_equals_triangular(self, capsys):
        code, out_g, _ = run(capsys, "series", "--kind", "gauss_rhs", "--order", "6")
        assert code == 0
        code, out_t, _ = run(capsys, "series", "--kind", "triangular", "--order", "6")
        assert code == 0
        assert json.loads(out_g) == json.loads(out_t)
        assert json.loads(out_g)["coefficients"] == [1, 1, 0, 1, 0, 0, 1]

    def test_core_gf(self, capsys):
        code, out, _ = run(capsys, "series", "--kind", "core_gf", "--t", "3", "--order", "2")
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 1, 2]

    def test_missing_t_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--kind", "core_gf", "--order", "4")
        assert code == 2


class TestVerify:
    def test_single_pass(self, capsys):
        code, out, err = run(capsys, "verify", "prop2.3", "--max-weight", "24")
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert "prop2.3: PASS" in err

    def test_unknown_id_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["prop2.3", "--max-weight", "-5"], "max_weight"),
            (["cor4.8", "--max-m", "-3"], "max_class"),
            (["gauss", "--order", "-1"], "order"),
            (["thm3.1", "--max-mu", "-2"], "max_mu_weight"),
        ],
    )
    def test_negative_bound_exits_two(self, capsys, argv, bound):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        # The message names the flag as typed, not the SweepBounds field it sets.
        assert err == f"error: {argv[1]} must be >= 0, got {argv[2]}\n"
        assert not err.startswith(f"error: {bound}")

    def test_zero_cases_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "prop4.2", "--max-weight", "0")
        assert code == 1
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["cases"] == 0
        assert "prop4.2: FAIL" in err

    def test_failure_exits_one_with_counterexample(self, capsys, monkeypatch):
        def fake_run_check(theorem, **bounds):
            return VerificationReport(
                theorem=theorem,
                passed=False,
                params={},
                cases=1,
                counterexample={"partition": "2,1"},
                elapsed_ms=0.1,
            )

        monkeypatch.setattr(cli.verify, "run_check", fake_run_check)
        code, out, err = run(capsys, "verify", "prop2.3")
        assert code == 1
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["counterexample"] == {"partition": "2,1"}
        assert "FAIL" in err

    def test_all_at_small_bounds(self, capsys):
        code, out, err = run(
            capsys, "verify", "--all",
            "--max-weight", "16", "--order", "12", "--max-mu", "4", "--max-m", "3",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["theorem"] for r in reports] == verify.all_ids()
        assert all(r["passed"] for r in reports)


class TestOutputHandling:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "count", "--family", "sc", "--max", "12")
        _, second, _ = run(capsys, "count", "--family", "sc", "--max", "12")
        assert first == second
        _, first, _ = run(capsys, "map", "--diagonal", "7,5,3")
        _, second, _ = run(capsys, "map", "--diagonal", "7,5,3")
        assert first == second

    def test_out_file_with_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        code, out, _ = run(
            capsys, "count", "--family", "p", "--max", "2",
            "--format", "csv", "--out", "p.csv",
        )
        assert code == 0
        assert out == ""
        assert (tmp_path / "p.csv").read_text() == "n,count\n0,1\n1,1\n2,2\n"

    def test_out_absolute_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "ignored"))
        target = tmp_path / "direct.json"
        code, _, _ = run(capsys, "map", "7,5,3".replace("7,5,3", "4,4,4,3"), "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["m"] == 2

    def test_csv_rejected_outside_count(self, capsys):
        code, _, err = run(capsys, "map", "", "--format", "csv")
        assert code == 2
