import argparse
import errno
import json
import os
import re
import time

import pytest

from oracles import sc_even_core_product_by_factors
from scpartitions import cli, verify
from scpartitions.enumeration import partition_count_table
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

    @pytest.mark.parametrize("argv", [
        ["map", "1" + ",0" * 60000],
        ["inverse", "--m", "0", "--mu", "1" + ",0" * 60000],
    ])
    def test_trailing_zeros_do_not_hang(self, capsys, argv):
        # Trailing zeros are stripped in linear time, before any admission check.
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        json.loads(out)

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

    @pytest.mark.parametrize("argv, what, weight", [
        (["--diagonal", "400000001"], "the partition with these diagonal hooks", 400000001),
        (["10000001"], "the partition", 10000001),
    ])
    def test_weight_limit_refuses_before_building(self, capsys, argv, what, weight):
        code, out, err = run(capsys, "map", *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {what} weighs {weight}; the largest weight admitted is {cli.WEIGHT_LIMIT}\n"
        )


class TestIntegerLists:
    @pytest.mark.parametrize("argv, flag, token", [
        (["map", "--diagonal", "5,,3"], "--diagonal", 1),
        (["map", "--diagonal", "5,3,"], "--diagonal", 2),
        (["count", "--family", "sim", "--ts", "3,,4"], "--ts", 1),
    ])
    def test_empty_token_exits_two(self, capsys, argv, flag, token):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} token {token} is not an integer: ''\n"

    def test_blank_diagonal_is_the_empty_partition(self, capsys):
        code, out, _ = run(capsys, "map", "--diagonal", "")
        assert code == 0
        assert json.loads(out)["weight_check"]["lambda_weight"] == 0


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

    @pytest.mark.parametrize("m, mu, mu_weight, weight", [
        ("100000000", "", 0, 5000000050000000),
        ("0", "200000000", 200000000, 800000000),
        ("4472", "", 0, 10001628),
    ])
    def test_weight_limit_refuses_before_building(self, capsys, m, mu, mu_weight, weight):
        code, out, err = run(capsys, "inverse", "--m", m, "--mu", mu)
        assert (code, out) == (2, "")
        assert err == (
            f"error: the partition of class {m} and an image of weight {mu_weight} weighs"
            f" {weight}; the largest weight admitted is {cli.WEIGHT_LIMIT}\n"
        )

    def test_largest_admitted_class(self, capsys):
        # 4471 * 4472 / 2 = 9,997,156 is the heaviest staircase under the limit.
        code, out, _ = run(capsys, "inverse", "--m", "4471", "--mu", "")
        assert code == 0
        assert json.loads(out)["lambda"].startswith("4471,4470,")


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

    def test_huge_modulus_returns_at_once(self, capsys):
        # Every factor (1 - q^(nt)) is 1 below q^(t + 1); none is applied.
        start = time.perf_counter()
        code, out, _ = run(capsys, "series", "--kind", "core_gf", "--t", "99999999999", "--order", "10")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["coefficients"] == list(partition_count_table(10))

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

    @pytest.mark.parametrize(
        "family", [["sc-core", "--t", "1000"], ["sc-sim", "--ts", "1000,1002", "--m", "0"]]
    )
    def test_self_conjugate_families_refused_past_the_budget(self, capsys, family):
        # Their search adds hooks to self-conjugate cores, at most sc(n) per weight n.
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--family", *family, "--max", "300")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max 300 would enumerate more than {cli.COUNT_BUDGET} partitions;"
            " the largest --max admitted is 195\n"
        )

    @pytest.mark.parametrize("family", ["p", "sc"])
    def test_series_families_capped_at_the_order_limit(self, capsys, family):
        # Their tables are product-series coefficients up to q^max, capped as --order is.
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--family", family, "--max", "2001")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: --max 2001 would expand series past q^2000;"
            " the largest --max admitted is 2000\n"
        )
        code, out, _ = run(capsys, "count", "--family", family, "--max", str(cli.ORDER_LIMIT))
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2001

    def test_budget_itself_is_admitted(self):
        cli._admit("--max", 1, partition_count_table, 2, "over")  # p(0) + p(1) == 2
        with pytest.raises(cli.UsageError, match="^--max 1 over; the largest --max admitted is 0$"):
            cli._admit("--max", 1, partition_count_table, 1, "over")

    @pytest.mark.parametrize("family", tuple(cli._FAMILIES))
    def test_json_names_the_family_and_the_flags_it_reads(self, capsys, family):
        reads = cli._FAMILIES[family][0]
        given = [tok for flag in reads for tok in (flag, _PARAMS["--family"][flag])]
        code, out, _ = run(capsys, "count", "--family", family, *given, "--max", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == family
        assert obj["params"] == {flag[2:]: _PARSED[flag] for flag in reads}
        assert [n for n, _ in obj["rows"]] == list(range(7))

    @pytest.mark.parametrize("family, csv", [
        (["p", "--max", "3"], "n,count\n0,1\n1,1\n2,2\n3,3\n"),
        (["sc", "--max", "9"], "n,count\n0,1\n1,1\n2,0\n3,1\n4,1\n5,1\n6,1\n7,1\n8,2\n9,2\n"),
    ])
    def test_csv_is_a_header_and_one_row_per_weight(self, capsys, family, csv):
        code, out, _ = run(capsys, "count", "--family", *family, "--format", "csv")
        assert (code, out) == (0, csv)

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

    def test_sc2t_gf_at_the_order_limit(self, capsys):
        code, out, _ = run(capsys, "series", "--kind", "sc2t_gf", "--t", "3", "--order", "2000")
        assert code == 0
        assert json.loads(out) == sc_even_core_product_by_factors(3, 2000).to_json_dict()

    def test_missing_t_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--kind", "core_gf", "--order", "4")
        assert code == 2

    def test_order_limit(self, capsys):
        # Above the limit the builder never starts; at it, the series is built.
        limit = cli.ORDER_LIMIT
        assert limit == 2000
        start = time.perf_counter()
        code, out, err = run(capsys, "series", "--kind", "core_gf", "--t", "5", "--order", "2001")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: --order 2001 would expand series past q^2000;"
            " the largest --order admitted is 2000\n"
        )
        code, out, _ = run(capsys, "series", "--kind", "triangular", "--order", str(limit))
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == limit + 1


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

    def test_theorem_id_with_all_exits_two(self, capsys):
        # The id would otherwise be dropped and every check run.
        code, out, err = run(capsys, "verify", "gauss", "--all")
        assert code == 2
        assert out == ""
        assert err == "error: give either a theorem id or --all, not both\n"

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

    def test_order_limit(self, capsys, monkeypatch):
        def no_checks(theorems, **bounds):
            raise AssertionError("a check ran")

        with monkeypatch.context() as patch:
            patch.setattr(cli.verify, "run_checks", no_checks)
            code, out, err = run(capsys, "verify", "eq1.1", "--order", "2001")
        assert (code, out) == (2, "")
        assert err == (
            "error: --order 2001 would expand series past q^2000;"
            " the largest --order admitted is 2000\n"
        )
        code, out, err = run(capsys, "verify", "gauss", "--order", str(cli.ORDER_LIMIT))
        assert code == 0
        assert json.loads(out)["params"] == {"order": 2000}

    def test_round_trip_budget_refuses_before_any_check(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "thm3.1", "--max-mu", "200")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max-mu 200 with --max-m 6 would round-trip more than"
            f" {cli.ROUND_TRIP_BUDGET} partition-class pairs; the largest --max-mu admitted is 37\n"
        )

    def test_round_trip_budget_edges(self, capsys):
        overrun = "over"
        with pytest.raises(cli.UsageError, match=r"; the largest --max-mu admitted is 37$"):
            cli._admit("--max-mu", 200, partition_count_table, cli.ROUND_TRIP_BUDGET // 7, overrun)
        cli._admit("--max-mu", 37, partition_count_table, cli.ROUND_TRIP_BUDGET // 7, overrun)
        code, _, err = run(capsys, "verify", "gauss", "--max-mu", "0", "--max-m", "2000000")
        assert code == 2
        assert err.endswith("; the largest --max-mu admitted is none\n")

    @pytest.mark.parametrize("m, weight", [(63, 2048), (120, 7292), (30000, 450015032)])
    def test_class_limit_refuses_before_any_check(self, capsys, monkeypatch, m, weight):
        # prop3.4 tabulates to weight 32 + T(--max-m) even at --max-mu 0, which the
        # round-trip budget admits for any --max-m.
        def no_checks(theorems, **bounds):
            raise AssertionError("a check ran")

        with monkeypatch.context() as patch:
            patch.setattr(cli.verify, "run_checks", no_checks)
            code, out, err = run(capsys, "verify", "prop3.4", "--max-mu", "0", "--max-m", str(m))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max-m {m} would tabulate self-conjugate partitions to weight {weight},"
            " past 2000; the largest --max-m admitted is 62\n"
        )

    def test_class_limit_edge(self, capsys):
        # 32 + T(62) = 1985 is within the order limit; thm3.1 maps the 63 staircases back.
        assert cli.CLASS_LIMIT == 62
        code, out, _ = run(
            capsys, "verify", "thm3.1", "--max-weight", "0", "--max-mu", "0", "--max-m", "62"
        )
        assert code == 0
        assert json.loads(out)["params"]["max_class"] == 62

    def test_default_bounds_are_within_budget(self, capsys):
        bounds = verify.SweepBounds()
        budget = cli.ROUND_TRIP_BUDGET // (bounds.max_class + 1)
        assert bounds.max_mu_weight == 12
        cli._admit("--max-mu", 12, partition_count_table, budget, "over")
        code, _, _ = run(capsys, "verify", "thm3.1")
        assert code == 0

    @pytest.mark.parametrize("theorem", ["prop2.3", "gauss"])
    @pytest.mark.parametrize("weight", ["158", "200", "1000000000"])
    def test_max_weight_budget_refuses_before_any_check(self, capsys, theorem, weight):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", theorem, "--max-weight", weight)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: --max-weight {weight} would sweep more than {cli.ROUND_TRIP_BUDGET}"
            " self-conjugate partitions; the largest --max-weight admitted is 157\n"
        )

    def test_max_weight_budget_edge(self, capsys):
        # The self-conjugate partitions of weight <= 157 number 978,263; gauss reads no weight.
        code, out, _ = run(capsys, "verify", "gauss", "--max-weight", "157", "--order", "5")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_zero_cases_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "prop4.2", "--max-weight", "0")
        assert code == 1
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["cases"] == 0
        assert "prop4.2: FAIL" in err

    def test_failure_exits_one_with_counterexample(self, capsys, monkeypatch):
        def fake_run_checks(theorems, **bounds):
            return [
                VerificationReport(
                    theorem=theorem,
                    passed=False,
                    params={},
                    cases=1,
                    counterexample={"partition": "2,1"},
                    elapsed_ms=0.1,
                )
                for theorem in theorems
            ]

        monkeypatch.setattr(cli.verify, "run_checks", fake_run_checks)
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

    def test_all_row_times_add_up_to_at_most_the_wall_time(self, capsys):
        # Each summary line gives its check's own time, so the walked checks
        # no longer each print the shared walk's; the lines print at 0.1 ms.
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--all", "--max-weight", "30")
        wall_ms = (time.perf_counter() - start) * 1000.0
        assert code == 0
        times = [float(ms) for ms in re.findall(r" cases, ([0-9.]+) ms\)", err)]
        assert len(times) == len(verify.all_ids())
        assert sum(times) <= wall_ms + 0.05 * len(times)


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

    # A passing run that cannot write its output exits 2, never 1 ("verification failed").
    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "4,4,4,3"],
            ["inverse", "--m", "2", "--mu", "1"],
            ["count", "--family", "p", "--max", "2"],
            ["series", "--kind", "triangular", "--order", "4"],
            ["verify", "lem2.2"],
        ],
    )
    def test_out_naming_a_directory_exits_two(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: cannot write --out {tmp_path}: {os.strerror(errno.EISDIR)}\n")

    def test_out_under_a_file_exits_two(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "sub" / "s.json"
        code, out, err = run(capsys, "series", "--kind", "gauss_rhs", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {target}: {os.strerror(errno.ENOTDIR)}\n"

    def test_csv_rejected_outside_count(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["map", "", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "prop2.3", "--format", "json"],
            ["series", "--kind", "triangular", "--format", "csv"],
            ["count", "--family", "p", "--verbose"],
            ["verify", "prop2.3", "--verbose"],
        ],
    )
    def test_flag_refused_where_it_does_nothing(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestParser:
    def test_each_subcommand_offers_only_its_flags(self):
        (subparsers,) = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        offered = {
            name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert offered == {
            "map": {"--diagonal", "--out", "--verbose"},
            "inverse": {"--m", "--mu", "--out", "--verbose"},
            "count": {"--family", "--t", "--ts", "--m", "--max", "--format", "--out"},
            "series": {"--kind", "--t", "--order", "--out"},
            "verify": {"--all", "--max-weight", "--order", "--max-mu", "--max-m", "--seed", "--out"},
        }


# Every parameter flag of the command: a family or kind needs each one it reads
# and refuses each other one.
_PARAMS = {"--family": {"--t": "5", "--ts": "4,6", "--m": "0"}, "--kind": {"--t": "5"}}
# The --family values above as count's JSON params give them.
_PARSED = {"--t": 5, "--ts": [4, 6], "--m": 0}
_READS = [
    ("count", "--family", "p", ()),
    ("count", "--family", "sc", ()),
    ("count", "--family", "core", ("--t",)),
    ("count", "--family", "sc-core", ("--t",)),
    ("count", "--family", "sim", ("--ts",)),
    ("count", "--family", "sc-sim", ("--ts", "--m")),
    ("series", "--kind", "core_gf", ("--t",)),
    ("series", "--kind", "sc2t_gf", ("--t",)),
    ("series", "--kind", "gauss_rhs", ()),
    ("series", "--kind", "triangular", ()),
]


class TestParameterFlags:
    def test_table_covers_every_choice(self):
        assert sorted(c for cmd, _, c, _ in _READS if cmd == "count") == sorted(cli._FAMILIES)
        assert sorted(c for cmd, _, c, _ in _READS if cmd == "series") == sorted(cli._KINDS)

    @pytest.mark.parametrize("command, flag, choice, reads", _READS)
    def test_reads_exactly_its_flags(self, capsys, command, flag, choice, reads):
        given = [tok for param in reads for tok in (param, _PARAMS[flag][param])]
        bound = ["--max", "4"] if command == "count" else ["--order", "4"]
        code, out, _ = run(capsys, command, flag, choice, *given, *bound)
        assert code == 0
        json.loads(out)
        for param in reads:
            rest = [tok for p in reads if p != param for tok in (p, _PARAMS[flag][p])]
            code, out, err = run(capsys, command, flag, choice, *rest)
            verb = "are" if len(reads) > 1 else "is"
            assert (code, out) == (2, "")
            assert err == f"error: {' and '.join(reads)} {verb} required for {flag} {choice}\n"
        for param, value in _PARAMS[flag].items():
            if param not in reads:
                code, out, err = run(capsys, command, flag, choice, *given, param, value)
                assert (code, out, err) == (2, "", f"error: {flag} {choice} does not read {param}\n")
