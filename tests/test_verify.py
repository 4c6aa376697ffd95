import json
import re
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest

from scpartitions import Partition, cli, verify
from scpartitions.series import TruncatedSeries, check_identity


SMALL = dict(max_weight=24, order=16, max_mu_weight=6, max_class=4, seed=7)


def test_registry_contains_expected_ids():
    expected = {
        "lem2.2", "prop2.3", "thm3.1", "prop3.4", "lem4.1", "prop4.2",
        "thm4.4", "prop4.4", "cor4.5", "prop4.6", "cor4.8", "eq1.1",
        "eq1.2", "gauss", "cor1.2", "thm1.4", "cor1.5", "ringlaws",
    }
    assert set(verify.all_ids()) == expected


@pytest.mark.parametrize("theorem", verify.all_ids())
def test_each_check_passes_at_small_bounds(theorem):
    report = verify.run_check(theorem, **SMALL)
    assert report.passed, report.summary_line()
    assert report.counterexample is None
    assert report.cases > 0
    assert report.theorem == theorem
    assert report.elapsed_ms >= 0


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        verify.run_check("no-such-check")


def test_run_check_covers_registry():
    reports = [verify.run_check(t, **SMALL) for t in verify.all_ids()]
    assert [r.theorem for r in reports] == verify.all_ids()
    assert all(r.passed for r in reports)


@pytest.mark.parametrize(
    "bound", ["max_weight", "order", "max_mu_weight", "max_class"]
)
def test_negative_bound_rejected(bound):
    with pytest.raises(ValueError, match=f"{bound} must be >= 0"):
        verify.SweepBounds(**{bound: -1})
    with pytest.raises(ValueError, match=f"{bound} must be >= 0"):
        verify.run_check("prop2.3", **{bound: -1})


def test_unknown_bound_rejected():
    with pytest.raises(TypeError):
        verify.SweepBounds(bogus=1)


def test_bounds_defaults_are_the_verify_flag_defaults():
    args = cli.build_parser().parse_args(["verify", "--all"])
    assert verify.SweepBounds()._asdict() == {f: getattr(args, f) for f in verify.SweepBounds._fields}


@pytest.mark.parametrize(
    "record",
    [verify.SweepBounds(), verify.VerificationReport("prop2.3", True, {}, 1, None, 0.5)],
    ids=["SweepBounds", "VerificationReport"],
)
def test_records_are_frozen(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("theorem", ["prop4.2", "lem4.1"])
def test_check_with_no_cases_does_not_pass(theorem):
    report = verify.run_check(theorem, max_weight=0)
    assert report.cases == 0
    assert report.counterexample is None
    assert not report.passed


def test_report_serializes_to_json():
    report = verify.run_check("gauss", order=10)
    obj = report.to_json_dict()
    text = json.dumps(obj, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["theorem"] == "gauss"
    assert parsed["passed"] is True
    assert parsed["counterexample"] is None
    assert parsed["params"] == {"order": 10}


def test_ringlaws_depends_on_seed_but_always_passes():
    a = verify.run_check("ringlaws", seed=1)
    b = verify.run_check("ringlaws", seed=2)
    assert a.passed and b.passed
    assert a.params["seed"] == 1
    assert b.params["seed"] == 2


def test_failure_payload_revalidates():
    # A deliberately perturbed series stands in for a failing identity:
    # the counterexample payload must reproduce the mismatch when fed
    # back through the library.
    good = TruncatedSeries([1, 1, 0, 1], order=3)
    bad = TruncatedSeries([1, 1, 5, 1], order=3)
    payload = dict(zip(("exponent", "enumerated", "product"), check_identity(good, bad)))
    # replay from the payload alone
    k = payload["exponent"]
    assert good.coeffs[k] == payload["enumerated"]
    assert bad.coeffs[k] == payload["product"]
    assert payload["enumerated"] != payload["product"]


@pytest.mark.parametrize(
    "theorem, searches",
    [("cor4.8", {"add_hook": 8}), ("prop4.6", {"add_hook": 2, "add_row": 2})],
)
def test_one_search_per_moduli_set(monkeypatch, theorem, searches):
    # At the default bounds every class of a moduli set comes from one
    # search: cor4.8 has 4 pairs and 4 triples, prop4.6 two pairs and the
    # ordinary cores of their halves.
    calls = Counter()
    tabulate = verify.enumeration.tabulate

    def counted(grow, *args, **kwargs):
        calls[grow.__name__] += 1
        return tabulate(grow, *args, **kwargs)

    monkeypatch.setattr(verify.enumeration, "tabulate", counted)
    assert verify.run_check(theorem).passed
    assert calls == searches


def test_cor12_at_order_400():
    # The self-conjugate totals come from a knapsack, not a walk, so order
    # 400 (sc(400) = 343,112,116) is in reach.
    assert verify.run_check("cor1.2", order=400).passed


def _bump(fn, exponent):
    def bumped(*args):
        coeffs = list(fn(*args).coeffs)
        coeffs[exponent] += 1
        return TruncatedSeries(coeffs, len(coeffs) - 1)

    return bumped


def _bump_row(fn, n):
    def bumped(*args):
        rows = list(fn(*args))
        rows[n] += 1
        return tuple(rows)

    return bumped


def _flip_on(fn, parts):
    def flipped(p, *args):
        got = fn(p, *args)
        return (not got) if p.parts == parts else got

    return flipped


def _add_at(hooks, h):
    # One more hook of length h, in a hook_multiset vector that reaches h.
    return hooks[:h] + (hooks[h] + 1,) + hooks[h + 1:]


# One row per registered check: (id, (owner, name) patched, defect, bounds,
# cases up to and including the failing one, counterexample payload).
# The defect sits beside the law under test, so classify and phi still run
# unpatched and their output reaches the payload.
DEFECT_TABLE = [
    # a series row counts order + 1 cases and fails on the first modulus
    (
        "eq1.1", (verify.series, "core_product_series"),
        lambda fn: _bump(fn, 17), dict(order=20),
        21, {"t": 2, "exponent": 17, "enumerated": 0, "product": 1},
    ),
    # the second phase counts on from the first: 63 + 9 + 2 cases
    (
        "prop3.4", (verify.enumeration, "sc_class_table"),
        lambda fn: lambda *args: {
            m: tuple(c + (n == 2 and m == 1) for n, c in enumerate(row))
            for m, row in fn(*args).items()
        },
        dict(max_weight=12),
        74, {"n": 2, "m": 1, "count": 1, "expected": 0},
    ),
    # 1 self-conjugate case, then 4 images of weight <= 2 and (3) in 7 classes
    (
        "thm3.1", (verify.bijection, "psi"),
        lambda fn: lambda m, mu: fn(m, Partition([3]) if mu.weight == 3 else mu),
        dict(max_weight=0),
        37, {"mu": "2,1", "class": 0, "reason": "phi(psi) round trip"},
    ),
    (
        "lem2.2", (verify, "beta_from_diagonal"),
        lambda fn: lambda deltas: fn(deltas)[:-1] if sum(deltas) == 8 else fn(deltas),
        dict(max_weight=12),
        8, {"diagonal": "7,1", "beta_direct": [7, 4, 2, 1], "beta_derived": [7, 4, 2]},
    ),
    (
        "prop2.3", (Partition, "disparity"),
        lambda fn: lambda p: fn(p) + (p.weight == 9), dict(max_weight=12),
        10, {"partition": "5,1,1,1,1", "class": 1, "disparity": 2, "expected": 1},
    ),
    (
        "lem4.1", (verify.bijection, "complement_beta"),
        lambda fn: lambda mu: fn(mu) | {99} if mu.weight == 4 else fn(mu),
        dict(max_weight=8),
        7, {"mu": "4", "complement": [99], "expected": []},
    ),
    (
        "prop4.2", (verify.bijection, "half_even_beta"),
        lambda fn: lambda sc: fn(sc)[1:] if sc.weight == 9 else fn(sc),
        dict(max_weight=12),
        9, {
            "partition": "5,1,1,1,1", "half_even_beta": [1], "expected": [2, 1],
            "principal_hook_residue": 1,
        },
    ),
    (
        "thm4.4", (Partition, "hook_multiset"),
        lambda fn: lambda p: _add_at(fn(p), 4) if p.parts == (3, 2, 1) else fn(p),
        dict(max_weight=12),
        6, {
            "partition": "3,2,1", "mu": "", "k": 2,
            "even_hooks_at_2k": 1, "twice_mu_hooks_at_k": 0,
        },
    ),
    (
        "prop4.4", (verify.bijection, "corresponding_partition_after_deletion"),
        lambda fn: lambda mu, residue: fn(mu, residue) if mu.weight != 2 else mu,
        dict(max_weight=16),
        7, {"partition": "4,2,1,1", "mu": "1,1", "after_deletion": "1,1", "expected": ""},
    ),
    (
        "cor4.5", (Partition, "is_simultaneous_core"),
        lambda fn: _flip_on(fn, (3, 1, 1)), dict(max_weight=12),
        17, {
            "partition": "3,1,1", "mu": "1", "moduli": [2],
            "sc_is_doubled_core": False, "mu_is_core": True,
        },
    ),
    (
        "prop4.6", (verify.enumeration, "sim_core_count_table"),
        lambda fn: _bump_row(fn, 1), dict(max_weight=12, max_class=1),
        5, {"ts": [4, 6], "m": 0, "n": 4, "count": 1, "expected": 2},
    ),
    (
        "cor4.8", (verify.enumeration, "catalan"),
        lambda fn: lambda n: fn(n) + (n == 2), dict(max_class=1),
        5, {"ts": [4, 6], "m": 0, "total": 2, "cores": 2, "expected": 3},
    ),
    (
        "eq1.2", (verify.series, "sc_even_core_product_series"),
        lambda fn: _bump(fn, 9), dict(order=12),
        13, {"t": 1, "exponent": 9, "enumerated": 0, "product": 1},
    ),
    (
        "gauss", (verify.series, "gauss_product_series"),
        lambda fn: _bump(fn, 6), dict(order=12),
        13, {"exponent": 6, "triangular": 1, "product": 2},
    ),
    (
        "cor1.2", (verify.enumeration, "partition_count_table"),
        lambda fn: _bump_row(fn, 2), dict(order=12),
        13, {"exponent": 8, "enumerated": 2, "product": 3},
    ),
    (
        "thm1.4", (verify.enumeration, "sim_core_count_table"),
        lambda fn: _bump_row(fn, 0), dict(order=12),
        13, {"ts": [2, 3], "exponent": 0, "enumerated": 1, "product": 2},
    ),
    (
        "cor1.5", (verify.enumeration, "sim_core_count_table"),
        lambda fn: _bump_row(fn, 1), dict(order=12),
        13, {"t": 2, "exponent": 4, "enumerated": 1, "product": 2},
    ),
    (
        "ringlaws", (TruncatedSeries, "__mul__"),
        lambda fn: lambda x, y: TruncatedSeries(x.coeffs[:1] + fn(x, y).coeffs[1:]),
        dict(order=2, seed=3),
        1, {"law": "commutativity", "x": [-2, 9, 8], "y": [-5, 2, 6], "z": [9, -7, -9]},
    ),
]


def test_cor48_checks_the_closed_form_core_counts(monkeypatch):
    # Wang's count off by one at n = 3: the class totals still match Motzkin's
    # numbers, so only the comparison with the closed form can fail. Two sets
    # of two classes at n = 1, 2, then the pair and the first triple class at 3.
    wang = verify.enumeration.wang_count
    monkeypatch.setattr(verify.enumeration, "wang_count", lambda n, d: wang(n, d) + (n == 3))
    report = verify.run_check("cor4.8", max_class=1)
    assert not report.passed
    assert report.cases == 11
    assert report.counterexample == {"ts": [6, 8, 10], "m": 0, "total": 4, "cores": 5, "expected": 4}


@pytest.mark.parametrize(
    "theorem, cases, payload",
    [
        ("cor4.8", 2, {"ts": [2, 4], "m": 1, "total": 0, "cores": 1, "expected": 1}),
        ("prop4.6", 5, {"ts": [4, 6], "m": 0, "n": 4, "count": 0, "expected": 1}),
    ],
)
def test_class_checks_read_the_surplus_add_hook_carries(monkeypatch, theorem, cases, payload):
    # The search takes each core's class from the surplus its node carries.
    # With the sign flipped on every child, (1) moves from class 1 to 2 and
    # (2, 2) from class 0 to 3: cor4.8 finds no class-1 (2, 4)-core of weight
    # <= 1, and prop4.6 no class-0 (4, 6)-core of weight 4.
    add_hook = verify.enumeration.add_hook

    def flipped(node, *args):
        for (beads, surplus), gain in add_hook(node, *args):
            yield (beads, -surplus), gain

    monkeypatch.setattr(verify.enumeration, "add_hook", flipped)
    report = verify.run_check(theorem)
    assert not report.passed
    assert report.cases == cases
    assert report.counterexample == payload


def test_defect_table_covers_every_check():
    assert sorted(row[0] for row in DEFECT_TABLE) == sorted(verify.all_ids())


def _only_when(test, defect):
    """The defect, applied only to the calls whose arguments pass test."""

    def wrap(fn):
        broken = defect(fn)
        return lambda *args: broken(*args) if test(*args) else fn(*args)

    return wrap


# Every DEFECT_TABLE series row fails on its first modulus. These put a
# defect in the last row alone of each multi-row series check: the check
# reaches it only after every earlier row has passed, order + 1 cases each.
LAST_ROW_DEFECTS = [
    (
        "eq1.1", (verify.series, "core_product_series"),
        _only_when(lambda t, n: t == 5, lambda fn: _bump(fn, 17)), dict(order=20),
        63, {"t": 5, "exponent": 17, "enumerated": 7, "product": 8},
    ),
    (
        "eq1.2", (verify.series, "sc_even_core_product_series"),
        _only_when(lambda t, n: t == 3, lambda fn: _bump(fn, 9)), dict(order=20),
        63, {"t": 3, "exponent": 9, "enumerated": 2, "product": 3},
    ),
    (
        "thm1.4", (verify.enumeration, "sim_core_count_table"),
        _only_when(lambda ts, n: list(ts) == [3, 4], lambda fn: _bump_row(fn, 0)),
        dict(order=20),
        42, {"ts": [3, 4], "exponent": 0, "enumerated": 1, "product": 2},
    ),
    (
        "cor1.5", (verify.enumeration, "sim_core_count_table"),
        _only_when(lambda ts, n: list(ts) == [3], lambda fn: _bump_row(fn, 1)), dict(order=20),
        42, {"t": 3, "exponent": 4, "enumerated": 1, "product": 2},
    ),
]


@pytest.mark.parametrize(
    "theorem, target, defect, bounds, cases, counterexample", DEFECT_TABLE + LAST_ROW_DEFECTS
)
def test_first_counterexample_stops_and_counts(
    monkeypatch, theorem, target, defect, bounds, cases, counterexample
):
    owner, name = target
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    report = verify.run_check(theorem, **bounds)
    assert not report.passed
    assert report.cases == cases
    assert report.counterexample == counterexample


def test_a_series_report_owns_its_params_and_payload(monkeypatch):
    # The moduli are lists in the table; a report holds copies, so editing
    # one report changes neither the table nor the next report.
    table = verify.enumeration.sim_core_count_table
    monkeypatch.setattr(verify.enumeration, "sim_core_count_table", _bump_row(table, 0))
    first = verify.run_check("thm1.4", order=12)
    first.params["pairs"][0].append(9)
    first.counterexample["ts"].append(9)
    again = verify.run_check("thm1.4", order=12)
    assert again.params == {"pairs": [[2, 3], [3, 4]], "order": 12}
    assert again.counterexample["ts"] == [2, 3]


def test_readme_verify_table_lists_every_check_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Verification checks", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, flags=re.M)
    assert [theorem for theorem, _ in rows] == verify.all_ids()
    # Each series row names the moduli its _Series row runs.
    text = dict(rows)
    series_rows = {
        theorem: check.__self__
        for theorem, check in verify.CHECKS.items()
        if isinstance(getattr(check, "__self__", None), verify._Series)
    }
    assert list(series_rows) == ["eq1.1", "eq1.2", "gauss", "cor1.2", "thm1.4", "cor1.5"]
    for theorem, row in series_rows.items():
        for moduli in row.over.values():
            named = ", ".join(str(tuple(x)) if isinstance(x, list) else str(x) for x in moduli)
            assert named in text[theorem], theorem


def test_thm31_mu_side_catches_a_builder_that_keeps_its_hooks(monkeypatch):
    # A builder that records the hooks it was given but lays out other parts.
    # phi on psi's output would read those hooks back and round-trip; the mu
    # side must derive the hooks from the parts. Only weights above 40 are
    # wrong, which max_weight=0 leaves to the mu side (weights up to 69).
    # psi builds through bijection.sc_from_diagonal, which is patched there.
    build = verify.bijection.sc_from_diagonal

    def faulty(deltas):
        ds = build(deltas).diagonal_hooks()
        if sum(ds) <= 40 or len(ds) < 2:
            return build(ds)
        wrong = build(ds[:1] + ds[2:]).parts
        return Partition._from_parts(wrong, wrong, ds)

    monkeypatch.setattr(verify.bijection, "sc_from_diagonal", faulty)
    report = verify.run_check("thm3.1", max_weight=0)
    assert not report.passed
    assert report.counterexample["reason"] == "phi(psi) round trip"


def test_prop44_catches_a_deletion_that_drops_the_smallest_hook(monkeypatch):
    # DEFECT_TABLE breaks prop4.4's shortcut; this breaks its direct route.
    # The deleted partition carries hooks[:-1], the principal hook kept and
    # the smallest dropped, and phi reads only the carried hooks.
    def faulty(sc):
        return verify.bijection.sc_from_diagonal(sc.diagonal_hooks()[:-1])

    monkeypatch.setattr(verify.bijection, "delete_principal_hook", faulty)
    report = verify.run_check("prop4.4")
    assert not report.passed
    assert report.cases == 5
    assert report.counterexample["partition"] == "3,2,1"


@pytest.mark.parametrize("flipped", [1, 2, 5, 7, 12, 15])
def test_eq11_catches_a_flipped_pentagonal_sign(monkeypatch, flipped):
    # core_product_series multiplies by Euler products term by term; with any
    # one sign flipped among the terms its first modulus, t = 2, reads at
    # order 40, eq1.1 at the defaults must fail where the flip first shows.
    pentagonal = verify.series._pentagonal

    def one_sign_flipped(limit):
        return ((g, -sign if g == flipped else sign) for g, sign in pentagonal(limit))

    monkeypatch.setattr(verify.series, "_pentagonal", one_sign_flipped)
    report = verify.run_check("eq1.1")
    assert not report.passed
    assert (report.counterexample["t"], report.counterexample["exponent"]) == (2, 2 * flipped)


def test_eq12_catches_a_dropped_even_euler_pass(monkeypatch):
    # sc_even_core_product_series takes two Euler products in q^2 for its even
    # half, (q^2; q^2)^2 / (q; q); with one of them dropped that half is
    # prod 1 / (1 - q^(2n-1)), wrong from q^2 on, and eq1.2 at the defaults
    # must fail there.
    euler = verify.series._times_euler
    even_passes = []

    def every_second_even_pass_dropped(s, k):
        if k == 2:
            even_passes.append(k)
            if len(even_passes) % 2 == 0:
                return s
        return euler(s, k)

    monkeypatch.setattr(verify.series, "_times_euler", every_second_even_pass_dropped)
    report = verify.run_check("eq1.2")
    assert even_passes
    assert not report.passed
    assert (report.counterexample["t"], report.counterexample["exponent"]) == (1, 2)


def test_gauss_catches_a_geometric_pass_that_skips_a_residue_class(monkeypatch):
    # times_geometric takes one running sum per residue class mod the period;
    # with the last class left out, the builder's first term q / (1 - q)
    # stays q and gauss at the defaults must fail at q^2.
    periods = []

    def last_class_skipped(self, period):
        periods.append(period)
        c = self.coeffs
        out = list(c)
        for r in range(min(period, len(c)) - 1):
            out[r::period] = accumulate(c[r::period])
        return TruncatedSeries._from_coeffs(out)

    monkeypatch.setattr(TruncatedSeries, "times_geometric", last_class_skipped)
    report = verify.run_check("gauss")
    assert periods
    assert not report.passed
    assert report.counterexample["exponent"] == 2


def test_gauss_catches_a_dropped_last_term(monkeypatch):
    # At order 40 the builder sums the terms k = 1..8 of its distinct-part
    # series; the last starts at q^T(8) = q^36, so with it dropped gauss at
    # the defaults must fail there.
    add = TruncatedSeries.__add__
    terms = []

    def last_term_dropped(self, other):
        terms.append(other)
        return self if len(terms) == 8 else add(self, other)

    monkeypatch.setattr(TruncatedSeries, "__add__", last_term_dropped)
    report = verify.run_check("gauss")
    assert len(terms) == 8
    assert not report.passed
    assert report.counterexample["exponent"] == 36


# The checks with a row in the walk over the self-conjugate partitions.
PER_PARTITION = ("lem2.2", "prop2.3", "thm3.1", "prop4.2", "thm4.4", "prop4.4", "cor4.5")
# The checks with a row in the walk over all partitions.
MU_WALK = ("thm3.1", "lem4.1")


def _untimed(report):
    return {k: v for k, v in report.to_json_dict().items() if k != "elapsed_ms"}


def test_run_checks_matches_run_check_per_id():
    # The second bounds take thm3.1's mu side past lem4.1's weights (up to 10).
    for bounds in (SMALL, dict(max_weight=10, order=12, max_mu_weight=14, max_class=2, seed=3)):
        shared = verify.run_checks(verify.all_ids(), **bounds)
        assert [r.theorem for r in shared] == verify.all_ids()
        solo = [verify.run_check(t, **bounds) for t in verify.all_ids()]
        assert [_untimed(r) for r in shared] == [_untimed(r) for r in solo]


def test_run_checks_rejects_an_unknown_id_before_any_check_runs(monkeypatch):
    monkeypatch.setattr(verify, "_walk", None)
    monkeypatch.setattr(verify, "run_check", None)
    with pytest.raises(KeyError, match="no-such-check"):
        verify.run_checks(["prop2.3", "gauss", "no-such-check"])


@pytest.mark.parametrize(
    "theorem, target, defect, bounds, cases, counterexample",
    [row for row in DEFECT_TABLE if row[0] in PER_PARTITION],
)
def test_a_failing_row_neither_shortens_nor_pads_another(
    monkeypatch, theorem, target, defect, bounds, cases, counterexample
):
    # With one law broken, the shared walk gives every row the report it
    # gets on its own under the same defect, and the broken row stops where
    # its DEFECT_TABLE entry says.
    owner, name = target
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    shared = verify.run_checks(PER_PARTITION, **bounds)
    solo = [verify.run_check(t, **bounds) for t in PER_PARTITION]
    assert [_untimed(r) for r in shared] == [_untimed(r) for r in solo]
    failing = shared[PER_PARTITION.index(theorem)]
    assert (failing.cases, failing.counterexample) == (cases, counterexample)


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_walk_maps_each_partition_once_and_only_for_rows_that_read_the_image(monkeypatch):
    calls = _counting(monkeypatch, verify.bijection, "phi")
    assert all(r.passed for r in verify.run_checks(["lem2.2", "prop2.3"], max_weight=20))
    assert calls == []
    reports = verify.run_checks(["prop2.3", "thm4.4", "cor4.5", "prop4.2"], max_weight=20)
    assert all(r.passed for r in reports)
    walked = reports[0].cases
    assert walked == sum(verify.enumeration.sc_count_table(20))
    assert len(calls) == walked
    assert len({id(sc) for (sc,) in calls}) == walked
    # A lone row runs the same loop, under the same rule.
    calls.clear()
    assert verify.run_check("prop2.3", max_weight=20).cases == walked
    assert calls == []
    assert verify.run_check("thm4.4", max_weight=20).cases == walked
    assert len(calls) == walked


def test_a_lone_row_is_timed():
    # A row's time is its own law time, read twice per chunk; a lone row
    # is still timed, without the walk's enumeration or phi.
    report = verify.run_check("lem2.2", max_weight=20)
    assert report.elapsed_ms > 0


def _chunks(counts) -> int:
    return sum(-(-count // verify._CHUNK) for count in counts)


def test_walk_reads_the_clock_per_row_not_per_partition(monkeypatch):
    reads = []

    def perf_counter():
        reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=perf_counter))
    reports = verify.run_checks(PER_PARTITION, max_weight=60)
    counts = verify.enumeration.sc_count_table(60)
    assert reports[0].cases == sum(counts) == 2743
    # Twice per (chunk, live row): seven rows over the self-conjugate chunks,
    # and thm3.1's mu side over the chunks of weights 0..12; none at the
    # walks' ends and none per partition.
    mu_chunks = _chunks(verify.enumeration.partition_count_table(12))
    assert len(reads) <= 2 * (len(PER_PARTITION) * _chunks(counts) + mu_chunks)
    assert len(reads) < sum(counts)


def test_walked_rows_times_add_up_to_at_most_the_wall_time():
    # Each row reports its own law time, so rows walked together no longer
    # each report the shared walk.
    start = time.perf_counter()
    reports = verify.run_checks(PER_PARTITION + ("lem4.1",), max_weight=40)
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert all(r.passed and r.elapsed_ms > 0 for r in reports)
    assert sum(r.elapsed_ms for r in reports) <= wall_ms


@pytest.mark.parametrize(
    "theorem, target, defect, bounds, cases, counterexample",
    [row for row in DEFECT_TABLE if row[0] in PER_PARTITION + MU_WALK],
)
def test_chunk_boundaries_change_no_report(
    monkeypatch, theorem, target, defect, bounds, cases, counterexample
):
    owner, name = target
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    walked = PER_PARTITION + ("lem4.1",)
    seen = []
    for chunk in (1, 2, 5, verify._CHUNK):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        shared = [_untimed(r) for r in verify.run_checks(walked, **bounds)]
        assert shared == [_untimed(verify.run_check(t, **bounds)) for t in walked]
        seen.append(shared)
    assert all(reports == seen[0] for reports in seen)
    failing = seen[0][walked.index(theorem)]
    assert (failing["cases"], failing["counterexample"]) == (cases, counterexample)


def test_a_row_that_fails_mid_chunk_leaves_the_others_live(monkeypatch):
    # prop2.3 fails on the third of the 18 self-conjugate partitions of
    # weight 30, inside a chunk at sizes 5 and the default; lem2.2 walks on
    # through the rest of that chunk and to weight 40.
    target = list(verify.enumeration.self_conjugate_of(30))[2]
    disparity = Partition.disparity
    monkeypatch.setattr(
        Partition, "disparity", lambda p: disparity(p) + (p.parts == target.parts)
    )
    counts = verify.enumeration.sc_count_table(40)
    for chunk in (1, 2, 5, verify._CHUNK):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        prop23, lem22 = verify.run_checks(["prop2.3", "lem2.2"], max_weight=40)
        assert prop23.cases == sum(counts[:30]) + 3
        assert prop23.counterexample["partition"] == str(target)
        assert lem22.passed and lem22.cases == sum(counts)
        assert _untimed(prop23) == _untimed(verify.run_check("prop2.3", max_weight=40))


@pytest.mark.parametrize(
    "generator, owner, name, theorems, max_weight",
    [
        ("self_conjugate_of", Partition, "disparity", ["lem2.2", "prop2.3", "cor4.5"], 70),
        ("partitions_of", verify.bijection, "complement_beta", ["lem4.1"], 25),
    ],
)
@pytest.mark.parametrize("chunk", [1, 3, verify._CHUNK])
def test_walk_holds_at_most_one_chunk(
    monkeypatch, generator, owner, name, theorems, max_weight, chunk
):
    # Each watched law call sees how many partitions the walk has drawn
    # and not yet passed to that law: never more than one chunk, and a
    # whole one once a weight has that many. sc(70) = 408 and p(25) = 1958.
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    drawn, held = [0], []
    stream, law = getattr(verify.enumeration, generator), getattr(owner, name)

    def counted(n):
        for x in stream(n):
            drawn[0] += 1
            yield x

    def watched(x):
        held.append(drawn[0] - len(held))
        return law(x)

    monkeypatch.setattr(verify.enumeration, generator, counted)
    monkeypatch.setattr(owner, name, watched)
    assert all(r.passed for r in verify.run_checks(theorems, max_weight=max_weight))
    assert held and max(held) == chunk


def test_walk_stops_once_every_row_has_retired(monkeypatch):
    # prop2.3's defect fails at weight 9 and lem2.2's at weight 8; no later
    # weight is built, however large max_weight is.
    rows = {row[0]: row for row in DEFECT_TABLE}
    for theorem in ("prop2.3", "lem2.2"):
        owner, name = rows[theorem][1]
        monkeypatch.setattr(owner, name, rows[theorem][2](getattr(owner, name)))
    weights = _counting(monkeypatch, verify.enumeration, "self_conjugate_of")
    reports = verify.run_checks(["prop2.3", "lem2.2"], max_weight=157)
    assert [r.cases for r in reports] == [10, 8]
    assert weights == [(n,) for n in range(10)]


@pytest.mark.parametrize(
    "theorem, target, defect, bounds, cases, counterexample",
    [row for row in DEFECT_TABLE if row[0] in MU_WALK],
)
def test_a_failing_row_of_the_mu_walk_neither_shortens_nor_pads_another(
    monkeypatch, theorem, target, defect, bounds, cases, counterexample
):
    owner, name = target
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    shared = verify.run_checks(MU_WALK, **bounds)
    solo = [verify.run_check(t, **bounds) for t in MU_WALK]
    assert [_untimed(r) for r in shared] == [_untimed(r) for r in solo]
    failing = shared[MU_WALK.index(theorem)]
    assert (failing.cases, failing.counterexample) == (cases, counterexample)


def test_the_mu_walk_builds_each_weight_once_for_both_rows(monkeypatch):
    # At the defaults lem4.1 reads weights 1..25 and thm3.1's mu side 0..12:
    # one walk streams each weight once, and both rows see the same partitions.
    weights = _counting(monkeypatch, verify.enumeration, "partitions_of")
    complemented = _counting(monkeypatch, verify.bijection, "complement_beta")
    mapped = _counting(monkeypatch, verify.bijection, "psi")
    lem41, thm31 = verify.run_checks(["lem4.1", "thm3.1"])
    assert lem41.passed and thm31.passed
    assert weights == [(n,) for n in range(26)]
    counts = verify.enumeration.partition_count_table(25)
    seen = {id(mu) for (mu,) in complemented}
    assert lem41.cases == len(complemented) == len(seen) == sum(counts) - 1
    # psi also runs in the self-conjugate walk, on phi's images.
    shared = seen.intersection(id(mu) for _, mu in mapped)
    assert len(shared) == sum(counts[1:13])


def test_thm31_failing_on_its_self_conjugate_row_skips_its_mu_row(monkeypatch):
    # psi never round trips, so the first self-conjugate partition, the empty
    # one, fails; the report carries that one case, and no mu walk starts.
    monkeypatch.setattr(verify.bijection, "psi", lambda m, mu: Partition([1]))
    weights = _counting(monkeypatch, verify.enumeration, "partitions_of")
    report = verify.run_check("thm3.1")
    assert (report.cases, report.counterexample["reason"]) == (1, "psi(phi) round trip")
    assert weights == []
    # Beside lem4.1 the mu walk runs for lem4.1 alone, from weight 1.
    thm31, lem41 = verify.run_checks(["thm3.1", "lem4.1"])
    assert _untimed(thm31) == _untimed(report)
    assert lem41.passed
    assert weights == [(n,) for n in range(1, 26)]


def test_lem41_caps_its_weights_at_25():
    report = verify.run_check("lem4.1", max_weight=40)
    assert report.params == {"max_mu_weight": 25}
    assert report.cases == sum(verify.enumeration.partition_count_table(25)) - 1
