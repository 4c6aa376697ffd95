import json

import pytest

from scpartitions import Partition, verify
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


def test_run_all_covers_registry():
    reports = verify.run_all(**SMALL)
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
    outcome = check_identity(good, bad)
    assert not outcome.equal
    payload = {
        "exponent": outcome.first_mismatch,
        "enumerated": outcome.lhs_coefficient,
        "product": outcome.rhs_coefficient,
    }
    # replay from the payload alone
    k = payload["exponent"]
    assert good.coefficient(k) == payload["enumerated"]
    assert bad.coefficient(k) == payload["product"]
    assert payload["enumerated"] != payload["product"]


def _bump(fn, exponent):
    def bumped(*args):
        coeffs = list(fn(*args).coeffs)
        coeffs[exponent] += 1
        return TruncatedSeries(coeffs, len(coeffs) - 1)

    return bumped


@pytest.mark.parametrize(
    "theorem, target, defect, bounds, cases, counterexample",
    [
        # a series row counts order + 1 cases and fails on the first modulus
        (
            "eq1.1", (verify.series, "core_product_series"),
            lambda fn: _bump(fn, 17), dict(order=20),
            21, {"t": 2, "exponent": 17, "enumerated": 0, "product": 1},
        ),
        # the second phase counts on from the first: 63 + 9 + 2 cases
        (
            "prop3.4", (verify.enumeration, "count_sc_m"),
            lambda fn: lambda n, m: fn(n, m) + (n == 2 and m == 1), dict(max_weight=12),
            74, {"n": 2, "m": 1, "count": 1, "expected": 0},
        ),
        # 1 self-conjugate case, then 4 images of weight <= 2 and (3) in 7 classes
        (
            "thm3.1", (verify.bijection, "psi"),
            lambda fn: lambda m, mu: fn(m, Partition([3]) if mu.weight == 3 else mu),
            dict(max_weight=0),
            37, {"mu": "2,1", "class": 0, "reason": "phi(psi) round trip"},
        ),
    ],
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
