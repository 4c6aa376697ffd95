"""Correctness gate: compare a pass's outputs with the expected outputs.

An operation is one verify report or one series output. Reports are
compared on the fields the reports had when the reference was recorded
(``theorem``, ``passed``, ``params``, ``cases``, ``counterexample``);
``elapsed_ms`` and any field or parameter added later are ignored. A
report fails when it swept no cases or fewer cases than the reference,
so a shortened sweep can never pass for a speed-up. Series outputs must
match coefficient for coefficient. An operation that raised, or a pass
whose command exited nonzero, fails as well.
"""

from __future__ import annotations

REPORT_FIELDS = ("theorem", "passed", "counterexample")


def error(message: str) -> dict:
    """The output recorded for an operation that did not complete."""
    return {"error": message}


def report_mismatch(got: dict, want: dict) -> str | None:
    if "error" in got:
        return got["error"]
    cases = got.get("cases", 0)
    if cases == 0:
        return "swept 0 cases"
    if cases < want["cases"]:
        return f"cases {cases} < reference {want['cases']}"
    for field in REPORT_FIELDS:
        if got.get(field) != want[field]:
            return f"{field} {got.get(field)!r} != reference {want[field]!r}"
    params = got.get("params") or {}
    for key, value in want["params"].items():
        if params.get(key) != value:
            return f"params.{key} {params.get(key)!r} != reference {value!r}"
    return None


def series_mismatch(got: dict, want: dict) -> str | None:
    if "error" in got:
        return got["error"]
    if got.get("order") != want["order"]:
        return f"order {got.get('order')!r} != expected {want['order']}"
    for k, (a, b) in enumerate(zip(got["coefficients"], want["coefficients"])):
        if a != b:
            return f"coefficient of q^{k} is {a}, expected {b}"
    if len(got["coefficients"]) != len(want["coefficients"]):
        return "coefficient count differs"
    return None


def compare(outputs: dict, expected: dict) -> list[str]:
    """Named mismatches, at most one per expected operation."""
    failures = []
    for op, want in expected.items():
        got = outputs.get(op, error("missing from the outputs"))
        check = series_mismatch if "coefficients" in want else report_mismatch
        reason = check(got, want)
        if reason is not None:
            failures.append(f"{op}: {reason}")
    return failures


def self_test(lib) -> list[str]:
    """Inject defects into a tiny reference and return what the gate caught.

    Raises RuntimeError when the gate passes a defect or flags a clean
    output, so the benchmark never runs on a gate that passes vacuously.
    """
    series = lib.series
    prop23 = lib.verify.run_check("prop2.3", max_weight=10).to_json_dict()
    triangular = [0] * 31
    for k in range(8):
        triangular[k * (k + 1) // 2] = 1
    outputs = {
        "prop2.3": prop23,
        "core_gf(3)": series.core_product_series(3, 30).to_json_dict(),
        "gauss": series.gauss_product_series(30).to_json_dict(),
    }
    expected = {op: dict(out) for op, out in outputs.items()}
    expected["gauss"] = {"order": 30, "coefficients": triangular}
    if compare(outputs, expected):
        raise RuntimeError(f"gate self-test: clean outputs flagged: {compare(outputs, expected)}")

    expected["prop2.3"]["cases"] += 1
    coeffs = list(expected["core_gf(3)"]["coefficients"])
    coeffs[17] += 1
    expected["core_gf(3)"]["coefficients"] = coeffs
    broken = list(triangular)
    broken[9] = 1
    outputs["gauss"] = {"order": 30, "coefficients": broken}
    outputs["vacuous"] = dict(prop23, cases=0)
    expected["vacuous"] = prop23
    outputs["raised"] = error("raised ZeroDivisionError()")
    expected["raised"] = prop23

    caught = compare(outputs, expected)
    injected = ("prop2.3: cases", "core_gf(3): coefficient of q^17",
                "gauss: coefficient of q^9", "vacuous: swept 0", "raised: raised")
    missed = [d for d in injected if not any(c.startswith(d) for c in caught)]
    if missed or len(caught) != len(injected):
        raise RuntimeError(f"gate self-test: missed {missed}, caught {caught}")
    return caught
