"""Exhaustive verification sweeps over the library's counting identities.

Each registered check sweeps a bounded input range, stops at the first
counterexample, and reports the swept parameters so a failure can be
replayed through the library directly. All comparisons are exact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import bijection, enumeration, series
from .partitions import beta_from_diagonal, sc_from_diagonal

__all__ = ["SweepBounds", "VerificationReport", "CHECKS", "all_ids", "run_check", "run_all"]


@dataclass(frozen=True)
class SweepBounds:
    """Bounds shared by the sweeps; each check uses the ones it needs."""

    max_weight: int = 40
    order: int = 40
    max_mu_weight: int = 12
    max_class: int = 6
    seed: int = 0

    def __post_init__(self):
        for name in ("max_weight", "order", "max_mu_weight", "max_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    passed: bool
    params: dict
    cases: int
    counterexample: dict | None
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "params": self.params,
            "cases": self.cases,
            "counterexample": self.counterexample,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{self.theorem}: {verdict}  ({self.cases} cases, {self.elapsed_ms:.1f} ms)"
        if self.counterexample is not None:
            line += f"  counterexample: {self.counterexample}"
        return line


def _iter_sc(max_weight: int):
    for n in range(max_weight + 1):
        yield from enumeration.self_conjugate_of(n)


def _triangular(m: int) -> int:
    return m * (m + 1) // 2


def _first_counterexample(params: dict, *phases, per_case: int = 1):
    """Run the phases in order and stop at the first counterexample.

    A phase is a pair (cases, law): law(case) returns a counterexample
    payload, or None when the case holds. Every case run counts per_case
    cases, the failing one included. Returns (params, cases, payload).
    """
    cases = 0
    for items, law in phases:
        for case in items:
            cases += per_case
            payload = law(case)
            if payload is not None:
                return params, cases, payload
    return params, cases, None


def _check_lem22(b: SweepBounds):
    def law(deltas):
        direct = sc_from_diagonal(deltas).beta_set()
        derived = beta_from_diagonal(deltas)
        if direct != derived:
            return {
                "diagonal": ",".join(map(str, deltas)),
                "beta_direct": list(direct),
                "beta_derived": list(derived),
            }

    decompositions = (
        deltas
        for n in range(b.max_weight + 1)
        for deltas in enumeration.distinct_odd_decompositions(n)
    )
    return _first_counterexample({"max_weight": b.max_weight}, (decompositions, law))


def _check_prop23(b: SweepBounds):
    def law(sc):
        m = bijection.classify(sc)
        dp = sc.disparity()
        if dp != _triangular(m):
            return {
                "partition": str(sc),
                "class": m,
                "disparity": dp,
                "expected": _triangular(m),
            }

    return _first_counterexample({"max_weight": b.max_weight}, (_iter_sc(b.max_weight), law))


def _check_thm31(b: SweepBounds):
    params = {
        "max_weight": b.max_weight,
        "max_mu_weight": b.max_mu_weight,
        "max_class": b.max_class,
    }

    def sc_law(sc):
        m, mu = bijection.phi(sc)
        if sc.weight != 4 * mu.weight + _triangular(m):
            reason = "weight law"
        elif bijection.psi(m, mu) != sc:
            reason = "psi(phi) round trip"
        else:
            return None
        return {"partition": str(sc), "class": m, "mu": str(mu), "reason": reason}

    def mu_law(case):
        mu, m = case
        image = bijection.phi(bijection.psi(m, mu))
        if image.m != m or image.mu != mu:
            return {"mu": str(mu), "class": m, "reason": "phi(psi) round trip"}

    images = (
        (mu, m)
        for w in range(b.max_mu_weight + 1)
        for mu in enumeration.partitions_of(w)
        for m in range(b.max_class + 1)
    )
    return _first_counterexample(params, (_iter_sc(b.max_weight), sc_law), (images, mu_law))


def _check_prop34(b: SweepBounds):
    params = {"max_k": 8, "max_class": b.max_class, "max_weight": b.max_weight}
    classes = range(b.max_class + 1)

    def law(case):
        n, m, expected = case
        got = enumeration.count_sc_m(n, m)
        if got != expected:
            return {"n": n, "m": m, "count": got, "expected": expected}

    on_congruence = (
        (4 * k + _triangular(m), m, enumeration.partition_count(k))
        for m in classes
        for k in range(9)
    )
    off_congruence = (
        (n, m, 0)
        for m in classes
        for n in range(b.max_weight + 1)
        if n < _triangular(m) or (n - _triangular(m)) % 4
    )
    return _first_counterexample(params, (on_congruence, law), (off_congruence, law))


def _check_lem41(b: SweepBounds):
    cap = min(b.max_weight, 25)

    def law(mu):
        corner = mu.hook_length(1, 1)
        expected = frozenset(range(1, corner + 1)) - set(mu.conjugate().beta_set())
        got = bijection.complement_beta(mu)
        if got != expected:
            return {"mu": str(mu), "complement": sorted(got), "expected": sorted(expected)}

    images = (mu for w in range(1, cap + 1) for mu in enumeration.partitions_of(w))
    return _first_counterexample({"max_mu_weight": cap}, (images, law))


def _check_prop42(b: SweepBounds):
    def law(sc):
        mu = bijection.phi(sc).mu
        top = sc.diagonal_hooks()[0]
        expected = mu.conjugate().beta_set() if top % 4 == 1 else mu.beta_set()
        got = bijection.half_even_beta(sc)
        if got != expected:
            return {
                "partition": str(sc),
                "half_even_beta": list(got),
                "expected": list(expected),
                "principal_hook_residue": top % 4,
            }

    nonempty = (sc for sc in _iter_sc(b.max_weight) if sc)
    return _first_counterexample({"max_weight": b.max_weight}, (nonempty, law))


def _check_thm44(b: SweepBounds):
    def law(sc):
        mu = bijection.phi(sc).mu
        sc_hooks = sc.hook_multiset()
        mu_hooks = mu.hook_multiset()
        evens = {h // 2: c for h, c in sc_hooks.items() if h % 2 == 0}
        doubled = {k: 2 * c for k, c in mu_hooks.items()}
        if evens != doubled:
            diff = sorted(set(evens) | set(doubled))
            k = next(x for x in diff if evens.get(x, 0) != doubled.get(x, 0))
            return {
                "partition": str(sc),
                "mu": str(mu),
                "k": k,
                "even_hooks_at_2k": evens.get(k, 0),
                "twice_mu_hooks_at_k": doubled.get(k, 0),
            }
        odd_count = sum(c for h, c in sc_hooks.items() if h % 2)
        if odd_count != sc.weight - 2 * mu.weight:
            return {
                "partition": str(sc),
                "odd_hooks": odd_count,
                "expected": sc.weight - 2 * mu.weight,
            }

    return _first_counterexample({"max_weight": b.max_weight}, (_iter_sc(b.max_weight), law))


def _check_prop44(b: SweepBounds):
    def law(sc):
        mu = bijection.phi(sc).mu
        top = sc.diagonal_hooks()[0]
        shortcut = bijection.corresponding_partition_after_deletion(mu, top % 4)
        direct = bijection.phi(bijection.delete_principal_hook(sc)).mu
        if shortcut != direct:
            return {
                "partition": str(sc),
                "mu": str(mu),
                "after_deletion": str(shortcut),
                "expected": str(direct),
            }

    nonempty = (sc for sc in _iter_sc(b.max_weight) if sc)
    return _first_counterexample({"max_weight": b.max_weight}, (nonempty, law))


_CORE_EQUIV_MODULI = ((2,), (3,), (2, 3), (3, 4))


def _check_cor45(b: SweepBounds):
    params = {"max_weight": b.max_weight, "moduli": [list(ts) for ts in _CORE_EQUIV_MODULI]}

    def law(case):
        sc, mu, ts = case
        lhs = sc.is_simultaneous_core([2 * t for t in ts])
        rhs = mu.is_simultaneous_core(ts)
        if lhs != rhs:
            return {
                "partition": str(sc),
                "mu": str(mu),
                "moduli": list(ts),
                "sc_is_doubled_core": lhs,
                "mu_is_core": rhs,
            }

    pairs = ((sc, bijection.phi(sc).mu) for sc in _iter_sc(b.max_weight))
    cases = ((sc, mu, ts) for sc, mu in pairs for ts in _CORE_EQUIV_MODULI)
    return _first_counterexample(params, (cases, law))


_SIM_PAIRS = ((4, 6), (6, 8))


def _check_prop46(b: SweepBounds):
    max_class = min(b.max_class, 3)
    params = {"pairs": [list(p) for p in _SIM_PAIRS], "max_class": max_class, "max_weight": b.max_weight}

    def law(case):
        moduli, m, n, count, ordinary = case
        shift = n - _triangular(m)
        expected = ordinary[shift // 4] if shift >= 0 and shift % 4 == 0 else 0
        if count != expected:
            return {"ts": list(moduli), "m": m, "n": n, "count": count, "expected": expected}

    def counts():
        for moduli in _SIM_PAIRS:
            halves = [t // 2 for t in moduli]
            ordinary = enumeration.sim_core_count_table(halves, b.max_weight // 4).rows
            for m in range(max_class + 1):
                table = enumeration.count_sc_sim_core_m(moduli, m, b.max_weight)
                for n, count in enumerate(table.rows):
                    yield moduli, m, n, count, ordinary

    return _first_counterexample(params, (counts(), law))


def _check_cor48(b: SweepBounds):
    max_class = min(b.max_class, 3)

    def law(case):
        ts, m, expected = case
        bound = 4 * enumeration.sufficient_core_bound([t // 2 for t in ts]) + _triangular(m)
        total = enumeration.count_sc_sim_core_m(ts, m, bound).total()
        if total != expected:
            return {"ts": list(ts), "m": m, "total": total, "expected": expected}

    cases = (
        (ts, m, closed_form(n))
        for n in range(1, 5)
        for m in range(max_class + 1)
        for ts, closed_form in (
            ((2 * n, 2 * n + 2), enumeration.catalan),
            ((2 * n, 2 * n + 2, 2 * n + 4), enumeration.motzkin),
        )
    )
    return _first_counterexample({"n_range": [1, 4], "max_class": max_class}, (cases, law))


def _series_rows(params: dict, order: int, rows, lhs_key: str = "enumerated"):
    """Compare each (tag, lhs, rhs) row coefficient-wise; order + 1 cases per row.

    A mismatch reports the row's tag, the first exponent that differs and
    both coefficients there, the left one under lhs_key.
    """

    def law(row):
        tag, lhs, rhs = row
        outcome = series.check_identity(lhs, rhs)
        if not outcome.equal:
            return {
                **tag,
                "exponent": outcome.first_mismatch,
                lhs_key: outcome.lhs_coefficient,
                "product": outcome.rhs_coefficient,
            }

    return _first_counterexample(params, (rows, law), per_case=order + 1)


def _counted(tag: dict, table, rhs, order: int):
    """Row: the series of a count table vs the series rhs."""
    return tag, series.series_from_counts(table, 1, order), rhs


def _factorization(tag: dict, sc_table, table, order: int):
    """Row: self-conjugate counts vs quadrupled counts times the triangular series."""
    quadrupled = series.series_from_counts(table, 4, order)
    return _counted(tag, sc_table, quadrupled * series.triangular_series(order), order)


_CORE_GF_MODULI = (2, 3, 5)


def _check_eq11(b: SweepBounds):
    tables = enumeration.core_count_tables(_CORE_GF_MODULI, b.order)
    rows = (
        _counted({"t": t}, tables[t], series.core_product_series(t, b.order), b.order)
        for t in _CORE_GF_MODULI
    )
    return _series_rows({"moduli": list(_CORE_GF_MODULI), "order": b.order}, b.order, rows)


_SC_GF_MODULI = (1, 2, 3)


def _check_eq12(b: SweepBounds):
    rows = (
        _counted(
            {"t": t},
            enumeration.sc_core_count_table(2 * t, b.order),
            series.sc_even_core_product_series(t, b.order),
            b.order,
        )
        for t in _SC_GF_MODULI
    )
    return _series_rows({"moduli": list(_SC_GF_MODULI), "order": b.order}, b.order, rows)


def _check_gauss(b: SweepBounds):
    row = ({}, series.triangular_series(b.order), series.gauss_product_series(b.order))
    return _series_rows({"order": b.order}, b.order, [row], lhs_key="triangular")


def _check_cor12(b: SweepBounds):
    row = _factorization(
        {},
        enumeration.sc_count_table(b.order),
        enumeration.partition_count_table(b.order // 4),
        b.order,
    )
    return _series_rows({"order": b.order}, b.order, [row])


_FACTOR_MODULI = (2, 3)


def _check_cor15(b: SweepBounds):
    rows = (
        _factorization(
            {"t": t},
            enumeration.sc_core_count_table(2 * t, b.order),
            enumeration.core_count_table(t, b.order // 4),
            b.order,
        )
        for t in _FACTOR_MODULI
    )
    return _series_rows({"moduli": list(_FACTOR_MODULI), "order": b.order}, b.order, rows)


_FACTOR_PAIRS = ((2, 3), (3, 4))


def _check_thm14(b: SweepBounds):
    rows = (
        _factorization(
            {"ts": [t1, t2]},
            enumeration.sc_sim_core_count_table((2 * t1, 2 * t2), b.order),
            enumeration.sim_core_count_table((t1, t2), b.order // 4),
            b.order,
        )
        for t1, t2 in _FACTOR_PAIRS
    )
    params = {"pairs": [list(p) for p in _FACTOR_PAIRS], "order": b.order}
    return _series_rows(params, b.order, rows)


_RING_LAWS = (
    ("commutativity", lambda x, y, z: x * y == y * x),
    ("associativity", lambda x, y, z: (x * y) * z == x * (y * z)),
    ("distributivity", lambda x, y, z: x * (y + z) == x * y + x * z),
)


def _check_ringlaws(b: SweepBounds):
    order = min(b.order, 24)
    trials = 25
    rng = random.Random(b.seed)

    def rand_series():
        return series.TruncatedSeries(
            [rng.randint(-9, 9) for _ in range(order + 1)], order
        )

    def law(case):
        name, holds, xyz = case
        if not holds(*xyz):
            return {"law": name, **{v: list(s.coeffs) for v, s in zip("xyz", xyz)}}

    triples = ((rand_series(), rand_series(), rand_series()) for _ in range(trials))
    cases = ((name, holds, xyz) for xyz in triples for name, holds in _RING_LAWS)
    params = {"order": order, "trials": trials, "seed": b.seed}
    return _first_counterexample(params, (cases, law))


CHECKS = {
    "lem2.2": ("first-column hook set rebuilt from diagonal hooks", _check_lem22),
    "prop2.3": ("disparity equals the class triangular number", _check_prop23),
    "thm3.1": ("class-m correspondence round trips both ways", _check_thm31),
    "prop3.4": ("class-m self-conjugate counts reduce to p(k)", _check_prop34),
    "lem4.1": ("corner-hook differences complement the first-row hooks", _check_lem41),
    "prop4.2": ("half-even first-column hooks match the image partition", _check_prop42),
    "thm4.4": ("even hooks 2k appear twice as often as image hooks k", _check_thm44),
    "prop4.4": ("principal-hook deletion commutes with the correspondence", _check_prop44),
    "cor4.5": ("doubled-modulus cores correspond to cores of the image", _check_cor45),
    "prop4.6": ("class-m simultaneous-core counts reduce to ordinary ones", _check_prop46),
    "cor4.8": ("Catalan/Motzkin totals for consecutive even moduli", _check_cor48),
    "eq1.1": ("t-core counting series equals its product expansion", _check_eq11),
    "eq1.2": ("self-conjugate even-core series equals its product expansion", _check_eq12),
    "gauss": ("even/odd product expansion equals the triangular series", _check_gauss),
    "cor1.2": ("self-conjugate counts factor through quadrupled partition counts", _check_cor12),
    "thm1.4": ("self-conjugate simultaneous-core series factorization", _check_thm14),
    "cor1.5": ("self-conjugate 2t-core series factorization", _check_cor15),
    "ringlaws": ("randomized series ring laws", _check_ringlaws),
}


def all_ids() -> list[str]:
    return list(CHECKS)


def run_check(theorem: str, **overrides) -> VerificationReport:
    """Run one registered check; raises KeyError for an unknown id."""
    if theorem not in CHECKS:
        raise KeyError(f"unknown check id: {theorem!r}")
    bounds = SweepBounds(**overrides)
    _, checker = CHECKS[theorem]
    start = time.perf_counter()
    params, cases, counterexample = checker(bounds)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        theorem=theorem,
        passed=counterexample is None and cases > 0,
        params=params,
        cases=cases,
        counterexample=counterexample,
        elapsed_ms=elapsed_ms,
    )


def run_all(**overrides) -> list[VerificationReport]:
    """Run every registered check in registry order."""
    return [run_check(theorem, **overrides) for theorem in CHECKS]
