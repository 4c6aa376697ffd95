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


def _check_lem22(b: SweepBounds):
    params = {"max_weight": b.max_weight}
    cases = 0
    for n in range(b.max_weight + 1):
        for deltas in enumeration.distinct_odd_decompositions(n):
            cases += 1
            direct = sc_from_diagonal(deltas).beta_set()
            derived = beta_from_diagonal(deltas)
            if direct != derived:
                return params, cases, {
                    "diagonal": ",".join(map(str, deltas)),
                    "beta_direct": list(direct),
                    "beta_derived": list(derived),
                }
    return params, cases, None


def _check_prop23(b: SweepBounds):
    params = {"max_weight": b.max_weight}
    cases = 0
    for sc in _iter_sc(b.max_weight):
        cases += 1
        m = bijection.classify(sc)
        dp = sc.disparity()
        if dp != _triangular(m):
            return params, cases, {
                "partition": str(sc),
                "class": m,
                "disparity": dp,
                "expected": _triangular(m),
            }
    return params, cases, None


def _check_thm31(b: SweepBounds):
    params = {
        "max_weight": b.max_weight,
        "max_mu_weight": b.max_mu_weight,
        "max_class": b.max_class,
    }
    cases = 0
    for sc in _iter_sc(b.max_weight):
        cases += 1
        m, mu = bijection.phi(sc)
        if sc.weight != 4 * mu.weight + _triangular(m):
            return params, cases, {
                "partition": str(sc),
                "class": m,
                "mu": str(mu),
                "reason": "weight law",
            }
        if bijection.psi(m, mu) != sc:
            return params, cases, {
                "partition": str(sc),
                "class": m,
                "mu": str(mu),
                "reason": "psi(phi) round trip",
            }
    for w in range(b.max_mu_weight + 1):
        for mu in enumeration.partitions_of(w):
            for m in range(b.max_class + 1):
                cases += 1
                image = bijection.phi(bijection.psi(m, mu))
                if image.m != m or image.mu != mu:
                    return params, cases, {
                        "mu": str(mu),
                        "class": m,
                        "reason": "phi(psi) round trip",
                    }
    return params, cases, None


def _check_prop34(b: SweepBounds):
    params = {"max_k": 8, "max_class": b.max_class, "max_weight": b.max_weight}
    cases = 0
    for m in range(b.max_class + 1):
        for k in range(9):
            cases += 1
            n = 4 * k + _triangular(m)
            got = enumeration.count_sc_m(n, m)
            want = enumeration.partition_count(k)
            if got != want:
                return params, cases, {"n": n, "m": m, "count": got, "expected": want}
    for m in range(b.max_class + 1):
        for n in range(b.max_weight + 1):
            if (n - _triangular(m)) % 4 == 0 and n >= _triangular(m):
                continue
            cases += 1
            got = enumeration.count_sc_m(n, m)
            if got != 0:
                return params, cases, {"n": n, "m": m, "count": got, "expected": 0}
    return params, cases, None


def _check_lem41(b: SweepBounds):
    cap = min(b.max_weight, 25)
    params = {"max_mu_weight": cap}
    cases = 0
    for w in range(1, cap + 1):
        for mu in enumeration.partitions_of(w):
            cases += 1
            corner = mu.hook_length(1, 1)
            expected = frozenset(range(1, corner + 1)) - set(mu.conjugate().beta_set())
            got = bijection.complement_beta(mu)
            if got != expected:
                return params, cases, {
                    "mu": str(mu),
                    "complement": sorted(got),
                    "expected": sorted(expected),
                }
    return params, cases, None


def _check_prop42(b: SweepBounds):
    params = {"max_weight": b.max_weight}
    cases = 0
    for sc in _iter_sc(b.max_weight):
        if not sc:
            continue
        cases += 1
        mu = bijection.phi(sc).mu
        top = sc.diagonal_hooks()[0]
        expected = mu.conjugate().beta_set() if top % 4 == 1 else mu.beta_set()
        got = bijection.half_even_beta(sc)
        if got != expected:
            return params, cases, {
                "partition": str(sc),
                "half_even_beta": list(got),
                "expected": list(expected),
                "principal_hook_residue": top % 4,
            }
    return params, cases, None


def _check_thm44(b: SweepBounds):
    params = {"max_weight": b.max_weight}
    cases = 0
    for sc in _iter_sc(b.max_weight):
        cases += 1
        mu = bijection.phi(sc).mu
        sc_hooks = sc.hook_multiset()
        mu_hooks = mu.hook_multiset()
        evens = {h // 2: c for h, c in sc_hooks.items() if h % 2 == 0}
        doubled = {k: 2 * c for k, c in mu_hooks.items()}
        if evens != doubled:
            diff = sorted(set(evens) | set(doubled))
            k = next(x for x in diff if evens.get(x, 0) != doubled.get(x, 0))
            return params, cases, {
                "partition": str(sc),
                "mu": str(mu),
                "k": k,
                "even_hooks_at_2k": evens.get(k, 0),
                "twice_mu_hooks_at_k": doubled.get(k, 0),
            }
        odd_count = sum(c for h, c in sc_hooks.items() if h % 2)
        if odd_count != sc.weight - 2 * mu.weight:
            return params, cases, {
                "partition": str(sc),
                "odd_hooks": odd_count,
                "expected": sc.weight - 2 * mu.weight,
            }
    return params, cases, None


def _check_prop44(b: SweepBounds):
    params = {"max_weight": b.max_weight}
    cases = 0
    for sc in _iter_sc(b.max_weight):
        if not sc:
            continue
        cases += 1
        mu = bijection.phi(sc).mu
        top = sc.diagonal_hooks()[0]
        shortcut = bijection.corresponding_partition_after_deletion(mu, top % 4)
        direct = bijection.phi(bijection.delete_principal_hook(sc)).mu
        if shortcut != direct:
            return params, cases, {
                "partition": str(sc),
                "mu": str(mu),
                "after_deletion": str(shortcut),
                "expected": str(direct),
            }
    return params, cases, None


_CORE_EQUIV_MODULI = ((2,), (3,), (2, 3), (3, 4))


def _check_cor45(b: SweepBounds):
    params = {"max_weight": b.max_weight, "moduli": [list(ts) for ts in _CORE_EQUIV_MODULI]}
    cases = 0
    for sc in _iter_sc(b.max_weight):
        mu = bijection.phi(sc).mu
        for ts in _CORE_EQUIV_MODULI:
            cases += 1
            lhs = sc.is_simultaneous_core([2 * t for t in ts])
            rhs = mu.is_simultaneous_core(ts)
            if lhs != rhs:
                return params, cases, {
                    "partition": str(sc),
                    "mu": str(mu),
                    "moduli": list(ts),
                    "sc_is_doubled_core": lhs,
                    "mu_is_core": rhs,
                }
    return params, cases, None


_SIM_PAIRS = ((4, 6), (6, 8))


def _check_prop46(b: SweepBounds):
    max_class = min(b.max_class, 3)
    params = {"pairs": [list(p) for p in _SIM_PAIRS], "max_class": max_class, "max_weight": b.max_weight}
    cases = 0
    for moduli in _SIM_PAIRS:
        halves = tuple(t // 2 for t in moduli)
        for m in range(max_class + 1):
            table = enumeration.count_sc_sim_core_m(moduli, m, b.max_weight)
            for n in range(b.max_weight + 1):
                cases += 1
                shift = n - _triangular(m)
                if shift >= 0 and shift % 4 == 0:
                    k = shift // 4
                    expected = sum(
                        1
                        for p in enumeration.partitions_of(k)
                        if p.is_simultaneous_core(halves)
                    )
                else:
                    expected = 0
                if table.rows[n] != expected:
                    return params, cases, {
                        "ts": list(moduli),
                        "m": m,
                        "n": n,
                        "count": table.rows[n],
                        "expected": expected,
                    }
    return params, cases, None


def _sc_sim_core_total(moduli: tuple[int, ...], m: int) -> int:
    halves = tuple(t // 2 for t in moduli)
    bound = 4 * enumeration.sufficient_core_bound(halves) + _triangular(m)
    total = 0
    for sc in _iter_sc(bound):
        if bijection.classify(sc) == m and sc.is_simultaneous_core(moduli):
            total += 1
    return total


def _check_cor48(b: SweepBounds):
    max_class = min(b.max_class, 3)
    params = {"n_range": [1, 4], "max_class": max_class}
    cases = 0
    for n in range(1, 5):
        for m in range(max_class + 1):
            cases += 1
            got = _sc_sim_core_total((2 * n, 2 * n + 2), m)
            want = enumeration.catalan(n)
            if got != want:
                return params, cases, {
                    "ts": [2 * n, 2 * n + 2],
                    "m": m,
                    "total": got,
                    "expected": want,
                }
            cases += 1
            got = _sc_sim_core_total((2 * n, 2 * n + 2, 2 * n + 4), m)
            want = enumeration.motzkin(n)
            if got != want:
                return params, cases, {
                    "ts": [2 * n, 2 * n + 2, 2 * n + 4],
                    "m": m,
                    "total": got,
                    "expected": want,
                }
    return params, cases, None


def _series_mismatch(tag: dict, enumerated: series.TruncatedSeries, product: series.TruncatedSeries):
    outcome = series.check_identity(enumerated, product)
    if outcome.equal:
        return None
    payload = dict(tag)
    payload.update(
        {
            "exponent": outcome.first_mismatch,
            "enumerated": outcome.lhs_coefficient,
            "product": outcome.rhs_coefficient,
        }
    )
    return payload


_CORE_GF_MODULI = (2, 3, 5)


def _check_eq11(b: SweepBounds):
    params = {"moduli": list(_CORE_GF_MODULI), "order": b.order}
    tables = enumeration.core_count_tables(_CORE_GF_MODULI, b.order)
    cases = 0
    for t in _CORE_GF_MODULI:
        cases += b.order + 1
        bad = _series_mismatch(
            {"t": t},
            series.series_from_counts(tables[t], 1, b.order),
            series.core_product_series(t, b.order),
        )
        if bad:
            return params, cases, bad
    return params, cases, None


_SC_GF_MODULI = (1, 2, 3)


def _check_eq12(b: SweepBounds):
    params = {"moduli": list(_SC_GF_MODULI), "order": b.order}
    cases = 0
    for t in _SC_GF_MODULI:
        cases += b.order + 1
        table = enumeration.sc_core_count_table(2 * t, b.order)
        bad = _series_mismatch(
            {"t": t},
            series.series_from_counts(table, 1, b.order),
            series.sc_even_core_product_series(t, b.order),
        )
        if bad:
            return params, cases, bad
    return params, cases, None


def _check_gauss(b: SweepBounds):
    params = {"order": b.order}
    outcome = series.check_identity(
        series.triangular_series(b.order), series.gauss_product_series(b.order)
    )
    if outcome.equal:
        return params, b.order + 1, None
    return params, b.order + 1, {
        "exponent": outcome.first_mismatch,
        "triangular": outcome.lhs_coefficient,
        "product": outcome.rhs_coefficient,
    }


def _check_cor12(b: SweepBounds):
    params = {"order": b.order}
    lhs = series.series_from_counts(enumeration.sc_count_table(b.order), 1, b.order)
    rhs = series.series_from_counts(
        enumeration.partition_count_table(b.order // 4), 4, b.order
    ) * series.triangular_series(b.order)
    return params, b.order + 1, _series_mismatch({}, lhs, rhs)


_FACTOR_MODULI = (2, 3)


def _check_cor15(b: SweepBounds):
    params = {"moduli": list(_FACTOR_MODULI), "order": b.order}
    cases = 0
    for t in _FACTOR_MODULI:
        cases += b.order + 1
        lhs = series.series_from_counts(
            enumeration.sc_core_count_table(2 * t, b.order), 1, b.order
        )
        rhs = series.series_from_counts(
            enumeration.core_count_table(t, b.order // 4), 4, b.order
        ) * series.triangular_series(b.order)
        bad = _series_mismatch({"t": t}, lhs, rhs)
        if bad:
            return params, cases, bad
    return params, cases, None


_FACTOR_PAIRS = ((2, 3), (3, 4))


def _check_thm14(b: SweepBounds):
    params = {"pairs": [list(p) for p in _FACTOR_PAIRS], "order": b.order}
    cases = 0
    for t1, t2 in _FACTOR_PAIRS:
        cases += b.order + 1
        lhs = series.series_from_counts(
            enumeration.sc_sim_core_count_table((2 * t1, 2 * t2), b.order), 1, b.order
        )
        rhs = series.series_from_counts(
            enumeration.sim_core_count_table((t1, t2), b.order // 4), 4, b.order
        ) * series.triangular_series(b.order)
        bad = _series_mismatch({"ts": [t1, t2]}, lhs, rhs)
        if bad:
            return params, cases, bad
    return params, cases, None


def _check_ringlaws(b: SweepBounds):
    order = min(b.order, 24)
    trials = 25
    params = {"order": order, "trials": trials, "seed": b.seed}
    rng = random.Random(b.seed)

    def rand_series():
        return series.TruncatedSeries(
            [rng.randint(-9, 9) for _ in range(order + 1)], order
        )

    cases = 0
    for _ in range(trials):
        x, y, z = rand_series(), rand_series(), rand_series()
        checks = (
            ("commutativity", x * y == y * x),
            ("associativity", (x * y) * z == x * (y * z)),
            ("distributivity", x * (y + z) == x * y + x * z),
        )
        for law, holds in checks:
            cases += 1
            if not holds:
                return params, cases, {
                    "law": law,
                    "x": list(x.coeffs),
                    "y": list(y.coeffs),
                    "z": list(z.coeffs),
                }
    return params, cases, None


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
