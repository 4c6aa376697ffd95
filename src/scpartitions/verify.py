"""Exhaustive verification sweeps over the library's counting identities.

Each registered check sweeps a bounded input range, stops at the first
counterexample, and reports the swept parameters so a failure can be
replayed through the library directly. All comparisons are exact.

Seven checks are laws about one self-conjugate partition and its image
under phi: rows (_Law) of one shared walk over those partitions (_walk).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import bijection, enumeration, series
from .partitions import Partition, beta_from_diagonal

__all__ = ["SweepBounds", "VerificationReport", "CHECKS", "all_ids", "run_check", "run_checks"]


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


class _Law(NamedTuple):
    """A per-partition law, one row of the walk (see _walk).

    law(sc, image) runs on every self-conjugate partition sc of weight
    min_weight..max_weight, with image = phi(sc) when reads_image and None
    otherwise. It returns None when sc holds, else the counterexample
    payload; a law with per_case > 1 checks that many cases per partition
    and returns (cases run, the failing one included; payload). after(b),
    when given, is a phase (cases, law) run once the walk has passed.
    params(b) gives the report's params.
    """

    law: Callable
    reads_image: bool
    params: Callable = lambda b: {"max_weight": b.max_weight}
    min_weight: int = 0
    per_case: int = 1
    after: Callable | None = None


def _lem22(sc, image):
    # Direct: the built partition's first column. Derived: from its hooks alone.
    hooks = sc.diagonal_hooks()
    direct = sc.beta_set()
    derived = beta_from_diagonal(hooks)
    if direct != derived:
        return {
            "diagonal": ",".join(map(str, hooks)),
            "beta_direct": list(direct),
            "beta_derived": list(derived),
        }


def _prop23(sc, image):
    m = bijection.classify(sc)
    dp = sc.disparity()
    if dp != _triangular(m):
        return {"partition": str(sc), "class": m, "disparity": dp, "expected": _triangular(m)}


def _thm31(sc, image):
    m, mu = image
    if sc.weight != 4 * mu.weight + _triangular(m):
        reason = "weight law"
    elif bijection.psi(m, mu) != sc:
        reason = "psi(phi) round trip"
    else:
        return None
    return {"partition": str(sc), "class": m, "mu": str(mu), "reason": reason}


def _thm31_params(b: SweepBounds) -> dict:
    return {"max_weight": b.max_weight, "max_mu_weight": b.max_mu_weight, "max_class": b.max_class}


def _thm31_mu_side(b: SweepBounds):
    def law(case):
        mu, m = case
        # psi's output carries the hooks psi chose; phi must read them back
        # from its parts, so a fresh Partition derives them.
        image = bijection.phi(Partition(bijection.psi(m, mu).parts))
        if image.m != m or image.mu != mu:
            return {"mu": str(mu), "class": m, "reason": "phi(psi) round trip"}

    images = (
        (mu, m)
        for w in range(b.max_mu_weight + 1)
        for mu in enumeration.partitions_of(w)
        for m in range(b.max_class + 1)
    )
    return images, law


def _prop42(sc, image):
    mu = image.mu
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


def _thm44(sc, image):
    mu = image.mu
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


def _prop44(sc, image):
    mu = image.mu
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


_CORE_EQUIV_MODULI = ((2,), (3,), (2, 3), (3, 4))
_DOUBLED_MODULI = tuple((ts, tuple(2 * t for t in ts)) for ts in _CORE_EQUIV_MODULI)


def _cor45_params(b: SweepBounds) -> dict:
    return {"max_weight": b.max_weight, "moduli": [list(ts) for ts in _CORE_EQUIV_MODULI]}


def _cor45(sc, image):
    mu = image.mu
    for k, (ts, doubled) in enumerate(_DOUBLED_MODULI, start=1):
        lhs = sc.is_simultaneous_core(doubled)
        rhs = mu.is_simultaneous_core(ts)
        if lhs != rhs:
            return k, {
                "partition": str(sc),
                "mu": str(mu),
                "moduli": list(ts),
                "sc_is_doubled_core": lhs,
                "mu_is_core": rhs,
            }


def _check_prop34(b: SweepBounds):
    params = {"max_k": 8, "max_class": b.max_class, "max_weight": b.max_weight}
    classes = range(b.max_class + 1)
    # The cases read weights up to 4 * 8 + T(max_class); each surplus is one class.
    top = max(b.max_weight, 32 + _triangular(b.max_class))
    by_class = {
        bijection._class_index(s): row for s, row in enumeration.sc_surplus_table(top).items()
    }

    def law(case):
        n, m, expected = case
        got = by_class[m][n]
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
        expected = frozenset(range(1, corner + 1)).difference(mu.conjugate().beta_set())
        got = bijection.complement_beta(mu)
        if got != expected:
            return {"mu": str(mu), "complement": sorted(got), "expected": sorted(expected)}

    images = (mu for w in range(1, cap + 1) for mu in enumeration.partitions_of(w))
    return _first_counterexample({"max_mu_weight": cap}, (images, law))


_SIM_PAIRS = ((4, 6), (6, 8))


def _class_rows(moduli, max_n: int) -> dict:
    """Per-class rows of the self-conjugate moduli-cores, from one search."""
    return enumeration.tabulate(enumeration.add_hook, moduli, max_n, key=enumeration.bead_class)


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
            by_class = _class_rows(moduli, b.max_weight)
            for m in range(max_class + 1):
                for n, count in enumerate(by_class.get(m, (0,) * (b.max_weight + 1))):
                    yield moduli, m, n, count, ordinary

    return _first_counterexample(params, (counts(), law))


def _check_cor48(b: SweepBounds):
    max_class = min(b.max_class, 3)

    def law(case):
        ts, m, total, expected = case
        if total != expected:
            return {"ts": list(ts), "m": m, "total": total, "expected": expected}

    def cases():
        # One search per set reaches 4 * bound + m(m+1)/2, the limit of every
        # class m <= max_class; each class is summed to its own limit.
        for n in range(1, 5):
            for ts, closed_form in (
                ((2 * n, 2 * n + 2), enumeration.catalan),
                ((2 * n, 2 * n + 2, 2 * n + 4), enumeration.motzkin),
            ):
                bound = 4 * enumeration.sufficient_core_bound([t // 2 for t in ts])
                by_class = _class_rows(ts, bound + _triangular(max_class))
                for m in range(max_class + 1):
                    total = sum(by_class.get(m, ())[: bound + _triangular(m) + 1])
                    yield ts, m, total, closed_form(n)

    return _first_counterexample({"n_range": [1, 4], "max_class": max_class}, (cases(), law))


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
    tables = {t: enumeration.core_count_table(t, b.order) for t in _CORE_GF_MODULI}
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
    "lem2.2": ("first-column hook set rebuilt from diagonal hooks", _Law(_lem22, False)),
    "prop2.3": ("disparity equals the class triangular number", _Law(_prop23, False)),
    "thm3.1": (
        "class-m correspondence round trips both ways",
        _Law(_thm31, True, _thm31_params, after=_thm31_mu_side),
    ),
    "prop3.4": ("class-m self-conjugate counts reduce to p(k)", _check_prop34),
    "lem4.1": ("corner-hook differences complement the first-row hooks", _check_lem41),
    "prop4.2": (
        "half-even first-column hooks match the image partition",
        _Law(_prop42, True, min_weight=1),
    ),
    "thm4.4": (
        "even hooks 2k appear twice as often as image hooks k", _Law(_thm44, True)
    ),
    "prop4.4": (
        "principal-hook deletion commutes with the correspondence",
        _Law(_prop44, True, min_weight=1),
    ),
    "cor4.5": (
        "doubled-modulus cores correspond to cores of the image",
        _Law(_cor45, True, _cor45_params, per_case=4),
    ),
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


def _report(theorem: str, params: dict, cases: int, counterexample, seconds: float):
    passed = counterexample is None and cases > 0
    return VerificationReport(theorem, passed, params, cases, counterexample, seconds * 1000.0)


def _walk(rows: dict, b: SweepBounds) -> dict:
    """One walk over the self-conjugate partitions for the rows {theorem: _Law}.

    Weights go up from 0 to b.max_weight. Each partition is built once and
    mapped by phi at most once, and only while a live row reads the image.
    A row retires at its first counterexample, and no partition is built
    once every row has. A row's time is the walk's until it retired or
    ended, plus its own after phase; no clock is read per partition.
    Returns {theorem: report}.
    """
    cases, found, spent = dict.fromkeys(rows, 0), {}, {}
    clock, phi = time.perf_counter, bijection.phi
    start = clock()

    def retire(t, payload):
        if rows[t].per_case > 1:
            # The law names how many of its cases ran on the failing partition.
            ran, payload = payload
            cases[t] += ran - rows[t].per_case
        found[t], spent[t] = payload, clock() - start

    def live_at(n):
        # The rows live at weight n, whether one reads the image, and how many have retired.
        live = [(t, law.law, law.per_case) for t, law in rows.items()
                if t not in found and law.min_weight <= n]
        return live, any(rows[t].reads_image for t, _, _ in live), len(found)

    for n in range(b.max_weight + 1):
        live, reads_image, retired = live_at(n)
        for sc in enumeration.self_conjugate_of(n) if live else ():
            image = phi(sc) if reads_image else None
            for t, law, per_case in live:
                cases[t] += per_case
                payload = law(sc, image)
                if payload is not None:
                    retire(t, payload)
            if len(found) != retired:
                # The rest of the weight goes on without the retired rows.
                live, reads_image, retired = live_at(n)
                if not live:
                    break
    end = clock()
    for t, law in rows.items():
        if t not in found:
            mark = clock()
            if law.after is not None:
                _, ran, found[t] = _first_counterexample(None, law.after(b))
                cases[t] += ran
            spent[t] = end - start + clock() - mark
    return {t: _report(t, law.params(b), cases[t], found.get(t), spent[t])
            for t, law in rows.items()}


def _law_rows(theorems) -> dict:
    """{theorem: _Law} for the per-partition laws among theorems, the rows
    of the walk; raises KeyError for an unknown id."""
    for theorem in theorems:
        if theorem not in CHECKS:
            raise KeyError(f"unknown check id: {theorem!r}")
    return {t: CHECKS[t][1] for t in theorems if isinstance(CHECKS[t][1], _Law)}


def run_check(theorem: str, **overrides) -> VerificationReport:
    """Run one registered check, a per-partition law as a walk with one
    row; raises KeyError for an unknown id."""
    rows = _law_rows([theorem])
    bounds = SweepBounds(**overrides)
    if rows:
        return _walk(rows, bounds)[theorem]
    start = time.perf_counter()
    params, cases, counterexample = CHECKS[theorem][1](bounds)
    return _report(theorem, params, cases, counterexample, time.perf_counter() - start)


def run_checks(theorems: list[str], **overrides) -> list[VerificationReport]:
    """Run registered checks and return their reports in the order given.

    The per-partition laws among them share one walk (_walk), run first;
    every other check then runs through run_check, one by one in the order
    given, so each stays a separately timed call. Raises KeyError for an
    unknown id before any check runs.
    """
    walked = _walk(_law_rows(theorems), SweepBounds(**overrides))
    return [walked[t] if t in walked else run_check(t, **overrides) for t in theorems]
