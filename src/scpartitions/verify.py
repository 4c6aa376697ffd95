"""Exhaustive verification sweeps over the library's counting identities.

Each registered check sweeps a bounded input range, stops at the first
counterexample, and reports the swept parameters so a failure can be
replayed through the library directly. All comparisons are exact.

Eight checks are laws about one partition: rows (_Law) of two walks
(_walk), one over the self-conjugate partitions and their images under
phi, one over all partitions. thm3.1 has a row in each. A walk runs
law-major over chunks of each weight's partitions, so each row reports
its own law time. The six series identities are rows (_Series) of one
table (_SERIES); a row's sides look their builders up when they run.
"""

from __future__ import annotations

import random
import time
from copy import deepcopy
from itertools import chain, islice, repeat
from typing import Callable, NamedTuple

from . import bijection, enumeration, series
from .partitions import Partition, beta_from_diagonal

__all__ = ["SweepBounds", "VerificationReport", "CHECKS", "all_ids", "run_check", "run_checks"]


class _Bounds(NamedTuple):
    max_weight: int = 40
    order: int = 40
    max_mu_weight: int = 12
    max_class: int = 6
    seed: int = 0


class SweepBounds(_Bounds):
    """Bounds shared by the sweeps; each check uses the ones it needs."""

    # A NamedTuple body may not define __new__, so the check sits in this subclass.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_weight", "order", "max_mu_weight", "max_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        return self


class VerificationReport(NamedTuple):
    theorem: str
    passed: bool
    params: dict
    cases: int
    counterexample: dict | None
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "elapsed_ms": round(self.elapsed_ms, 3)}

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{self.theorem}: {verdict}  ({self.cases} cases, {self.elapsed_ms:.1f} ms)"
        if self.counterexample is not None:
            line += f"  counterexample: {self.counterexample}"
        return line


def _triangular(m: int) -> int:
    return m * (m + 1) // 2


def _first_counterexample(params: dict, items, law, per_case: int = 1):
    """Run law over the cases in items in order and stop at the first counterexample.

    law(case) returns a counterexample payload, or None when the case
    holds. Every case run counts per_case cases, the failing one included.
    Returns (params, cases, payload).
    """
    cases = 0
    for case in items:
        cases += per_case
        payload = law(case)
        if payload is not None:
            return params, cases, payload
    return params, cases, None


class _Law(NamedTuple):
    """A per-partition law, one row of a walk (see _walk).

    over names the walk: "sc" for the self-conjugate partitions, "p" for
    all partitions. law(x, image, b) runs on every partition x of each
    weight in weights(b), with image = phi(x) when reads_image (an "sc"
    row) and None otherwise. It returns None when its cases on x hold, of
    which there are cases(b), else (cases run, the failing one included;
    payload). params(b) gives the report's params.
    """

    law: Callable
    over: str
    reads_image: bool = False
    params: Callable = lambda b: {"max_weight": b.max_weight}
    weights: Callable = lambda b: range(b.max_weight + 1)
    cases: Callable = lambda b: 1


def _lem22(sc, image, b):
    # Direct: the built partition's first column. Derived: from its hooks alone.
    hooks = sc.diagonal_hooks()
    direct = sc.beta_set()
    derived = beta_from_diagonal(hooks)
    if direct != derived:
        return 1, {
            "diagonal": ",".join(map(str, hooks)),
            "beta_direct": list(direct),
            "beta_derived": list(derived),
        }


def _prop23(sc, image, b):
    m = bijection.classify(sc)
    dp = sc.disparity()
    if dp != _triangular(m):
        return 1, {"partition": str(sc), "class": m, "disparity": dp, "expected": _triangular(m)}


def _thm31(sc, image, b):
    m, mu = image
    if sc.weight != 4 * mu.weight + _triangular(m):
        reason = "weight law"
    elif bijection.psi(m, mu) != sc:
        reason = "psi(phi) round trip"
    else:
        return None
    return 1, {"partition": str(sc), "class": m, "mu": str(mu), "reason": reason}


def _thm31_params(b: SweepBounds) -> dict:
    return {"max_weight": b.max_weight, "max_mu_weight": b.max_mu_weight, "max_class": b.max_class}


def _thm31_mu(mu, image, b):
    for m in range(b.max_class + 1):
        # psi's output carries the hooks psi chose; phi must read them back
        # from its parts, so a fresh Partition derives them.
        back = bijection.phi(Partition(bijection.psi(m, mu).parts))
        if back.m != m or back.mu != mu:
            return m + 1, {"mu": str(mu), "class": m, "reason": "phi(psi) round trip"}


def _prop42(sc, image, b):
    mu = image.mu
    top = sc.diagonal_hooks()[0]
    expected = mu.conjugate().beta_set() if top % 4 == 1 else mu.beta_set()
    got = bijection.half_even_beta(sc)
    if got != expected:
        return 1, {
            "partition": str(sc),
            "half_even_beta": list(got),
            "expected": list(expected),
            "principal_hook_residue": top % 4,
        }


def _thm44(sc, image, b):
    mu = image.mu
    sc_hooks = sc.hook_multiset()
    # Entry k: the hooks of length 2k of sc, and twice those of length k of mu.
    evens = sc_hooks[::2]
    doubled = tuple(map((2).__mul__, mu.hook_multiset()))
    doubled += (0,) * (len(evens) - len(doubled))
    if evens != doubled:
        evens += (0,) * (len(doubled) - len(evens))
        k = next(k for k in range(len(evens)) if evens[k] != doubled[k])
        return 1, {
            "partition": str(sc),
            "mu": str(mu),
            "k": k,
            "even_hooks_at_2k": evens[k],
            "twice_mu_hooks_at_k": doubled[k],
        }
    odd_count = sum(sc_hooks[1::2])
    if odd_count != sc.weight - 2 * mu.weight:
        return 1, {
            "partition": str(sc),
            "odd_hooks": odd_count,
            "expected": sc.weight - 2 * mu.weight,
        }


def _prop44(sc, image, b):
    mu = image.mu
    top = sc.diagonal_hooks()[0]
    shortcut = bijection.corresponding_partition_after_deletion(mu, top % 4)
    direct = bijection.phi(bijection.delete_principal_hook(sc)).mu
    if shortcut != direct:
        return 1, {
            "partition": str(sc),
            "mu": str(mu),
            "after_deletion": str(shortcut),
            "expected": str(direct),
        }


_CORE_EQUIV_MODULI = ((2,), (3,), (2, 3), (3, 4))
_DOUBLED_MODULI = tuple((ts, tuple(2 * t for t in ts)) for ts in _CORE_EQUIV_MODULI)


def _cor45_params(b: SweepBounds) -> dict:
    return {"max_weight": b.max_weight, "moduli": [list(ts) for ts in _CORE_EQUIV_MODULI]}


def _cor45(sc, image, b):
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
    return _first_counterexample(params, chain(on_congruence, off_congruence), law)


# lem4.1 walks the partitions up to this weight. The corner hook h(1,1) is
# at most the weight, so _INTERVALS[corner] = {1, ..., corner} covers the walk.
_LEM41_WEIGHT = 25
_INTERVALS = tuple(frozenset(range(1, c + 1)) for c in range(_LEM41_WEIGHT + 1))


def _lem41(mu, image, b):
    corner = mu.parts[0] + len(mu) - 1
    expected = _INTERVALS[corner].difference(mu.conjugate().beta_set())
    got = bijection.complement_beta(mu)
    if got != expected:
        return 1, {"mu": str(mu), "complement": sorted(got), "expected": sorted(expected)}


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
            ordinary = enumeration.sim_core_count_table(halves, b.max_weight // 4)
            by_class = enumeration.tabulate(
                enumeration.add_hook, moduli, b.max_weight, key=enumeration.bead_class
            )
            for m in range(max_class + 1):
                for n, count in enumerate(by_class.get(m, (0,) * (b.max_weight + 1))):
                    yield moduli, m, n, count, ordinary

    return _first_counterexample(params, counts(), law)


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
                by_class = enumeration.tabulate(
                    enumeration.add_hook, ts, bound + _triangular(max_class),
                    key=enumeration.bead_class,
                )
                for m in range(max_class + 1):
                    total = sum(by_class.get(m, ())[: bound + _triangular(m) + 1])
                    yield ts, m, total, closed_form(n)

    return _first_counterexample({"n_range": [1, 4], "max_class": max_class}, cases(), law)


class _Series(NamedTuple):
    """One row of _SERIES: left(x, order) == right(x, order) for each x of the
    moduli in over ({params key: moduli}, or {} for one case, x = None), order
    + 1 cases each. A mismatch reports x under its tag (_TAGS) in the payload."""

    description: str
    over: dict
    left: Callable
    right: Callable
    lhs_key: str = "enumerated"

    def check(self, b: SweepBounds):
        def law(x):
            outcome = series.check_identity(self.left(x, b.order), self.right(x, b.order))
            if not outcome.equal:
                tag = {_TAGS[key]: deepcopy(x) for key in self.over}
                # outcome[1:] is (first_mismatch, lhs_coefficient, rhs_coefficient).
                return {**tag, **dict(zip(("exponent", self.lhs_key, "product"), outcome[1:]))}

        params = deepcopy({**self.over, "order": b.order})
        xs = next(iter(self.over.values()), [None])
        return _first_counterexample(params, xs, law, per_case=b.order + 1)


def _quadrupled(counts, order: int):
    return series.series_from_counts(counts, 4, order) * series.triangular_series(order)


_TAGS = {"moduli": "t", "pairs": "ts"}
_SERIES = {
    "eq1.1": _Series(
        "t-core counting series equals its product expansion", {"moduli": [2, 3, 5]},
        lambda t, n: series.series_from_counts(enumeration.sim_core_count_table((t,), n), 1, n),
        lambda t, n: series.core_product_series(t, n),
    ),
    "eq1.2": _Series(
        "self-conjugate even-core series equals its product expansion", {"moduli": [1, 2, 3]},
        lambda t, n: series.series_from_counts(enumeration.sc_sim_core_count_table((2 * t,), n), 1, n),
        lambda t, n: series.sc_even_core_product_series(t, n),
    ),
    "gauss": _Series(
        "even/odd product expansion equals the triangular series", {},
        lambda _, n: series.triangular_series(n), lambda _, n: series.gauss_product_series(n),
        "triangular",
    ),
    "cor1.2": _Series(
        "self-conjugate counts factor through quadrupled partition counts", {},
        lambda _, n: series.series_from_counts(enumeration.sc_count_table(n), 1, n),
        lambda _, n: _quadrupled(enumeration.partition_count_table(n // 4), n),
    ),
    "thm1.4": _Series(
        "self-conjugate simultaneous-core series factorization", {"pairs": [[2, 3], [3, 4]]},
        lambda ts, n: series.series_from_counts(
            enumeration.sc_sim_core_count_table([2 * t for t in ts], n), 1, n
        ),
        lambda ts, n: _quadrupled(enumeration.sim_core_count_table(ts, n // 4), n),
    ),
    "cor1.5": _Series(
        "self-conjugate 2t-core series factorization", {"moduli": [2, 3]},
        lambda t, n: series.series_from_counts(enumeration.sc_sim_core_count_table((2 * t,), n), 1, n),
        lambda t, n: _quadrupled(enumeration.sim_core_count_table((t,), n // 4), n),
    ),
}


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
    return _first_counterexample(params, cases, law)


# A check is a function of the bounds returning (params, cases, counterexample),
# or a tuple of per-partition rows (_Law), at most one per walk, in walk order.
CHECKS = {
    "lem2.2": ("first-column hook set rebuilt from diagonal hooks", (_Law(_lem22, "sc"),)),
    "prop2.3": ("disparity equals the class triangular number", (_Law(_prop23, "sc"),)),
    "thm3.1": (
        "class-m correspondence round trips both ways",
        (
            _Law(_thm31, "sc", True, _thm31_params),
            _Law(
                _thm31_mu, "p",
                weights=lambda b: range(b.max_mu_weight + 1), cases=lambda b: b.max_class + 1,
            ),
        ),
    ),
    "prop3.4": ("class-m self-conjugate counts reduce to p(k)", _check_prop34),
    "lem4.1": (
        "corner-hook differences complement the first-row hooks",
        (
            _Law(
                _lem41, "p",
                params=lambda b: {"max_mu_weight": min(b.max_weight, _LEM41_WEIGHT)},
                weights=lambda b: range(1, min(b.max_weight, _LEM41_WEIGHT) + 1),
            ),
        ),
    ),
    "prop4.2": (
        "half-even first-column hooks match the image partition",
        (_Law(_prop42, "sc", True, weights=lambda b: range(1, b.max_weight + 1)),),
    ),
    "thm4.4": (
        "even hooks 2k appear twice as often as image hooks k", (_Law(_thm44, "sc", True),)
    ),
    "prop4.4": (
        "principal-hook deletion commutes with the correspondence",
        (_Law(_prop44, "sc", True, weights=lambda b: range(1, b.max_weight + 1)),),
    ),
    "cor4.5": (
        "doubled-modulus cores correspond to cores of the image",
        (_Law(_cor45, "sc", True, _cor45_params, cases=lambda b: 4),),
    ),
    "prop4.6": ("class-m simultaneous-core counts reduce to ordinary ones", _check_prop46),
    "cor4.8": ("Catalan/Motzkin totals for consecutive even moduli", _check_cor48),
    **{t: (row.description, row.check) for t, row in _SERIES.items()},
    "ringlaws": ("randomized series ring laws", _check_ringlaws),
}


def all_ids() -> list[str]:
    return list(CHECKS)


def _report(theorem: str, params: dict, cases: int, counterexample, seconds: float):
    passed = counterexample is None and cases > 0
    return VerificationReport(theorem, passed, params, cases, counterexample, seconds * 1000.0)


# Partitions drawn from one weight at a time; each live row runs over the
# whole chunk before the next is drawn, so the walk holds at most this many.
_CHUNK = 64


def _walk(checks: dict, b: SweepBounds) -> dict:
    """Run the walked checks {theorem: rows}; returns {theorem: report}.

    The walk over the self-conjugate partitions runs first, then the walk
    over all partitions, each up the weights its rows are live at. A
    check's row in the second walk runs only if its first row passed.
    Each weight's partitions are drawn lazily, _CHUNK at a time; a chunk
    is mapped by phi once, and only while a live row reads the image, and
    then each live row runs its law over the whole chunk, so every row
    sees the partitions in the walk's order. A row retires at its first
    counterexample, and no chunk is drawn once every row has. A row's time
    is its own law time, read twice per chunk; enumeration and phi are
    in no row's time. A report sums its rows' cases and times and takes
    the first row's params.
    """
    cases, found, spent = dict.fromkeys(checks, 0), {}, dict.fromkeys(checks, 0.0)
    clock = time.perf_counter
    walks = (
        ("sc", enumeration.self_conjugate_of, bijection.phi),
        ("p", enumeration.partitions_of, None),
    )
    for over, partitions, phi in walks:
        # A check that failed in the first walk has no live row in the second.
        rows = [(t, row, row.weights(b), row.cases(b))
                for t, check in checks.items() if t not in found
                for row in check if row.over == over]
        for n in sorted(set().union(*(weights for _, _, weights, _ in rows))):
            live = [r for r in rows if r[0] not in found and n in r[2]]
            stream = partitions(n) if live else ()
            while live and (chunk := list(islice(stream, _CHUNK))):
                reads_image = any(row.reads_image for _, row, _, _ in live)
                images = list(map(phi, chunk)) if reads_image else repeat(None)
                for t, row, _, per_case in live:
                    start = clock()
                    for i, failed in enumerate(map(row.law, chunk, images, repeat(b))):
                        if failed is not None:
                            ran, found[t] = failed
                            cases[t] += i * per_case + ran
                            break
                    else:
                        cases[t] += len(chunk) * per_case
                    spent[t] += clock() - start
                live = [r for r in live if r[0] not in found]
    return {t: _report(t, check[0].params(b), cases[t], found.get(t), spent[t])
            for t, check in checks.items()}


def run_check(theorem: str, **overrides) -> VerificationReport:
    """Run one registered check, a walked one as a walk of its own rows;
    raises KeyError for an unknown id."""
    check = CHECKS[theorem][1]
    bounds = SweepBounds(**overrides)
    if isinstance(check, tuple):
        return _walk({theorem: check}, bounds)[theorem]
    start = time.perf_counter()
    params, cases, counterexample = check(bounds)
    return _report(theorem, params, cases, counterexample, time.perf_counter() - start)


def run_checks(theorems: list[str], **overrides) -> list[VerificationReport]:
    """Run registered checks and return their reports in the order given.

    The walked checks among them share the two walks (_walk), run first;
    every other check then runs through run_check, one by one in the order
    given, so each stays a separately timed call. Raises KeyError for an
    unknown id before any check runs.
    """
    checks = {t: CHECKS[t][1] for t in theorems}
    bounds = SweepBounds(**overrides)
    walked = _walk({t: c for t, c in checks.items() if isinstance(c, tuple)}, bounds)
    return [walked[t] if t in walked else run_check(t, **overrides) for t in theorems]
