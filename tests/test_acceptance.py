"""Acceptance gate: every criterion at its stated bound, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import time
from contextlib import contextmanager

from scpartitions import (
    Partition,
    add_hook,
    anderson_count,
    bead_class,
    catalan,
    check_identity,
    classify,
    cli,
    motzkin,
    partition_count,
    partition_count_table,
    partitions_of,
    phi,
    psi,
    sc_count_table,
    sc_even_core_product_series,
    sc_from_diagonal,
    sc_sim_core_count_table,
    self_conjugate_of,
    series_from_counts,
    sim_core_count_table,
    sufficient_core_bound,
    tabulate,
    core_product_series,
    gauss_product_series,
    triangular_series,
    wang_count,
)

from oracles import hook_table, hook_vector, hooks_by_formula


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def iter_sc(max_weight):
    for n in range(max_weight + 1):
        yield from self_conjugate_of(n)


MU = Partition([4, 3, 3, 2, 1, 1])


def test_01_golden_mapping_example():
    with criterion("1 golden mapping"):
        lam = sc_from_diagonal([21, 15, 13, 9, 3, 1])
        lam_t = sc_from_diagonal([31, 19, 11, 5])

        def pipeline():
            assert phi(lam) == (3, MU)
            assert phi(lam_t) == (4, MU)
            assert psi(3, MU) == lam
            assert psi(4, MU) == lam_t

        pipeline()  # warm-up, and the actual exactness check
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            pipeline()
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"steady-state mapping took {best * 1e3:.3f} ms"


def test_02_golden_hook_table():
    with criterion("2 golden hook table"):
        p = Partition([4, 4, 4, 3])
        table = hook_table(p.parts)
        assert table == ((7, 6, 5, 3), (6, 5, 4, 2), (5, 4, 3, 1), (3, 2, 1))
        assert p.hook_multiset() == hook_vector(hooks_by_formula(p.parts))


def test_03_bijection_round_trip():
    with criterion("3 bijection round trip"):
        start = time.perf_counter()
        for sc in iter_sc(60):
            m, mu = phi(sc)
            assert psi(m, mu) == sc
        for w in range(13):
            for mu in partitions_of(w):
                for m in range(7):
                    assert phi(psi(m, mu)) == (m, mu)
        assert time.perf_counter() - start < 10.0


def test_04_disparity_is_class_triangular():
    with criterion("4 disparity law"):
        for sc in iter_sc(60):
            m = classify(sc)
            assert sc.disparity() == m * (m + 1) // 2


def test_05_even_hook_doubling():
    with criterion("5 even-hook doubling"):
        for sc in iter_sc(60):
            mu = phi(sc).mu
            evens = {h // 2: c for h, c in enumerate(sc.hook_multiset()) if h % 2 == 0 and c}
            assert evens == {k: 2 * c for k, c in enumerate(mu.hook_multiset()) if c}
            odd = sc.weight - sum(evens.values())
            assert odd == sc.weight - 2 * mu.weight


def test_06_class_counts_reduce_to_partition_counts():
    with criterion("6 class counts"):
        # Every partition of weight <= 53 = 4 * 8 + 6 * 7 / 2 is a 54-core.
        rows = tabulate(add_hook, (54,), 53, key=bead_class)
        for m in range(7):
            tri = m * (m + 1) // 2
            for k in range(9):
                assert rows[m][4 * k + tri] == partition_count(k)
        for m in range(7):
            tri = m * (m + 1) // 2
            for n in range(41):
                if n >= tri and (n - tri) % 4 == 0:
                    continue
                assert rows[m][n] == 0


def test_07_pair_core_counts_and_catalan():
    with criterion("7 pair cores / Catalan"):
        for pair in ((2, 3), (3, 4), (4, 5), (3, 5), (5, 6)):
            bound = sufficient_core_bound(pair)
            total = sum(sim_core_count_table(pair, bound))
            assert total == anderson_count(*pair)
        for n, expected in ((1, 1), (2, 2), (3, 5), (4, 14)):
            assert catalan(n) == expected
            for m in range(4):
                bound = 4 * sufficient_core_bound((n, n + 1)) + m * (m + 1) // 2
                moduli = (2 * n, 2 * n + 2)
                total = sum(
                    1
                    for sc in iter_sc(bound)
                    if classify(sc) == m and sc.is_simultaneous_core(moduli)
                )
                assert total == expected, (n, m, total)


def test_08_triple_core_counts_and_motzkin():
    with criterion("8 triple cores / Motzkin"):
        for n, expected in ((1, 1), (2, 2), (3, 4), (4, 9), (5, 21)):
            assert motzkin(n) == expected
            ts = (n, n + 1, n + 2)
            bound = sufficient_core_bound(ts)
            total = sum(sim_core_count_table(ts, bound))
            assert total == expected
            assert wang_count(n, 1) == total
        for n, d in ((3, 1), (4, 1), (3, 2)):
            ts = (n, n + d, n + 2 * d)
            bound = sufficient_core_bound(ts)
            total = sum(sim_core_count_table(ts, bound))
            assert total == wang_count(n, d)


def test_09_series_identities_to_order_40():
    order = 40
    with criterion("9 series identities"):
        for t in (2, 3, 5):
            enum = series_from_counts(sim_core_count_table((t,), order), 1, order)
            assert check_identity(enum, core_product_series(t, order)).equal
        for t in (1, 2, 3):
            enum = series_from_counts(sc_sim_core_count_table((2 * t,), order), 1, order)
            assert check_identity(enum, sc_even_core_product_series(t, order)).equal
        assert gauss_product_series(order) == triangular_series(order)
        tri = triangular_series(order)
        sc_series = series_from_counts(sc_count_table(order), 1, order)
        p_stride = series_from_counts(partition_count_table(order // 4), 4, order)
        assert check_identity(sc_series, p_stride * tri).equal
        for t in (2, 3):
            lhs = series_from_counts(sc_sim_core_count_table((2 * t,), order), 1, order)
            rhs = series_from_counts(sim_core_count_table((t,), order // 4), 4, order) * tri
            assert check_identity(lhs, rhs).equal
        for t1, t2 in ((2, 3), (3, 4)):
            lhs = series_from_counts(
                sc_sim_core_count_table((2 * t1, 2 * t2), order), 1, order
            )
            rhs = series_from_counts(
                sim_core_count_table((t1, t2), order // 4), 4, order
            ) * tri
            assert check_identity(lhs, rhs).equal


def test_10_full_verify_suite_under_a_minute(capsys):
    with criterion("10 verify --all"):
        start = time.perf_counter()
        code = cli.main(["verify", "--all"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        assert elapsed < 60.0, f"verify --all took {elapsed:.1f}s"
