"""Tate-class dimensions: worked instances, the degree bound, the numeric
oracle, and the property suite."""

import random
from math import comb, gcd, lcm

import pytest
from mpmath import mp

from conftest import instance_suite, random_weil
from oracles import PrecisionInsufficientError, _classify_distance, tate_dim_numeric
from tatecycles import polycore
from tatecycles.polycore import (
    BudgetExceededError,
    IntPoly,
    cyclotomic,
    cyclotomic_multiplicity,
    euler_phi,
    factorization,
)
from tatecycles.tate import (
    D_REPORT_BUDGET,
    DISPLAY_N_CAP,
    N_REPORT_BUDGET,
    _cyclotomic_scan,
    _unity_ratio_multiplicities,
    _witness_table,
    degree_bound,
    stable_tate_dim,
    tate_dim,
    tate_profile,
    totient_bounded_set,
)
from tatecycles.weil import base_change, h_charpoly, product_variety, validate_weil, weil_from_trace


def _supersingular_exe(q=5):
    e = weil_from_trace(0, q)
    return product_variety(e, e)


def _ordinary_exe(a=3, q=5):
    e = weil_from_trace(a, q)
    return product_variety(e, e)


# ---------------------------------------------------------------------------
# worked instances

def test_tate_dim_supersingular_exe():
    w = _supersingular_exe()
    assert tate_dim(w, 1, 1) == 4
    # stable supersingular rank of E x E over the closure
    assert tate_dim(w, 1, 2) == 6


def test_tate_dim_determinant_class():
    w = weil_from_trace(3, 5)
    assert tate_dim(w, 1, 1) == 1
    for inst in instance_suite(10, seed=21):
        assert tate_dim(inst, inst.d, 1) >= 1


def test_tate_dim_rejects_bad_args():
    w = weil_from_trace(0, 5)
    with pytest.raises(ValueError):
        tate_dim(w, 2, 1)
    with pytest.raises(ValueError):
        tate_dim(w, 1, 0)


def test_stable_tate_dim_examples():
    assert stable_tate_dim(_supersingular_exe(), 1) == (6, 2)
    assert stable_tate_dim(_ordinary_exe(), 1) == (4, 1)
    assert stable_tate_dim(weil_from_trace(3, 5), 1) == (1, 1)


def test_stable_dim_attained_at_min_degree():
    for w in instance_suite(25, seed=22):
        for k in range(w.d + 1):
            stable, min_deg = stable_tate_dim(w, k)
            assert tate_dim(w, k, min_deg) == stable
            assert degree_bound(w.d, k) % min_deg == 0
            if min_deg <= 60:  # least degree attaining the stable dimension
                assert all(tate_dim(w, k, n) < stable for n in range(1, min_deg))


# ---------------------------------------------------------------------------
# degree bound

def test_totient_bounded_set_small():
    assert totient_bounded_set(1) == (1, 2)
    assert totient_bounded_set(2) == (1, 2, 3, 4, 6)
    assert lcm(*totient_bounded_set(2)) == 12


def test_degree_bound_examples():
    assert degree_bound(1, 1) == 2
    assert degree_bound(1, 0) == 2
    assert degree_bound(2, 1) == 2520


def _totient_table(limit):
    """phi(0..limit) by a sieve, independent of polycore.euler_phi."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for mult in range(p, limit + 1, p):
                phi[mult] -= phi[mult] // p
    return phi


def test_degree_bound_against_independent_totient_scan():
    # recompute {m : phi(m) <= 6} with a sieve-style totient table
    limit = 20000
    phi = _totient_table(limit)
    ms = [m for m in range(1, limit + 1) if phi[m] <= 6]
    assert ms == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18]
    assert lcm(*ms) == 2520
    assert totient_bounded_set(6) == tuple(ms)


def test_totient_bounded_set_against_scan_to_twice_bound_squared():
    # phi(m) >= sqrt(m/2) for every m, so the scan to 2*B^2 is exhaustive;
    # the library does not scan: it enumerates products of prime powers
    phi = _totient_table(2 * 100 * 100)
    for bound in range(1, 101):
        scan = tuple(m for m in range(1, 2 * bound * bound + 1) if phi[m] <= bound)
        assert totient_bounded_set(bound) == scan, bound


def test_totient_bounded_set_size_at_d6_middle_row():
    # binom(12, 6) = 924 bounds the H^6 ratio polynomial at d = 6
    assert len(totient_bounded_set(924)) == 1791


def test_degree_bound_feeds_no_factorization_cache():
    before = polycore._factorization.cache_info().currsize
    totient_bounded_set.cache_clear()
    degree_bound(6, 3)
    assert polycore._factorization.cache_info().currsize - before < 1000


# ---------------------------------------------------------------------------
# the cyclotomic scan: modular pre-test, then exact division

def _pocklington_prime(n, F):
    """n is prime if F | n - 1, F^2 > n and, for each prime r | F, some a has
    a^(n-1) = 1 and gcd(a^((n-1)/r) - 1, n) = 1 (Pocklington)."""
    assert (n - 1) % F == 0 and F * F > n
    for r, _ in factorization(F):
        assert any(
            pow(a, n - 1, n) == 1 and gcd(pow(a, (n - 1) // r, n) - 1, n) == 1 for a in range(2, 200)
        ), (n, r)
    return True


def test_witness_table_bound_252():
    table = _witness_table(252)
    assert [m for _, witnesses in table for m, _ in witnesses] == list(totient_bounded_set(252))
    for l, witnesses in table:
        L = lcm(*(m for m, _ in witnesses))
        assert L <= 2**40 and l > 2**61 and (l - 1) % L == 0
        # the part of l - 1 made of primes below 10^4 is a factored F > sqrt(l)
        F, cofactor = L, (l - 1) // L
        for p in range(2, 10**4):
            while cofactor % p == 0:
                cofactor //= p
                F *= p
        assert _pocklington_prime(l, F)
        for m, z in witnesses:
            assert pow(z, m, l) == 1
            assert all(pow(z, m // r, l) != 1 for r, _ in factorization(m))


def _unfiltered_scan(w, k):
    R = h_charpoly(w, 2 * k).poly.scale_variable(w.q**k)
    mults = ((m, cyclotomic_multiplicity(R, m)) for m in totient_bounded_set(R.degree))
    return tuple((m, e) for m, e in mults if e)


def test_scan_matches_unfiltered_division():
    for w in instance_suite(120, d_max=4, seed=24):
        for k in range(w.d + 1):
            assert _unity_ratio_multiplicities(w, k) == _unfiltered_scan(w, k), (w, k)


def test_scan_finds_factors_in_different_batches():
    # degree 70, so the witness table of bound 70 is the one used
    batch_of = {m: i for i, (_, witnesses) in enumerate(_witness_table(70)) for m, _ in witnesses}
    for m, m2 in ((7, 30), (12, 31), (2, 156), (36, 120), (45, 3), (1, 240)):
        assert batch_of[m] != batch_of[m2]
        f = cyclotomic(m) ** 2 * cyclotomic(m2)
        f = f * IntPoly([-2, 1]) ** (70 - f.degree)
        assert _cyclotomic_scan(f, 1) == tuple(sorted([(m, 2), (m2, 1)]))


# ---------------------------------------------------------------------------
# profiles

def test_tate_profile_supersingular_exe():
    profile = tate_profile(_supersingular_exe(), n_report=4)
    row0, row1, row2 = profile.rows
    assert row0.k == 0 and row0.stable_dim == 1
    assert all(dim == 1 for _, dim in row0.dims)
    assert row1.dims[:2] == ((1, 4), (2, 6))
    assert row1.stable_dim == 6 and row1.min_stable_degree == 2
    assert row1.degree_bound == 2520
    assert row2.k == 2 and row2.stable_dim >= 1


def test_tate_profile_dims_monotone_under_divisibility():
    for w in instance_suite(10, seed=23):
        profile = tate_profile(w, n_report=12)
        for row in profile.rows:
            dims = dict(row.dims)
            for n in dims:
                for m in dims:
                    if m % n == 0:
                        assert dims[n] <= dims[m]


def _instances_by_dimension(per_d, seed):
    rng = random.Random(seed)
    found = {d: [] for d in range(1, 5)}
    while any(len(ws) < per_d for ws in found.values()):
        w = random_weil(rng, d_max=4)
        if len(found[w.d]) < per_d:
            found[w.d].append(w)
    return [w for d in sorted(found) for w in found[d]]


def test_tate_profile_rows_match_per_degree_calls():
    # the one-pass rows against tate_dim for every n and stable_tate_dim;
    # n_report = (largest row degree bound) + 3 runs past every bound at
    # d = 1, 2, and is over N_REPORT_BUDGET at d = 3, 4
    for w in _instances_by_dimension(3, seed=41):
        bound = max(degree_bound(w.d, k) for k in range(w.d + 1))
        n_reports = [None, 1, 5000] + ([bound + 3] if bound + 3 <= N_REPORT_BUDGET else [])
        for n_report in n_reports:
            profile = tate_profile(w, n_report=n_report)
            assert (profile.q, profile.d) == (w.q, w.d)
            assert [row.k for row in profile.rows] == list(range(w.d + 1))
            for row in profile.rows:
                n_max = n_report or min(row.degree_bound, DISPLAY_N_CAP)
                assert row.dims == tuple((n, tate_dim(w, row.k, n)) for n in range(1, n_max + 1))
                assert (row.stable_dim, row.min_stable_degree) == stable_tate_dim(w, row.k)
                assert row.degree_bound == degree_bound(w.d, row.k)


def test_tate_profile_default_cap():
    profile = tate_profile(_supersingular_exe())
    assert len(profile.rows[1].dims) == 60  # degree bound 2520 capped for display
    assert len(profile.rows[0].dims) == 2   # degree bound 2 not capped


# ---------------------------------------------------------------------------
# numeric oracle

def test_numeric_oracle_supersingular():
    w = _supersingular_exe()
    assert tate_dim_numeric(w, 1, 1) == 4
    assert tate_dim_numeric(w, 1, 2) == 6


def test_numeric_oracle_determinant_class():
    assert tate_dim_numeric(weil_from_trace(0, 5), 1, 1) == 1


def test_numeric_oracle_agrees_on_random_elliptic_products():
    rng = random.Random(24)
    for _ in range(100):
        q = rng.choice([2, 3, 4, 5, 7, 9, 11, 13, 17, 25, 49, 97])
        e1 = weil_from_trace(rng.randint(-int((4 * q) ** 0.5), int((4 * q) ** 0.5)), q)
        e2 = weil_from_trace(rng.randint(-int((4 * q) ** 0.5), int((4 * q) ** 0.5)), q)
        w = product_variety(e1, e2)
        k = rng.randint(0, 2)
        n = rng.randint(1, 6)
        assert tate_dim_numeric(w, k, n) == tate_dim(w, k, n), (w, k, n)


def test_numeric_oracle_guard():
    # 9 elliptic factors give 2d = 18 > the enumeration guard
    w = weil_from_trace(0, 5)
    for _ in range(8):
        w = product_variety(w, weil_from_trace(0, 5))
    with pytest.raises(ValueError):
        tate_dim_numeric(w, 1, 1)


def test_numeric_classifier_ambiguity_band():
    with mp.workprec(100):
        thr = mp.mpf(2) ** -50
        band = mp.mpf(2) ** 25
        assert _classify_distance(mp.mpf(2) ** -90, thr, band) is True
        assert _classify_distance(mp.mpf(0.5), thr, band) is False
        with pytest.raises(PrecisionInsufficientError):
            _classify_distance(thr, thr, band)
        with pytest.raises(PrecisionInsufficientError):
            _classify_distance(thr * band, thr, band)


# ---------------------------------------------------------------------------
# property suite (smaller mirror of the acceptance run)

def test_divisibility_monotonicity():
    for w in instance_suite(25, seed=25):
        for k in range(w.d + 1):
            dims = {n: tate_dim(w, k, n) for n in range(1, 13)}
            for n in dims:
                for m in dims:
                    if m % n == 0:
                        assert dims[n] <= dims[m]


def test_strict_growth_possible():
    w = _supersingular_exe()
    assert tate_dim(w, 1, 1) < tate_dim(w, 1, 2)


def test_duality():
    for w in instance_suite(25, seed=26):
        for k in range(w.d + 1):
            for n in range(1, 7):
                assert tate_dim(w, k, n) == tate_dim(w, w.d - k, n)


def test_base_change_consistency():
    for w in instance_suite(20, seed=27):
        for n in range(1, 5):
            wn = base_change(w, n)
            for k in range(w.d + 1):
                assert tate_dim(w, k, n) == tate_dim(wn, k, 1)


def test_stabilization_at_degree_bound():
    for w in instance_suite(20, seed=28):
        for k in range(w.d + 1):
            stable, _ = stable_tate_dim(w, k)
            bound = degree_bound(w.d, k)
            assert tate_dim(w, k, bound) == stable


def test_no_dimension_exceeds_stable_small_sweep():
    # exhaustive n-sweep to twice the degree bound on dimension-1 instances,
    # plus a long sweep on one abelian-surface instance
    rng = random.Random(29)
    for _ in range(10):
        q = rng.choice([5, 7, 9, 13])
        w = weil_from_trace(rng.randint(-4, 4), q)
        stable, _ = stable_tate_dim(w, 1)
        assert max(tate_dim(w, 1, n) for n in range(1, 2 * degree_bound(1, 1) + 1)) == stable
    w = _supersingular_exe()
    stable, _ = stable_tate_dim(w, 1)
    assert max(tate_dim(w, 1, n) for n in range(1, 2 * 2520 + 1)) == stable


def test_stable_dim_counts_phi_weighted_roots_of_unity():
    # eigenvalue-ratio orders contribute phi(m) per cyclotomic factor: the
    # conductor-37 curve at p=2 has ratio -i, so the stable rank is 4 + phi(4)
    w = _ordinary_exe(a=-2, q=2)
    stable, min_deg = stable_tate_dim(w, 1)
    assert (stable, min_deg) == (6, 4)
    assert tate_dim(w, 1, 4) == 6
    assert tate_dim(w, 1, 2) == 4
    assert tate_dim_numeric(w, 1, 4) == 6


def test_tate_profile_report_budget():
    e = weil_from_trace(0, 5)
    rows = tate_profile(e, n_report=N_REPORT_BUDGET).rows
    assert [len(row.dims) for row in rows] == [N_REPORT_BUDGET, N_REPORT_BUDGET]
    with pytest.raises(BudgetExceededError):
        tate_profile(e, n_report=N_REPORT_BUDGET + 1)


def test_tate_profile_dimension_budget():
    e = weil_from_trace(1, 3)
    w = e
    for _ in range(D_REPORT_BUDGET):
        w = product_variety(w, e)
    assert w.d == D_REPORT_BUDGET + 1
    with pytest.raises(BudgetExceededError):
        tate_profile(w)
