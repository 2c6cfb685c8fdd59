"""Tate-class dimensions: worked instances, the degree bound, the numeric
oracle, and the property suite."""

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from math import comb, gcd, lcm

import pytest
from mpmath import mp

from conftest import cyclotomic_suite, instance_suite, random_weil
from oracles import (
    PrecisionInsufficientError,
    _classify_distance,
    carmichael_lambda,
    tate_dim_numeric,
    unfiltered_scan,
)
from tatecycles import polycore, tate
from tatecycles.polycore import (
    BudgetExceededError,
    IntPoly,
    InternalError,
    cyclotomic,
    cyclotomic_multiplicity,
    euler_phi,
    factorization,
)
from tatecycles.tate import (
    _G,
    _L,
    _P,
    D_REPORT_BUDGET,
    DISPLAY_N_CAP,
    N_REPORT_BUDGET,
    _cyclotomic_scan,
    _pairs,
    _root_pair,
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


def _unit_group_exponent(m):
    """Least e with a^e = 1 (mod m) for every unit a; it divides the group
    order (Lagrange), so only divisors of the number of units are tried."""
    units = [a for a in range(1, m + 1) if gcd(a, m) == 1]
    for e in range(1, len(units) + 1):
        if len(units) % e == 0 and all(pow(a, e, m) == 1 % m for a in units):
            return e


def test_carmichael_lambda_matches_unit_group_exponent():
    assert [carmichael_lambda(m) for m in (1, 2, 4, 8, 16, 9, 27, 25, 343, 1331)] == [
        1, 1, 2, 2, 4, 6, 18, 20, 294, 1210,
    ]
    assert all(carmichael_lambda(m) == _unit_group_exponent(m) for m in range(1, 2001))
    # beyond the scan: lambda(2^e) = 2^(e-2) for e >= 3, lambda(p^e) = phi(p^e)
    # for odd p, and lambda(ab) = lcm(lambda(a), lambda(b)) for coprime a, b
    for e in range(3, 40):
        assert carmichael_lambda(2**e) == 2 ** (e - 2)
    for p in (3, 5, 7, 101, 9973):
        for e in range(1, 6):
            assert carmichael_lambda(p**e) == (p - 1) * p ** (e - 1)
    assert carmichael_lambda(2**5 * 3**4 * 101) == lcm(8, 54, 100)


def _allowed_orders(bound, d):
    exponent = 2 * lcm(*range(1, d + 1))
    return [m for m in totient_bounded_set(bound) if exponent % carmichael_lambda(m) == 0]


def _check_witnesses(l, witnesses):
    for m, z, w in witnesses:
        assert pow(z, m, l) == 1
        assert all(pow(z, m // r, l) != 1 for r, _ in factorization(m))
        assert w == (z + pow(z, -1, l)) % l


def test_witness_field_constants():
    # F = P - 1: _pocklington_prime factors it by polycore.factorization,
    # which either factors exactly or raises
    assert _P == 5 * _L + 1 and 2**40 < _P < 2**48
    assert _pocklington_prime(_P, _P - 1)
    assert (_P - 1) % _L == 0
    # every order allowed at any d <= 6 divides _L, and the largest row needs all of it
    assert _L == lcm(*_allowed_orders(924, 6))
    assert pow(_G, _L, _P) == 1
    assert all(pow(_G, _L // r, _P) != 1 for r, _ in factorization(_L))


def test_witness_table_lists_allowed_orders_to_d6():
    # the (m, z_m, w_m) triples at every row's bound and at every bound below 200
    for d in range(1, 7):
        for bound in sorted({comb(2 * d, 2 * k) for k in range(d + 1)} | set(range(1, 200))):
            witnesses = _witness_table(bound, d)
            assert [m for m, _, _ in witnesses] == _allowed_orders(bound, d), (bound, d)
            assert all(_L % m == 0 for m, _, _ in witnesses)
            _check_witnesses(_P, witnesses)


def test_witness_tables_feed_no_factorization_cache():
    # built twice over, the tables also take each g_r of the 15 prime powers
    # r || _L from one pow, made the first time r is reached
    before = polycore._factorization.cache_info().currsize
    _root_pair.cache_clear()
    for _ in range(2):
        _witness_table.cache_clear()
        for d in range(1, 7):
            for k in range(d + 1):
                _witness_table(comb(2 * d, 2 * k), d)
    assert polycore._factorization.cache_info().currsize == before
    assert _root_pair.cache_info().misses == 15


def test_scan_raises_past_d6():
    # an allowed order at d = 7 need not divide _L, so the scan refuses d >= 7
    # before building any H^{2k} charpoly (for these seven curves over F_7 the
    # H^6 charpoly alone takes about 20 s)
    w = None
    for a in (1, 2, -3, 4, 0, 5, -1):
        e = weil_from_trace(a, 7)
        w = e if w is None else product_variety(w, e)
    assert w.d == 7
    start = time.perf_counter()
    for k in range(8):
        with pytest.raises(BudgetExceededError):
            tate_dim(w, k, 1)
        with pytest.raises(BudgetExceededError):
            stable_tate_dim(w, k)
    assert time.perf_counter() - start < 1
    f = cyclotomic(7) * IntPoly([-2, 1]) ** 85
    with pytest.raises(BudgetExceededError):
        _cyclotomic_scan(f, 1, _witness_table(f.degree, 7))
    with pytest.raises(BudgetExceededError):
        _witness_table(1, 8)


def test_scan_matches_unfiltered_division():
    # the suite runs cold, then warm in reverse order, where every row is a
    # hit of the pair cache
    suite = instance_suite(120, d_max=5, seed=24)
    _unity_ratio_multiplicities.cache_clear()
    for instances in (suite, suite[::-1]):
        misses = _unity_ratio_multiplicities.cache_info().misses
        for w in instances:
            for k in range(w.d + 1):
                assert _pairs(w, k) == unfiltered_scan(w, k), (w, k)
    assert _unity_ratio_multiplicities.cache_info().misses == misses


def test_scan_matches_unfiltered_division_on_cyclotomic_family():
    orders = set()
    for w in cyclotomic_suite(d_max=5):
        for k in range(w.d + 1):
            mults = _pairs(w, k)
            assert mults == unfiltered_scan(w, k), (w, k)
            orders.update(m for m, _ in mults)
    assert max(orders) >= 90 and len(orders) > 30


def test_scan_finds_smallest_and_largest_allowed_orders():
    # degree 70 at d = 4: the row k = 2, whose allowed orders run 1..240
    allowed = _allowed_orders(70, 4)
    assert (allowed[0], allowed[-1], len(allowed)) == (1, 240, 56)
    for m, m2 in ((1, 240), (2, 240), (3, 210), (7, 168), (13, 35), (1, 2)):
        # filled to degree 69 or 70 by T^2 - 3T + 1, self-reciprocal with no
        # root of unity among its roots
        f = cyclotomic(m) ** 2 * cyclotomic(m2)
        f = f * IntPoly([1, -3, 1]) ** ((70 - f.degree) // 2)
        expected = tuple(sorted([(m, 2), (m2, 1)]))
        assert _cyclotomic_scan(f, 1, _witness_table(70, 4)) == expected
        # Q(T) = 9^70 f(T / 9), so that R(T) = Q(9T) = 9^70 f(T)
        Q = IntPoly([c * 9 ** (70 - i) for i, c in enumerate(f.coeffs)])
        assert _cyclotomic_scan(Q, 9, _witness_table(70, 4)) == expected


def _scan_passes(Q, s, witnesses, monkeypatch):
    """The m whose exact division _cyclotomic_scan runs: those that pass its
    pre-test."""
    passed = []

    def spy(R, m):
        passed.append(m)
        return cyclotomic_multiplicity(R, m)

    monkeypatch.setattr(tate, "cyclotomic_multiplicity", spy)
    _cyclotomic_scan(Q, s, witnesses)
    monkeypatch.undo()
    return passed


def test_pretest_passes_exactly_the_roots_of_R_mod_P(monkeypatch):
    # the half-length test at w_m against R(z_m) = 0 mod P by plain Horner
    odd_rows = set()
    for w in instance_suite(40, d_max=5, seed=36) + cyclotomic_suite(d_max=5):
        for k in range(w.d // 2 + 1):
            Q = h_charpoly(w, 2 * k)
            R = [c % _P for c in reversed(Q.scale_variable(w.q**k).coeffs)]
            witnesses = _witness_table(comb(2 * w.d, 2 * k), w.d)
            roots = []
            for m, z, _ in witnesses:
                acc = 0
                for c in R:
                    acc = (acc * z + c) % _P
                if acc == 0:
                    roots.append(m)
            assert _scan_passes(Q, w.q**k, witnesses, monkeypatch) == roots, (w, k)
            if len(R) % 2 == 0:
                odd_rows.add((w.d, k))
    assert {(3, 1), (5, 1)} <= odd_rows


def test_scan_rejects_a_ratio_polynomial_that_is_not_self_reciprocal():
    # the root 2 of T - 2 has no partner 1/2
    for f in (IntPoly([-2, 1]), cyclotomic(5) * IntPoly([-2, 1]), cyclotomic(1) * IntPoly([1, -3, 2])):
        with pytest.raises(InternalError):
            _cyclotomic_scan(f, 1, _witness_table(f.degree, 2))


# ---------------------------------------------------------------------------
# lifted and negated Weil polynomials: another w with the same pairs

def _lift(w):
    """q^(2d) w(T / q) over q^3: every root times q, so every root over
    sqrt(q^3) equals the root of w over sqrt(q)."""
    top = w.poly.degree
    return validate_weil(IntPoly([c * w.q ** (top - i) for i, c in enumerate(w.poly.coeffs)]), w.q**3)


def _negate(w):
    """w(-T): every root negated, so the odd coefficients change sign."""
    return validate_weil(IntPoly([-c if i % 2 else c for i, c in enumerate(w.poly.coeffs)]), w.q)


def test_lift_is_served_from_the_cache():
    # the lift has the normalized polynomial of w, so the same profile
    for w in instance_suite(12, d_max=4, seed=30):
        assert tate_profile(_lift(w)) == tate_profile(w), w


def test_negated_odd_coefficients_miss_with_correct_pairs():
    # an even number of negated roots has the same product, so R_k and its
    # pairs are those of w, though the two polynomials differ
    suite = [w for w in instance_suite(12, d_max=4, seed=31) if any(w.poly.coeffs[1::2])]
    assert len(suite) > 6
    for w in suite:
        negated = _negate(w)
        for k in range(w.d // 2 + 1):
            assert _pairs(negated, k) == unfiltered_scan(negated, k) == unfiltered_scan(w, k), (w, k)


def test_profiles_from_threads_match_serial():
    # README: tate is safe for concurrent use; four threads share the warm
    # cache, switching as often as the interpreter allows
    suite = instance_suite(40, d_max=4, seed=33)
    serial = [tate_profile(w) for w in suite]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(lambda: [tate_profile(w) for w in suite]) for _ in range(4)]
            assert all(run.result(timeout=60) == serial for run in runs)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# profiles

def test_tate_profile_supersingular_exe():
    profile = tate_profile(_supersingular_exe(), n_report=4)
    row0, row1, row2 = profile
    assert row0.k == 0 and row0.stable_dim == 1
    assert all(dim == 1 for _, dim in row0.dims)
    assert row1.dims[:2] == ((1, 4), (2, 6))
    assert row1.stable_dim == 6 and row1.min_stable_degree == 2
    assert row1.degree_bound == 2520
    assert row2.k == 2 and row2.stable_dim >= 1


def test_tate_profile_dims_monotone_under_divisibility():
    for w in instance_suite(10, seed=23):
        profile = tate_profile(w, n_report=12)
        for row in profile:
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
            assert [row.k for row in profile] == list(range(w.d + 1))
            for row in profile:
                n_max = n_report or min(row.degree_bound, DISPLAY_N_CAP)
                assert row.dims == tuple((n, tate_dim(w, row.k, n)) for n in range(1, n_max + 1))
                assert (row.stable_dim, row.min_stable_degree) == stable_tate_dim(w, row.k)
                assert row.degree_bound == degree_bound(w.d, row.k)


def test_tate_profile_default_cap():
    profile = tate_profile(_supersingular_exe())
    assert len(profile[1].dims) == 60  # degree bound 2520 capped for display
    assert len(profile[0].dims) == 2   # degree bound 2 not capped


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


def test_d6_matches_numeric_oracle():
    # six elliptic curves over F_7: H^6 has degree 924, past the d = 5 report
    # budget, and the library route still agrees with subset enumeration;
    # rows 4..6 come from rows 2..0 by duality, and subset enumeration counts
    # them directly
    w = None
    for a in (1, 2, -3, 4, 0, 5):
        e = weil_from_trace(a, 7)
        w = e if w is None else product_variety(w, e)
    for k in range(1, 7):
        _, min_deg = stable_tate_dim(w, k)
        for n in sorted({1, 2, min_deg}):
            assert tate_dim(w, k, n) == tate_dim_numeric(w, k, n), (k, n)


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
    # tate_dim reads row d - k from row k, so the dual row is rebuilt with no
    # shortcut by unfiltered_scan: every coefficient of H^{2(d-k)} by Newton's
    # identities, rescaled by q^(d-k), divided by every Phi_m of the
    # totient-bounded set
    for w in instance_suite(25, seed=26):
        for k in range(w.d + 1):
            mults = unfiltered_scan(w, w.d - k)
            for n in range(1, 7):
                dual = sum(euler_phi(m) * e for m, e in mults if n % m == 0)
                assert tate_dim(w, k, n) == dual, (w, k, n)


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
    rows = tate_profile(e, n_report=N_REPORT_BUDGET)
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
