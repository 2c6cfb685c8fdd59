"""Prime surveys: Kronecker symbols, point counting, CM traces,
E x E ranks, least non-split primes, prime-ideal counts."""

import hashlib
import itertools
import json
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mp

from oracles import ap_charsum, ap_cm_cornacchia, pi_K_per_prime, sqrt_mod_p
from tatecycles import cmlab
from tatecycles.cmlab import (
    CLASS_NUMBER_ONE_DISCS,
    BudgetExceededError,
    EllipticCurve,
    InternalError,
    SurveyRow,
    _exe_row,
    _li_offset,
    _pointcount,
    ap_cm,
    ap_pointcount,
    exe_survey,
    fundamental_discriminant,
    fundamental_discriminants,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    kronecker_symbol,
    least_nonsplit_search,
    noncm_rank_check,
    pi_K_count,
    primes_up_to,
)
from tatecycles.tate import stable_tate_dim, tate_dim
from tatecycles.weil import product_variety, weil_from_trace

CURVE_37A = EllipticCurve(0, 0, 1, -1, 0, label="37a")
CURVE_11A = EllipticCurve(0, -1, 1, -10, -20, label="11a")
CURVE_X3_PLUS_X = EllipticCurve(0, 0, 0, 1, 0)   # CM by the Gaussian order
CURVE_X3_PLUS_1 = EllipticCurve(0, 0, 0, 0, 1)   # CM by the Eisenstein order


# ---------------------------------------------------------------------------
# primes and symbols

def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(29)[-1] == 29
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**5)) == 9592


def test_prime_windows_match_the_whole_range_sieve():
    # the segmented windows against primes_up_to's one byte sieve of [0, n]:
    # n at and around the ends of the second and third segments, and past them
    S = cmlab.SIEVE_SEGMENT
    for n in (0, 1, 2, 3, 4, 24, 25, 2 * S - 1, 2 * S, 2 * S + 1, 3 * S + isqrt(3 * S), 3 * S + 12345):
        windows = list(cmlab._prime_windows(n))
        assert [start for start, _ in windows] == [0, *range(isqrt(n) + 1, n + 1, S)], n
        primes = [p for start, flags in windows for p in itertools.compress(range(start, start + len(flags)), flags)]
        assert primes == primes_up_to(n), n


def test_kronecker_examples():
    assert kronecker(-4, 2) == 0
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 7) == -1
    assert kronecker(-3, 2) == -1
    assert kronecker(-3, 3) == 0


def test_kronecker_uses_field_discriminant():
    # Q(sqrt(-1)) = Q(sqrt(-4)) = Q(sqrt(-16))
    for p in (2, 3, 5, 7, 11, 13):
        assert kronecker(-1, p) == kronecker(-4, p) == kronecker(-16, p)


def test_kronecker_rejects_bad_input():
    with pytest.raises(ValueError):
        kronecker(0, 5)
    with pytest.raises(ValueError):
        kronecker(-4, 6)


def test_kronecker_symbol_against_euler_criterion():
    for D in (-3, -4, -7, -8, -11, 5, 8, 12, -20):
        fd = fundamental_discriminant(D)
        for p in primes_up_to(500):
            if p == 2 or fd % p == 0:
                continue
            euler = pow(fd % p, (p - 1) // 2, p)
            euler = -1 if euler == p - 1 else euler
            assert kronecker_symbol(fd, p) == euler, (D, p)


_FUNDAMENTAL_2000 = fundamental_discriminants(2000)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(D=st.sampled_from(_FUNDAMENTAL_2000), n=st.integers(0, 10**4) | st.integers(0, 10**15))
def test_kronecker_symbol_is_periodic_mod_fundamental_discriminant(D, n):
    # a fundamental D is a character mod |D|: the genus-character tables of
    # pi_K and the survey read (f|n) as (f|n mod |f|)
    assert kronecker_symbol(D, n) == kronecker_symbol(D, n % abs(D)) == kronecker_symbol(D, n + abs(D))


def test_fundamental_discriminants():
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-18) == -8
    assert fundamental_discriminant(12) == 12
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(5)
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(-1)
    assert not is_fundamental_discriminant(-12)
    got = fundamental_discriminants(12)
    assert got == [-3, -4, 5, -7, -8, 8, -11, 12]


def test_fundamental_discriminants_sieve_matches_the_definition():
    # every limit from -3 to 500 and 10^4 against the filter on
    # is_fundamental_discriminant, in the same |D|-then-sign order
    def definition(limit):
        return [D for a in range(2, limit + 1) for D in (-a, a) if is_fundamental_discriminant(D)]

    full = definition(500)
    for limit in range(-3, 501):
        assert fundamental_discriminants(limit) == [D for D in full if abs(D) <= limit], limit
    assert fundamental_discriminants(10**4) == definition(10**4)
    assert fundamental_discriminants(1) == fundamental_discriminants(-3) == []


# ---------------------------------------------------------------------------
# point counting

def test_ap_pointcount_conductor_37_small():
    assert ap_pointcount(CURVE_37A, 2) == -2  # five points including infinity
    assert ap_pointcount(CURVE_37A, 3) == -3
    assert ap_pointcount(CURVE_37A, 37) is None  # bad reduction


def test_ap_pointcount_gaussian_curve():
    assert ap_pointcount(CURVE_X3_PLUS_X, 5) == 2
    assert ap_pointcount(CURVE_X3_PLUS_X, 7) == 0
    assert ap_pointcount(CURVE_X3_PLUS_X, 2) is None


def _ap_brute(E, p):
    # direct double loop over the long Weierstrass equation
    if E.discriminant() % p == 0:
        return None
    count = 0
    for x in range(p):
        rhs = (x**3 + E.a2 * x * x + E.a4 * x + E.a6) % p
        for y in range(p):
            if (y * y + E.a1 * x * y + E.a3 * y - rhs) % p == 0:
                count += 1
    return p + 1 - (count + 1)


def _oracle_curves():
    rng = random.Random(41)
    curves = [CURVE_37A, CURVE_X3_PLUS_X, CURVE_X3_PLUS_1]
    for _ in range(5):
        while True:
            try:
                curves.append(
                    EllipticCurve(
                        rng.randint(-1, 1), rng.randint(-2, 2), rng.randint(-1, 1),
                        rng.randint(-3, 3), rng.randint(-3, 3),
                    )
                )
                break
            except ValueError:
                continue
    return curves


def test_ap_pointcount_against_double_loop():
    for E in _oracle_curves():
        for p in primes_up_to(60):
            assert ap_pointcount(E, p) == _ap_brute(E, p), (E, p)


def test_internal_pointcount_against_double_loop():
    for E in _oracle_curves():
        for p in primes_up_to(199):
            assert _pointcount(E, p) == _ap_brute(E, p), (E, p)


def test_pointcount_matches_euler_criterion_oracle():
    # CURVE_37A is the first of the oracle curves
    for E in _oracle_curves():
        for p in primes_up_to(3000):
            assert _pointcount(E, p) == ap_charsum(E, p), (E, p)


def test_pointcount_takes_both_routes(monkeypatch):
    # the certified count answers most primes; the character sum answers
    # where the point orders leave two candidates, as for y^2 = x^3 + x
    answered = {"bsgs": 0, "charsum": 0}

    def bsgs(E, p, _original=cmlab._bsgs_trace):
        a = _original(E, p)
        answered["bsgs"] += a is not None
        return a

    def charsum(E, p, _original=cmlab._charsum_trace):
        answered["charsum"] += p > 3
        return _original(E, p)

    monkeypatch.setattr(cmlab, "_bsgs_trace", bsgs)
    monkeypatch.setattr(cmlab, "_charsum_trace", charsum)
    for E in _oracle_curves():
        for p in primes_up_to(500):
            assert _pointcount(E, p) == ap_charsum(E, p), (E, p)
    assert answered["bsgs"] > 0 and answered["charsum"] > 0, answered


def _spy_on_scans(monkeypatch):
    # records each _bsgs_multiple call as (low, high, (j, unique))
    calls = []

    def multiple(R, low, high, A, p, _original=cmlab._bsgs_multiple):
        result = _original(R, low, high, A, p)
        calls.append((low, high, result))
        return result

    monkeypatch.setattr(cmlab, "_bsgs_multiple", multiple)
    return calls


def test_pointcount_routes_to_3000(monkeypatch):
    # each good prime p >= 5 is decided by the complete scan (its last scan
    # certified a unique j), by the order cut after a scan that did not, or
    # by the character sum; all three answer, and all agree with Euler
    calls = _spy_on_scans(monkeypatch)
    traces = []

    def bsgs(E, p, _original=cmlab._bsgs_trace):
        calls.clear()
        traces.append(_original(E, p))
        return traces[-1]

    monkeypatch.setattr(cmlab, "_bsgs_trace", bsgs)
    routes = {"scan": 0, "cut": 0, "charsum": 0}
    for E in _oracle_curves():
        for p in primes_up_to(3000)[2:]:
            traces.clear()
            assert _pointcount(E, p) == ap_charsum(E, p), (E, p)
            if traces:
                route = "charsum" if traces[0] is None else "scan" if calls[-1][2][1] else "cut"
                routes[route] += 1
    assert all(routes.values()), routes


def test_pointcount_two_kills_in_one_window(monkeypatch):
    # y^2 = x^3 + x at p = 137: the third point gives L = 20 and R of order 2
    # on [6, 8], where m = 1 and both 6 and 8 kill R in the one window; [2]R
    # = O marks it not unique (taking 6 as the only kill gave a_p = 18)
    calls = _spy_on_scans(monkeypatch)
    assert _pointcount(CURVE_X3_PLUS_X, 137) == ap_charsum(CURVE_X3_PLUS_X, 137) == -22
    assert (6, 8, (2, False)) in calls


def _points_by_order(max_order):
    # one point of each order 2..max_order as (point, A, p): the first found
    # on y^2 = x^3 + Ax + B over the primes from 5 up, by repeated addition
    found = {}
    for p in primes_up_to(2 * max_order)[2:]:
        for A, B in itertools.product(range(p), repeat=2):
            if (4 * A**3 + 27 * B * B) % p == 0:
                continue
            for x, y in itertools.product(range(p), repeat=2):
                if (y * y - x**3 - A * x - B) % p == 0:
                    T, n = (x, y), 1
                    while T is not None:
                        T, n = cmlab._ec_add(T, (x, y), A, p), n + 1
                    found.setdefault(n, ((x, y), A, p))
            if all(n in found for n in range(2, max_order + 1)):
                return {n: found[n] for n in range(2, max_order + 1)}
    raise AssertionError(f"orders {sorted(found)} only")


def test_bsgs_multiple_unique_only_above_window():
    # m = max(1, isqrt(width) // 2) baby steps; an order up to 2m + 1 is never
    # unique, and above it the scan certifies exactly the one multiple of the
    # order in [low, high] (and finds none where there is none), from every
    # residue of low and from low <= m, where the first giant step is [0]R
    for n, (R, A, p) in sorted(_points_by_order(40).items()):
        for width in (1, 3, 4, 9, 16, 25, 36, 49, 64):
            m = max(1, isqrt(width) // 2)
            for low in range(1, 1 + 2 * n):
                high = low + width - 1
                multiples = [j for j in range(low, high + 1) if j % n == 0]
                if n > 2 * m + 1 and not multiples:
                    with pytest.raises(InternalError):
                        cmlab._bsgs_multiple(R, low, high, A, p)
                    continue
                j, unique = cmlab._bsgs_multiple(R, low, high, A, p)
                assert j >= 1 and j % n == 0, (n, width, low, j)
                if n <= 2 * m + 1:
                    assert not unique, (n, width, low)
                else:
                    assert unique == (len(multiples) == 1), (n, width, low)
                    assert j in multiples, (n, width, low, j)


def test_sqrt_mod_p_matches_brute_force():
    # every a mod p, p < 2000: a root of each square, ValueError for the rest
    for p in primes_up_to(2000)[1:]:
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, y)
        for a in range(p):
            if a in roots:
                assert sqrt_mod_p(a, p) ** 2 % p == a, (a, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_p(a, p)


def test_pointcount_rejects_a_wrong_order(monkeypatch):
    # a scan that reports j + 1 in place of j: [N]P != O names the model the
    # point lies on
    scan = cmlab._bsgs_multiple
    monkeypatch.setattr(cmlab, "_bsgs_multiple", lambda R, *rest: (scan(R, *rest)[0] + 1, True))
    for p in (5, 101, 2999):
        with pytest.raises(InternalError, match=rf"\]P != O on y\^2 = x\^3 \+ \d+x \+ \d+ mod {p}$"):
            _pointcount(CURVE_37A, p)


def test_ap_pointcount_hasse():
    for p in primes_up_to(500):
        a = ap_pointcount(CURVE_37A, p)
        if a is not None:
            assert a * a <= 4 * p


def test_ap_pointcount_budget():
    with pytest.raises(BudgetExceededError):
        ap_pointcount(CURVE_37A, 10**6 + 3)


# ---------------------------------------------------------------------------
# CM traces from lattice points of the norm form

def test_ap_cm_gaussian_examples():
    assert ap_cm(-4, 5) == ("ordinary", 2)    # 4*5 = 2^2 + 4*2^2
    assert ap_cm(-4, 13) == ("ordinary", 6)   # 52 = 36 + 16
    assert ap_cm(-4, 7) == ("supersingular", 0)


def test_ap_cm_rejects_unsupported():
    with pytest.raises(ValueError):
        ap_cm(-20, 7)
    with pytest.raises(ValueError):
        ap_cm(-4, 2)
    with pytest.raises(ValueError):
        ap_cm(-3, 3)


def test_ap_cm_matches_point_counts_gaussian():
    for p in primes_up_to(1000):
        if p in (2, 3):
            continue
        typ, a = ap_cm(-4, p)
        counted = ap_pointcount(CURVE_X3_PLUS_X, p)
        assert abs(counted) == a, p
        assert (typ == "supersingular") == (counted % p == 0)


def test_ap_cm_matches_point_counts_eisenstein():
    for p in primes_up_to(1000):
        if p in (2, 3):
            continue
        _, a = ap_cm(-3, p)
        counted = ap_pointcount(CURVE_X3_PLUS_1, p)
        assert abs(counted) == a, p


def test_ap_cm_representation_and_hasse_all_discs():
    for D in CLASS_NUMBER_ONE_DISCS:
        for p in primes_up_to(2000):
            if (2 * D) % p == 0:
                continue
            typ, a = ap_cm(D, p)
            assert a * a <= 4 * p
            if typ == "supersingular":
                assert a == 0 and kronecker(D, p) == -1
            else:
                assert kronecker(D, p) == 1
                # 4p - a^2 must be |D| times a perfect square
                rest = 4 * p - a * a
                assert rest % (-D) == 0
                y2 = rest // (-D)
                assert int(y2**0.5 + 0.5) ** 2 == y2


def test_supersingular_iff_inert():
    for D in CLASS_NUMBER_ONE_DISCS:
        for p in primes_up_to(500):
            if p < 5 or (2 * D) % p == 0:
                continue
            typ, _ = ap_cm(D, p)
            assert (typ == "supersingular") == (kronecker(D, p) == -1)


def _first_split_prime_above(D: int, n: int) -> int:
    # a window of 10^4 integers above n sieved by the primes to its square root
    width = 10**4
    flags = bytearray(b"\x01") * width
    for q in primes_up_to(isqrt(n + width)):
        flags[-n % q::q] = bytes(len(range(-n % q, width, q)))
    return next(n + i for i in range(width) if flags[i] and kronecker_symbol(D, n + i) == 1)


@pytest.mark.parametrize("n", [10**9, 10**12 - 10**6])
def test_ap_cm_matches_cornacchia_at_large_primes(n):
    for D in CLASS_NUMBER_ONE_DISCS:
        p = _first_split_prime_above(D, n)
        assert ap_cm(D, p) == ap_cm_cornacchia(D, p), (D, p)


def test_ap_cm_matches_cornacchia_where_the_window_starts_below_the_form():
    # the one-prime window [4p, 4p + 4) lies below |D| y^2 for every y when
    # |D| > 4p + 3, and for every y past the first few otherwise
    for D in CLASS_NUMBER_ONE_DISCS:
        for p in (5, 7, 13, 17):
            if (2 * D) % p:
                assert ap_cm(D, p) == ap_cm_cornacchia(D, p), (D, p)


def test_a_split_prime_with_no_lattice_point_raises(monkeypatch):
    # a walk that misses the points of 4 * 13 = x^2 + 4y^2, in the survey's
    # window and in ap_cm's one-prime window
    walk = cmlab._norm_points
    monkeypatch.setattr(cmlab, "_norm_points", lambda *args: (t for t in walk(*args) if t[0] != 13))
    with pytest.raises(InternalError, match=r"no representation x\^2 \+ 4y\^2 = 52$"):
        list(exe_survey(-4, 100))
    with pytest.raises(InternalError, match=r"no representation x\^2 \+ 4y\^2 = 52$"):
        ap_cm(-4, 13)
    assert ap_cm(-4, 17) == ("ordinary", 2)


# ---------------------------------------------------------------------------
# E x E surveys

def test_sieved_prime_step_matches_public_route():
    # the survey's traces, read off its sieve windows, against the checked ap_cm
    for D in CLASS_NUMBER_ONE_DISCS:
        *rows, _ = exe_survey(D, 10**4)
        for r in rows:
            if r.reduction_type != "bad-or-excluded":
                assert (r.reduction_type, r.a_p) == ap_cm(D, r.p), (D, r.p)


def _oracle_rows(D: int, p_max: int) -> list:
    # (p, kronecker, reduction type, a_p) of every prime to p_max, from Cornacchia
    rows = []
    for p in primes_up_to(p_max):
        chi = kronecker_symbol(D, p)
        if p in (2, 3) or D % p == 0:
            rows.append((p, chi, "bad-or-excluded", None))
        else:
            rows.append((p, chi, *ap_cm_cornacchia(D, p)))
    return rows


def _row_tuples(D: int, p_max: int) -> list:
    *rows, _ = exe_survey(D, p_max)
    return [(r.p, r.kronecker, r.reduction_type, r.a_p) for r in rows]


def test_survey_traces_match_cornacchia_oracle():
    for D in CLASS_NUMBER_ONE_DISCS:
        assert _row_tuples(D, 10**5) == _oracle_rows(D, 10**5), D


def _windows(p_max: int) -> list:
    # (first, last) of each window the survey walks: [0, isqrt] and the segments
    r = isqrt(p_max)
    step = cmlab.SIEVE_SEGMENT
    return [(0, r)] + [(s, min(s + step - 1, p_max)) for s in range(r + 1, p_max + 1, step)]


@pytest.mark.parametrize("D", CLASS_NUMBER_ONE_DISCS)
def test_survey_traces_at_window_boundaries(D):
    # p_max at q^2 - 1, q^2 and q^2 + 1 puts the split prime q first in the
    # first segment or last in the base window; p_max at
    # isqrt(p_max) + k SIEVE_SEGMENT + (-1, 0, 1) ends the last segment one
    # short of a full segment, full, or one entry long; and two isqrt(p_max)
    # put a split prime last in the first segment and first in the second
    S = cmlab.SIEVE_SEGMENT
    split = [p for p in primes_up_to(S + 1000) if p > 100 and kronecker_symbol(D, p) == 1]
    q = split[0]
    ends = [q * q - 1, q * q, q * q + 1]
    for k in (1, 2):
        for d in (-1, 0, 1):
            n = k * S + d
            for _ in range(4):  # isqrt(n) settles at once for n near k S
                n = k * S + d + isqrt(n)
            assert n - isqrt(n) == k * S + d, (k, d, n)
            ends.append(n)
    last = next(p for p in split if p - S >= 400)  # r = p - S, first segment [r + 1, p]
    first = next(p for p in split if p - S - 1 >= 400)  # r = p - S - 1, second segment from p
    ends += [(last - S) ** 2, (first - S - 1) ** 2]
    oracle = _oracle_rows(D, max(ends))
    seen = set()
    for p_max in ends:
        rows = _row_tuples(D, p_max)
        assert rows == [row for row in oracle if row[0] <= p_max], (D, p_max)
        primes = [row[0] for row in rows]
        for lo, hi in _windows(p_max):
            flagged = primes[bisect_left(primes, lo):bisect_right(primes, hi)]
            seen.update(p for p in flagged[:1] + flagged[-1:] if kronecker_symbol(D, p) == 1)
    assert {q, last, first} <= seen, (D, q, last, first)


def test_sieved_prime_step_keeps_hasse_check():
    assert _exe_row(5, None, "ordinary", 4) == SurveyRow(5, None, 4, "ordinary", 4, 4, 1)
    with pytest.raises(InternalError):
        _exe_row(5, None, "ordinary", 5)
    with pytest.raises(InternalError):
        _exe_row(5, None, "ordinary", -5)


def test_exe_row_matches_tate_oracle():
    # the closed form from a^2/q against tate_dim and stable_tate_dim of
    # E x E: the survey and noncm traces, and every trace over small prime
    # powers, which alone reach a^2/q = 1 and 4
    cases = set()
    for D in CLASS_NUMBER_ONE_DISCS:
        *rows, _ = exe_survey(D, 2 * 10**4)
        cases.update((r.a_p, r.p) for r in rows if r.a_p is not None)
    for E in (CURVE_37A, CURVE_11A, CURVE_X3_PLUS_X, CURVE_X3_PLUS_1):
        for p in primes_up_to(10**4):
            if (a := _pointcount(E, p)) is not None:
                cases.add((a, p))
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 121):
        cases.update((a, q) for a in range(-isqrt(4 * q), isqrt(4 * q) + 1))
    degrees = set()
    for a, q in sorted(cases):
        e = weil_from_trace(a, q)
        w = product_variety(e, e)
        row = _exe_row(q, None, "ordinary", a)
        assert (row.rank_base, row.rank_stable, row.stable_degree) == (tate_dim(w, 1, 1), *stable_tate_dim(w, 1)), (a, q)
        degrees.add(row.stable_degree)
    assert degrees == {1, 2, 3, 4, 6}


def test_exe_survey_rows_examples():
    *rows, density = exe_survey(-4, 100)
    by_p = {r.p: r for r in rows}
    r7 = by_p[7]
    assert (r7.kronecker, r7.a_p, r7.reduction_type) == (-1, 0, "supersingular")
    assert (r7.rank_base, r7.rank_stable, r7.stable_degree) == (4, 6, 2)
    r13 = by_p[13]
    assert (r13.kronecker, r13.a_p, r13.reduction_type) == (1, 6, "ordinary")
    assert (r13.rank_base, r13.rank_stable, r13.stable_degree) == (4, 4, 1)
    assert by_p[2].reduction_type == "bad-or-excluded"
    assert by_p[3].reduction_type == "bad-or-excluded"
    counts = dict(density.counts)
    assert counts["split"] + counts["inert"] + counts["excluded"] == len(rows)
    # the inert primes have a_p = 0 and still count as good
    assert counts == {"split": 11, "inert": 12, "excluded": 2, "rank_stable_4": 11, "rank_stable_6": 12}
    fr = dict(density.fractions)
    assert abs(fr["split"] + fr["inert"] - 1.0) < 1e-12


@pytest.mark.parametrize("D", CLASS_NUMBER_ONE_DISCS)
def test_exe_survey_reads_chi_off_the_residue_table(D):
    # the survey takes (D|p) from the non-residue table of the prime
    # discriminant D, by p mod |D| (8 for -4 and -8), and 0 where p | D
    *rows, _ = exe_survey(D, 3000)
    assert [r.kronecker for r in rows] == [kronecker_symbol(D, p) for p in primes_up_to(3000)]


def test_exe_survey_rank_classification():
    *rows, _ = exe_survey(-11, 500)
    for r in rows:
        if r.reduction_type == "bad-or-excluded":
            continue
        assert r.rank_base == 4
        assert r.rank_stable in (4, 6)
        assert (r.rank_stable == 6) == (r.kronecker == -1)
        assert r.rank_stable >= r.rank_base  # reduction map directionality


def test_exe_survey_rejects_unsupported():
    with pytest.raises(ValueError):
        exe_survey(-15, 100)
    with pytest.raises(BudgetExceededError):
        exe_survey(-4, 10**7 + 1)


def test_exe_survey_deterministic():
    a = list(exe_survey(-4, 300))
    b = list(exe_survey(-4, 300))
    assert a == b
    assert [r.p for r in a[:-1]] == primes_up_to(300)


def test_survey_probes_see_both_sweeps(monkeypatch):
    # the benchmark's trace wraps this name on cmlab, so both sweeps must
    # look it up there
    callers = {name: set() for name in ("primes_up_to",)}
    sweep = [None]
    for name in callers:
        def spy(*args, _name=name, _original=getattr(cmlab, name)):
            callers[_name].add(sweep[0])
            return _original(*args)

        monkeypatch.setattr(cmlab, name, spy)
    # the sweeps are lazy: only taking their rows reaches the sieve
    sweep[0] = "survey"
    list(exe_survey(-4, 50))
    sweep[0] = "noncm"
    list(noncm_rank_check(CURVE_37A, 50))
    assert callers == {name: {"survey", "noncm"} for name in callers}


# ---------------------------------------------------------------------------
# non-CM sweep

def test_noncm_conductor_37_small_primes():
    *rows, rep = noncm_rank_check(CURVE_37A, 50)
    by_p = {r.p: r for r in rows}
    r2 = by_p[2]
    assert (r2.a_p, r2.rank_base, r2.rank_stable, r2.stable_degree) == (-2, 4, 6, 4)
    r3 = by_p[3]
    assert (r3.a_p, r3.rank_base) == (-3, 4)
    assert by_p[37].reduction_type == "bad"
    assert rep.all_rank_base_4


def test_noncm_rank_base_always_4():
    *rows, rep = noncm_rank_check(CURVE_37A, 1000)
    assert rep.all_rank_base_4
    for r in rows:
        if r.reduction_type != "bad":
            assert r.rank_base == 4
            assert r.rank_stable >= 4


def test_noncm_budget():
    with pytest.raises(BudgetExceededError):
        noncm_rank_check(CURVE_37A, 10**4 + 1)


def test_curve_parse_and_discriminant():
    E = EllipticCurve.parse("0,0,1,-1,0")
    assert E == EllipticCurve(0, 0, 1, -1, 0)
    assert E.discriminant() == 37
    with pytest.raises(ValueError):
        EllipticCurve.parse("0,0,1,-1")
    with pytest.raises(ValueError):
        EllipticCurve(0, 0, 0, 0, 0)  # singular


# ---------------------------------------------------------------------------
# least non-split prime

def test_least_nonsplit_gaussian():
    res = least_nonsplit_search(-4)
    assert res.found_prime == 3
    assert abs(mp.exp(res.theoretical_log_bound) - mp.mpf("86.985")) < 0.01
    assert res.satisfied


def test_least_nonsplit_eisenstein():
    res = least_nonsplit_search(-3)
    assert res.found_prime == 2
    assert res.satisfied


def test_least_nonsplit_requires_fundamental():
    with pytest.raises(ValueError):
        least_nonsplit_search(-12)


def test_least_nonsplit_sweep_small():
    # |D| <= 300, and 10^5 < |D| <= 10^5 + 2000 where the walk runs further
    wide = [D for D in range(-(10**5 + 2000), 10**5 + 2001) if abs(D) > 10**5 and is_fundamental_discriminant(D)]
    for D in fundamental_discriminants(300) + wide:
        res = least_nonsplit_search(D)
        assert kronecker_symbol(D, res.found_prime) == -1
        for p in primes_up_to(res.found_prime - 1):
            assert kronecker_symbol(D, p) != -1
        assert res.satisfied, D


def _sweep_digest(limit):
    digest = hashlib.sha256()
    for D in fundamental_discriminants(limit):
        res = least_nonsplit_search(D)
        record = {"D": res.D, "found_prime": res.found_prime, "satisfied": res.satisfied, "bound": res.bound.to_record()}
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def test_least_nonsplit_sweep_pinned():
    # every record of the sweep over 1,218 discriminants |D| <= 2000, digest
    # taken before the D-independent part of the bound was cached; the found
    # primes, the echoed inputs and exact_value must not move
    assert _sweep_digest(2000) == "1c9137a65538f96f76cae43db9dd6d1ff6253b7c84cc43f697cb9446494b3353"


def test_least_nonsplit_full_sweep_pinned():
    # every record of the sweep over all 6,086 discriminants |D| <= 10^4,
    # digest taken before the bound moved to raw mpf tuples
    assert _sweep_digest(10**4) == "af3567a0cd47edd7342f343f1e955f6b115a0fd63f553855b0848a9e2f01f0a5"


# ---------------------------------------------------------------------------
# prime ideal counting

def test_pi_K_gaussian_10():
    # one ideal of norm 2, two of norm 5, one of norm 9
    res = pi_K_count(-4, 10)
    assert res.count == 4


def test_pi_K_li_matches_mpmath_li_at_double_precision():
    # the libmp steps behind li_x against mpmath.li at 53 bits
    xs = list(range(2, 300)) + [10**k + j for k in range(3, 9) for j in (-1, 0, 1, 7)]
    xs += random.Random(8).sample(range(2, 10**8), 200)
    with mp.workprec(53):
        want = [float(mpmath.li(x, offset=True)) for x in xs]
    assert [_li_offset(x) for x in xs] == want


def test_pi_K_x1():
    assert pi_K_count(-4, 1).count == 0
    assert pi_K_count(5, 1).count == 0


def test_pi_K_against_direct_ideal_enumeration():
    # independently: ideals of norm <= x in Q(i) biject with lattice points
    # counted via the sum of the split/inert/ramified rule recomputed from
    # scratch with the Euler criterion
    x = 200
    count = 0
    for p in primes_up_to(x):
        if p == 2:
            chi = 0
        else:
            e = pow(-4 % p, (p - 1) // 2, p)
            chi = -1 if e == p - 1 else 1
        if chi == 1:
            count += 2
        elif chi == 0:
            count += 1
        elif p * p <= x:
            count += 1
    assert pi_K_count(-4, x).count == count


def test_pi_K_table_matches_per_prime_symbols():
    # every fundamental |D| <= 300, so each 2-part (1, -4, 8, -8) with up to
    # three odd primes: x = 1, 2, 3 (2 above isqrt(x)), x around |D| (a
    # ramified prime at the top of the range), x at the |D|-th prime p and
    # p - 1, and x = 5000 (one segment after the base window)
    primes = primes_up_to(10**4)
    for D in fundamental_discriminants(300):
        m = abs(D)
        p = primes[m - 1]
        for x in sorted({1, 2, 3, m - 1, m, m + 1, p - 1, p, 5000}):
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)


def test_pi_K_at_segment_and_alignment_boundaries():
    # the windows and blocks: x = kS - 1, kS, kS + 1, x where (isqrt(x), x]
    # is one short of, exactly or one past a whole number of S / 32 byte
    # blocks, and x at multiples of |D| past the windows' starts, with tables
    # of period 8 (for -4), 3, 5, 163, and 3 beside 2663, read from every offset
    S = cmlab.SIEVE_SEGMENT
    for D in (-4, -3, 5, -163, 7989):
        m = abs(D)
        xs = {k * S + j for k in (1, 2) for j in (-1, 0, 1)}
        for x in (S, 2 * S):
            lo = isqrt(x) + 1
            end = lo - lo % m + (S - S % m)
            xs |= {end - 1, end, end + 1, end + S - S % m}
        block = m * max(1, S // 32 // m)
        for x in range(S - block, S + 3 * block):
            lo = isqrt(x) + 1
            if (x + 1 - (lo - lo % m)) % (S - S % m) % block == 0:
                xs |= {x - 1, x, x + 1}
        for k in (1, 2):  # (isqrt(x), x] is k S + j blocks long
            x = next(x for x in range(k * S, k * S + S // 16) if (x - isqrt(x)) % (S // 32) == 0)
            xs |= {x - 1, x, x + 1}
        for x in sorted(xs):
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)


def test_pi_K_at_the_inert_boundary():
    # an inert p counts once x reaches p^2, which is where p joins the base
    # window [0, isqrt(x)]
    for D, p in ((-4, 3), (-4, 7), (-4, 419), (-3, 5), (-3, 467), (5, 7), (-163, 2), (-163, 389),
                 (8, 3), (-8, 5), (-24, 13), (40, 7), (-40, 3), (-9240, 19), (-3234846615, 31)):
        assert kronecker_symbol(D, p) == -1, (D, p)
        for x in (p * p - 1, p * p):
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)
        assert pi_K_count(D, p * p).count == pi_K_count(D, p * p - 1).count + 1


def test_pi_K_ramified_primes_above_sqrt_x_and_above_x():
    # 163 and 499 ramify and lie above sqrt(x); |D| > x leaves them out
    for D, xs in ((-163, (100, 162, 163, 164, 200, 26568, 26569)), (-499, (498, 499, 500, 5000))):
        for x in xs:
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)
    assert pi_K_count(-163, 163).count == pi_K_count(-163, 162).count + 1


def test_pi_K_each_counting_route():
    # a table whose offset moves from block to block (-163, -10007) and a
    # prime above the cap (-131143: its symbol at each prime), at x with
    # |D| log2 x below and above x, and at x below |D|
    S = cmlab.SIEVE_SEGMENT
    assert -131143 % 4 == 1 and is_fundamental_discriminant(-131143) and 131143 > S
    assert 10007 * (3 * 10**5).bit_length() < 3 * 10**5 and 10007 * (10**5).bit_length() >= 10**5
    for D, x in ((-163, 3 * 10**5), (-10007, 3 * 10**5), (-131143, 3 * 10**5), (-10007, 10**5), (-131143, 200)):
        assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)


def test_pi_K_prime_factors_at_the_table_cap():
    # 131071 is the largest prime <= S and gets a table; 131101, the least
    # prime above S, gets its symbol at each prime: alone, times a small
    # prime discriminant, with 131071 and a 2-part, and with 131111, the
    # next prime, where one symbol serves the two factors above S
    S = cmlab.SIEVE_SEGMENT
    assert is_prime(131071) and is_prime(131101) and is_prime(131111) and 131071 <= S < 131101
    assert not any(is_prime(q) for q in range(131072, 131101))
    for D in (-131071, 131101, -393303, -655355, 655505, 8 * -131071 * 131101, 131101 * -131111):
        assert is_fundamental_discriminant(D), D
        for x in (0, 2, 3, 4, 1000, S - 1, S, S + 1, 2 * 10**5):
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)


def test_pi_K_every_two_part():
    # the 2-part 1, -4, 8 or -8 alone and with odd prime discriminants,
    # from x = 0 to past the first window, and at x = 2, 3, 4 where the
    # prime 2 lies above isqrt(x) and then below it
    for D in (-4, 8, -8, 12, -20, -24, 24, 40, -40, 60, 5 * 13 * 8, -9240, 8 * -3 * 5 * -7 * -11 * 13):
        assert is_fundamental_discriminant(D), D
        for x in (0, 1, 2, 3, 4, 5, 8, 9, 24, 25, 1000, 2 * 10**5):
            assert pi_K_count(D, x).count == pi_K_per_prime(D, x), (D, x)


def test_pi_K_takes_no_symbol_per_prime_below_the_cap(monkeypatch):
    # 1000001 = 101 * 9901: both tables are below the cap, so the number of
    # Kronecker symbols does not grow with x
    calls = []
    symbol = cmlab.kronecker_symbol
    monkeypatch.setattr(cmlab, "kronecker_symbol", lambda a, n: calls.append(n) or symbol(a, n))
    counts = []
    for x in (10**5, 10**6):
        calls.clear()
        pi_K_count(1000001, x)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_pi_K_prime_near_ten_million_builds_no_table():
    # a table for 10000121 would be 10 MB; its symbols at the 9,592 primes
    # to 10^5 keep the count within the segment's memory
    assert is_prime(10000121) and is_fundamental_discriminant(10000121)
    tracemalloc.start()
    try:
        count = pi_K_count(10000121, 10**5).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == pi_K_per_prime(10000121, 10**5)
    assert peak < 1_000_000, peak


def test_pi_K_memory_does_not_grow_with_x():
    # the windows bound the memory: no list of primes, no symbol per prime,
    # and no table for a factor above the segment length; nine odd factors
    # (-3234846615), one just below the cap (-131071) and a 2-part beside an
    # odd factor (131048 = 8 * 16381) stay in it too
    pi_K_count(-4, 10**4)
    for D, x in ((-4, 2 * 10**6), (-131143, 10**6), (40009, 10**7), (-3234846615, 10**6), (-131071, 10**6),
                 (131048, 10**6)):
        tracemalloc.start()
        try:
            pi_K_count(D, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (D, x, peak)


def test_pi_K_ratio_band_small():
    res = pi_K_count(-4, 10**4)
    assert 0.85 <= res.ratio <= 1.15


def test_pi_K_budget():
    with pytest.raises(BudgetExceededError):
        pi_K_count(-4, 10**8 + 1)
