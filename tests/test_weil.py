"""Weil polynomial validation, products, cohomology charpolys, base change."""

import itertools
import random
from math import comb, isqrt

import mpmath
import pytest
from mpmath import mp

from conftest import instance_suite, random_weil
from oracles import companion, complex_roots, h_charpoly_full, matrix_power
from tatecycles.polycore import IntPoly, charpoly, compound_matrix, factorization
from tatecycles.weil import (
    WeilValidationError,
    base_change,
    h_charpoly,
    product_variety,
    reciprocal_form,
    validate_weil,
    weil_from_trace,
)


# ---------------------------------------------------------------------------
# validation

def test_validate_supersingular_elliptic():
    w = validate_weil(IntPoly([5, 0, 1]), 5)
    assert (w.q, w.p, w.d) == (5, 5, 1)


def test_validate_ordinary_elliptic():
    # discriminant 9 - 20 < 0 and root product 5, so both roots have modulus sqrt(5)
    w = validate_weil(IntPoly([5, -3, 1]), 5)
    assert w.d == 1


def test_validate_rejects_split_roots():
    # T^2 - 6T + 5 = (T-1)(T-5)
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([5, -6, 1]), 5)
    assert err.value.reason == "RootModulusFails"


def test_validate_rejects_non_prime_power():
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([6, 0, 1]), 6)
    assert err.value.reason == "NotPrimePower"


def test_validate_rejects_non_monic():
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([5, 0, 2]), 5)
    assert err.value.reason == "NotMonic"


def test_validate_rejects_odd_degree():
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([5, 0, 0, 1]), 5)
    assert err.value.reason == "OddDegree"


def test_validate_rejects_bad_functional_equation():
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([7, -3, 1]), 5)  # constant term is not q^d
    assert err.value.reason == "FunctionalEquationFails"
    with pytest.raises(WeilValidationError) as err:
        validate_weil(IntPoly([25, -3, 0, -2, 1]), 5)  # c1 != q * c3
    assert err.value.reason == "FunctionalEquationFails"


def test_validate_prime_power_field():
    w = validate_weil(IntPoly([9, -3, 1]), 9)
    assert (w.q, w.p, w.d) == (9, 3, 1)


def test_weil_from_trace_matches_validate():
    rng = random.Random(11)
    for _ in range(30):
        q = rng.choice([2, 3, 4, 5, 7, 9, 11, 13, 25, 49, 97])
        amax = int((4 * q) ** 0.5)
        a = rng.randint(-amax, amax)
        assert weil_from_trace(a, q) == validate_weil(IntPoly([q, -a, 1]), q)
    with pytest.raises(WeilValidationError):
        weil_from_trace(5, 5)


def test_validate_repeated_root_input():
    # (T^2+5)^2 given directly: the exact gate takes the squarefree part of
    # the real-root polynomial, so repeated roots are counted once
    w = validate_weil(IntPoly([25, 0, 10, 0, 1]), 5)
    assert w.d == 2


def _gate_accepts(f: IntPoly, q: int) -> bool:
    try:
        validate_weil(f, q)
    except WeilValidationError as err:
        assert err.reason == "RootModulusFails", err
        return False
    return True


def _from_real_root_poly(h: list[int], q: int) -> IntPoly:
    # T^d h(T + q/T) for h = h[0] + h[1] x + ... + h[d] x^d: it always
    # satisfies the functional equation
    d = len(h) - 1
    f = IntPoly()
    for k, b in enumerate(h):
        t = [0] * (2 * d + 1)
        for i in range(k + 1):
            t[d + k - 2 * i] += comb(k, i) * q**i
        f = f + IntPoly(t) * b
    return f


@pytest.mark.parametrize(
    "coeffs, q",
    [
        ([25, -10, 1], 25),  # (T - 5)^2: root sqrt(q) itself, trace 2s
        ([25, 10, 1], 25),  # (T + 5)^2, trace -2s
        ([49, -14, 1], 49),
        ([7, 0, 1], 7),  # T^2 + q
        ([49, 0, -14, 0, 1], 7),  # (T^2 - q)^2 with q not a square: real roots +-sqrt(7)
        ([125, 0, 75, 0, 15, 0, 1], 5),  # (T^2 + 5)^3: repeated roots
        ([625, -500, 150, -20, 1], 25),  # (T - 5)^4
        ([25, 0, -10, 0, 1], 5),  # (T^2 - 5)^2: h = x^2 - 4q, roots at +-2 sqrt(q)
    ],
)
def test_gate_accepts_endpoint_and_repeated_roots(coeffs, q):
    assert _gate_accepts(IntPoly(coeffs), q)


@pytest.mark.parametrize(
    "h, q",
    [
        ([-11, 1], 25),  # trace 2s + 1 over q = s^2
        ([11, 1], 25),  # trace -(2s + 1)
        ([-5, 1], 5),  # trace 5 > 2 sqrt(5)
        ([12, 0, 1], 5),  # x^2 + 12: complex roots of h
        ([1, 1, 1], 7),  # x^2 + x + 1: complex roots of h
        ([-21, 0, 1], 5),  # x^2 - 21: real roots just outside [-sqrt(20), sqrt(20)]
        ([0, -21, 0, 1], 5),  # x (x^2 - 21)
        ([400, 0, -41, 0, 1], 5),  # (x^2 - 16)(x^2 - 25): one pair outside
    ],
)
def test_gate_rejects_near_misses(h, q):
    assert not _gate_accepts(_from_real_root_poly(h, q), q)


def _moduli_oracle(f: IntPoly, q: int) -> bool:
    with mp.workprec(260):
        tol = mp.mpf(2) ** -100 * q
        return all(abs(abs(r) ** 2 - q) <= tol for r in complex_roots(f))


def test_gate_matches_root_moduli_oracle():
    # 2,000 polynomials satisfying the functional equation: half from
    # products of elliptic factors with traces up to 2 beyond the Hasse
    # interval, half from random real-root polynomials of the same size
    rng = random.Random(21)
    prime_powers = [q for q in range(2, 98) if len(factorization(q)) == 1]
    accepted = 0
    for _ in range(2000):
        q = rng.choice(prime_powers)
        d = rng.randint(1, 4)
        s = 2 * isqrt(q) + 2
        if rng.random() < 0.5:
            h = IntPoly([1])
            for _ in range(d):
                h = h * IntPoly([-rng.randint(-s, s), 1])
            h = list(h.coeffs)
        else:
            h = [rng.randint(-comb(d, k) * s ** (d - k), comb(d, k) * s ** (d - k)) for k in range(d)] + [1]
        f = _from_real_root_poly(h, q)
        verdict = _gate_accepts(f, q)
        assert verdict == _moduli_oracle(f, q), (h, q)
        accepted += verdict
    assert 500 < accepted < 1500


def test_validate_weil_calls_no_numerics(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Weil gate called mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", refuse)
    for w in instance_suite(30, d_max=4, seed=22):
        assert validate_weil(w.poly, w.q) == w
    assert not _gate_accepts(IntPoly([5, -6, 1]), 5)


# ---------------------------------------------------------------------------
# products

def test_product_variety_examples():
    e = validate_weil(IntPoly([5, 0, 1]), 5)
    w = product_variety(e, e)
    assert w.poly == IntPoly([25, 0, 10, 0, 1])
    assert w.d == 2
    o = validate_weil(IntPoly([5, -3, 1]), 5)
    mixed = product_variety(o, e)
    assert mixed.d == 2 and mixed.poly.degree == 4


def test_product_variety_rejects_mismatched_fields():
    with pytest.raises(ValueError):
        product_variety(weil_from_trace(0, 5), weil_from_trace(0, 7))


def test_product_variety_ring_laws():
    rng = random.Random(12)
    for _ in range(20):
        q = rng.choice([5, 7, 9, 13])
        a = weil_from_trace(rng.randint(-2, 2), q)
        b = weil_from_trace(rng.randint(-2, 2), q)
        c = weil_from_trace(rng.randint(-2, 2), q)
        assert product_variety(a, b) == product_variety(b, a)
        assert product_variety(product_variety(a, b), c) == product_variety(a, product_variety(b, c))


# ---------------------------------------------------------------------------
# cohomology characteristic polynomials

def test_h_charpoly_top_is_determinant_class():
    w = validate_weil(IntPoly([5, -3, 1]), 5)
    assert h_charpoly(w, 2) == IntPoly([-5, 1])


def test_h_charpoly_supersingular_product_derived():
    # roots of (T^2+5)^2 pair into products (-5, 5, 5, 5, 5, -5)
    e = weil_from_trace(0, 5)
    w = product_variety(e, e)
    expected = IntPoly([-5, 1]) ** 4 * IntPoly([5, 1]) ** 2
    assert h_charpoly(w, 2) == expected


def test_h_charpoly_r0_and_r1():
    w = validate_weil(IntPoly([25, 0, 10, 0, 1]), 5)
    assert h_charpoly(w, 0) == IntPoly([-1, 1])
    assert h_charpoly(w, 1) == w.poly
    assert h_charpoly(w, 2 * w.d) == IntPoly([-(5**2), 1])
    with pytest.raises(ValueError):
        h_charpoly(w, 5)


def _reversed_scaled(f: IntPoly, s: int) -> IntPoly:
    # T^deg * f(s/T), cleared of denominators
    cs = f.coeffs
    n = len(cs) - 1
    return IntPoly([cs[n - j] * s ** (n - j) for j in range(n + 1)])


def test_h_charpoly_complement_pairing():
    # root multisets of H^r and H^{2d-r} correspond under a -> q^d / a;
    # h_charpoly builds H^r for d < r < 2d from this pairing, so the full-recovery
    # and compound oracles below are the independent checks
    for w in instance_suite(15, seed=13):
        for r in range(0, 2 * w.d + 1):
            Qr = h_charpoly(w, r)
            Qc = h_charpoly(w, 2 * w.d - r)
            S = _reversed_scaled(Qc, w.q**w.d)
            assert S == Qr * S.leading


def test_h_charpoly_self_pairing():
    # root multiset of H^r is invariant under a -> q^r / a; h_charpoly builds
    # its upper half from this pairing, so the full-recovery and compound
    # oracles below are the independent checks
    for w in instance_suite(15, seed=14):
        for r in range(1, 2 * w.d + 1):
            Qr = h_charpoly(w, r)
            S = _reversed_scaled(Qr, w.q**r)
            assert S == Qr * S.leading


def test_h_charpoly_matches_full_recovery_oracle():
    # the library runs Newton over half the power sums and mirrors the rest;
    # the oracle recovers every coefficient
    suite = instance_suite(40, d_max=5, seed=16)
    odd = set()
    for w in suite:
        for r in range(1, 2 * w.d + 1):
            assert h_charpoly(w, r) == h_charpoly_full(w, r), (w, r)
            if comb(2 * w.d, r) % 2:
                odd.add(comb(2 * w.d, r))
    assert {w.d for w in suite} == {1, 2, 3, 4, 5}
    # odd degrees run the (-1)^N branch of the mirror, C(6, 2) = 15 among them
    assert 15 in odd


def test_h_charpoly_degree_and_weight():
    from math import comb

    for w in instance_suite(10, seed=15):
        for r in range(0, 2 * w.d + 1):
            assert h_charpoly(w, r).degree == comb(2 * w.d, r)


def test_h_charpoly_root_moduli():
    # every root of the H^r polynomial has modulus q^{r/2}
    for w in instance_suite(6, seed=18):
        for r in range(1, 2 * w.d + 1):
            f = h_charpoly(w, r)
            with mp.workprec(300):
                target = mp.mpf(w.q) ** r
                for root in complex_roots(f):
                    assert abs(abs(root) ** 2 - target) < mp.mpf(2) ** -80 * target


# The library takes H^r and base change from power sums; the compound-matrix
# and companion-power routes below are the independent oracles.

def _supersingular_powers(q=5, k_max=3):
    # E^k for E of trace 0: for k >= 2 every root of H^1 is repeated
    e = weil_from_trace(0, q)
    out = [e]
    for _ in range(k_max - 1):
        out.append(product_variety(out[-1], e))
    return out


def test_h_charpoly_matches_compound_oracle():
    for w in instance_suite(12, d_max=3, seed=19) + _supersingular_powers():
        for r in range(1, 2 * w.d + 1):
            assert h_charpoly(w, r) == charpoly(compound_matrix(companion(w.poly), r))


def test_h_charpoly_matches_compound_oracle_d4():
    # quartic x elliptic x elliptic over F_7; H^4 has degree 70
    quartic = validate_weil(IntPoly([49, 7, 3, 1, 1]), 7)
    w = product_variety(product_variety(quartic, weil_from_trace(2, 7)), weil_from_trace(-3, 7))
    assert h_charpoly(w, 4) == charpoly(compound_matrix(companion(w.poly), 4))


def test_base_change_matches_companion_power_oracle():
    for w in instance_suite(12, d_max=3, seed=20) + _supersingular_powers():
        for n in range(1, 5):
            assert base_change(w, n).poly == charpoly(matrix_power(companion(w.poly), n))


# ---------------------------------------------------------------------------
# base change

def test_base_change_identity():
    w = validate_weil(IntPoly([5, -3, 1]), 5)
    assert base_change(w, 1) == w


def test_base_change_supersingular_derived():
    # both roots of T^2 + 5 square to -5
    w = validate_weil(IntPoly([5, 0, 1]), 5)
    w2 = base_change(w, 2)
    assert w2.poly == IntPoly([25, 10, 1])
    assert w2.q == 25 and w2.p == 5


def test_base_change_composition():
    rng = random.Random(16)
    for _ in range(15):
        w = random_weil(rng, d_max=2, q_max=13)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        assert base_change(base_change(w, a), b) == base_change(w, a * b)


def test_base_change_rejects_nonpositive():
    with pytest.raises(ValueError):
        base_change(weil_from_trace(0, 5), 0)


def _root_multiset_close(f, g, prec=200):
    with mp.workprec(prec + 64):
        ra = complex_roots(f)
        rb = complex_roots(g)
        tol = mp.mpf(2) ** -(prec // 2)
        rem = list(rb)
        for v in ra:
            best = min(range(len(rem)), key=lambda i: abs(rem[i] - v))
            assert abs(rem[best] - v) < tol * (1 + abs(v))
            rem.pop(best)


def test_base_change_commutes_with_h_charpoly_numeric():
    # roots of H^{r} after base change are the n-th powers of the H^{r} roots
    rng = random.Random(17)
    for _ in range(10):
        w = random_weil(rng, d_max=3, q_max=13)
        n = rng.randint(1, 3)
        r = rng.randint(1, 2 * w.d)
        lhs = h_charpoly(base_change(w, n), r)
        base = h_charpoly(w, r)
        with mp.workprec(280):
            roots = complex_roots(base)
            powered = [root**n for root in roots]
            lhs_roots = complex_roots(lhs)
            tol = mp.mpf(2) ** -80
            rem = list(lhs_roots)
            for v in powered:
                best = min(range(len(rem)), key=lambda i: abs(rem[i] - v))
                assert abs(rem[best] - v) < tol * (1 + abs(v))
                rem.pop(best)


def test_reciprocal_form_reverses_coefficients():
    f = IntPoly([5, -3, 1])
    assert reciprocal_form(f) == IntPoly([1, -3, 5])
