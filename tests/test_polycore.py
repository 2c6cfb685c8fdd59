"""Kernel tests: polynomial arithmetic, cyclotomics, characteristic and
compound matrices, with the stated independent oracles."""

import itertools
import random
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from mpmath import mp

from oracles import companion, complex_roots
from tatecycles.cmlab import primes_up_to
from tatecycles.polycore import (
    FACTOR_TRIAL_BOUND,
    BudgetExceededError,
    IntPoly,
    InternalError,
    PolyFormatError,
    _sturm_counts,
    charpoly,
    compound_matrix,
    cyclotomic,
    cyclotomic_multiplicity,
    divisors,
    euler_phi,
    factorization,
    format_poly,
    from_power_sums,
    is_prime,
    parse_int_list,
    parse_poly,
    poly_gcd,
    power_sums,
    real_root_count,
    squarefree_decomposition,
    squarefree_part,
)
from tatecycles.tate import totient_bounded_set

T = IntPoly([0, 1])


# ---------------------------------------------------------------------------
# arithmetic

def test_mul_example():
    assert IntPoly([2, 1]) * IntPoly([-3, 1]) == IntPoly([-6, -1, 1])


def test_divrem_example():
    q, r = divmod(IntPoly([-1, 0, 1]), IntPoly([-1, 1]))
    assert q == IntPoly([1, 1]) and r.is_zero()


def test_scale_variable_example():
    assert IntPoly([5, -3, 1]).scale_variable(5) == IntPoly([5, -15, 25])


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(IntPoly([1, 1]), IntPoly())


def test_ring_laws_random():
    rng = random.Random(1)
    for _ in range(50):
        a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        c = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        x = rng.randint(-5, 5)
        assert (a * b)(x) == a(x) * b(x)


def test_divrem_roundtrip_random():
    rng = random.Random(2)
    for _ in range(50):
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])  # monic
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly().degree == -1


def test_parse_format():
    assert parse_poly("5,-3,1") == IntPoly([5, -3, 1])
    assert parse_poly(" 5 , -3 , 1 ") == IntPoly([5, -3, 1])
    assert parse_poly("") == IntPoly()
    assert format_poly(IntPoly([5, -3, 1])) == "5,-3,1"
    assert format_poly(IntPoly()) == ""
    with pytest.raises(PolyFormatError):
        parse_poly("+5,1")
    with pytest.raises(PolyFormatError):
        parse_poly("1,,2")
    with pytest.raises(PolyFormatError):
        parse_poly("1,a")


@pytest.mark.parametrize("token", ["+2", "1_1", "٠", "²", "٣", "- 3", "0x10", "1.5", ""])
def test_parse_int_list_takes_ascii_digits_only(token):
    # int() reads every one of these but "- 3", "0x10", "1.5" and "";
    # isdigit() passes the superscript and the Arabic-Indic digits
    assert parse_int_list(" 5 , -3,1 ") == [5, -3, 1] and parse_int_list("") == []
    with pytest.raises(PolyFormatError, match="bad integer"):
        parse_int_list(f"5,{token},1")
    with pytest.raises(PolyFormatError):
        parse_poly(f"5,{token},1")


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def test_cyclotomic_small():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(3) == IntPoly([1, 1, 1])
    assert cyclotomic(4) == IntPoly([1, 0, 1])
    assert cyclotomic(6) == IntPoly([1, -1, 1])


def test_cyclotomic_12_against_hand_division():
    # divide T^12 - 1 by the hand-written proper-divisor factors
    t12 = IntPoly([-1] + [0] * 11 + [1])
    hand = [
        IntPoly([-1, 1]),       # m=1
        IntPoly([1, 1]),        # m=2
        IntPoly([1, 1, 1]),     # m=3
        IntPoly([1, 0, 1]),     # m=4
        IntPoly([1, -1, 1]),    # m=6
    ]
    prod = IntPoly([1])
    for h in hand:
        prod = prod * h
    q, r = divmod(t12, prod)
    assert r.is_zero()
    assert q == IntPoly([1, 0, -1, 0, 1])
    assert cyclotomic(12) == q


def test_cyclotomic_product_identity_up_to_200():
    for m in range(1, 201):
        prod = IntPoly([1])
        for d in divisors(m):
            prod = prod * cyclotomic(d)
        assert prod == IntPoly([-1] + [0] * (m - 1) + [1]), m


def test_cyclotomic_degree_is_phi():
    for m in range(1, 60):
        assert cyclotomic(m).degree == euler_phi(m)


def test_cyclotomic_large_prime_is_cached_all_ones():
    # Phi_p = 1 + T + ... + T^(p-1) for a prime p, memoised at any size
    phi = cyclotomic(10007)
    assert phi == IntPoly([1] * 10007)
    assert phi.degree == 10006
    assert cyclotomic(10007) is phi


def test_cyclotomic_multiplicity_examples():
    f = IntPoly([-1, 1]) ** 2 * IntPoly([1, 1])  # (T-1)^2 (T+1)
    assert cyclotomic_multiplicity(f, 1) == 2
    assert cyclotomic_multiplicity(f, 2) == 1
    assert cyclotomic_multiplicity(IntPoly([1, 0, -1, 0, 1]), 12) == 1
    with pytest.raises(ValueError):
        cyclotomic_multiplicity(IntPoly(), 1)


def test_cyclotomic_multiplicity_increment_property():
    rng = random.Random(3)
    for _ in range(30):
        f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))] + [1])
        m = rng.randint(1, 12)
        before = cyclotomic_multiplicity(f, m)
        assert cyclotomic_multiplicity(f * cyclotomic(m), m) == before + 1


def _cyclotomic_multiplicity_by_divmod(f, m):
    # the repeated IntPoly.__divmod__ loop that the list-based kernel replaced
    phi = cyclotomic(m)
    if phi.degree > f.degree:
        return 0
    e = 0
    while True:
        q, r = divmod(f, phi)
        if not r.is_zero():
            return e
        e += 1
        f = q
        if f.degree < phi.degree:
            return e


def test_cyclotomic_multiplicity_matches_divmod_oracle():
    rng = random.Random(8)
    ms = totient_bounded_set(20)
    for trial in range(150):
        # a product of cyclotomic powers, times a random cofactor (often
        # non-monic) or a non-unit constant, or alone
        f = IntPoly([1])
        for m in rng.sample(ms, rng.randint(1, 4)):
            f = f * cyclotomic(m) ** rng.randint(1, 3)
        shape = trial % 3
        if shape == 1:
            cofactor = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            f = f * IntPoly(cofactor + [rng.choice([-3, -2, -1, 1, 2, 5])])
        elif shape == 2:
            f = f * rng.choice([-4, 2, 3, 7])
        for m in ms:
            assert cyclotomic_multiplicity(f, m) == _cyclotomic_multiplicity_by_divmod(f, m), (f, m)


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic(0)


# ---------------------------------------------------------------------------
# power sums

def test_power_sums_example():
    # roots 1, 2, 3
    f = IntPoly([-6, 11, -6, 1])
    assert power_sums(f, 4) == [6, 14, 36, 98]
    assert power_sums(IntPoly([1]), 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        power_sums(IntPoly([5, -3, 2]), 2)


def test_power_sums_round_trip():
    rng = random.Random(30)
    for _ in range(100):
        deg = rng.randint(1, 9)
        f = IntPoly([rng.randint(-50, 50) for _ in range(deg)] + [1])
        assert from_power_sums(power_sums(f, deg)) == f


def test_from_power_sums_rejects_inexact_division():
    # p_1 = 1, p_2 = 0 would need e_2 = 1/2
    with pytest.raises(InternalError):
        from_power_sums([1, 0])


# ---------------------------------------------------------------------------
# characteristic polynomials

def test_charpoly_2x2_example():
    M = [[0, -2], [1, 3]]
    assert charpoly(M) == IntPoly([2, -3, 1])


def test_charpoly_identity():
    assert charpoly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == IntPoly([-1, 1]) ** 3


def test_charpoly_non_square():
    with pytest.raises(ValueError):
        charpoly([[1, 2]])


@pytest.mark.parametrize(
    "A", [[], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]], ids=["empty", "ragged", "non-square"]
)
def test_matrix_shape_is_checked(A):
    with pytest.raises(ValueError, match="non-empty square matrix"):
        charpoly(A)
    with pytest.raises(ValueError, match="non-empty square matrix"):
        compound_matrix(A, 1)


def _det_fraction(rows):
    # plain Gaussian elimination over the rationals
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        inv = 1 / a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] * inv
            if f:
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return det


def _charpoly_interpolation_oracle(M):
    # evaluate det(xI - M) at n+1 points by fraction elimination, then
    # Lagrange-interpolate; fully independent of the Berkowitz path
    n = len(M)
    points = list(range(n + 1))
    values = [
        _det_fraction([[(x if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)])
        for x in points
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(points):
        basis = [Fraction(1)]  # prod over j != i of (x - xj)
        den = Fraction(1)
        for j, xj in enumerate(points):
            if i == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= xj * c
                new[k + 1] += c
            basis = new
            den *= xi - xj
        w = values[i] / den
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([int(c) for c in coeffs])


def test_charpoly_against_fraction_elimination_oracle():
    rng = random.Random(4)
    for _ in range(25):
        n = 4
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert charpoly(M) == _charpoly_interpolation_oracle(M)


# ---------------------------------------------------------------------------
# companion matrices

def test_companion_examples():
    assert companion(IntPoly([-5, 1])) == [[5]]
    assert companion(IntPoly([5, -3, 1])) == [[0, -5], [1, 3]]
    with pytest.raises(ValueError):
        companion(IntPoly([5, -3, 2]))
    with pytest.raises(ValueError):
        companion(IntPoly([1]))


def test_companion_charpoly_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        deg = rng.randint(1, 8)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        assert charpoly(companion(f)) == f


# ---------------------------------------------------------------------------
# compound matrices

def test_compound_top_power_is_determinant():
    rng = random.Random(6)
    for n in (2, 3, 4):
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        top = compound_matrix(M, n)
        assert len(top) == len(top[0]) == 1
        assert charpoly(top) == IntPoly([-top[0][0], 1])


def test_compound_first_power_is_matrix():
    M = [[1, 2], [3, 4]]
    assert compound_matrix(M, 1) == M


def test_compound_of_companion_example():
    M = companion(IntPoly([2, -3, 1]))  # roots 1, 2
    c2 = compound_matrix(M, 2)
    assert c2 == [[2]]
    assert charpoly(c2) == IntPoly([-2, 1])


def test_compound_out_of_range():
    M = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        compound_matrix(M, 3)
    with pytest.raises(ValueError):
        compound_matrix(M, 0)


def test_compound_degree_and_determinant_relation():
    rng = random.Random(7)
    for _ in range(10):
        s = rng.randint(2, 5)
        r = rng.randint(1, s)
        M = [[rng.randint(-5, 5) for _ in range(s)] for _ in range(s)]
        cp = charpoly(compound_matrix(M, r))
        N = comb(s, r)
        assert cp.degree == N
        det_m = compound_matrix(M, s)[0][0]
        const = cp.coeffs[0] if cp.coeffs else 0
        assert const * (-1) ** N == det_m ** comb(s - 1, r - 1)


def _match_multisets(values, targets, tol):
    remaining = list(targets)
    for v in values:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - v))
        assert abs(remaining[best] - v) < tol
        remaining.pop(best)
    assert not remaining


def test_compound_eigenvalues_are_subset_products():
    rng = random.Random(8)
    with mp.workprec(300):
        tol = mp.mpf(2) ** -100
        for s in (2, 3, 4, 5, 6):
            M = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(s)]
            eigs = complex_roots(charpoly(M))
            for r in range(1, s + 1):
                comp_eigs = complex_roots(charpoly(compound_matrix(M, r)))
                products = []
                for I in itertools.combinations(range(s), r):
                    prod = mp.mpc(1)
                    for i in I:
                        prod *= eigs[i]
                    products.append(prod)
                _match_multisets(products, comp_eigs, tol)


# ---------------------------------------------------------------------------
# gcd and squarefree structure

def test_poly_gcd_basic():
    f = IntPoly([-1, 1]) ** 2 * IntPoly([1, 1])
    g = IntPoly([-1, 1]) * IntPoly([1, 1]) ** 2
    assert poly_gcd(f, g) == IntPoly([-1, 1]) * IntPoly([1, 1])


def test_squarefree_part_and_decomposition():
    f = IntPoly([-1, 1]) ** 3 * IntPoly([1, 1]) * IntPoly([2, 0, 1]) ** 2
    assert squarefree_part(f) == IntPoly([-1, 1]) * IntPoly([1, 1]) * IntPoly([2, 0, 1])
    decomp = dict((e, g) for g, e in squarefree_decomposition(f))
    assert decomp[3] == IntPoly([-1, 1])
    assert decomp[1] == IntPoly([1, 1])
    assert decomp[2] == IntPoly([2, 0, 1])


def test_squarefree_decomposition_random_reconstruction():
    rng = random.Random(9)
    for _ in range(20):
        f = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            g = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
            f = f * g ** rng.randint(1, 3)
        rebuilt = IntPoly([1])
        for g, e in squarefree_decomposition(f):
            rebuilt = rebuilt * g**e
        # equal up to content: compare after clearing the leading coefficients
        assert rebuilt.degree == f.degree
        assert f * rebuilt.leading == rebuilt * f.leading


def _random_factor(rng):
    return IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.choice([1, 2, 3])])


def test_poly_gcd_random_products():
    # g divides a and b with coprime cofactors: that characterises the gcd
    rng = random.Random(23)
    for _ in range(200):
        common = IntPoly([rng.choice([1, 2, 6])])
        for _ in range(rng.randint(0, 2)):
            common = common * _random_factor(rng)
        a, b = common, common
        for _ in range(rng.randint(0, 3)):
            a = a * _random_factor(rng)
        for _ in range(rng.randint(0, 3)):
            b = b * _random_factor(rng)
        g = poly_gcd(a, b)
        content = 0
        for c in g.coeffs:
            content = gcd(content, c)
        assert content == 1 and g.leading > 0
        g // poly_gcd(common, IntPoly())  # the primitive part of the common factor divides g
        assert poly_gcd(a // g, b // g) == IntPoly([1])
        assert poly_gcd(b, a) == g


def _irreducible_quadratic(rng):
    while True:
        b, c = rng.randint(-6, 6), rng.randint(-9, 9)
        disc = b * b - 4 * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return b, c


def test_real_root_count_matches_brute_force():
    # products of integer linear factors and irreducible quadratics, with
    # repeats; the real roots of T^2 + bT + c are (-b +- sqrt(disc)) / 2
    rng = random.Random(24)
    for _ in range(300):
        f = IntPoly([rng.choice([1, -1, 3])])
        roots: set = set()
        for _ in range(rng.randint(0, 4)):
            r = rng.randint(-6, 6)
            f = f * IntPoly([-r, 1]) ** rng.randint(1, 3)
            roots.add(r)
        for _ in range(rng.randint(0, 2)):
            b, c = _irreducible_quadratic(rng)
            f = f * IntPoly([c, b, 1]) ** rng.randint(1, 2)
            disc = b * b - 4 * c
            if disc > 0:
                roots |= {(-b + sign * disc**0.5) / 2 for sign in (1, -1)}
        lo = rng.randint(-7, 7)
        hi = lo + rng.randint(0, 8)
        expected = sum(lo <= r <= hi for r in roots)
        assert real_root_count(f, lo, hi) == expected, (f, lo, hi)


def test_sturm_counts_read_distinct_roots_off_the_chain():
    # the second count, deg f - deg gcd(f, f') after the endpoint roots are
    # divided out, is the degree of the squarefree part, with roots at lo and
    # hi and repeated factors of every kind
    rng = random.Random(341)
    for _ in range(300):
        lo = rng.randint(-4, 4)
        hi = lo + rng.randint(0, 5)
        f = IntPoly([rng.choice([1, -2, 3])])
        for _ in range(rng.randint(1, 5)):
            factor = IntPoly([-rng.choice([lo, hi, rng.randint(-6, 6)]), 1])
            if rng.random() < 0.3:
                factor = IntPoly(list(_irreducible_quadratic(rng)[::-1]) + [1])
            f = f * factor ** rng.randint(1, 3)
        counts = _sturm_counts(list(f.coeffs), lo, hi)
        assert counts == (real_root_count(f, lo, hi), squarefree_part(f).degree), (f, lo, hi)


def test_real_root_count_rejects_bad_input():
    with pytest.raises(ValueError):
        real_root_count(IntPoly(), 0, 1)
    with pytest.raises(ValueError):
        real_root_count(IntPoly([-1, 1]), 2, 1)


# ---------------------------------------------------------------------------
# factorization, the one trial-division loop

def test_is_prime_matches_sieve():
    limit = 10**5
    sieved = set(primes_up_to(limit))
    assert [n for n in range(-3, limit) if is_prime(n)] == sorted(sieved)


def test_factorization_multiplies_back():
    rng = random.Random(7)
    samples = list(range(1, 2000)) + [rng.randrange(1, 10**12) for _ in range(30)]
    samples += [2**40, 3**25, 999983**2, 2 * 3 * 5 * 7 * 11 * 13 * 999983]
    for n in samples:
        pe = factorization(n)
        primes = [p for p, _ in pe]
        assert primes == sorted(set(primes))
        assert all(e >= 1 and is_prime(p) for p, e in pe)
        out = 1
        for p, e in pe:
            out *= p**e
        assert out == n


def test_factorization_rejects_nonpositive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorization(n)


def test_factorization_budget_edge():
    assert FACTOR_TRIAL_BOUND == 10**6
    # a prime just below the bound squared needs the whole trial range
    assert factorization(999999000001) == ((999999000001, 1),)
    assert is_prime(999999000001)
    # the square of the largest prime below the bound
    assert factorization(999983**2) == ((999983, 2),)
    assert not is_prime(999983**2)
    # small factors are split off before the cap applies to the cofactor
    assert factorization(8 * 999999000001) == ((2, 3), (999999000001, 1))
    # both factors of this semiprime lie above the bound
    with pytest.raises(BudgetExceededError):
        factorization(1000003 * 1000033)
    with pytest.raises(BudgetExceededError):
        is_prime(1000000000000000003)

