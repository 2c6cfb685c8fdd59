"""Oracles: independent routes the tests hold the exact library to.

``complex_roots`` finds the complex roots of an integer polynomial and
``tate_dim_numeric`` counts Tate classes by enumerating eigenvalue subsets.
Neither shares code with the exact cyclotomic route they check, and the
library itself never calls them, so importing it loads no mpmath.
``h_charpoly_full`` recovers every coefficient of the H^r charpoly by
Newton's identities, where the library recovers half, mirrors the rest
through the functional equation and takes r > d from the Poincare dual.
``unfiltered_scan`` divides the H^{2k} ratio polynomial built from it by
every Phi_m of the totient-bounded set, with no pre-test, no Galois filter
and no cache shared with the library.
``carmichael_lambda`` takes the exponent of (Z/n)^* from the factorization
of n, for the Galois filter's allowed orders, which the library finds depth
first over the prime powers of one modulus.
``ap_charsum`` counts points by Euler's criterion on the long Weierstrass
model, with no Legendre table, no short model and no group law.
``companion`` and ``matrix_power`` build integer matrices, as lists of rows,
whose ``polycore.charpoly`` (of a ``polycore.compound_matrix`` for H^r)
checks the power-sum routes of ``h_charpoly`` and ``base_change``.
``pi_K_per_prime`` counts prime ideals from the list of every prime up to x
and one Kronecker symbol each, with no segments and no residue classes.
``ap_cm_cornacchia`` takes each CM trace from the representation
4p = x^2 + |D| y^2 that Cornacchia's algorithm finds from a Tonelli-Shanks
square root of D mod p, where the library walks lattice points with no
modular root; only the unit rule for D = -4 and D = -3 is the library's.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, isqrt, lcm

import mpmath
from mpmath import mp

from tatecycles.cmlab import _cm_ap, kronecker_symbol, primes_up_to
from tatecycles.polycore import (
    IntPoly,
    InternalError,
    _newton_coefficients,
    _primitive,
    cyclotomic_multiplicity,
    factorization,
    from_power_sums,
    power_sums,
    squarefree_decomposition,
)
from tatecycles.tate import _check_codim, totient_bounded_set
from tatecycles.weil import WeilPoly

NUMERIC_GUARD_MAX_H1_DEGREE = 16


class PrecisionInsufficientError(ArithmeticError):
    """The numeric oracle could not classify a subset product at the
    requested precision."""


def complex_roots(f: IntPoly):
    """All complex roots of f with multiplicity, as mpmath complex numbers.

    Roots are found on the squarefree factors (so repeated roots do not
    degrade accuracy) and replicated according to the Yun multiplicities.
    The accuracy is the caller's: call inside an mp.workprec context as wide
    as the precision wanted; polyroots adds only the coefficient bit length
    to that context.  ``mpmath.polyroots`` is looked up on the module at each
    call, so a test or a tracer that replaces it sees every call.
    """
    roots = []
    for g, e in squarefree_decomposition(f):
        if g.degree == 0:
            continue
        desc = [mp.mpf(c) for c in reversed(g.coeffs)]
        extra = max(abs(c).bit_length() for c in g.coeffs)
        found = mpmath.polyroots(desc, maxsteps=200, extraprec=extra)
        for r in found:
            roots.extend([mp.mpc(r)] * e)
    assert len(roots) == f.degree
    return roots


def _classify_distance(dist, threshold, band) -> bool:
    """True if the distance counts as zero, False if confidently nonzero;
    raises in the ambiguous band around the threshold."""
    if threshold / band <= dist <= threshold * band:
        raise PrecisionInsufficientError(
            f"distance {mp.nstr(dist, 8)} falls within a factor {mp.nstr(band, 4)} "
            f"of the threshold {mp.nstr(threshold, 8)}"
        )
    return dist < threshold


def companion(f: IntPoly) -> list[list[int]]:
    """Companion matrix of a monic polynomial of degree n >= 1: ones below
    the diagonal and -f_0, ..., -f_(n-1) down the last column, so
    charpoly(companion(f)) == f by construction."""
    n = f.degree
    if n < 1 or not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    return [[int(j == i - 1) for j in range(n - 1)] + [-f.coeffs[i]] for i in range(n)]


def matrix_power(A, n: int) -> list[list[int]]:
    """A^n for a square list of rows A and n >= 0, as n exact products."""
    power = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
    for _ in range(n):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*A)] for row in power]
    return power


def h_charpoly_full(w: WeilPoly, r: int) -> IntPoly:
    """Characteristic polynomial of Frobenius on H^r for 1 <= r <= 2d, with
    all binom(2d, r) coefficients from Newton's identities: its j-th power
    sum is e_r(alpha^j), read off Newton's recursion on p_j, ..., p_rj of w,
    for every j up to the degree."""
    degree = comb(2 * w.d, r)
    P = power_sums(w.poly, r * degree)
    sign = -1 if r % 2 else 1
    S = [sign * _newton_coefficients(P[j - 1:r * j:j])[-1] for j in range(1, degree + 1)]
    return from_power_sums(S)


def unfiltered_scan(w: WeilPoly, k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e), e > 0, of Phi_m^e dividing R(T) = Q(q^k T), Q the H^{2k}
    charpoly from ``h_charpoly_full`` (no mirror, no duality, no cache shared
    with the library), found by dividing R by Phi_m for every m with
    phi(m) <= deg R.

    Phi_m is primitive, so by Gauss's lemma its multiplicity in R is the one
    in the primitive part of R, which is what is divided (and cached)."""
    Q = h_charpoly_full(w, 2 * k) if k else IntPoly([-1, 1])
    return _divide_by_every_cyclotomic(IntPoly(_primitive(Q.scale_variable(w.q**k).coeffs)))


@lru_cache(maxsize=None)
def _divide_by_every_cyclotomic(R: IntPoly) -> tuple[tuple[int, int], ...]:
    mults = ((m, cyclotomic_multiplicity(R, m)) for m in totient_bounded_set(R.degree))
    return tuple((m, e) for m, e in mults if e)


def carmichael_lambda(n: int) -> int:
    """Exponent of (Z/n)^*: lcm of phi(p^e) over p^e || n, halved for 2^e, e > 2.

    >>> [carmichael_lambda(n) for n in (1, 2, 4, 8, 9, 16, 15)]
    [1, 1, 2, 2, 6, 4, 4]
    """
    out = 1
    for p, e in factorization(n):
        out = lcm(out, (p - 1) * p ** (e - 1) >> (p == 2 and e >= 3))
    return out


def pi_K_per_prime(D: int, x: int) -> int:
    """Prime ideals of Q(sqrt(D)) of norm <= x, one prime at a time."""
    count = 0
    for p in primes_up_to(x):
        chi = kronecker_symbol(D, p)
        if chi == 1:
            count += 2
        elif chi == 0:
            count += 1
        elif p * p <= x:
            count += 1
    return count


def sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p = 1 mod 4: Tonelli-Shanks
    t, s = p - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = 2  # a non-residue: 2 is one when p = 5 mod 8
    if p % 8 == 1:
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
    g = pow(z, t, p)
    x = pow(a, (t + 1) // 2, p)
    b = pow(a, t, p)
    r = s
    while b != 1:
        m, bb = 0, b
        while bb != 1:
            bb = bb * bb % p
            m += 1
        w = pow(g, 1 << (r - m - 1), p)
        g = w * w % p
        x = x * w % p
        b = b * g % p
        r = m
    return x


def cornacchia(D: int, p: int) -> tuple[int, int]:
    """Solve x^2 + |D| y^2 = 4p for fundamental D < 0 and an odd prime p that
    splits in Q(sqrt(D)) (Cohen, Alg. 1.5.3); x, y >= 0."""
    r = sqrt_mod_p(D % p, p)
    if (r - D) % 2:
        r = p - r  # parity so that r^2 = D mod 4p
    a, b = 2 * p, r
    limit = isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    t = 4 * p - b * b
    if t % (-D):
        raise InternalError(f"no representation x^2 + {-D}y^2 = {4 * p}")
    y2 = t // (-D)
    y = isqrt(y2)
    if y * y != y2:
        raise InternalError(f"no representation x^2 + {-D}y^2 = {4 * p}")
    return b, y


def ap_cm_cornacchia(D: int, p: int) -> tuple[str, int]:
    """(reduction type, |a_p|) of the CM curve of discriminant D at a prime p
    not dividing 2D, the trace from the Cornacchia representation."""
    if kronecker_symbol(D, p) == -1:
        return "supersingular", 0
    return "ordinary", _cm_ap(D, *cornacchia(D, p))


def ap_charsum(E, p: int) -> int | None:
    """a_p = p + 1 - #E(F_p) for a prime p, or None at bad reduction.

    For odd p, completing the square turns the long model into
    (2y + a1 x + a3)^2 = f(x) = (a1 x + a3)^2 + 4(x^3 + a2 x^2 + a4 x + a6),
    so each x has 1 + (f(x) | p) points, the symbol read by Euler's
    criterion f^((p-1)/2) mod p; p = 2 tries the four affine pairs (x, y)."""
    if E.discriminant() % p == 0:
        return None
    if p == 2:
        affine = sum(
            (y * y + E.a1 * x * y + E.a3 * y - x**3 - E.a2 * x * x - E.a4 * x - E.a6) % 2 == 0
            for x in range(2) for y in range(2)
        )
        return 2 - affine
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    e = (p - 1) // 2
    powers = [pow(((a1 * x + a3) ** 2 + 4 * (((x + a2) * x + a4) * x + a6)) % p, e, p) for x in range(p)]
    return powers.count(p - 1) - powers.count(1)


@lru_cache(maxsize=32)
def _h1_roots(f: IntPoly, work: int) -> tuple:
    with mp.workprec(work):
        return tuple(complex_roots(f))


def tate_dim_numeric(w: WeilPoly, k: int, n: int, precision_bits: int = 200) -> int:
    """Brute-force oracle: find all H^1 roots numerically, enumerate the
    2k-element subsets, and count products with alpha_I^n = q^{kn}.

    Counts |alpha_I^n - q^{kn}| below 2^{-precision_bits/2} * q^{kn} as zero
    and raises PrecisionInsufficientError whenever a distance lands within a
    factor 2^{precision_bits/4} of that threshold.  Independent of the exact
    cyclotomic path: no compound matrices, no cyclotomic polynomials.
    """
    _check_codim(w.d, k, n)
    if 2 * w.d > NUMERIC_GUARD_MAX_H1_DEGREE:
        raise ValueError(f"subset enumeration guard: 2d must be <= {NUMERIC_GUARD_MAX_H1_DEGREE}")
    coeff_bits = max(abs(c).bit_length() for c in w.poly.coeffs)
    work = precision_bits + coeff_bits + 2 * n * k * w.q.bit_length() + 64
    work = -(-work // 256) * 256  # rounded up, so that (k, n) pairs share roots
    with mp.workprec(work):
        roots = _h1_roots(w.poly, work)
        target = mp.mpf(w.q) ** (k * n)
        threshold = mp.mpf(2) ** (-(precision_bits // 2)) * target
        band = mp.mpf(2) ** (precision_bits // 4)
        count = 0
        for I in itertools.combinations(range(2 * w.d), 2 * k):
            prod = mp.mpc(1)
            for i in I:
                prod *= roots[i]
            dist = abs(prod**n - target)
            if _classify_distance(dist, threshold, band):
                count += 1
    return count
