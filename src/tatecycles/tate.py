"""Tate-class dimensions over finite fields and their extensions.

For a Weil polynomial w with H^1 eigenvalues alpha_1..alpha_2d, the dimension
of the codimension-k Tate-class space over the degree-n extension is the
number of 2k-element index subsets I with alpha_I^n = q^{kn}, counted with
multiplicity (alpha_I is the product of the eigenvalues indexed by I).

Writing Q for the characteristic polynomial on H^{2k} and R(T) = Q(q^k T),
the roots of R are the ratios alpha_I / q^k, and alpha_I^n = q^{kn} exactly
when that ratio is an n-th root of unity.  A primitive m-th root of unity
occurs among the roots of R with multiplicity e exactly when the m-th
cyclotomic polynomial divides R to the e-th power, and it then contributes
phi(m) * e roots.  Hence

    dim(k, n) = sum over m | n of phi(m) * mult(R, Phi_m)

and only m with phi(m) <= deg R = binom(2d, 2k) can occur, which bounds the
extension degree needed to see every Tate class independently of q.

The scan divides R by Phi_m only for the m that pass a modular pre-test,
and the pre-test never drops a true factor: if Phi_m divides R over Z, then
for a prime l = 1 (mod m) and z of exact order m in F_l, z is a root of
Phi_m modulo l, so R(z) = 0 (mod l).  An m that passes by chance costs one
exact division that finds no factor.  The m are split, in ascending order,
into batches whose lcm L is at most 2^40; each batch shares one prime
l = 1 (mod L) above 2^61 and an element g of exact order L, with
z_m = g^(L/m).  Q is reduced modulo the product of the primes of eight
consecutive batches before it is reduced modulo each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm, prod

from .polycore import (
    BudgetExceededError,
    IntPoly,
    _is_prime_mr,
    cyclotomic_multiplicity,
    euler_phi,
    factorization,
    is_prime,
)
from .weil import WeilPoly, h_charpoly

__all__ = [
    "TateRow",
    "TateProfile",
    "tate_dim",
    "stable_tate_dim",
    "tate_profile",
    "degree_bound",
    "totient_bounded_set",
]

DISPLAY_N_CAP = 60
# largest n_report tate_profile tabulates; at d = 2 the CLI report for
# 10^5 degrees is already 19 MB of JSON
N_REPORT_BUDGET = 10**5
# largest dimension tate_profile reports on; at d = 6 the rows take about
# 5.3 s and 23 MB (2 cores, Python 3.11.7): 4.4 s for the H^6 charpoly, 1.3 s
# for the k = 3 scan (a six-fold elliptic product over F_7)
D_REPORT_BUDGET = 5


@lru_cache(maxsize=None)
def totient_bounded_set(bound: int) -> tuple[int, ...]:
    """All m >= 1 with phi(m) <= bound, ascending.

    phi is multiplicative, so the members are the products of prime powers
    p^e over distinct primes whose totients (p - 1) p^(e-1) multiply to at
    most bound; they are enumerated depth first over the primes p <= bound + 1
    (Contini, Croot & Shparlinski 2006), with no factorisation.

    >>> totient_bounded_set(2)
    (1, 2, 3, 4, 6)
    """
    if bound < 1:
        return ()
    primes = [p for p in range(2, bound + 2) if is_prime(p)]
    out = []

    def extend(start: int, m: int, phi: int) -> None:
        out.append(m)
        for i in range(start, len(primes)):
            p = primes[i]
            if phi * (p - 1) > bound:
                break  # the primes ascend, so no later one fits either
            power, phi_power = p, p - 1
            while phi * phi_power <= bound:
                extend(i + 1, m * power, phi * phi_power)
                power, phi_power = power * p, phi_power * p

    extend(0, 1, 1)
    return tuple(sorted(out))


def degree_bound(d: int, k: int) -> int:
    """Extension degree over which every codimension-k Tate class of every
    d-dimensional instance is defined: lcm of the m with
    phi(m) <= binom(2d, 2k).

    >>> degree_bound(1, 1)
    2
    >>> degree_bound(2, 1)
    2520
    """
    _check_codim(d, k)
    return lcm(*totient_bounded_set(comb(2 * d, 2 * k)))


def _check_codim(d: int, k: int, n: int = 1) -> None:
    if not 0 <= k <= d:
        raise ValueError(f"codimension k = {k} out of range 0..{d}")
    if n < 1:
        raise ValueError("extension degree must be >= 1")


# a chance pass needs l | R(z_m), which a prime l above 2^61 makes rare
_WITNESS_PRIME_FLOOR = 2**61
_WITNESS_BATCH_LCM_MAX = 2**40
# batches whose primes share one first reduction of Q; at d = 6, k = 3
# (416 batches, 7,782-bit coefficients) groups of 8 and 16 reduce fastest,
# 32 and more slower, and the product of all 416 primes slower than none
_WITNESS_GROUP = 8


@lru_cache(maxsize=None)
def _witness_table(bound: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Batches (l, ((m, z_m), ...)) covering totient_bounded_set(bound) in
    ascending order, where z_m has exact order m in F_l."""
    batches: list[list[int]] = []
    L = 0
    for m in totient_bounded_set(bound):
        if not batches or lcm(L, m) > _WITNESS_BATCH_LCM_MAX:
            batches.append([])
            L = 1
        batches[-1].append(m)
        L = lcm(L, m)
    table = []
    for ms in batches:
        L = lcm(*ms)
        l = -(-_WITNESS_PRIME_FLOOR // L) * L + 1
        while not _is_prime_mr(l):
            l += L
        # g of exact order L: a product of elements of exact order r^e, one
        # for each prime power r^e || L
        g = 1
        for r, e in factorization(L):
            h = 1
            while True:
                h += 1
                x = pow(h, (l - 1) // r**e, l)
                if pow(x, r ** (e - 1), l) != 1:
                    break
            g = g * x % l
        table.append((l, tuple((m, pow(g, L // m, l)) for m in ms)))
    return tuple(table)


def _cyclotomic_scan(Q: IntPoly, s: int) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e), ascending in m, with e > 0 the multiplicity of the m-th
    cyclotomic polynomial in R(T) = Q(sT).  Only the m whose witness z_m is a
    root of R modulo l are divided out exactly (see the module docstring)."""
    R = Q.scale_variable(s)
    table = _witness_table(R.degree)
    # R(z) = Q(sz); for s = q^k, Q has about half the coefficient bits of R
    top_down_Q = Q.coeffs[::-1]
    out = []
    for start in range(0, len(table), _WITNESS_GROUP):
        group = table[start:start + _WITNESS_GROUP]
        top_down_group = top_down_Q
        if len(group) > 1:
            # one reduction modulo the product of the group's primes leaves
            # a short number to reduce modulo each prime
            modulus = prod(l for l, _ in group)
            top_down_group = [c % modulus for c in top_down_Q]
        for l, witnesses in group:
            top_down = [c % l for c in top_down_group]
            for m, z in witnesses:
                x, acc = s * z % l, 0
                for c in top_down:
                    acc = (acc * x + c) % l
                if acc == 0:
                    e = cyclotomic_multiplicity(R, m)
                    if e:
                        out.append((m, e))
    return tuple(out)


@lru_cache(maxsize=1024)
def _unity_ratio_multiplicities(w: WeilPoly, k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e) with e > 0 the multiplicity of the m-th cyclotomic
    polynomial in R(T) = Q(q^k T), Q the H^{2k} characteristic polynomial;
    complete because any Phi_m dividing R has phi(m) <= deg R."""
    return _cyclotomic_scan(h_charpoly(w, 2 * k).poly, w.q**k)


def _stable(mults: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Number of roots of unity among the roots of R, with multiplicity, and
    the lcm of their orders, from the pairs (m, e) of
    _unity_ratio_multiplicities."""
    return sum(euler_phi(m) * e for m, e in mults), lcm(*(m for m, _ in mults))


def tate_dim(w: WeilPoly, k: int, n: int) -> int:
    """Dimension of the codimension-k Tate classes over the degree-n extension.

    >>> from tatecycles.weil import weil_from_trace, product_variety
    >>> e = weil_from_trace(0, 5)
    >>> w = product_variety(e, e)
    >>> tate_dim(w, 1, 1), tate_dim(w, 1, 2)
    (4, 6)
    """
    _check_codim(w.d, k, n)
    mults = _unity_ratio_multiplicities(w, k)
    return sum(euler_phi(m) * e for m, e in mults if n % m == 0)


def stable_tate_dim(w: WeilPoly, k: int) -> tuple[int, int]:
    """Dimension over the algebraic closure and the least extension degree
    attaining it.

    The stable dimension counts every eigenvalue-product ratio that is a root
    of unity; the minimal degree is the lcm of their orders (1 if only the
    trivial ratio occurs).
    """
    _check_codim(w.d, k)
    return _stable(_unity_ratio_multiplicities(w, k))


@dataclass(frozen=True)
class TateRow:
    k: int
    dims: tuple[tuple[int, int], ...]  # (n, dim), n = 1..n_report
    stable_dim: int
    min_stable_degree: int
    degree_bound: int


@dataclass(frozen=True)
class TateProfile:
    q: int
    d: int
    rows: tuple[TateRow, ...]


def tate_profile(w: WeilPoly, n_report: int | None = None) -> TateProfile:
    """Full per-codimension table of Tate-class dimensions.

    ``n_report`` controls how many extension degrees are tabulated per row;
    by default each row runs to its degree bound, capped at 60 for display.
    The stable data is always exact regardless of the cap.  An ``n_report``
    above N_REPORT_BUDGET or a dimension above D_REPORT_BUDGET raises
    BudgetExceededError.
    """
    if n_report is not None and n_report < 1:
        raise ValueError("n_report must be >= 1")
    if n_report is not None and n_report > N_REPORT_BUDGET:
        raise BudgetExceededError(f"reports capped at n_max <= {N_REPORT_BUDGET}")
    if w.d > D_REPORT_BUDGET:
        raise BudgetExceededError(f"reports capped at dimension d <= {D_REPORT_BUDGET}")
    rows = []
    for k in range(w.d + 1):
        bound = degree_bound(w.d, k)
        n_max = n_report if n_report is not None else min(bound, DISPLAY_N_CAP)
        mults = _unity_ratio_multiplicities(w, k)
        # dim(n) = sum over m | n of phi(m) e, sieved over the multiples of m
        dim = [0] * (n_max + 1)
        for m, e in mults:
            roots = euler_phi(m) * e
            for n in range(m, n_max + 1, m):
                dim[n] += roots
        dims = tuple(zip(range(1, n_max + 1), dim[1:]))
        stable, min_deg = _stable(mults)
        rows.append(
            TateRow(k=k, dims=dims, stable_dim=stable, min_stable_degree=min_deg, degree_bound=bound)
        )
    return TateProfile(q=w.q, d=w.d, rows=tuple(rows))
