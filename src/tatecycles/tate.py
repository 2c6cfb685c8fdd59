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
``tate_profile`` returns these dimensions as a plain tuple of ``TateRow``s,
one for each k = 0..d; q and d are read off w itself.  Poincare duality
makes row d - k equal to row k: the H^{2k} roots are q^{2k-d} times the
H^{2d-2k} roots, so R_k(T) = s^N R_{d-k}(T) with s = q^{2k-d}, and the rows
with 2k > d reuse the cyclotomic pairs of row d - k.

The cyclotomic scan skips every m whose Carmichael lambda(m) does not divide
E_d = 2 lcm(1..d).  The roots of R lie in the splitting field K of w, whose
Galois group commutes with alpha -> q/alpha and so embeds in W(C_d), times a
swap of +-sqrt(q); its exponent divides E_d, and a primitive m-th root of unity
in K makes (Z/m)^* a quotient of it (Kedlaya 2008; Dupuy, Kedlaya, Roe &
Vincent 2021).  R is divided by Phi_m only for the allowed m that pass a
modular pre-test, which never drops a true factor: if Phi_m divides R over Z,
then R(z) = 0 (mod l) for a prime l = 1 (mod m) and any z of exact order m in
F_l; a chance pass costs one exact division.  For d <= 6, E_d divides 120 and
every allowed m divides L = 2^5 3^2 5^2 7 11 13 31 41 61, so one field F_P,
P = 5L + 1 (the least prime = 1 (mod L) above 2^40), and one g of exact order
L serve every row: z_m is the product of the g^(L/r) over the prime powers
r || m, whose orders are coprime.  The size of P sets how rare a chance pass
is (one m in about 2^40).  The test runs on half of R: its roots pair as
u <-> 1/u, so R_i = (-1)^N R_(N-i) (see h_charpoly).  Dividing R by its
content keeps every Phi_m multiplicity (Gauss's lemma), and dividing out T - 1
when R is anti-palindromic, then T + 1 when the degree left is odd, leaves a
palindromic S of degree 2h with S(z) = z^h V(z + 1/z).  For z of order m,
R(z) = 0 gives S(z) = 0 unless z is a root divided out, whose m passes
untested, and z != 0 gives V(w_m) = 0 at w_m = z_m + 1/z_m: h Clenshaw steps
where Horner takes 2h.  The scan covers d <= 6 only; above that it
raises BudgetExceededError before any H^{2k} work.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm

from .polycore import (
    BudgetExceededError,
    IntPoly,
    InternalError,
    Record,
    _primitive,
    cyclotomic_multiplicity,
    euler_phi,
    factorization,
    is_prime,
)
from .weil import WeilPoly, h_charpoly

__all__ = [
    "TateRow",
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
# largest dimension tate_profile reports on; at d = 6 (a six-fold elliptic
# product over F_7) the rows take 0.29 s and a 16 MB peak in one process
# (2 cores, Python 3.11.7): H^6 0.17 s and the k = 3 scan 0.065 s; rows
# 4..6 reuse the pairs of rows 2..0
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


# one witness field for every d <= 6 (see the module docstring); _G has exact
# order _L in F_P, and with _P below 2^48 the Clenshaw steps stay short ints
_L = 558781423200  # 2^5 3^2 5^2 7 11 13 31 41 61
_P = 5 * _L + 1  # 2793907116001, the least prime = 1 (mod _L) above 2^40
_G = 915254021484
_SCAN_D_MAX = 6


@lru_cache(maxsize=None)
def _witness_table(bound: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """Triples (m, z_m, w_m), ascending in m, of the m with phi(m) <= bound
    and lambda(m) | 2 lcm(1..d); z_m has exact order m in F_P and
    w_m = z_m + 1/z_m.  Raises BudgetExceededError for d > 6, where an allowed
    m need not divide _L.

    The m are the products of prime powers r || _L over distinct primes, found
    depth first with phi(m) carried down each branch.  lambda(m) is the lcm of
    the lambda(r), so it divides E_d when each lambda(r) does, and z_m is the
    product of the g_r = _G^(_L/r): one pow and one inverse per prime power."""
    if d > _SCAN_D_MAX:
        raise BudgetExceededError(f"the cyclotomic scan covers dimension d <= {_SCAN_D_MAX}")
    exponent = 2 * lcm(*range(1, d + 1))
    powers = []  # per prime p | _L: (r, phi(r), g_r, 1/g_r) for r = p, p^2, ... that pass
    for p, e in factorization(_L):
        row = []
        for i in range(1, e + 1):
            phi = (p - 1) * p ** (i - 1)
            if phi > bound or exponent % (phi >> (p == 2 and i >= 3)):
                break  # phi(p^i) and lambda(p^i) divide those of p^(i+1)
            g = pow(_G, _L // p**i, _P)
            row.append((p**i, phi, g, pow(g, -1, _P)))
        powers.append(row)
    out = []

    def extend(start: int, m: int, phi: int, z: int, z_inv: int) -> None:
        out.append((m, z, (z + z_inv) % _P))
        for i in range(start, len(powers)):
            for r, phi_r, g, g_inv in powers[i]:
                if phi * phi_r > bound:
                    break  # phi(p^i) ascends with i
                extend(i + 1, m * r, phi * phi_r, z * g % _P, z_inv * g_inv % _P)

    extend(0, 1, 1, 1, 1)
    return tuple(sorted(out))


def _cyclotomic_scan(Q: IntPoly, s: int, witnesses: tuple[tuple[int, int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e), ascending in m, with e > 0 the multiplicity of Phi_m in
    R(T) = Q(sT).  Only the m of ``witnesses`` (a _witness_table) that pass
    the half-length pre-test are divided out of the primitive part of R (see
    the module docstring), so the scan is complete only for R built from a
    Weil polynomial of the table's d.  Raises InternalError if R is neither
    palindromic nor anti-palindromic, which no Weil polynomial gives."""
    R = _primitive(Q.scale_variable(s))
    c = R.coeffs
    divided = []  # the orders, 1 and 2, of the roots T = 1 and T = -1 divided out
    if c != c[::-1]:
        if c != tuple(-x for x in reversed(c)):
            raise InternalError(f"R(T) = Q({s}T) is not self-reciprocal")
        divided.append(1)
    if (len(c) - 1 - len(divided)) % 2:
        divided.append(2)  # a palindromic quotient of odd degree vanishes at -1
    h = (len(c) - 1 - len(divided)) // 2
    # s_2h, ..., s_h of S: synthetic division from the top needs only the top
    # h + 1 coefficients of R, and as it is exact over Z it runs mod P
    top = [x % _P for x in reversed(c[-h - 1 :])]
    for m in divided:
        root = 1 if m == 1 else -1
        for j in range(1, h + 1):
            top[j] = (top[j] + root * top[j - 1]) % _P
    centre, upper = top[h], top[:h]
    out = []
    for m, _, w in witnesses:
        if m not in divided:
            # Clenshaw: b_j = s_(h+j) + w b_(j+1) - b_(j+2), V(w) = s_h + w b_1 - 2 b_2
            b1 = b2 = 0
            for x in upper:
                b1, b2 = (x + w * b1 - b2) % _P, b1
            if (centre + w * b1 - 2 * b2) % _P:
                continue
        if e := cyclotomic_multiplicity(R, m):
            out.append((m, e))
    return tuple(out)


@lru_cache(maxsize=1024)
def _unity_ratio_multiplicities(w: WeilPoly, k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e), e > 0, of Phi_m^e in R(T) = Q(q^k T), Q the H^{2k}
    charpoly of w, for 2k <= d; complete since any Phi_m dividing R has
    phi(m) <= deg R and lambda(m) | 2 lcm(1..d).  Raises BudgetExceededError
    for d > 6 before the charpoly is built."""
    witnesses = _witness_table(comb(2 * w.d, 2 * k), w.d)
    return _cyclotomic_scan(h_charpoly(w, 2 * k), w.q**k, witnesses)


def _pairs(w: WeilPoly, k: int) -> tuple[tuple[int, int], ...]:
    """_unity_ratio_multiplicities of row k; for 2k > d those of row d - k,
    since by Poincare duality R_k(T) = s^N R_(d-k)(T), s = q^(2k-d) (see
    h_charpoly)."""
    return _unity_ratio_multiplicities(w, min(k, w.d - k))


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
    mults = _pairs(w, k)
    return sum(euler_phi(m) * e for m, e in mults if n % m == 0)


def stable_tate_dim(w: WeilPoly, k: int) -> tuple[int, int]:
    """Dimension over the algebraic closure and the least extension degree
    attaining it.

    The stable dimension counts every eigenvalue-product ratio that is a root
    of unity; the minimal degree is the lcm of their orders (1 if only the
    trivial ratio occurs).
    """
    _check_codim(w.d, k)
    return _stable(_pairs(w, k))


class TateRow(Record):
    """One codimension k of a Tate profile; ``dims`` holds the (n, dim)
    pairs for n = 1..n_report."""

    __slots__ = ("k", "dims", "stable_dim", "min_stable_degree", "degree_bound")


def tate_profile(w: WeilPoly, n_report: int | None = None) -> tuple[TateRow, ...]:
    """Full per-codimension table of Tate-class dimensions: one TateRow for
    each k = 0..d, in order (w itself carries q and d).

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
        mults = _pairs(w, k)
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
    return tuple(rows)
