"""Desk-scale surveys over the rational primes.

E x E surveys for CM and non-CM elliptic curves (Tate-class ranks over the
prime field and over the algebraic closure), splitting densities, empirical
least-non-split primes, and prime-ideal counts for imaginary and real
quadratic fields.

Frobenius traces for the nine class-number-one CM discriminants are read off
lattice points of the norm form, 4p = x^2 + |D| y^2, which one walk
(``_norm_points``) enumerates over a window of integers with no modular
square root: the survey walks each of its sieve windows once, and ``ap_cm``
its one-prime window.  Only |a_p| is used, since all of the degree-2
eigenvalue products feeding the E x E ranks are invariant under negating
both H^1 roots.  Traces of other curves count E(F_p): for p >= 5 by
baby-step giant-step on point orders, certified by the Hasse bound, mostly
from one scan that finds the only multiple of a point's order in the
interval, and otherwise by a character sum.

The sweeps take their primes from the windows of a segmented sieve, so the
survey's traces and ``_pointcount`` need no primality test; the public
``ap_cm`` and ``ap_pointcount`` keep every check and call the same trace
kernels.  ``exe_survey`` and ``noncm_rank_check`` check their input at the
call and return a one-shot iterator of the rows, then a summary whose
``to_record()`` is its report row.  Both build each good row through
``_exe_row``, which reads the E x E ranks off a^2/p (Niven's theorem) with
no Weil polynomial, and keep their counts as the rows pass, so the rows can
be written as they are made.  ``pi_K_count`` counts split primes off the
same segments, through one bit mask of the split residue classes.  No
sweep's memory grows with its range.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator
from functools import lru_cache
from math import isqrt, lcm, prod

from mpmath import mp
from mpmath.libmp import from_int, mpf_ei, mpf_le, mpf_ln2, mpf_log, mpf_pos, mpf_sub, round_nearest, to_float

from .bounds import DEFAULT_PRECISION_BITS, RATIONALS, _nonsplit_bound, least_nonsplit_bound
from .polycore import BudgetExceededError, InternalError, Record, factorization, is_prime, parse_int_list

# Nothing here calls these any more; bench/tracer.py wraps them on cmlab.
from .tate import stable_tate_dim, tate_dim  # noqa: F401

__all__ = [
    "BudgetExceededError",
    "InternalError",
    "EllipticCurve",
    "SurveyRow",
    "DensityReport",
    "NonCmReport",
    "NonSplitResult",
    "PiKResult",
    "CLASS_NUMBER_ONE_DISCS",
    "primes_up_to",
    "kronecker_symbol",
    "kronecker",
    "fundamental_discriminant",
    "is_fundamental_discriminant",
    "fundamental_discriminants",
    "ap_pointcount",
    "ap_cm",
    "exe_survey",
    "noncm_rank_check",
    "least_nonsplit_search",
    "pi_K_count",
]

CLASS_NUMBER_ONE_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)

POINTCOUNT_BUDGET = 10**6
BSGS_MAX_POINTS = 6  # points a certified count tries before the character sum
SURVEY_BUDGET = 10**7
NONCM_BUDGET = 10**4
PIK_BUDGET = 10**8
SIEVE_SEGMENT = 1 << 17  # bytes sieved at a time above sqrt(x): the sweeps' memory


# ---------------------------------------------------------------------------
# primes and quadratic symbols

def primes_up_to(n: int) -> list[int]:
    """All primes <= n (simple byte sieve)."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start:n + 1:p] = b"\x00" * ((n - start) // p + 1)
    return list(itertools.compress(range(n + 1), sieve))


def _segments(x: int, base: list[int], align: int = 1):
    """(start, seg) pairs that sieve (isqrt(x), x] a segment at a time:
    seg[i] is 1 exactly when start + i is a prime above isqrt(x).

    ``base`` is primes_up_to(isqrt(x)).  Each segment starts at a multiple of
    ``align`` (at most SIEVE_SEGMENT) and, but the last, spans a multiple of
    it, at most SIEVE_SEGMENT bytes; the entries below isqrt(x) + 1 in the
    first segment are 0.
    """
    lo = isqrt(x) + 1
    step = SIEVE_SEGMENT - SIEVE_SEGMENT % align
    for start in range(lo - lo % align, x + 1, step):
        n = min(step, x + 1 - start)
        seg = bytearray(b"\x01") * n
        if start < lo:
            seg[:lo - start] = bytes(lo - start)
        for p in base:
            first = max(p * p, -(-start // p) * p) - start
            if first < n:
                seg[first::p] = bytearray((n - 1 - first) // p + 1)  # bytes would be copied into a bytearray first
        yield start, seg


def _prime_windows(x: int):
    """(start, flags) windows that cover [0, x] in ascending order, flags[i]
    1 exactly when start + i is a prime: first [0, isqrt(x)] with the primes
    from primes_up_to(isqrt(x)), then the sieve segments."""
    base = primes_up_to(isqrt(x))
    flags = bytearray(isqrt(x) + 1)
    for p in base:
        flags[p] = 1
    yield 0, flags
    yield from _segments(x, base)


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fundamental_discriminant(D: int) -> int:
    """Discriminant of Q(sqrt(D)): the squarefree part s of D, sign kept, if
    s = 1 mod 4, otherwise 4s."""
    if D == 0:
        raise ValueError("D must be nonzero")
    s = (1 if D > 0 else -1) * prod(p for p, e in factorization(abs(D)) if e % 2)
    return s if s % 4 == 1 else 4 * s


def is_fundamental_discriminant(D: int) -> bool:
    """D != 1 is its own fundamental discriminant, which needs D = 1 mod 4 or 8, 12 mod 16."""
    return (D % 4 == 1 or D % 16 in (8, 12)) and D != 1 and fundamental_discriminant(D) == D


def fundamental_discriminants(limit: int) -> list[int]:
    """All fundamental discriminants with 1 < |D| <= limit, by |D| then sign,
    off one sieve of the squarefree numbers up to limit."""
    if limit < 2:
        return []
    squarefree = bytearray(b"\x01") * (limit + 1)
    for q in primes_up_to(isqrt(limit)):
        squarefree[q * q::q * q] = bytes(limit // (q * q))
    signed = ((D, a) for a in range(2, limit + 1) for D in (-a, a))
    return [D for D, a in signed if D % 4 == 1 and squarefree[a] or D % 16 in (8, 12) and squarefree[a // 4]]


def kronecker(D: int, p: int) -> int:
    """Splitting of the prime p in Q(sqrt(D)): +1 split, -1 inert, 0 ramified.

    Computed as the Kronecker symbol of the fundamental discriminant of
    Q(sqrt(D)) at p.
    """
    if D == 0:
        raise ValueError("D must be nonzero")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return kronecker_symbol(fundamental_discriminant(D), p)


# ---------------------------------------------------------------------------
# CM traces from lattice points of the norm form

def _norm_points(m: int, start: int, flags):
    """(n, x, y) for each n = start + i with flags[i] set and
    4n = x^2 + m y^2, x >= 0 and y >= 1, in order of y and then x.

    m = -D for a negative discriminant D, so m = 0 or 3 mod 4, and
    x^2 + m y^2 = 0 mod 4 exactly when x = m y mod 2.  For each y with m y^2
    below the window's upper end, x runs over that parity from isqrt of the
    window's lower end, so every lattice point of the window is met once and
    no modular square root is taken (the enumeration of the Atkin-Bernstein
    sieve).
    """
    lo, hi = 4 * start, 4 * (start + len(flags))
    y = 1
    while (my2 := m * y * y) < hi:
        x = isqrt(lo - my2 - 1) + 1 if lo > my2 else 0  # the least x with x^2 + m y^2 >= lo
        x += (x - m * y) % 2
        for x in range(x, isqrt(hi - my2 - 1) + 1, 2):
            i = (x * x + my2 - lo) >> 2
            if flags[i]:
                yield start + i, x, y
        y += 1


def _cm_ap(D: int, x: int, y: int) -> int:
    """|a_p| from any x^2 + |D| y^2 = 4p, with the unit ambiguity for D = -4
    and D = -3 resolved to the curves y^2 = x^3 + x and y^2 = x^3 + 1: for
    D = -4, p = (x/2)^2 + y^2 and |a_p| is twice the odd one of x/2 and y; for
    D = -3, |a_p| is the even one of x, (x + 3y)/2 and (x - 3y)/2."""
    if D == -4:
        return x if x // 2 % 2 else 2 * y
    if D == -3:
        return next(abs(t) for t in (x, (x + 3 * y) // 2, (x - 3 * y) // 2) if t % 2 == 0)
    return x


# ---------------------------------------------------------------------------
# elliptic curves over Q and their traces

class EllipticCurve(Record):
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    with integer coefficients and nonzero discriminant."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "label")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, label: str = ""):
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "a6", a6)
        object.__setattr__(self, "label", label)
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass model (discriminant 0)")

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @classmethod
    def parse(cls, text: str, label: str = "") -> "EllipticCurve":
        a = parse_int_list(text)
        if len(a) != 5:
            raise ValueError("curve format is a1,a2,a3,a4,a6")
        return cls(*a, label=label)


def ap_pointcount(E: EllipticCurve, p: int) -> int | None:
    """Frobenius trace a_p = p + 1 - #E(F_p), or None at a prime of bad
    reduction.

    For p >= 5, #E(F_p) is certified from point orders by baby-step
    giant-step and the Hasse bound (``_bsgs_trace``).  A character sum over a
    table of Legendre symbols (``_charsum_trace``) answers p = 3 and the
    primes where the points tried leave more than one candidate; p = 2
    enumerates the four affine points.  The tests hold it to Euler's
    criterion on the long model (``ap_charsum`` in the tests' oracles).
    """
    if p > POINTCOUNT_BUDGET:
        raise BudgetExceededError(f"point counting capped at p <= {POINTCOUNT_BUDGET}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _pointcount(E, p)


def _pointcount(E: EllipticCurve, p: int) -> int | None:
    """ap_pointcount without its input checks, for a prime p."""
    if E.discriminant() % p == 0:
        return None
    if p == 2:
        affine = 0
        for x in range(2):
            for y in range(2):
                lhs = y * y + E.a1 * x * y + E.a3 * y
                rhs = x**3 + E.a2 * x * x + E.a4 * x + E.a6
                if (lhs - rhs) % 2 == 0:
                    affine += 1
        return 2 + 1 - (affine + 1)
    if p > 3:
        a = _bsgs_trace(E, p)
        if a is not None:
            return a
    return _charsum_trace(E, p)


def _charsum_trace(E: EllipticCurve, p: int) -> int:
    """a_p at an odd prime of good reduction: minus the sum of the Legendre
    symbols of 4x^3 + b2 x^2 + 2 b4 x + b6 over F_p, read from a table."""
    b2, b4, b6, _ = E.b_invariants()
    legendre = [-1] * p
    legendre[0] = 0
    for t in range(1, (p + 1) // 2):
        legendre[t * t % p] = 1
    return -sum([legendre[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p)])


def _ec_add(P, Q, A: int, p: int):
    """P + Q on y^2 = x^3 + Ax + B over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(P, n: int, A: int, p: int):
    """[n]P for n >= 0 by double-and-add."""
    R = None
    for bit in bin(n)[2:]:
        R = _ec_add(R, R, A, p)
        if bit == "1":
            R = _ec_add(R, P, A, p)
    return R


def _bsgs_trace(E: EllipticCurve, p: int) -> int | None:
    """a_p at a prime p >= 5 of good reduction, certified from point orders,
    or None if BSGS_MAX_POINTS points do not pin it.

    Works on y^2 = x^3 + Ax + B, A = -27 c4, B = -54 c6, isomorphic to E over
    F_p.  #E(F_p) is a multiple of L (the lcm of the orders so far) in the
    Hasse interval.  For x = 0, 1, ... with r = x^3 + Ax + B a square by
    Euler's criterion, P is (x, 0) if r = 0 and otherwise (r x, r^2) on
    y^2 = x^3 + A r^2 x + B r^3, the image of (x, sqrt r): no root is taken.
    The baby-step giant-step scan of R = [L]P finds j with [jL]P = O among the
    multiples jL in the interval, and one scalar multiplication confirms it.
    If the scan certifies j as the only one, jL is the only multiple of
    lcm(L, ord P) there, so it is #E(F_p).  Otherwise jL is cut down to
    ord(P) over its prime factors, and once exactly one multiple of
    L = lcm(L, ord P) lies in the interval, that is #E(F_p).  A point whose
    order divides L costs one multiplication.
    """
    b2, b4, b6, _ = E.b_invariants()
    A = -27 * (b2 * b2 - 24 * b4) % p
    B = -54 * (36 * b2 * b4 - b2**3 - 216 * b6) % p
    hasse = isqrt(4 * p)
    lo, hi = p + 1 - hasse, p + 1 + hasse
    L, points = 1, 0
    for x in range(p):
        r = (x * x * x + A * x + B) % p
        if r and pow(r, (p - 1) // 2, p) != 1:
            continue
        points += 1
        if points > BSGS_MAX_POINTS:
            return None
        s = r or 1  # the scale: 1 keeps (x, 0) on the short model
        P, As = (s * x % p, s * r % p), A * s * s % p
        R = _ec_mul(P, L, As, p)
        if R is None:
            continue
        j, unique = _bsgs_multiple(R, -(-lo // L), hi // L, As, p)
        N = L * j
        if _ec_mul(P, N, As, p) is not None:
            raise InternalError(f"[{N}]P != O on y^2 = x^3 + {As}x + {B * s**3 % p} mod {p}")
        if unique:
            return p + 1 - N
        for q, _ in factorization(N):
            while N % q == 0 and _ec_mul(P, N // q, As, p) is None:
                N //= q
        L = lcm(L, N)
        low, high = -(-lo // L), hi // L
        if low > high:
            raise InternalError(f"no multiple of {L} in the Hasse interval at p = {p}")
        if low == high:
            return p + 1 - L * low
    return None


def _bsgs_multiple(R, low: int, high: int, A: int, p: int) -> tuple[int, bool]:
    """(j, unique): some j >= 1 with [j]R = O, and whether it is certified
    to be the only one in [low, high].

    Baby steps [i]R, 1 <= i <= m, are keyed by x.  If one of them or [m+1]R
    is O, or [m+1]R shares an x with one, then ord(R) <= 2m + 1; that gives
    j, not unique.  Otherwise ord(R) > 2m + 1, the baby x's are distinct,
    and a window [s - m, s + m] holds at most one j, seen as [s]R = O or as
    [s]R = +-[i]R with one sign.  The giant steps [s]R = [k]G at the
    multiples s = k(2m + 1), G = [m]R + [m+1]R, from the window that holds
    low to the one that holds high, meet every j in [low, high] once: j is
    unique unless a second one turns up.  InternalError if none does.
    """
    m = max(1, isqrt(high - low + 1) // 2)
    baby = {}
    T = R
    for i in range(1, m + 1):
        if T is None:
            return i, False
        baby.setdefault(T[0], (i, T[1]))
        U, T = T, _ec_add(T, R, A, p)
    if T is None:
        return m + 1, False
    if T[0] in baby:
        i, y = baby[T[0]]
        return (m + 1 - i if T[1] == y else m + 1 + i), False
    G = _ec_add(U, T, A, p)
    found = None
    k = (low + m) // (2 * m + 1)
    s = k * (2 * m + 1)
    S = _ec_mul(G, k, A, p)
    while s - m <= high:
        j = s if S is None else None
        if S is not None and S[0] in baby:
            i, y = baby[S[0]]
            j = s - i if S[1] == y else s + i
        if j is not None and low <= j <= high:
            if found is not None:
                return found, False
            found = j
        S = _ec_add(S, G, A, p)
        s += 2 * m + 1
    if found is None:
        raise InternalError(f"no j in [{low}, {high}] with [j]R = O mod {p}")
    return found, True


def ap_cm(D: int, p: int) -> tuple[str, int]:
    """Splitting type and |a_p| for the CM elliptic curve with discriminant D.

    Inert primes are supersingular with a_p = 0.  Split primes are ordinary;
    |a_p| is read off the first lattice point of 4p = x^2 + |D| y^2 that
    ``_norm_points`` meets over the one-prime window at p, the walk the
    survey runs over its sieve windows, with the unit ambiguity for D = -4
    and D = -3 resolved as ``_cm_ap`` says.  The walk takes one step per y up
    to the point's, so O(sqrt(p/|D|)) steps at worst: up to sqrt(p/2), about
    7 * 10^5, at p near 10^12 and D = -4, where the primality check of p
    takes a trial division to sqrt(p).
    """
    if D not in CLASS_NUMBER_ONE_DISCS:
        raise ValueError(f"D must be one of {CLASS_NUMBER_ONE_DISCS}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (2 * D) % p == 0:
        raise ValueError(f"p = {p} divides 2D")
    if kronecker_symbol(D, p) == -1:
        return "supersingular", 0
    point = next(_norm_points(-D, p, b"\x01"), None)
    if point is None:
        raise InternalError(f"no representation x^2 + {-D}y^2 = {4 * p}")
    a = _cm_ap(D, point[1], point[2])
    if a * a > 4 * p:
        raise InternalError(f"trace bound violated: {a}^2 > 4*{p}")
    return "ordinary", a


# ---------------------------------------------------------------------------
# surveys

class SurveyRow(Record):
    """One prime of an E x E survey.  ``reduction_type`` is "ordinary",
    "supersingular", "bad-or-excluded" or "bad"; every field but ``p`` and
    ``reduction_type`` may be None."""

    __slots__ = ("p", "kronecker", "a_p", "reduction_type", "rank_base", "rank_stable", "stable_degree")

    def to_record(self) -> dict:
        return {
            "p": self.p,
            "kronecker": self.kronecker,
            "a_p": self.a_p,
            "reduction_type": self.reduction_type,
            "rank_base": self.rank_base,
            "rank_stable": self.rank_stable,
            "stable_degree": self.stable_degree,
        }


class DensityReport(Record):
    __slots__ = ("p_max", "counts", "fractions")

    def to_record(self) -> dict:
        density = {
            "p_max": self.p_max,
            "counts": dict(self.counts),
            "fractions": {k: repr(v) for k, v in self.fractions},
            "reference_fraction": "0.5",  # split and inert primes each have density 1/2
        }
        return {"density": density}


def _exe_row(p: int, chi: int | None, typ: str, a: int) -> SurveyRow:
    """The survey row of a good prime p: E x E with trace a over F_p and its
    Tate ranks in codimension 1 over F_p and over the algebraic closure.

    With H^1 roots alpha and beta = p/alpha, the H^2 ratios alpha_I / p are 1
    four times, zeta = alpha^2/p and 1/zeta, and zeta + 1/zeta = a^2/p - 2 is
    rational.  By Niven's theorem zeta is then a root of unity only for a^2/p
    in {4, 0, 1, 2, 3}, of order m = 1, 2, 3, 4, 6 in that order.
    """
    if a * a > 4 * p:
        raise InternalError(f"trace bound violated: {a}^2 > 4*{p}")
    j, r = divmod(a * a, p)
    m = None if r else {4: 1, 0: 2, 1: 3, 2: 4, 3: 6}.get(j)  # the order of zeta
    if m is None:
        return SurveyRow(p, chi, a, typ, 4, 4, 1)
    return SurveyRow(p, chi, a, typ, 6 if m == 1 else 4, 6, m)


def exe_survey(D: int, p_max: int) -> Iterator[SurveyRow | DensityReport]:
    """Survey E x E for the CM curve of discriminant D over every prime
    p <= p_max: a one-shot iterator of the rows, then the DensityReport
    (``*rows, density = exe_survey(D, p_max)``).

    Good primes (p >= 5, p not dividing D) get exact ranks over the prime
    field and over the algebraic closure; p = 2, 3 and divisors of D are
    excluded from the density denominators.  The input is checked at the
    call.  The rows are made as they are taken, from one sieve segment at a
    time, and the density counts are kept as they pass, so memory does not
    grow with p_max.
    """
    if D not in CLASS_NUMBER_ONE_DISCS:
        raise ValueError(f"D must be one of {CLASS_NUMBER_ONE_DISCS}")
    if p_max > SURVEY_BUDGET:
        raise BudgetExceededError(f"survey capped at p_max <= {SURVEY_BUDGET}")
    return _survey_rows(D, p_max)


def _survey_rows(D: int, p_max: int):
    split = inert = excluded = stable_6 = 0
    for start, flags in _prime_windows(p_max):
        traces = array("I", [0]) * len(flags)  # |a_p| of the window's split primes, by offset
        for n, x, y in _norm_points(-D, start, flags):
            traces[n - start] = _cm_ap(D, x, y)
        for p in itertools.compress(range(start, start + len(flags)), flags):
            chi = kronecker_symbol(D, p)  # D is fundamental and p prime
            if p in (2, 3) or D % p == 0:
                excluded += 1
                yield SurveyRow(p, chi, None, "bad-or-excluded", None, None, None)
                continue
            if chi == -1:
                inert += 1
                row = _exe_row(p, chi, "supersingular", 0)
            elif a := traces[p - start]:
                split += 1
                row = _exe_row(p, chi, "ordinary", a)
            else:
                raise InternalError(f"no representation x^2 + {-D}y^2 = {4 * p}")
            stable_6 += row.rank_stable == 6
            yield row
    good = split + inert
    by_type = (("split", split), ("inert", inert))
    counts = by_type + (
        ("excluded", excluded),
        ("rank_stable_4", good - stable_6),
        ("rank_stable_6", stable_6),
    )
    fractions = tuple((name, n / good if good else 0.0) for name, n in by_type)
    yield DensityReport(p_max=p_max, counts=counts, fractions=fractions)


class NonCmReport(Record):
    """The summary of a non-CM sweep; ``exceptional_primes`` are the good
    primes with stable rank > 4."""

    __slots__ = ("all_rank_base_4", "exceptional_primes")

    def to_record(self) -> dict:
        summary = {"all_rank_base_4": self.all_rank_base_4, "exceptional_primes": list(self.exceptional_primes)}
        return {"summary": summary}


def noncm_rank_check(E: EllipticCurve, p_max: int) -> Iterator[SurveyRow | NonCmReport]:
    """Check that E x E has Tate rank exactly 4 over every good prime field
    p <= p_max, and report the sporadic primes whose stable rank exceeds 4
    (root-of-unity eigenvalue ratios, possible at tiny primes): a one-shot
    iterator of the rows, then the NonCmReport, with the input checked at
    the call."""
    if p_max > NONCM_BUDGET:
        raise BudgetExceededError(f"non-CM sweep capped at p_max <= {NONCM_BUDGET}")
    return _noncm_rows(E, p_max)


def _noncm_rows(E: EllipticCurve, p_max: int):
    all_rank_base_4, exceptional = True, []
    for start, flags in _prime_windows(p_max):
        for p in itertools.compress(range(start, start + len(flags)), flags):
            a = _pointcount(E, p)
            if a is None:
                yield SurveyRow(p, None, None, "bad", None, None, None)
                continue
            row = _exe_row(p, None, "supersingular" if a % p == 0 else "ordinary", a)
            all_rank_base_4 &= row.rank_base == 4
            if row.rank_stable > 4:
                exceptional.append(p)
            yield row
    yield NonCmReport(all_rank_base_4=all_rank_base_4, exceptional_primes=tuple(exceptional))


# ---------------------------------------------------------------------------
# least non-split prime and prime-ideal counting

class NonSplitResult(Record):
    __slots__ = ("D", "found_prime", "bound", "satisfied")

    @property
    def theoretical_log_bound(self):
        return self.bound.log_value


@lru_cache(maxsize=128)  # found primes repeat
def _log_at_prime(p: int):
    """log p as a raw mpf at the bound's default precision."""
    return mpf_log(from_int(p), DEFAULT_PRECISION_BITS, round_nearest)


def least_nonsplit_search(D: int, c=1) -> NonSplitResult:
    """Least unramified rational prime that does not split in Q(sqrt(D)),
    together with the theoretical norm bound (relative degree 2 over the
    rationals) and whether the found prime satisfies it.

    The prime is the least n >= 2 with (D|n) = -1, found with no list of
    primes: (D|n) is completely multiplicative in n, so a composite n with
    (D|n) = -1 has a smaller factor with symbol -1, and the least such n is
    prime.  For fundamental D, n -> (D|n) is a non-trivial character mod
    |D| with (D|1) = 1, so it takes the value -1 at some n < |D| and the walk
    ends there.

    The bound comes from least_nonsplit_bound's core on log |D| as a raw mpf;
    a second evaluation for exact_value reads log |D| again at its own
    precision, through an ``mp.constant``, not its default-precision rounding.

    >>> least_nonsplit_search(-4).found_prime
    3
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    found = 2
    while kronecker_symbol(D, found) != -1:
        found += 1
    m = abs(D)

    def report_at(q: int):
        log_D = mp.constant(lambda prec, rounding: mpf_log(from_int(m), prec, rounding), "log |D|")
        return least_nonsplit_bound(RATIONALS, log_D, 2, c, q)

    ldl = mpf_log(from_int(m), DEFAULT_PRECISION_BITS, round_nearest)
    report = _nonsplit_bound(RATIONALS, ldl, 2, c, DEFAULT_PRECISION_BITS, report_at)
    satisfied = mpf_le(_log_at_prime(found), report.log_value._mpf_)
    return NonSplitResult(D=D, found_prime=found, bound=report, satisfied=satisfied)


def _li_offset(x: int) -> float:
    """li(x) - li(2) as mpmath.li(x, offset=True) gives it at 53 bits: Ei(ln x) - Ei(ln 2) at 63, rounded to 53."""
    ei = [mpf_ei(t, 63, round_nearest) for t in (mpf_log(from_int(x), 63, round_nearest), mpf_ln2(63, round_nearest))]
    return to_float(mpf_pos(mpf_sub(ei[0], ei[1], 63, round_nearest), 53, round_nearest))


class PiKResult(Record):
    __slots__ = ("D", "x", "count", "li_x", "ratio")

    def to_record(self) -> dict:
        return {
            "D": self.D,
            "x": self.x,
            "count": self.count,
            "li_x": repr(self.li_x),
            "ratio": repr(self.ratio) if self.ratio is not None else None,
        }


def pi_K_count(D: int, x: int) -> PiKResult:
    """Number of prime ideals of Q(sqrt(D)) of norm <= x, with the
    logarithmic-integral comparison.

    Split rational primes p <= x contribute two ideals of norm p, ramified
    primes one, and inert primes one ideal of norm p^2 (counted when
    p^2 <= x).  The primes up to sqrt(x) each get their symbol, the ramified
    ones above it come from the factorization of |D|, and the split ones
    above it are counted off a segmented sieve, with no list of them built.
    For a fundamental D the symbol (D|p) depends only on p mod |D|.  When a
    table of the |D| symbols costs fewer symbols than the primes do and
    |D| <= SIEVE_SEGMENT, the segments are aligned to multiples of |D| and
    read a block at a time, each block a multiple of |D| bytes (|D| or more,
    near SIEVE_SEGMENT / 32): the block's bytes, read as one little-endian
    integer, are masked by the split classes repeated across the block, and
    the set bits are counted.  Otherwise each prime gets its own symbol.
    Memory stays near SIEVE_SEGMENT bytes whatever x is.

    >>> pi_K_count(-4, 10).count
    4
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if x > PIK_BUDGET:
        raise BudgetExceededError(f"prime-ideal counting capped at x <= {PIK_BUDGET}")
    m, r = abs(D), isqrt(x)
    base = primes_up_to(r)
    # p <= sqrt(x): two ideals if p splits, else one (of norm p or p^2 <= x)
    count = sum(2 if kronecker_symbol(D, p) == 1 else 1 for p in base)
    count += sum(r < q <= x for q, _ in factorization(m))  # ramified above sqrt(x)
    if m <= SIEVE_SEGMENT and m * x.bit_length() < x:  # m below about pi(x)
        block = m * max(1, SIEVE_SEGMENT // 32 // m)
        split = bytes(kronecker_symbol(D, c) == 1 for c in range(m))
        mask = int.from_bytes(split * (block // m), "little")
        for _, seg in _segments(x, base, m):
            view = memoryview(seg)
            for i in range(0, len(seg), block):
                count += 2 * (int.from_bytes(view[i:i + block], "little") & mask).bit_count()
    else:
        for start, seg in _segments(x, base):
            primes = itertools.compress(range(start, start + len(seg)), seg)
            count += 2 * sum(kronecker_symbol(D, p) == 1 for p in primes)
    li = _li_offset(x) if x >= 2 else float("-inf")
    ratio = count / li if li > 0 else None
    return PiKResult(D=D, x=x, count=count, li_x=li, ratio=ratio)
