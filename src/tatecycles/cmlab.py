"""Desk-scale surveys over the rational primes.

E x E surveys for CM and non-CM elliptic curves (Tate-class ranks over the
prime field and over the algebraic closure), splitting densities, empirical
least-non-split primes, and prime-ideal counts for imaginary and real
quadratic fields.

Frobenius traces for the nine class-number-one CM discriminants come from
the Cornacchia representation 4p = x^2 + |D| y^2; only |a_p| is used, since
all of the degree-2 eigenvalue products feeding the E x E ranks are
invariant under negating both H^1 roots.  Naive point counting over F_p
provides the independent trace oracle.

The survey loops take their primes from a sieve, so they call internal steps
that skip the checks a sieved prime already meets: ``_cm_trace`` and
``_pointcount`` run no primality test, and ``_exe_weil`` builds the E x E
Weil polynomial (T^2 - aT + p)^2 directly, keeping only the exact Hasse
check.  The public ``ap_cm`` and ``ap_pointcount`` keep every check and
call the same trace kernels; ``weil_from_trace`` keeps its own checks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, mpf_le, mpf_log, round_nearest

from .bounds import DEFAULT_PRECISION_BITS, RATIONALS, BoundReport, FieldParams, least_nonsplit_bound
from .polycore import BudgetExceededError, IntPoly, InternalError, factorization, is_prime
from .tate import stable_tate_dim, tate_dim
from .weil import WeilPoly

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
SURVEY_BUDGET = 10**7
NONCM_BUDGET = 10**4
PIK_BUDGET = 10**8


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


def _squarefree_part(n: int) -> int:
    """n with all square factors removed, sign preserved."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    sign = -1 if n < 0 else 1
    return sign * prod(p for p, e in factorization(abs(n)) if e % 2)


def fundamental_discriminant(D: int) -> int:
    """Discriminant of Q(sqrt(D)): the squarefree part s of D if s = 1 mod 4,
    otherwise 4s."""
    if D == 0:
        raise ValueError("D must be nonzero")
    s = _squarefree_part(D)
    return s if s % 4 == 1 else 4 * s


def is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree_part(D) == D
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree_part(m) == m
    return False


def fundamental_discriminants(limit: int) -> list[int]:
    """All fundamental discriminants with 1 < |D| <= limit, by |D| then sign."""
    out = []
    for a in range(2, limit + 1):
        for D in (-a, a):
            if is_fundamental_discriminant(D):
                out.append(D)
    return out


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
# square roots mod p and Cornacchia representations

def _sqrt_mod_p(a: int, p: int) -> int:
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
    z = 2
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


def _cornacchia(D: int, p: int) -> tuple[int, int]:
    """Solve x^2 + |D| y^2 = 4p for fundamental D < 0 and an odd prime p that
    splits in Q(sqrt(D)) (Cohen, Alg. 1.5.3); x, y >= 0."""
    r = _sqrt_mod_p(D % p, p)
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


# ---------------------------------------------------------------------------
# elliptic curves over Q and their traces

@dataclass(frozen=True)
class EllipticCurve:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    with integer coefficients and nonzero discriminant."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""

    def __post_init__(self):
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
        parts = [t.strip() for t in text.split(",")]
        if len(parts) != 5:
            raise ValueError("curve format is a1,a2,a3,a4,a6")
        try:
            a = [int(t) for t in parts]
        except ValueError as exc:
            raise ValueError(f"curve coefficients must be integers: {exc}") from None
        return cls(*a, label=label)


def ap_pointcount(E: EllipticCurve, p: int) -> int | None:
    """Frobenius trace a_p = p + 1 - #E(F_p) by direct enumeration, or None at
    a prime of bad reduction.

    For odd p the count uses the completed-square form and a table of
    Legendre symbols; p = 2 enumerates the four affine points directly.
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
    b2, b4, b6, _ = E.b_invariants()
    legendre = [-1] * p
    legendre[0] = 0
    for t in range(1, (p + 1) // 2):
        legendre[t * t % p] = 1
    return -sum([legendre[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p)])


def ap_cm(D: int, p: int) -> tuple[str, int]:
    """Splitting type and |a_p| for the CM elliptic curve with discriminant D.

    Inert primes are supersingular with a_p = 0.  Split primes are ordinary;
    |a_p| comes from the Cornacchia representation 4p = x^2 + |D| y^2, with
    the unit ambiguity for D = -4 and D = -3 resolved to the curves
    y^2 = x^3 + x and y^2 = x^3 + 1: for D = -4, p = (x/2)^2 + y^2 and |a_p|
    is twice the odd one of x/2 and y; for D = -3, |a_p| is the even one of
    x, (x + 3y)/2 and (x - 3y)/2.
    """
    if D not in CLASS_NUMBER_ONE_DISCS:
        raise ValueError(f"D must be one of {CLASS_NUMBER_ONE_DISCS}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (2 * D) % p == 0:
        raise ValueError(f"p = {p} divides 2D")
    typ, a = _cm_trace(D, p)
    if a * a > 4 * p:
        raise InternalError(f"trace bound violated: {a}^2 > 4*{p}")
    return typ, a


def _cm_trace(D: int, p: int) -> tuple[str, int]:
    """ap_cm without its input checks, for a prime p not dividing 2D."""
    # D is fundamental and p prime, so the symbol is the splitting of p
    if kronecker_symbol(D, p) == -1:
        return "supersingular", 0
    x, y = _cornacchia(D, p)
    if D == -4:
        a = x if x // 2 % 2 else 2 * y
    elif D == -3:
        a = next(abs(t) for t in (x, (x + 3 * y) // 2, (x - 3 * y) // 2) if t % 2 == 0)
    else:
        a = x
    return "ordinary", a


# ---------------------------------------------------------------------------
# surveys

@dataclass(frozen=True)
class SurveyRow:
    """One prime of an E x E survey."""

    p: int
    kronecker: int | None
    a_p: int | None
    reduction_type: str  # ordinary | supersingular | bad-or-excluded | bad
    rank_base: int | None
    rank_stable: int | None
    stable_degree: int | None

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


@dataclass(frozen=True)
class DensityReport:
    p_max: int
    counts: tuple[tuple[str, int], ...]
    fractions: tuple[tuple[str, float], ...]
    reference_fraction: float

    def to_record(self) -> dict:
        return {
            "p_max": self.p_max,
            "counts": dict(self.counts),
            "fractions": {k: repr(v) for k, v in self.fractions},
            "reference_fraction": repr(self.reference_fraction),
        }


def _exe_weil(a: int, p: int) -> WeilPoly:
    """The Weil polynomial (T^2 - aT + p)^2 of E x E, for a trace a at a
    prime p the sieve gave.  It equals product_variety of weil_from_trace(a,
    p) with itself; of the checks there only the exact Hasse bound is needed,
    since p is already known to be prime."""
    if a * a > 4 * p:
        raise InternalError(f"trace bound violated: {a}^2 > 4*{p}")
    return WeilPoly(poly=IntPoly([p * p, -2 * a * p, a * a + 2 * p, -2 * a, 1]), q=p, p=p, d=2)


def _exe_ranks(a: int, p: int) -> tuple[int, int, int]:
    """Tate ranks in codimension 1 for E x E with trace a over F_p."""
    w = _exe_weil(a, p)
    rank_base = tate_dim(w, 1, 1)
    rank_stable, stable_degree = stable_tate_dim(w, 1)
    return rank_base, rank_stable, stable_degree


def exe_survey(D: int, p_max: int) -> tuple[list[SurveyRow], DensityReport]:
    """Survey E x E for the CM curve of discriminant D over every prime
    p <= p_max.

    Good primes (p >= 5, p not dividing D) get exact ranks over the prime
    field and over the algebraic closure; p = 2, 3 and divisors of D are
    excluded from the density denominators.
    """
    if D not in CLASS_NUMBER_ONE_DISCS:
        raise ValueError(f"D must be one of {CLASS_NUMBER_ONE_DISCS}")
    if p_max > SURVEY_BUDGET:
        raise BudgetExceededError(f"survey capped at p_max <= {SURVEY_BUDGET}")
    rows = []
    n_split = n_inert = n_excluded = n_rank4 = n_rank6 = 0
    for p in primes_up_to(p_max):
        chi = kronecker_symbol(D, p)  # D is fundamental and p prime
        if p in (2, 3) or D % p == 0:
            rows.append(SurveyRow(p, chi, None, "bad-or-excluded", None, None, None))
            n_excluded += 1
            continue
        typ, a = _cm_trace(D, p)
        rank_base, rank_stable, stable_degree = _exe_ranks(a, p)
        rows.append(SurveyRow(p, chi, a, typ, rank_base, rank_stable, stable_degree))
        if chi == 1:
            n_split += 1
        else:
            n_inert += 1
        if rank_stable == 4:
            n_rank4 += 1
        elif rank_stable == 6:
            n_rank6 += 1
    good = n_split + n_inert
    counts = (
        ("split", n_split),
        ("inert", n_inert),
        ("excluded", n_excluded),
        ("rank_stable_4", n_rank4),
        ("rank_stable_6", n_rank6),
    )
    fractions = (
        ("split", n_split / good if good else 0.0),
        ("inert", n_inert / good if good else 0.0),
    )
    density = DensityReport(p_max=p_max, counts=counts, fractions=fractions, reference_fraction=0.5)
    return rows, density


@dataclass(frozen=True)
class NonCmReport:
    curve: EllipticCurve
    p_max: int
    rows: tuple[SurveyRow, ...]
    all_rank_base_4: bool
    exceptional_primes: tuple[int, ...]  # good primes with stable rank > 4


def noncm_rank_check(E: EllipticCurve, p_max: int) -> NonCmReport:
    """Check that E x E has Tate rank exactly 4 over every good prime field
    p <= p_max, and report the sporadic primes whose stable rank exceeds 4
    (root-of-unity eigenvalue ratios, possible at tiny primes)."""
    if p_max > NONCM_BUDGET:
        raise BudgetExceededError(f"non-CM sweep capped at p_max <= {NONCM_BUDGET}")
    rows = []
    exceptional = []
    all4 = True
    for p in primes_up_to(p_max):
        a = _pointcount(E, p)
        if a is None:
            rows.append(SurveyRow(p, None, None, "bad", None, None, None))
            continue
        typ = "supersingular" if a % p == 0 else "ordinary"
        rank_base, rank_stable, stable_degree = _exe_ranks(a, p)
        rows.append(SurveyRow(p, None, a, typ, rank_base, rank_stable, stable_degree))
        if rank_base != 4:
            all4 = False
        if rank_stable > 4:
            exceptional.append(p)
    return NonCmReport(
        curve=E,
        p_max=p_max,
        rows=tuple(rows),
        all_rank_base_4=all4,
        exceptional_primes=tuple(exceptional),
    )


# ---------------------------------------------------------------------------
# least non-split prime and prime-ideal counting

@dataclass(frozen=True)
class NonSplitResult:
    D: int
    found_prime: int
    bound: BoundReport
    satisfied: bool

    @property
    def theoretical_log_bound(self):
        return self.bound.log_value


_sieved_primes = lru_cache(maxsize=None)(primes_up_to)


def _ascending_primes():
    """Every prime in ascending order, read from cached sieves that double in
    length each time the walk runs past the end of one."""
    n, seen = 1024, 0
    while True:
        primes = _sieved_primes(n)
        yield from itertools.islice(primes, seen, None)
        n, seen = 2 * n, len(primes)


def _log_at(n: int):
    """log n as a raw mpf at the bound's default precision."""
    return mpf_log(from_int(n), DEFAULT_PRECISION_BITS, round_nearest)


_log_at_prime = lru_cache(maxsize=128)(_log_at)  # found primes repeat; |D| does not


def least_nonsplit_search(D: int, fp: FieldParams = RATIONALS, c=1) -> NonSplitResult:
    """Least unramified rational prime that does not split in Q(sqrt(D)),
    together with the theoretical norm bound (relative degree 2 over the
    rationals) and whether the found prime satisfies it.

    >>> least_nonsplit_search(-4).found_prime
    3
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    found = None
    for p in _ascending_primes():
        if kronecker_symbol(D, p) == -1:
            found = p
            break
    log_d_L = mp.make_mpf(_log_at(abs(D)))
    report = least_nonsplit_bound(fp, log_d_L, n=2, c=c)
    satisfied = mpf_le(_log_at_prime(found), report.log_value._mpf_)
    return NonSplitResult(D=D, found_prime=found, bound=report, satisfied=satisfied)


@dataclass(frozen=True)
class PiKResult:
    D: int
    x: int
    count: int
    li_x: float
    ratio: float | None

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
    p^2 <= x).  For a fundamental D the symbol (D|p) depends only on
    p mod |D|, so when |D| is at most the number of primes <= x it is read
    from a table of (D|r) for r < |D|; otherwise each prime gets its own
    symbol, so no table costs more symbols than the primes do.

    >>> pi_K_count(-4, 10).count
    4
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if x > PIK_BUDGET:
        raise BudgetExceededError(f"prime-ideal counting capped at x <= {PIK_BUDGET}")
    primes = primes_up_to(x)
    m = abs(D)
    if m <= len(primes):
        table = [kronecker_symbol(D, r) for r in range(m)]
        chis = [table[p % m] for p in primes]
    else:
        chis = [kronecker_symbol(D, p) for p in primes]
    small = bisect_right(primes, isqrt(x))
    count = 2 * chis.count(1) + chis.count(0) + chis[:small].count(-1)
    li = float(mpmath.li(x, offset=True)) if x >= 2 else float("-inf")
    ratio = count / li if li > 0 else None
    return PiKResult(D=D, x=x, count=count, li_x=li, ratio=ratio)
