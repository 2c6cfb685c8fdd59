"""Exact integer polynomial and matrix kernel.

A polynomial is a dense sequence of arbitrary-precision integer coefficients,
constant term first, with no stored trailing zeros; the zero polynomial has an
empty coefficient sequence.  A matrix is a list of integer rows.  All
arithmetic here is exact; nothing in this module touches floating point.

The text format used throughout the package (and by the CLI) writes a
polynomial as comma-separated coefficients from the constant term upward, so
"5,-3,1" is T^2 - 3T + 5 and the empty string is the zero polynomial.

``Record`` is the base of every immutable record in the package: a record
declares its ``__slots__``, and ``__init__``, ``==`` and ``hash`` are compiled
once for its class.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

__all__ = [
    "Record",
    "IntPoly",
    "PolyFormatError",
    "BudgetExceededError",
    "InternalError",
    "parse_int_list",
    "parse_poly",
    "format_poly",
    "cyclotomic",
    "cyclotomic_multiplicity",
    "FACTOR_TRIAL_BOUND",
    "factorization",
    "is_prime",
    "euler_phi",
    "divisors",
    "power_sums",
    "from_power_sums",
    "charpoly",
    "compound_matrix",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "real_root_count",
]


class Record:
    """Immutable value whose fields are its ``__slots__``.  Each subclass gets
    ``__init__(self, <fields in order>)``, which sets each field once with
    ``object.__setattr__``, and ``==`` and ``hash`` on the tuple of its
    fields, matching only the same class; a method the class defines itself
    is kept.  The repr reads ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one exec per class compiles the straight-line methods a dataclass
        # would; a loop over the fields costs each construction about 60% more
        own, other = (", ".join(f"{obj}.{n}" for n in cls.__slots__) for obj in ("self", "other"))
        if len(cls.__slots__) > 1:  # one field is its own key
            own, other = f"({own})", f"({other})"
        sets = "".join(f"\n    _set(self, {n!r}, {n})" for n in cls.__slots__)
        sources = {
            "__init__": f"def __init__(self, {', '.join(cls.__slots__)}):{sets}",
            "__eq__": "def __eq__(self, other):\n"
            f"    return {own} == {other} if other.__class__ is self.__class__ else NotImplemented",
            "__hash__": f"def __hash__(self):\n    return hash({own})",
        }
        missing = [name for name in sources if name not in cls.__dict__]
        methods = {}
        exec("\n".join(sources[name] for name in missing), {"_set": object.__setattr__}, methods)
        for name in missing:
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, methods[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which sets the slots
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class IntPoly(Record):
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of T^i.

    Values are immutable and safe to share between threads.

    >>> IntPoly([-6, -1, 1])
    IntPoly('T^2 - T - 6')
    >>> IntPoly([0, 0]).is_zero()
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: "tuple[int, ...] | list[int]" = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        return _value(self.coeffs, x)

    def scale_variable(self, s: int) -> "IntPoly":
        """Return f(sT), i.e. multiply the T^i coefficient by s^i."""
        out, power = [], 1
        for c in self.coeffs:
            out.append(c * power)
            power *= s
        return IntPoly(out)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __divmod__(self, other: "IntPoly") -> "tuple[IntPoly, IntPoly]":
        """Euclidean division over the integers.

        With a monic divisor this always succeeds and deg(remainder) is less
        than deg(divisor).  With a non-monic divisor every elimination step
        must divide exactly, otherwise ValueError is raised.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.coeffs
        dn = len(d)
        lead = d[-1]
        if len(rem) < dn:
            return IntPoly(), IntPoly(rem)
        quo = [0] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            top = rem[i + dn - 1]
            if top == 0:
                continue
            if lead != 1:
                q, r = divmod(top, lead)
                if r:
                    raise ValueError("inexact division by non-monic divisor")
            else:
                q = top
            quo[i] = q
            for j, c in enumerate(d):
                rem[i + j] -= q * c
        return IntPoly(quo), IntPoly(rem)

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def pretty(self, var: str = "T") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                t = var if i == 1 else f"{var}^{i}"
                term = t if mag == 1 else f"{mag}{t}"
            if not parts and c < 0:
                sign = "-"
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly('{self.pretty()}')"


class PolyFormatError(ValueError):
    """Raised for a malformed integer list or polynomial text."""


def parse_int_list(text: str) -> list[int]:
    """The integers of a comma-separated list, the one grammar of every integer
    list the CLI reads: each entry is ASCII digits with an optional leading
    "-" (no "+", "_" or other digits), whitespace around commas is ignored,
    and the empty string is the empty list.

    >>> parse_int_list(" 5, -3,1")
    [5, -3, 1]
    """
    s = text.strip()
    if not s:
        return []
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        body = tok[1:] if tok.startswith("-") else tok
        if not (body.isascii() and body.isdigit()):
            raise PolyFormatError(f"bad integer {tok!r}: expected ASCII digits like -3 (no leading '+')")
        out.append(int(tok))
    return out


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated coefficient format (constant term first) of
    ``parse_int_list``; the empty string is the zero polynomial."""
    return IntPoly(parse_int_list(text))


def format_poly(f: IntPoly) -> str:
    """Inverse of parse_poly; the zero polynomial becomes the empty string."""
    return ",".join(str(c) for c in f.coeffs)


# ---------------------------------------------------------------------------
# elementary number theory helpers
#
# ``factorization`` is the one factor loop of the package: primality, prime
# powers and squarefree parts are all read off it.  Trial division stops at
# FACTOR_TRIAL_BOUND; a cofactor with no factor below it is prime when it is
# under the bound squared, and a larger one raises BudgetExceededError.

FACTOR_TRIAL_BOUND = 10**6


class BudgetExceededError(Exception):
    """A requested computation exceeds the naive-enumeration budget."""


class InternalError(Exception):
    """An invariant that should hold for valid inputs failed."""


def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ascending (p, e) pairs.

    >>> factorization(360)
    ((2, 3), (3, 2), (5, 1))
    """
    if n < 1:
        raise ValueError("positive integer required")
    out = []
    m = n
    for p in itertools.chain((2,), range(3, FACTOR_TRIAL_BOUND, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    else:
        if m >= FACTOR_TRIAL_BOUND**2:
            raise BudgetExceededError(
                f"factoring capped: a cofactor >= {FACTOR_TRIAL_BOUND}^2 has no prime factor below {FACTOR_TRIAL_BOUND}"
            )
    if m > 1:
        out.append((m, 1))
    return tuple(out)


# memoized for euler_phi and divisors, whose arguments repeat
_factorization = lru_cache(maxsize=None)(factorization)


def is_prime(n: int) -> bool:
    return n > 1 and factorization(n) == ((n, 1),)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factorization(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    out = [1]
    for p, e in _factorization(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, monic of degree phi(m).

    Computed by dividing T^m - 1 by the cyclotomic polynomials of the proper
    divisors of m; every division is exact.

    >>> cyclotomic(12)
    IntPoly('T^4 - T^2 + 1')
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    return _cyclotomic_cached(m)


@lru_cache(maxsize=None)
def _cyclotomic_cached(m: int) -> IntPoly:
    f = IntPoly([-1] + [0] * (m - 1) + [1])
    for d in divisors(m)[:-1]:
        f, rem = divmod(f, _cyclotomic_cached(d))
        if not rem.is_zero():
            raise InternalError(f"Phi_{d} does not divide the cyclotomic quotient for m = {m}")
    return f


def cyclotomic_multiplicity(f: IntPoly, m: int) -> int:
    """Largest e such that the m-th cyclotomic polynomial to the e divides f.

    Phi_m is monic, so each division is synthetic division in place on one
    coefficient list: the remainder ends in the low deg(Phi_m) places and
    the quotient in the rest, with no IntPoly built per step.  Division
    stops at the first nonzero remainder or when the quotient's degree falls
    below deg(Phi_m).  f need not be monic.

    >>> cyclotomic_multiplicity(IntPoly([1, -1, -1, 1]), 1)   # (T-1)^2 (T+1)
    2
    """
    if f.is_zero():
        raise ValueError("zero polynomial has infinite multiplicity")
    phi = cyclotomic(m).coeffs
    n = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    rem = list(f.coeffs)
    e = 0
    while len(rem) > n:
        for i in range(len(rem) - n - 1, -1, -1):
            top = rem[i + n]
            if top:
                for j, c in terms:
                    rem[i + j] -= top * c
        if any(rem[:n]):
            return e
        e += 1
        del rem[:n]
    return e


# ---------------------------------------------------------------------------
# power sums (Newton's identities)

def power_sums(f: IntPoly, count: int) -> list[int]:
    """Power sums p_1, ..., p_count of the roots of a monic f, with multiplicity.

    Newton's identities for f = T^n + a_1 T^{n-1} + ... + a_n read
    p_m = -(a_1 p_{m-1} + ... + a_{m-1} p_1 + m a_m), with a_m = 0 for m > n.

    >>> power_sums(IntPoly([5, -3, 1]), 3)
    [3, -1, -18]
    """
    if not f.is_monic():
        raise ValueError("power sums require a monic polynomial")
    n = f.degree
    a = f.coeffs[-2::-1]
    p: list[int] = []
    for m in range(1, count + 1):
        s = m * a[m - 1] if m <= n else 0
        for ai, pj in zip(a, reversed(p)):
            s += ai * pj
        p.append(-s)
    return p


def from_power_sums(sums: "list[int] | tuple[int, ...]") -> IntPoly:
    """The monic polynomial of degree len(sums) whose roots have power sums
    p_1, ..., p_N: Newton's identities solved for a_m, one division by m each.

    When the p_j are the power sums of N algebraic integers whose elementary
    symmetric functions are integers, every division is exact; a nonzero
    remainder means the sums came from a fault, and raises instead of
    returning a wrong polynomial.

    >>> from_power_sums([3, -1, -18])
    IntPoly('T^3 - 3T^2 + 5T')
    """
    return IntPoly(_newton_coefficients(sums)[::-1] + [1])


def _newton_coefficients(sums) -> list[int]:
    """a_1, ..., a_N of the monic T^N + a_1 T^(N-1) + ... + a_N whose roots
    have power sums p_1, ..., p_N: a_m = -(p_m + a_1 p_(m-1) + ... +
    a_(m-1) p_1) / m, raising InternalError on a nonzero remainder."""
    a: list[int] = []
    seen: list[int] = []
    for m, pm in enumerate(sums, 1):
        s = pm
        for ai, pj in zip(a, reversed(seen)):
            s += ai * pj
        am, rem = divmod(-s, m)
        if rem:
            raise InternalError(f"inexact Newton division: {-s} by {m}")
        a.append(am)
        seen.append(pm)
    return a


# ---------------------------------------------------------------------------
# integer matrices, each a list of rows: the tests' independent oracles

def _square_size(A) -> int:
    """The size n of an n x n matrix given as a list of rows."""
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("expected a non-empty square matrix as a list of rows")
    return n


def charpoly(A) -> IntPoly:
    """Monic characteristic polynomial det(T*I - A) of a square list of rows
    A, by the Berkowitz method.

    Division-free: every intermediate value is an integer.
    """
    n = _square_size(A)
    p = [1]  # coefficients in descending powers of T
    for k in range(n):
        a = A[k][k]
        R = A[k][:k]
        C = [A[i][k] for i in range(k)]
        col = [1, -a]
        v = C
        for _ in range(k):
            col.append(-sum(r * x for r, x in zip(R, v)))
            v = [sum(A[i][j] * v[j] for j in range(k)) for i in range(k)]
        newp = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                s += col[i - j] * p[j]
            newp[i] = s
        p = newp
    return IntPoly(list(reversed(p)))


def _det_inplace(a: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; consumes its argument.
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for t in range(i + 1, n):
                if a[t][i]:
                    a[i], a[t] = a[t], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pii = a[i][i]
        rowi = a[i]
        for j in range(i + 1, n):
            rowj = a[j]
            aji = rowj[i]
            for kk in range(i + 1, n):
                rowj[kk] = (rowj[kk] * pii - aji * rowi[kk]) // prev
            rowj[i] = 0
        prev = pii
    return sign * a[n - 1][n - 1]


def compound_matrix(A, r: int) -> list[list[int]]:
    """The r-th compound (exterior power) matrix of a square list of rows A,
    as a new list of rows.

    Rows and columns are indexed by the lexicographically ordered r-element
    subsets of the row/column indices; entry (I, J) is the minor with rows I
    and columns J.  Its eigenvalues are the r-fold products of the eigenvalues
    of A.
    """
    s = _square_size(A)
    if not 1 <= r <= s:
        raise ValueError(f"compound order must satisfy 1 <= r <= {s}")
    subsets = list(itertools.combinations(range(s), r))
    out = []
    for I in subsets:
        rowsI = [A[i] for i in I]
        out.append([_det_inplace([[row[j] for j in J] for row in rowsI]) for J in subsets])
    return out


# ---------------------------------------------------------------------------
# gcd, squarefree structure and real-root counts
#
# One integer pseudo-remainder sequence on coefficient lists serves all of
# them.  ``_prem`` scales the dividend by a power of |lc(b)| so that every
# elimination step is exact, then divides out the positive content; signs are
# kept, so the same sequence is a Sturm chain, which ends in gcd(f, f') even
# when f has repeated roots.  Dividing by a primitive gcd is exact over the
# integers by Gauss's lemma.

def _primitive(cs: "list[int] | tuple[int, ...]") -> "list[int] | tuple[int, ...]":
    """The coefficients cs divided by their positive content (their gcd)."""
    content = gcd(*cs)
    return [c // content for c in cs] if content > 1 else cs


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the remainder of |lc(b)|^(deg a - deg b + 1) * a by
    b, for coefficient lists with no trailing zeros and deg a >= deg b >= 0."""
    lead, n = abs(b[-1]), len(b) - 1
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        # |lc(b)| r - sgn(lc(b)) top T^i b drops the top coefficient of r
        top = r.pop() if b[-1] > 0 else -r.pop()
        r = [lead * c for c in r]
        for j in range(n):
            r[i + j] -= top * b[j]
    while r and r[-1] == 0:
        r.pop()
    return _primitive(r)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor over the integers, primitive with positive
    leading coefficient.

    >>> poly_gcd(IntPoly([-2, 1, 1]), IntPoly([-4, 0, 2]))   # (T-1)(T+2), 2(T^2-2)
    IntPoly('1')
    """
    a, b = a.coeffs, b.coeffs
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem(a, b)
    g = IntPoly(_primitive(a))
    return -g if g.coeffs and g.leading < 0 else g


def squarefree_part(f: IntPoly) -> IntPoly:
    """The product of the distinct irreducible factors of f (primitive)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    # the gcd with zero makes the quotient primitive with positive leading coefficient
    return poly_gcd(f // poly_gcd(f, f.derivative()), IntPoly())


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition: pairs (g, e) with the g squarefree, pairwise coprime,
    and prod g^e equal to f up to a rational constant.

    Primitive integer factors with positive leading coefficient are returned;
    only the root structure is preserved, not the content.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f // a
    d = df // a - b.derivative()
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        d = d // g - b.derivative()
        i += 1
    if sum(g.degree * e for g, e in out) != f.degree:
        raise InternalError(f"Yun decomposition of a degree-{f.degree} polynomial lost roots")
    return out


def _value(f: "list[int] | tuple[int, ...]", x: int) -> int:
    """f(x) for a coefficient list f, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _sturm_counts(f: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(distinct real roots in [lo, hi], distinct roots) of a nonzero
    coefficient list f with no trailing zeros, lo <= hi.  Roots at lo and hi
    are counted and divided out; the chain f, f', -prem(f, f'), ... then ends
    in g = gcd(f, f'), so deg f - deg g counts the rest, and as g has no root
    at lo or hi, Sturm's theorem counts those in (lo, hi) as the drop in sign
    changes (Basu, Pollack and Roy, section 2.2)."""
    ends = 0
    for x in {lo, hi}:
        ends += _value(f, x) == 0
        while _value(f, x) == 0:  # the quotient by T - x, from the top down
            f = list(itertools.accumulate(f[:0:-1], lambda acc, c: acc * x + c))[::-1]
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while chain[-1]:
        chain.append([-c for c in _prem(chain[-2], chain[-1])])
    chain.pop()
    inside = _sign_changes(chain, lo) - _sign_changes(chain, hi)
    return ends + inside, ends + len(f) - len(chain[-1])


def _sign_changes(chain: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_value(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def real_root_count(f: IntPoly, lo: int, hi: int) -> int:
    """Number of distinct real roots of f in the closed interval [lo, hi]:
    the roots at lo and hi, then a Sturm count of the rest (``_sturm_counts``).

    >>> real_root_count(IntPoly([-2, 0, 1]) * IntPoly([1, 0, 1]), 0, 2)   # (T^2-2)(T^2+1)
    1
    >>> real_root_count(IntPoly([-4, 0, 1]) ** 2, -2, 2)   # (T-2)^2 (T+2)^2
    2
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return _sturm_counts(list(f.coeffs), lo, hi)[0]
