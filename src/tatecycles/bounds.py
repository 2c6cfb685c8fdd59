"""Effective bounds, evaluated in natural-log space at high precision.

The absolute effective constants that the underlying estimates leave
unspecified are exposed as parameters (default 1) and echoed in every report,
so the formulas are runnable without inventing constants.  Factorials and
powers of two are exact integers; everything else is mpmath real arithmetic
at a per-call working precision (default 256 bits, at most
MAX_PRECISION_BITS).  This module is also where the command line reads its
real-number arguments (``parse_real``) and prints real values
(``format_real``, LOG_VALUE_DIGITS significant digits), so no other module
needs mpmath to handle them.

``least_nonsplit_bound`` runs once per discriminant in a sweep, so it works on
raw mpf tuples (``mpmath.libmp``) and passes the precision to each operation,
rounding every step exactly as the ``mp`` context would; it neither reads nor
sets ``mp.prec``.  It caches, per (field, c, n, precision), everything that
does not depend on d_L: c f(K), 5/(2(n-1)), log 55 and their echoed strings.
``exact_value`` runs on the same raw tuples and certifies the ceiling with an
exact integer comparison.  ln 2, the 4096-bit cap and the 1e-20 slack of the
logarithmic floor test are cached per precision.  All caches are bounded and
filled on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, factorial, log2

from mpmath import mp
from mpmath.libmp import (
    from_int,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_gt,
    mpf_log,
    mpf_mul,
    mpf_pos,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
    to_str,
)

from .polycore import BudgetExceededError, is_prime

__all__ = [
    "FieldParams",
    "BoundReport",
    "RATIONALS",
    "f_of_K",
    "hensel_log_disc",
    "hensel_galois_log_disc",
    "least_nonsplit_bound",
    "bound_B",
    "bound_C",
    "parse_real",
    "format_real",
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "MAX_PRECISION_BITS",
]

DEFAULT_PRECISION_BITS = 256
EXACT_VALUE_MAX_BITS = 4096
LOG_VALUE_DIGITS = 30
# least working precision at which the printed LOG_VALUE_DIGITS digits mean anything
MIN_PRECISION_BITS = ceil(LOG_VALUE_DIGITS * log2(10))
# largest working precision; above about 14,300 bits mpmath cannot print a
# value beyond 2^3500 (measurements in README, "Exit status")
MAX_PRECISION_BITS = 8192
# caps on f(K) with an exceptional zero, which takes n_K! and prints
# e^{log|d_K| / n_K}: past them each took seconds (README, "Exit status")
F_K_MAX_DEGREE = 10**4
F_K_MAX_EXPONENT = 10**100
# largest d for C: its report echoes B_m = (2d)!, which has 4,300 digits at
# d = 779, Python's default limit on int-to-str conversion; up to the cap the
# time does not grow with d (0.03-0.05 s at 8192 bits from d = 10 to 779)
C_MAX_DIMENSION = 779

_EXCEPTIONAL_FLAGS = ("yes", "no", "unknown")


@dataclass(frozen=True)
class FieldParams:
    """Degree and log-discriminant of a number field K, with a three-valued
    exceptional-zero flag ("unknown" is treated as "yes" for upper bounds)."""

    n_K: int
    log_abs_disc: object = 0  # int/float/mpf, natural log of |d_K|
    has_exceptional_zero: str = "no"

    def __post_init__(self):
        if self.n_K < 1:
            raise ValueError("field degree must be >= 1")
        if self.has_exceptional_zero not in _EXCEPTIONAL_FLAGS:
            raise ValueError(f"has_exceptional_zero must be one of {_EXCEPTIONAL_FLAGS}")
        if mp.mpf(self.log_abs_disc) < 0:
            raise ValueError("log |d_K| must be >= 0")
        if self.n_K == 1 and mp.mpf(self.log_abs_disc) != 0:
            raise ValueError("the rationals have |d_K| = 1, so log |d_K| must be 0")


RATIONALS = FieldParams(1, 0, "no")


def _check_precision(precision_bits: int) -> None:
    if precision_bits > MAX_PRECISION_BITS:
        raise BudgetExceededError(f"precision capped at {MAX_PRECISION_BITS} bits, got {precision_bits}")


def parse_real(text: str, flag: str, precision_bits: int = DEFAULT_PRECISION_BITS):
    """``text`` read as a real number at ``precision_bits``; a non-number,
    nan or an infinity is a ValueError naming ``flag``.

    >>> parse_real("inf", "--c")
    Traceback (most recent call last):
    ...
    ValueError: --c must be a finite real number, got 'inf'
    """
    _check_precision(precision_bits)
    try:
        with mp.workprec(precision_bits):
            value = mp.mpf(text)
    except ValueError:
        value = None
    if value is None or not mp.isfinite(value):
        raise ValueError(f"{flag} must be a finite real number, got {text!r}")
    return value


def format_real(value) -> str:
    """A real value as reports print it: LOG_VALUE_DIGITS significant digits.

    >>> format_real(parse_real("1e-3", "--c"))
    '0.001'
    """
    return mp.nstr(value, LOG_VALUE_DIGITS)


@dataclass(frozen=True)
class BoundReport:
    """Log-space value of a named bound with every input echoed.

    ``exact_value`` is the integer ceiling of the bound when it fits in 4096
    bits (adjusted to the floor in the rare case the ceiling is more than a
    relative 1/exact_value away from the true value).  With v = e^L rounded
    to a binary fraction, the ceiling c >= 2 is certified by the exact integer
    comparison (c - v + 2^-32)(c + 1) < c; only where it fails is the
    logarithmic floor test run.  ``least_nonsplit_bound`` computes its
    report with the precision passed to each operation, never through the
    global ``mp`` context, so the report does not depend on ``mp.prec``.
    """

    name: str
    inputs: tuple[tuple[str, str], ...]
    log_value: object  # mpf
    exact_value: int | None = None

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "log_value": format_real(self.log_value),
            "exact_value": str(self.exact_value) if self.exact_value is not None else None,
        }


def _fp_inputs(fp: FieldParams) -> list[tuple[str, str]]:
    return [
        ("n_K", str(fp.n_K)),
        ("log_abs_disc_K", format_real(mp.mpf(fp.log_abs_disc))),
        ("has_exceptional_zero", fp.has_exceptional_zero),
    ]


@lru_cache(maxsize=16)
def _log2_and_cap(prec: int):
    """ln 2 and the 4096-bit cap on log_value as raw mpfs at ``prec`` bits."""
    ln2 = mpf_log(from_int(2), prec, round_nearest)
    return ln2, mpf_mul(from_int(EXACT_VALUE_MAX_BITS), ln2, prec, round_nearest)


@lru_cache(maxsize=64)
def _floor_slack(prec: int):
    with mp.workprec(prec):
        return mp.mpf("1e-20")


def _exact_value(log_value) -> int | None:
    """exact_value of an mpf log_value at the working precision mp.prec."""
    return _exact_value_at(log_value._mpf_, mp.prec)


def _exact_value_at(L, prec: int) -> int | None:
    """exact_value of the raw mpf L, rounded as at ``prec`` bits."""
    ln2, cap = _log2_and_cap(prec)
    if mpf_gt(L, cap):
        return None
    wp = max(to_int(mpf_div(L, ln2, prec, round_nearest)) + 80, prec)
    v = mpf_exp(mpf_pos(L, wp, round_nearest), wp, round_nearest)
    c = to_int(v, round_ceiling)
    # The floor test log(c) - L > 1e-20 + log1p(1/c) needs c - e^L > c/(c+1).
    # wp exceeds log2(c) + 78, so v is within 2^-66 of e^L and the test's
    # rounding error is below 2^(14-wp); if c - v falls short of c/(c+1) by
    # 2^-32, log(c) - L falls short of log1p(1/c) by more than 2^(44-wp) and
    # the test is false.  So where the comparison below holds, the floor test
    # would keep c: it certifies only where the logarithmic route returns c,
    # and elsewhere that route decides.  With v = man 2^e and
    # s = max(32, -e) it is (c - v + 2^-32)(c + 1) < c scaled by 2^s, exact
    # in integers.
    _, man, e, _ = v
    s = max(32, -e)
    if c >= 2 and ((c << s) - (man << (e + s)) + (1 << (s - 32))) * (c + 1) < c << s:
        return c
    with mp.workprec(wp):
        log_value = mp.make_mpf(L)
        if c >= 1 and mp.log(c) - log_value > _floor_slack(wp) + mp.log1p(mp.mpf(1) / c):
            c = to_int(v, round_floor)
    return c


def f_of_K(fp: FieldParams, precision_bits: int = DEFAULT_PRECISION_BITS):
    """The field constant: n_K^2 without an exceptional zero, otherwise
    max(n_K! * log|d_K|, |d_K|^{1/n_K}) + n_K^2.

    f of the rationals is exactly 1.  With an exceptional zero, inputs past
    F_K_MAX_DEGREE or F_K_MAX_EXPONENT raise BudgetExceededError.
    """
    _check_precision(precision_bits)
    with mp.workprec(precision_bits):
        nk = fp.n_K
        if fp.has_exceptional_zero == "no":
            return mp.mpf(nk * nk)
        logd = mp.mpf(fp.log_abs_disc)
        if nk > F_K_MAX_DEGREE or logd > F_K_MAX_EXPONENT * nk:
            raise BudgetExceededError(f"f(K) capped at n_K <= {F_K_MAX_DEGREE}, log|d_K|/n_K <= {F_K_MAX_EXPONENT:.0e}")
        a = factorial(nk) * logd
        b = mp.exp(logd / nk)
        return (a if a > b else b) + nk * nk


def _check_primes(ps) -> list[int]:
    out = sorted(set(ps))
    for p in out:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return out


def hensel_log_disc(n_L: int, ramified_primes, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Upper bound for log d_L from the degree and the ramified primes:
    (n_L - 1) * sum log p + n_L * log(n_L) * #primes."""
    _check_precision(precision_bits)
    if n_L < 1:
        raise ValueError("degree must be >= 1")
    ps = _check_primes(ramified_primes)
    with mp.workprec(precision_bits):
        total = (n_L - 1) * mp.fsum(mp.log(p) for p in ps)
        total += n_L * mp.log(n_L) * len(ps)
        return total


def hensel_galois_log_disc(
    n_L: int,
    n_K: int,
    log_d_K,
    ramified_primes_over_K,
    precision_bits: int = DEFAULT_PRECISION_BITS,
):
    """Sharper bound when L/K is Galois:
    (n_L - n_K) * sum log p + n_L * (log n_L - log n_K) + (n_L/n_K) * log d_K."""
    _check_precision(precision_bits)
    if n_K < 1 or n_L < 1:
        raise ValueError("degrees must be >= 1")
    if n_L % n_K:
        raise ValueError(f"n_K = {n_K} does not divide n_L = {n_L}")
    ps = _check_primes(ramified_primes_over_K)
    with mp.workprec(precision_bits):
        total = (n_L - n_K) * mp.fsum(mp.log(p) for p in ps)
        total += n_L * (mp.log(n_L) - mp.log(n_K))
        total += mp.mpf(n_L) / n_K * mp.mpf(log_d_K)
        return total


@lru_cache(maxsize=64, typed=True)
def _nonsplit_invariants(fp: FieldParams, field_types, c, n: int, precision_bits: int):
    """The part of least_nonsplit_bound that does not depend on d_L: c f(K),
    5/(2(n-1)) and log 55 as raw mpfs, and the echoed inputs before and after
    log |d_L|.

    ``field_types`` joins the key because FieldParams equality ignores the
    types of its fields and the echoed strings do not (2 == 2.0, "2" != "2.0").
    """
    with mp.workprec(precision_bits):
        fk = f_of_K(fp, precision_bits)
        log_const = mp.log(55)
        tail = (
            ("n", str(n)),
            ("c", format_real(mp.mpf(c))),
            ("constants_pinned", "no"),  # c is an unspecified absolute constant
            ("f_K", format_real(fk)),
            ("branch_constant_log", format_real(log_const)),
        )
        c_fk = mp.mpf(c) * fk
        slope = mp.mpf(5) / (2 * (n - 1))
        return c_fk._mpf_, slope._mpf_, log_const._mpf_, tuple(_fp_inputs(fp)), tail


def least_nonsplit_bound(
    fp: FieldParams,
    log_d_L,
    n: int,
    c=1,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> BoundReport:
    """Norm bound for a degree-1 prime of K that does not split completely in
    a degree-n Galois extension L/K: max(55, e^{c f(K)} |d_L|^{5/(2(n-1))}).

    Both branches and the active one are echoed in the report.
    """
    _check_precision(precision_bits)
    if n < 2:
        raise ValueError("relative degree must be >= 2")
    c_fk, slope, log_const, head, tail = _nonsplit_invariants(
        fp, (type(fp.n_K), type(fp.log_abs_disc)), c, n, precision_bits
    )
    prec = precision_bits
    ldl = mp.mpf(log_d_L, prec=prec)._mpf_
    log_formula = mpf_add(c_fk, mpf_mul(slope, ldl, prec, round_nearest), prec, round_nearest)
    formula_wins = mpf_gt(log_formula, log_const)
    log_value = log_formula if formula_wins else log_const
    inputs = (
        head
        + (("log_abs_disc_L", to_str(ldl, LOG_VALUE_DIGITS)),)
        + tail
        + (
            ("branch_formula_log", to_str(log_formula, LOG_VALUE_DIGITS)),
            ("active_branch", "formula" if formula_wins else "constant_55"),
        )
    )
    return BoundReport(
        name="least_nonsplit_bound",
        inputs=inputs,
        log_value=mp.make_mpf(log_value),
        exact_value=_exact_value_at(log_value, prec),
    )


def _log_B(N, fp: FieldParams, m: int, d: int, precision_bits: int = DEFAULT_PRECISION_BITS):
    """log of e^{f(K)} N^{m n_K d^2} (f(K) + n_K log N)^{m n_K d^2 + 1}.

    N may be a positive real: the formula only uses N through log N.  The
    final log factor is clamped below at 0 when its argument drops under 1,
    which keeps the bound a total function for pathological parameters.
    """
    NN = mp.mpf(N)
    if NN <= 0:
        raise ValueError("conductor argument must be positive")
    fk = f_of_K(fp, precision_bits)
    exponent = m * fp.n_K * d * d
    logN = mp.log(NN)
    inner = fk + fp.n_K * logN
    log_inner = mp.log(inner) if inner > 1 else mp.mpf(0)
    return fk + exponent * logN + (exponent + 1) * log_inner, fk


def bound_B(
    N,
    fp: FieldParams,
    m: int,
    d: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> BoundReport:
    """The norm cutoff B(N, K, m, d): checking that Frobenius elements of norm
    up to (a constant power of) B act as scalars on a compatible family of
    conductor N, field degree m and dimension d certifies that the whole
    Galois group acts as scalars.

    >>> r = bound_B(2, RATIONALS, 1, 1)
    >>> 15.5 < float(mp.exp(r.log_value)) < 15.7
    True
    """
    _check_precision(precision_bits)
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    with mp.workprec(precision_bits):
        log_value, fk = _log_B(N, fp, m, d, precision_bits)
        inputs = [
            ("N", format_real(mp.mpf(N))),
            ("m", str(m)),
            ("d", str(d)),
        ] + _fp_inputs(fp) + [("f_K", format_real(fk))]
        return BoundReport(
            name="bound_B",
            inputs=tuple(inputs),
            log_value=log_value,
            exact_value=_exact_value(log_value),
        )


def bound_C(
    N,
    d: int,
    log_d_F,
    fp: FieldParams,
    c=1,
    c1=1,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> BoundReport:
    """The headline cutoff C = c1 * B(2^{4d} (2d+1)! N log d_F, K, (2d)!, 2^{2d})^c:
    to certify that a cohomology class on a CM abelian variety (dimension d,
    conductor N, multiplication field F) is a Tate class, it suffices to check
    the Frobenius action at primes of norm up to C.

    The composite first argument of B is a real number; factorials and the
    powers of two are exact.  A d above C_MAX_DIMENSION raises
    BudgetExceededError.
    """
    _check_precision(precision_bits)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > C_MAX_DIMENSION:
        raise BudgetExceededError(f"C capped at d <= {C_MAX_DIMENSION}")
    with mp.workprec(precision_bits):
        ldf = mp.mpf(log_d_F)
        if ldf <= 0:
            raise ValueError("log |d_F| must be positive")
        if mp.mpf(c1) <= 0:
            raise ValueError("c1 must be positive")
        n_prime = mp.mpf(2 ** (4 * d)) * factorial(2 * d + 1) * mp.mpf(N) * ldf
        log_b, fk = _log_B(n_prime, fp, factorial(2 * d), 2 ** (2 * d), precision_bits)
        log_value = mp.log(mp.mpf(c1)) + mp.mpf(c) * log_b
        inputs = [
            ("N", format_real(mp.mpf(N))),
            ("d", str(d)),
            ("log_abs_disc_F", format_real(ldf)),
            ("c", format_real(mp.mpf(c))),
            ("c1", format_real(mp.mpf(c1))),
            ("constants_pinned", "no"),  # c, c1 are unspecified absolute constants
            ("B_first_argument", format_real(n_prime)),
            ("B_m", str(factorial(2 * d))),
            ("B_d", str(2 ** (2 * d))),
            ("log_B", format_real(log_b)),
        ] + _fp_inputs(fp) + [("f_K", format_real(fk))]
        return BoundReport(
            name="bound_C",
            inputs=tuple(inputs),
            log_value=log_value,
            exact_value=_exact_value(log_value),
        )
