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

Every operation names its precision (``mp.mpf(x, prec=p)``, ``mp.fadd`` and
the like with ``prec=p``, or raw ``mpmath.libmp`` calls), rounding as the
``mp`` context would at p bits; nothing reads or sets ``mp.prec``, so reports
do not depend on the caller's precision or on other threads.  Real inputs
(int, float, decimal string, mpf or ``mp.constant``) are read at each
evaluation's precision.  ``least_nonsplit_bound`` and the search run once
per discriminant share ``_nonsplit_bound``, which takes log |d_L| as a raw mpf
and caches per (field, c, n, precision) c f(K), 5/(2(n-1)), log 55 and their
echoed strings.  ln 2 and the exact_value limits are cached per precision.
"""

from __future__ import annotations

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
    mpf_sum,
    round_ceiling,
    round_nearest,
    to_int,
    to_str,
)

from .polycore import BudgetExceededError, Record, is_prime

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


class FieldParams(Record):
    """Degree and log-discriminant of a number field K, with a three-valued
    exceptional-zero flag ("unknown" is treated as "yes" for upper bounds)."""

    __slots__ = ("n_K", "log_abs_disc", "has_exceptional_zero")

    def __init__(self, n_K: int, log_abs_disc=0, has_exceptional_zero: str = "no"):
        if n_K < 1:
            raise ValueError("field degree must be >= 1")
        if has_exceptional_zero not in _EXCEPTIONAL_FLAGS:
            raise ValueError(f"has_exceptional_zero must be one of {_EXCEPTIONAL_FLAGS}")
        if mp.mpf(log_abs_disc, prec=DEFAULT_PRECISION_BITS) < 0:  # any precision keeps the sign
            raise ValueError("log |d_K| must be >= 0")
        if n_K == 1 and mp.mpf(log_abs_disc, prec=DEFAULT_PRECISION_BITS) != 0:
            raise ValueError("the rationals have |d_K| = 1, so log |d_K| must be 0")
        object.__setattr__(self, "n_K", n_K)
        object.__setattr__(self, "log_abs_disc", log_abs_disc)  # int/float/mpf, natural log of |d_K|
        object.__setattr__(self, "has_exceptional_zero", has_exceptional_zero)


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
        value = mp.mpf(text, prec=precision_bits)
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


class BoundReport(Record):
    """Log-space value of a named bound with every input echoed.

    ``exact_value`` is the integer ceiling c of the bound v = e^L when it fits
    in 4096 bits, moved to the floor where c / v > (1 + 1/c)(1 + 10^-20): one
    exact integer comparison, c^2 10^20 > floor((c + 1)(10^20 + 1) v), with v
    a binary fraction.  L is evaluated at no fewer than log2(v) + 80 bits,
    plus the bits by which the bound amplifies rounding error, so only
    ``log_value`` and the echoed inputs depend on the precision.
    """

    __slots__ = ("name", "inputs", "log_value", "exact_value")

    def __init__(self, name: str, inputs: tuple[tuple[str, str], ...], log_value, exact_value: int | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "log_value", log_value)  # mpf
        object.__setattr__(self, "exact_value", exact_value)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "log_value": format_real(self.log_value),
            "exact_value": str(self.exact_value) if self.exact_value is not None else None,
        }


def _fp_inputs(fp: FieldParams, prec: int) -> list[tuple[str, str]]:
    return [
        ("n_K", str(fp.n_K)),
        ("log_abs_disc_K", format_real(mp.mpf(fp.log_abs_disc, prec=prec))),
        ("has_exceptional_zero", fp.has_exceptional_zero),
    ]


@lru_cache(maxsize=16)
def _log2_and_cap(prec: int, bits: int = 0):
    """ln 2, the 4096-bit cap on log_value and (prec - 80 - bits) ln 2, the log
    above which exact_value needs more than ``prec`` bits when the evaluation
    amplifies rounding error by a ``bits``-bit factor, as raw mpfs at ``prec`` bits."""
    ln2 = mpf_log(from_int(2), prec, round_nearest)
    cap, limit = (mpf_mul(from_int(b), ln2, prec, round_nearest) for b in (EXACT_VALUE_MAX_BITS, prec - 80 - bits))
    return ln2, cap, limit


def _exact_value_at(L, prec: int) -> int | None:
    """exact_value of the raw mpf L at ``prec`` bits, from e^L at max(log2(e^L) + 80, prec)
    bits: ``prec`` if L <= limit, which tops the cap past prec = 4176, so the cap goes first."""
    ln2, cap, limit = _log2_and_cap(prec)
    if mpf_gt(L, cap):
        return None
    wp = max(to_int(mpf_div(L, ln2, prec, round_nearest)) + 80, prec) if mpf_gt(L, limit) else prec
    v = mpf_exp(L, wp, round_nearest)
    c = to_int(v, round_ceiling)
    # the floor where c^2 > (c + 1)(1 + 10^-20) v, the slack e^(1e-20) read as
    # 1 + 10^-20; with v = man 2^e, flooring the right side keeps it exact
    _, man, e, _ = v
    if c * c * 10**20 > (man * (c + 1) * (10**20 + 1) << max(0, e)) >> max(0, -e):
        c -= 1
    return c


def _exact_value(L, prec: int, report_at, bits: int = 0) -> int | None:
    """exact_value of a bound whose log is the raw mpf L at ``prec`` bits and
    whose report at q bits is report_at(q).  Below the cap |L| < 2^12, so L at
    q bits moves e^L by about e^L 2^(15-q), times the factor below 2^bits by
    which the evaluation amplifies its inputs' rounding error: under
    log2(e^L) + 80 + bits bits, exact_value comes from the report 16 bits above
    that (at most MAX_PRECISION_BITS), which asks for no third."""
    ln2, cap, limit = _log2_and_cap(prec, bits)
    if mpf_gt(L, limit) and not mpf_gt(L, cap):
        q = min(to_int(mpf_div(L, ln2, prec, round_nearest)) + 96 + bits, MAX_PRECISION_BITS)
        if q > prec:
            return report_at(q).exact_value
    return _exact_value_at(L, prec)


def f_of_K(fp: FieldParams, precision_bits: int = DEFAULT_PRECISION_BITS):
    """The field constant: n_K^2 without an exceptional zero, otherwise
    max(n_K! * log|d_K|, |d_K|^{1/n_K}) + n_K^2.

    f of the rationals is exactly 1.  With an exceptional zero, inputs past
    F_K_MAX_DEGREE or F_K_MAX_EXPONENT raise BudgetExceededError.
    """
    _check_precision(precision_bits)
    p, nk = precision_bits, fp.n_K
    if fp.has_exceptional_zero == "no":
        return mp.mpf(nk * nk, prec=p)
    logd = mp.mpf(fp.log_abs_disc, prec=p)
    if nk > F_K_MAX_DEGREE or logd > F_K_MAX_EXPONENT * nk:
        raise BudgetExceededError(f"f(K) capped at n_K <= {F_K_MAX_DEGREE}, log|d_K|/n_K <= {F_K_MAX_EXPONENT:.0e}")
    a = mp.fmul(factorial(nk), logd, prec=p)
    b = mp.exp(mp.fdiv(logd, nk, prec=p), prec=p)
    return mp.fadd(a if a > b else b, nk * nk, prec=p)


def _check_primes(ps) -> list[int]:
    out = sorted(set(ps))
    for p in out:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return out


def _sum_of_logs(ps, p: int):
    return mp.make_mpf(mpf_sum([mpf_log(from_int(q), p, round_nearest) for q in ps], p, round_nearest))


def hensel_log_disc(n_L: int, ramified_primes, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Upper bound for log d_L from the degree and the ramified primes:
    (n_L - 1) * sum log p + n_L * log(n_L) * #primes."""
    _check_precision(precision_bits)
    if n_L < 1:
        raise ValueError("degree must be >= 1")
    ps = _check_primes(ramified_primes)
    p = precision_bits
    total = mp.fmul(n_L - 1, _sum_of_logs(ps, p), prec=p)
    return mp.fadd(total, mp.fmul(mp.fmul(n_L, mp.ln(n_L, prec=p), prec=p), len(ps), prec=p), prec=p)


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
    FieldParams(n_K, log_d_K)  # raises on a negative log |d_K|, or a nonzero one at n_K = 1
    ps = _check_primes(ramified_primes_over_K)
    p = precision_bits
    total = mp.fmul(n_L - n_K, _sum_of_logs(ps, p), prec=p)
    total = mp.fadd(total, mp.fmul(n_L, mp.fsub(mp.ln(n_L, prec=p), mp.ln(n_K, prec=p), prec=p), prec=p), prec=p)
    ratio = mp.fdiv(mp.mpf(n_L, prec=p), n_K, prec=p)
    return mp.fadd(total, mp.fmul(ratio, mp.mpf(log_d_K, prec=p), prec=p), prec=p)


@lru_cache(maxsize=64, typed=True)
def _nonsplit_invariants(fp: FieldParams, field_types, c, n: int, p: int):
    """The part of least_nonsplit_bound that does not depend on d_L: c f(K),
    5/(2(n-1)) and log 55 as raw mpfs, and the echoed inputs before and after
    log |d_L|.

    ``field_types`` joins the key because FieldParams equality ignores the
    types of its fields and the echoed strings do not (2 == 2.0, "2" != "2.0").
    """
    c = mp.mpf(c, prec=p)
    if c <= 0:
        raise ValueError("c must be positive")
    fk = f_of_K(fp, p)
    log_const = mp.ln(55, prec=p)
    tail = (
        ("n", str(n)),
        ("c", format_real(c)),
        ("constants_pinned", "no"),  # c is an unspecified absolute constant
        ("f_K", format_real(fk)),
        ("branch_constant_log", format_real(log_const)),
    )
    c_fk = mp.fmul(c, fk, prec=p)
    slope = mp.fdiv(5, 2 * (n - 1), prec=p)
    return c_fk._mpf_, slope._mpf_, log_const._mpf_, tuple(_fp_inputs(fp, p)), tail


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
    _nonsplit_invariants(fp, (type(fp.n_K), type(fp.log_abs_disc)), c, n, precision_bits)  # c before log |d_L|
    ldl = mp.mpf(log_d_L, prec=precision_bits)._mpf_
    return _nonsplit_bound(fp, ldl, n, c, precision_bits, lambda q: least_nonsplit_bound(fp, log_d_L, n, c, q))


def _nonsplit_bound(fp: FieldParams, ldl, n: int, c, prec: int, report_at) -> BoundReport:
    """least_nonsplit_bound at n >= 2 from the raw mpf ldl = log |d_L|; report_at(q) gives it at q bits."""
    c_fk, slope, log_const, head, tail = _nonsplit_invariants(fp, (type(fp.n_K), type(fp.log_abs_disc)), c, n, prec)
    if ldl[0]:  # the sign bit of the raw mpf
        raise ValueError("log |d_L| must be >= 0")
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
        exact_value=_exact_value(log_value, prec, report_at),
    )


def _log_B(N, fp: FieldParams, m: int, d: int, p: int):
    """log of e^{f(K)} N^{m n_K d^2} (f(K) + n_K log N)^{m n_K d^2 + 1}, f(K),
    and the bit length of (E + 1)(n_K + 1), E = m n_K d^2: a bound on the factor
    by which the log amplifies N's relative rounding error.

    N may be a positive real: the formula only uses N through log N.  The
    final log factor is clamped below at 0 when its argument drops under 1,
    which keeps the bound a total function for pathological parameters.
    """
    NN = mp.mpf(N, prec=p)
    if NN <= 0:
        raise ValueError("conductor argument must be positive")
    fk = f_of_K(fp, p)
    exponent = m * fp.n_K * d * d
    logN = mp.ln(NN, prec=p)
    inner = mp.fadd(fk, mp.fmul(fp.n_K, logN, prec=p), prec=p)
    log_inner = mp.ln(inner, prec=p) if inner > 1 else mp.zero
    log_value = mp.fadd(fk, mp.fmul(exponent, logN, prec=p), prec=p)
    bits = int((exponent + 1) * (fp.n_K + 1)).bit_length()
    return mp.fadd(log_value, mp.fmul(exponent + 1, log_inner, prec=p), prec=p), fk, bits


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
    p = precision_bits
    log_value, fk, bits = _log_B(N, fp, m, d, p)
    inputs = [
        ("N", format_real(mp.mpf(N, prec=p))),
        ("m", str(m)),
        ("d", str(d)),
    ] + _fp_inputs(fp, p) + [("f_K", format_real(fk))]
    return BoundReport(
        name="bound_B",
        inputs=tuple(inputs),
        log_value=log_value,
        exact_value=_exact_value(log_value._mpf_, p, lambda q: bound_B(N, fp, m, d, q), bits),
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
    p = precision_bits
    ldf, c_p, c1_p = (mp.mpf(x, prec=p) for x in (log_d_F, c, c1))
    for value, name in ((ldf, "log |d_F|"), (c_p, "c"), (c1_p, "c1")):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    if d > C_MAX_DIMENSION:
        raise BudgetExceededError(f"C capped at d <= {C_MAX_DIMENSION}")
    n_prime = mp.fmul(2 ** (4 * d), factorial(2 * d + 1), prec=p)
    n_prime = mp.fmul(mp.fmul(n_prime, mp.mpf(N, prec=p), prec=p), ldf, prec=p)
    log_b, fk, bits = _log_B(n_prime, fp, factorial(2 * d), 2 ** (2 * d), p)
    bits += max(0, mp.mag(c_p))  # c multiplies log B and its error
    log_value = mp.fadd(mp.ln(c1_p, prec=p), mp.fmul(c_p, log_b, prec=p), prec=p)
    inputs = [
        ("N", format_real(mp.mpf(N, prec=p))),
        ("d", str(d)),
        ("log_abs_disc_F", format_real(ldf)),
        ("c", format_real(c_p)),
        ("c1", format_real(c1_p)),
        ("constants_pinned", "no"),  # c, c1 are unspecified absolute constants
        ("B_first_argument", format_real(n_prime)),
        ("B_m", str(factorial(2 * d))),
        ("B_d", str(2 ** (2 * d))),
        ("log_B", format_real(log_b)),
    ] + _fp_inputs(fp, p) + [("f_K", format_real(fk))]
    return BoundReport(
        name="bound_C",
        inputs=tuple(inputs),
        log_value=log_value,
        exact_value=_exact_value(log_value._mpf_, p, lambda q: bound_C(N, d, log_d_F, fp, c, c1, q), bits),
    )
