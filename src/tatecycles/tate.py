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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm

from mpmath import mp

from .polycore import BudgetExceededError, IntPoly, cyclotomic_multiplicity, euler_phi
from .weil import WeilPoly, complex_roots, h_charpoly

__all__ = [
    "TateRow",
    "TateProfile",
    "PrecisionInsufficientError",
    "tate_dim",
    "stable_tate_dim",
    "tate_profile",
    "tate_dim_numeric",
    "degree_bound",
    "totient_bounded_set",
]

DISPLAY_N_CAP = 60
# largest n_report tate_profile tabulates; at d = 2 the CLI report for
# 10^5 degrees is already 19 MB of JSON
N_REPORT_BUDGET = 10**5
# largest dimension tate_profile reports on; d = 6 ran for minutes
D_REPORT_BUDGET = 5
NUMERIC_GUARD_MAX_H1_DEGREE = 16


class PrecisionInsufficientError(ArithmeticError):
    """The numeric oracle could not classify a subset product at the
    requested precision."""


@lru_cache(maxsize=None)
def totient_bounded_set(bound: int) -> tuple[int, ...]:
    """All m >= 1 with phi(m) <= bound, ascending.

    phi(m) >= sqrt(m) for every m except 2 and 6, so scanning
    m <= max(bound^2, 6) is exhaustive.

    >>> totient_bounded_set(2)
    (1, 2, 3, 4, 6)
    """
    if bound < 1:
        return ()
    return tuple(m for m in range(1, max(bound * bound, 6) + 1) if euler_phi(m) <= bound)


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


def _ratio_poly(w: WeilPoly, k: int) -> IntPoly:
    """R(T) = Q(q^k T) for Q the H^{2k} characteristic polynomial; the roots
    of R are the eigenvalue products divided by q^k."""
    Q = h_charpoly(w, 2 * k).poly
    return Q.scale_variable(w.q**k)


@lru_cache(maxsize=1024)
def _unity_ratio_multiplicities(w: WeilPoly, k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (m, e) with e > 0 the multiplicity of the m-th cyclotomic
    polynomial in R; complete because any Phi_m dividing R has
    phi(m) <= deg R."""
    R = _ratio_poly(w, k)
    out = []
    for m in totient_bounded_set(R.degree):
        e = cyclotomic_multiplicity(R, m)
        if e:
            out.append((m, e))
    return tuple(out)


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
    mults = _unity_ratio_multiplicities(w, k)
    stable = sum(euler_phi(m) * e for m, e in mults)
    min_degree = lcm(*(m for m, _ in mults)) if mults else 1
    return stable, min_degree


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
        dims = tuple((n, tate_dim(w, k, n)) for n in range(1, n_max + 1))
        stable, min_deg = stable_tate_dim(w, k)
        rows.append(
            TateRow(k=k, dims=dims, stable_dim=stable, min_stable_degree=min_deg, degree_bound=bound)
        )
    return TateProfile(q=w.q, d=w.d, rows=tuple(rows))


def _classify_distance(dist, threshold, band) -> bool:
    """True if the distance counts as zero, False if confidently nonzero;
    raises in the ambiguous band around the threshold."""
    if threshold / band <= dist <= threshold * band:
        raise PrecisionInsufficientError(
            f"distance {mp.nstr(dist, 8)} falls within a factor {mp.nstr(band, 4)} "
            f"of the threshold {mp.nstr(threshold, 8)}"
        )
    return dist < threshold


@lru_cache(maxsize=32)
def _h1_roots(f: IntPoly, precision_bits: int, work: int) -> tuple:
    with mp.workprec(work):
        return tuple(complex_roots(f, precision_bits))


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
        roots = _h1_roots(w.poly, precision_bits, work)
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
