"""Numeric oracles: floating-point routes the tests hold the exact library to.

``complex_roots`` finds the complex roots of an integer polynomial and
``tate_dim_numeric`` counts Tate classes by enumerating eigenvalue subsets.
Neither shares code with the exact cyclotomic route they check, and the
library itself never calls them, so importing it loads no mpmath.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import mpmath
from mpmath import mp

from tatecycles.polycore import IntPoly, squarefree_decomposition
from tatecycles.tate import _check_codim
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
