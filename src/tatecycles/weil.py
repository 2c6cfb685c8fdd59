"""Weil polynomial model.

A Weil polynomial here is the monic characteristic polynomial det(T - Frob) of
Frobenius acting on H^1 of an abelian variety over a field with q elements:
integer coefficients, degree 2d, constant term q^d, and every complex root of
modulus sqrt(q).  The classical reciprocal form prod(1 - alpha_i T) is the
coefficient-reversed polynomial and is produced only at display time (see
``reciprocal_form``).

Validation is exact.  The functional equation makes f(T) = T^d h(T + q/T),
and every root of f has modulus sqrt(q) exactly when every root of h is real
and in [-2 sqrt(q), 2 sqrt(q)] (Kedlaya 2008), which a Sturm count decides in
integers; nothing here uses floating point.

The characteristic polynomials on H^r, plain ``IntPoly``s, and the base
changes to extensions are computed in integer arithmetic from power sums by
Newton's identities, and H^r for d < r < 2d by rescaling its Poincare dual
H^(2d-r); this module calls no matrix code.  The compound-matrix route in
``polycore`` is the independent oracle the tests check them against.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .polycore import (
    IntPoly,
    Record,
    _newton_coefficients,
    factorization,
    from_power_sums,
    power_sums,
    real_root_count,
    squarefree_part,
)

# Nothing here calls these any more.  bench/tracer.py wraps them under these
# names (the compound-matrix route and Yun's decomposition), so they stay
# bound until the benchmark drops those probes.
from .polycore import charpoly, compound_matrix, squarefree_decomposition  # noqa: F401

__all__ = [
    "WeilPoly",
    "WeilValidationError",
    "validate_weil",
    "weil_from_trace",
    "product_variety",
    "h_charpoly",
    "base_change",
    "reciprocal_form",
]


class WeilValidationError(ValueError):
    """Validation failure; ``reason`` is the name of the violated invariant.

    Reasons: NotPrimePower, NotMonic, OddDegree, FunctionalEquationFails,
    RootModulusFails.
    """

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(f"{reason}: {detail}")


class WeilPoly(Record):
    """Validated Weil polynomial with field size q = p^e and dimension d."""

    __slots__ = ("poly", "q", "p", "d")

    def __repr__(self) -> str:
        return f"WeilPoly({self.poly.pretty()}, q={self.q}, d={self.d})"


def _characteristic(q: int) -> int:
    """The prime p with q = p^e; raises NotPrimePower for any other q."""
    pe = factorization(q) if q >= 2 else ()
    if len(pe) != 1:
        raise WeilValidationError("NotPrimePower", f"q = {q} is not a prime power")
    return pe[0][0]


def _root_moduli_ok(f: IntPoly, q: int) -> bool:
    # Read h with f(T) = T^d h(T + q/T) off the top half of f, highest
    # coefficient first: T^d (T + q/T)^k = sum_i C(k, i) q^i T^(d+k-2i).
    d = f.degree // 2
    top = list(f.coeffs[d:])
    h = [0] * (d + 1)
    for k in range(d, -1, -1):
        h[k] = top[k]
        for i in range(1, k // 2 + 1):
            top[k - 2 * i] -= h[k] * comb(k, i) * q**i
    # With h(x) = E(x^2) + x O(x^2), H(u) = E(u)^2 - u O(u)^2 has the roots
    # x_i^2 of h, and x_i is real with |x_i| <= 2 sqrt(q) iff x_i^2 is in [0, 4q].
    E, O = IntPoly(h[0::2]), IntPoly(h[1::2])
    sf = squarefree_part(E * E - IntPoly([0, 1]) * O * O)
    return real_root_count(sf, 0, 4 * q) == sf.degree


def validate_weil(f: IntPoly, q: int) -> WeilPoly:
    """Validate f as a Weil q-polynomial and return the typed value.

    Checks, in order: q is a prime power, f is monic of positive even degree,
    constant term q^d, the exact functional equation
    T^{2d} f(q/T) = q^d f(T), and that every root has modulus sqrt(q), by
    an exact Sturm count on the real-root polynomial h of f.

    >>> validate_weil(IntPoly([5, 0, 1]), 5).d
    1
    """
    p = _characteristic(q)
    if f.is_zero() or not f.is_monic():
        raise WeilValidationError("NotMonic", "leading coefficient must be 1")
    if f.degree < 2 or f.degree % 2:
        raise WeilValidationError("OddDegree", f"degree {f.degree} is not a positive even integer")
    d = f.degree // 2
    c = f.coeffs
    if c[0] != q**d:
        raise WeilValidationError(
            "FunctionalEquationFails", f"constant term {c[0]} != q^d = {q**d}"
        )
    # coefficient form of T^{2d} f(q/T) = q^d f(T):  c_j = q^{d-j} c_{2d-j}
    for j in range(d + 1):
        if c[j] != q ** (d - j) * c[2 * d - j]:
            raise WeilValidationError(
                "FunctionalEquationFails",
                f"coefficient {j}: {c[j]} != q^{d - j} * {c[2 * d - j]}",
            )
    if not _root_moduli_ok(f, q):
        raise WeilValidationError("RootModulusFails", f"some root does not have modulus sqrt({q})")
    return WeilPoly(poly=f, q=q, p=p, d=d)


def weil_from_trace(a: int, q: int) -> WeilPoly:
    """The elliptic Weil polynomial T^2 - aT + q; the Hasse bound a^2 <= 4q is
    checked exactly, so no numerics are involved."""
    p = _characteristic(q)
    if a * a > 4 * q:
        raise WeilValidationError("RootModulusFails", f"|{a}| exceeds the Hasse bound 2*sqrt({q})")
    return WeilPoly(poly=IntPoly([q, -a, 1]), q=q, p=p, d=1)


def product_variety(a: WeilPoly, b: WeilPoly) -> WeilPoly:
    """Weil polynomial of a product variety: H^1 adds, so polynomials multiply."""
    if a.q != b.q:
        raise ValueError(f"field sizes differ: {a.q} != {b.q}")
    return WeilPoly(poly=a.poly * b.poly, q=a.q, p=a.p, d=a.d + b.d)


@lru_cache(maxsize=1024)
def _subset_product_charpoly(coeffs: tuple[int, ...], r: int, q: int) -> IntPoly:
    d = (len(coeffs) - 1) // 2
    if d < r < 2 * d:
        # Poincare duality: the roots are s = q^(r-d) times those of H^(2d-r),
        # so a_i becomes a_i s^(N-i), a rescale of the reversed coefficients;
        # H^2d = T - q^d comes out of the mirror below with no Newton step
        dual = IntPoly(_subset_product_charpoly(coeffs, 2 * d - r, q).coeffs[::-1])
        return IntPoly(dual.scale_variable(q ** (r - d)).coeffs[::-1])
    # The alpha^j have power sums P_j, P_2j, ..., and Newton's recursion on
    # the first r of them ends in a_r = (-1)^r e_r(alpha^j).  Only the sums
    # for j <= N/2 are taken: the roots pair as beta <-> q^r / beta with
    # product q^(rN/2), so a_(N-i) = (-1)^N q^(r(N-2i)/2) a_i gives the rest.
    degree = comb(len(coeffs) - 1, r)
    half = degree // 2
    P = power_sums(IntPoly(coeffs), r * half)
    sign = -1 if r % 2 else 1
    S = [sign * _newton_coefficients(P[j - 1:r * j:j])[-1] for j in range(1, half + 1)]
    a = [1] + _newton_coefficients(S)
    mirror_sign = -1 if degree % 2 else 1
    top = [mirror_sign * q ** (r * (degree - 2 * i) // 2) * a[i] for i in range(degree - half)]
    return IntPoly(top + a[half::-1])


def h_charpoly(w: WeilPoly, r: int) -> IntPoly:
    """Characteristic polynomial of Frobenius on H^r, as an IntPoly.

    Its roots are exactly the products of r distinct-index H^1 eigenvalues,
    each of modulus q^(r/2); degree N = binom(2d, r).  r = 0 gives T - 1.
    Computed from power sums: the j-th power sum of the roots is
    e_r(alpha_1^j, ..., alpha_2d^j), which Newton-Girard takes from the power
    sums of f, and a second Newton pass rebuilds the lower half of the
    coefficients, with exact integer divisions only.  The upper half follows
    from the functional equation: the roots pair as beta <-> q^r / beta with
    product q^(rN/2), because a WeilPoly has f(0) = q^d and
    T^(2d) f(q/T) = q^d f(T), so the coefficient a_(N-i) of T^i is
    (-1)^N q^(r(N-2i)/2) a_i.  The upper coefficients are the large ones, so
    this saves most of the Newton work.  For d < r < 2d, Poincare duality
    gives H^r from H^(2d-r) with no Newton pass: the product over an
    r-subset J is q^d / alpha_K over its complement K, and alpha -> q/alpha
    fixes the root multiset, so the roots are s = q^(r-d) times those of
    H^(2d-r) and H^r(T) = s^N Q_(2d-r)(T/s), whose T^i coefficient is
    a_i s^(N-i); it is exact.  Both routes are cached on the coefficients of
    w, r and q.  The characteristic polynomial of the r-th compound
    (``polycore.compound_matrix``) of the companion matrix (``companion`` in
    the tests' oracles) and the full Newton recovery (``h_charpoly_full``,
    also there) give the same polynomial and serve as the independent checks.

    >>> h_charpoly(weil_from_trace(0, 5), 2)
    IntPoly('T - 5')
    """
    if not 0 <= r <= 2 * w.d:
        raise ValueError(f"cohomology degree r = {r} out of range 0..{2 * w.d}")
    if r == 0:
        return IntPoly([-1, 1])
    return _subset_product_charpoly(w.poly.coeffs, r, w.q)


def base_change(w: WeilPoly, n: int) -> WeilPoly:
    """Weil polynomial over the degree-n extension: roots are the alpha_i^n.

    Since p_j(f_n) = p_{jn}(f), the power sums of f give those of f_n, and
    one Newton pass rebuilds it exactly.  The characteristic polynomial of
    the n-th power of the companion matrix (``matrix_power`` and
    ``companion`` in the tests' oracles) is the independent check.

    >>> base_change(weil_from_trace(0, 5), 2).poly
    IntPoly('T^2 + 10T + 25')
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if n == 1:
        return w
    f = from_power_sums(power_sums(w.poly, w.poly.degree * n)[n - 1::n])
    return WeilPoly(poly=f, q=w.q**n, p=w.p, d=w.d)


def reciprocal_form(f: IntPoly) -> IntPoly:
    """Reciprocal-root convention prod(1 - alpha_i T): the reversed coefficients.

    Display-only; every computation in this package uses the monic form.
    """
    return IntPoly(f.coeffs[::-1])
