"""Shared helpers: seeded random generators for valid Weil polynomials."""

from __future__ import annotations

import os
import random
from itertools import combinations_with_replacement
from math import isqrt

from hypothesis import settings

from tatecycles.polycore import IntPoly, cyclotomic, euler_phi
from tatecycles.weil import (
    WeilPoly,
    WeilValidationError,
    product_variety,
    validate_weil,
    weil_from_trace,
)

SEED = 20260810

# Tests that leave max_examples unset, the exit-code property test among them,
# run the default 100 examples; TATECYCLES_HYPOTHESIS_PROFILE=ci loads a ten
# times larger budget, which the CI workflow runs for that test alone.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("TATECYCLES_HYPOTHESIS_PROFILE", "default"))


def _prime_powers(limit: int) -> list[int]:
    def is_pp(q):
        for p in range(2, q + 1):
            if p * p > q and q > 1:
                return True  # prime
            if q % p == 0:
                while q % p == 0:
                    q //= p
                return q == 1
        return False

    return [q for q in range(2, limit + 1) if is_pp(q)]


PRIME_POWERS_97 = _prime_powers(97)


def random_elliptic(rng: random.Random, q: int) -> WeilPoly:
    amax = isqrt(4 * q)
    return weil_from_trace(rng.randint(-amax, amax), q)


def random_quartic(rng: random.Random, q: int) -> WeilPoly | None:
    """Rejection-sample a symmetric quartic through the full validation gate;
    not every draw is a Weil polynomial."""
    amax = 4 * isqrt(q) + 1
    for _ in range(60):
        a = rng.randint(-amax, amax)
        b = rng.randint(-6 * q, 6 * q)
        f = IntPoly([q * q, q * a, b, a, 1])
        try:
            return validate_weil(f, q)
        except WeilValidationError:
            continue
    return None


def random_weil(rng: random.Random, d_max: int = 3, q_max: int = 97) -> WeilPoly:
    """A random valid Weil polynomial: products of elliptic factors over a
    common q, with symmetric quartic factors mixed in."""
    q = rng.choice([qq for qq in PRIME_POWERS_97 if qq <= q_max])
    d = rng.randint(1, d_max)
    w = None
    remaining = d
    if remaining >= 2 and rng.random() < 0.4:
        quartic = random_quartic(rng, q)
        if quartic is not None:
            w = quartic
            remaining -= 2
    while remaining > 0:
        factor = random_elliptic(rng, q)
        w = factor if w is None else product_variety(w, factor)
        remaining -= 1
    return w


def instance_suite(count: int, d_max: int = 3, q_max: int = 97, seed: int = SEED) -> list[WeilPoly]:
    rng = random.Random(seed)
    return [random_weil(rng, d_max=d_max, q_max=q_max) for _ in range(count)]


# m >= 3 with phi(m) <= 10, so that each factor below has dimension <= 5
CYCLOTOMIC_ORDERS = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 18, 20, 22, 24, 30)


def cyclotomic_weil(m: int, q: int) -> WeilPoly:
    """q^(phi(m)/2) Phi_m(T / sqrt q) for a square q and m >= 3: every H^1
    eigenvalue is sqrt(q) times a primitive m-th root of unity."""
    s = isqrt(q)
    f = cyclotomic(m)
    return validate_weil(IntPoly([c * s ** (f.degree - i) for i, c in enumerate(f.coeffs)]), q)


def cyclotomic_suite(d_max: int = 5) -> list[WeilPoly]:
    """The cyclotomic-type Weil polynomials over q = 4, 9 and 25 of the orders
    in CYCLOTOMIC_ORDERS, their products of two up to dimension d_max and of
    three below it.  Every root of each H^{2k} ratio polynomial is a root of
    unity, so the scan meets 33 orders up to 90, where the seeded suites meet
    only 1, 2, 3, 4, 6, 8 and 12."""
    out = []
    for q in (4, 9, 25):
        factors = [cyclotomic_weil(m, q) for m in CYCLOTOMIC_ORDERS if euler_phi(m) <= 2 * d_max]
        for r in (1, 2, 3):
            for combo in combinations_with_replacement(factors, r):
                if sum(w.d for w in combo) <= d_max - (r == 3):
                    w = combo[0]
                    for factor in combo[1:]:
                        w = product_variety(w, factor)
                    out.append(w)
    return out
