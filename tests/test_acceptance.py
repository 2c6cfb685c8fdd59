"""Acceptance criteria.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with pytest -s or -rA).  Shared expensive inputs (the
100000-prime survey, the 200-instance random suite) are session fixtures.
"""

import itertools
import random
from math import comb, lcm

import pytest
from mpmath import mp

from conftest import instance_suite
from oracles import PrecisionInsufficientError, complex_roots, tate_dim_numeric
from tatecycles.bounds import (
    RATIONALS,
    FieldParams,
    f_of_K,
    hensel_galois_log_disc,
    hensel_log_disc,
    least_nonsplit_bound,
    bound_B,
    bound_C,
)
from tatecycles.cmlab import (
    EllipticCurve,
    ap_cm,
    exe_survey,
    fundamental_discriminants,
    kronecker_symbol,
    least_nonsplit_search,
    noncm_rank_check,
    pi_K_count,
    primes_up_to,
)
from tatecycles.polycore import (
    IntMatrix,
    IntPoly,
    charpoly,
    companion,
    compound_matrix,
    cyclotomic,
    divisors,
)
from tatecycles.tate import degree_bound, stable_tate_dim, tate_dim
from tatecycles.weil import base_change, product_variety, weil_from_trace

P_MAX_SURVEY = 10**5
SUITE_SIZE = 200


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="session")
def gaussian_survey():
    return exe_survey(-4, P_MAX_SURVEY)


@pytest.fixture(scope="session")
def random_suite():
    return instance_suite(SUITE_SIZE, d_max=3, q_max=97)


def test_criterion_1_exe_ranks(gaussian_survey):
    rows, _ = gaussian_survey
    ok = True
    for r in rows:
        if r.reduction_type == "bad-or-excluded":
            continue
        if r.rank_base != 4:
            ok = False
        if r.kronecker == -1 and (r.rank_stable, r.stable_degree) != (6, 2):
            ok = False
        if r.kronecker == 1 and r.rank_stable != 4:
            ok = False
    _verdict(1, f"D=-4 E x E ranks (4 / 6, degree 2) at every good prime <= {P_MAX_SURVEY}", ok)


def test_criterion_2_inert_density(gaussian_survey):
    _, density = gaussian_survey
    inert = dict(density.fractions)["inert"]
    ok = 0.45 <= inert <= 0.55
    _verdict(2, f"inert fraction {inert:.4f} within [0.45, 0.55]", ok)


def test_criterion_3_noncm_rank_base():
    rep = noncm_rank_check(EllipticCurve(0, 0, 1, -1, 0, label="37a"), 10**3)
    ok = rep.all_rank_base_4 and all(
        r.rank_base == 4 for r in rep.rows if r.reduction_type != "bad"
    ) and all(r.rank_stable >= 4 for r in rep.rows if r.reduction_type != "bad")
    _verdict(3, "conductor-37 curve: prime-field rank exactly 4 at every good p <= 1000", ok)


def test_criterion_4_property_suite(random_suite):
    failures = 0
    for w in random_suite:
        for k in range(w.d + 1):
            stable, min_deg = stable_tate_dim(w, k)
            bound = degree_bound(w.d, k)
            # stabilizes at or before the universal degree bound
            if bound % min_deg or tate_dim(w, k, bound) != stable:
                failures += 1
            dims = {n: tate_dim(w, k, n) for n in range(1, 13)}
            if any(dims[n] > dims[m] for n in dims for m in dims if m % n == 0):
                failures += 1
            if any(dims[n] > stable for n in dims):
                failures += 1
            for n in range(1, 7):
                if tate_dim(w, k, n) != tate_dim(w, w.d - k, n):
                    failures += 1
        for n in range(1, 5):
            wn = base_change(w, n)
            for k in range(w.d + 1):
                if tate_dim(w, k, n) != tate_dim(wn, k, 1):
                    failures += 1
    _verdict(
        4,
        f"stabilization, monotonicity, duality, base change on {len(random_suite)} random instances "
        f"(failures: {failures})",
        failures == 0,
    )


def test_criterion_5_oracle_equivalence(random_suite):
    disagreements = 0
    escalations = 0

    def compare(w, k, n):
        nonlocal disagreements, escalations
        try:
            if tate_dim_numeric(w, k, n, precision_bits=200) != tate_dim(w, k, n):
                disagreements += 1
        except PrecisionInsufficientError:
            escalations += 1

    for w in random_suite:
        for k in range(w.d + 1):
            for n in (1, 2, 3, 4):
                compare(w, k, n)
    # both instance families behind the E x E survey: supersingular and
    # ordinary reductions of the Gaussian CM curve
    for p in primes_up_to(500):
        if p in (2, 3):
            continue
        _, a = ap_cm(-4, p)
        e = weil_from_trace(a, p)
        w = product_variety(e, e)
        for k in (0, 1, 2):
            for n in (1, 2):
                compare(w, k, n)
    _verdict(
        5,
        f"exact-vs-numeric agreement (disagreements: {disagreements}, "
        f"precision escalations: {escalations})",
        disagreements == 0 and escalations == 0,
    )


def test_criterion_6_bounds():
    ok = True
    # f(Q) = 1 exactly
    ok &= f_of_K(RATIONALS) == 1
    with mp.workprec(512):
        # independent direct-product evaluations of the worked values
        b_direct = mp.log(mp.e * mp.mpf(2) * (1 + mp.log(2)) ** 2)
        n_prime = 96 * mp.log(4)
        c_direct = 1 + 32 * mp.log(n_prime) + 33 * mp.log(1 + mp.log(n_prime))
    b_got = bound_B(2, RATIONALS, 1, 1).log_value
    c_got = bound_C(1, 1, mp.log(4), RATIONALS).log_value
    rel = mp.mpf("1e-10")
    ok &= abs(b_got - b_direct) <= rel * abs(b_direct)
    ok &= abs(c_got - c_direct) <= rel * abs(c_direct)
    ok &= abs(mp.exp(b_got) - mp.mpf("15.5853")) < 0.01
    ok &= abs(c_got - mp.mpf("216.05")) < 0.05
    # monotonicity grids for every bound
    Ns = [1, 2, 7, 50]
    for i in range(len(Ns) - 1):
        for m, d in itertools.product((1, 2), repeat=2):
            ok &= (
                bound_B(Ns[i + 1], RATIONALS, m, d).log_value
                >= bound_B(Ns[i], RATIONALS, m, d).log_value
            )
            ok &= (
                bound_C(Ns[i + 1], d, mp.log(4), RATIONALS).log_value
                >= bound_C(Ns[i], d, mp.log(4), RATIONALS).log_value
            )
    for lo, hi in [(1, 2), (2, 4), (4, 9)]:
        ok &= (
            least_nonsplit_bound(RATIONALS, hi, 2).log_value
            >= least_nonsplit_bound(RATIONALS, lo, 2).log_value
        )
        ok &= hensel_galois_log_disc(4, 2, hi, {3}) >= hensel_galois_log_disc(4, 2, lo, {3})
    for small, large in [(set(), {2}), ({2}, {2, 3}), ({2, 3}, {2, 3, 5})]:
        ok &= hensel_log_disc(3, large) >= hensel_log_disc(3, small)
        ok &= hensel_log_disc(4, large) >= hensel_log_disc(3, large)
    for nk in (1, 2, 3):
        fp_lo = FieldParams(nk, 0 if nk == 1 else 1, "yes" if nk > 1 else "no")
        fp_hi = FieldParams(nk + 1, 1, "yes")
        ok &= f_of_K(fp_hi) >= f_of_K(fp_lo)
    _verdict(6, "f(Q) = 1, worked B and C to 1e-10 vs independent evaluation, monotone grids", bool(ok))


def test_criterion_7_nonsplit_sweep():
    ok = True
    count = 0
    for D in fundamental_discriminants(10**4):
        res = least_nonsplit_search(D, c=1)
        count += 1
        if not res.satisfied:
            ok = False
        if kronecker_symbol(D, res.found_prime) != -1:
            ok = False
    gauss = least_nonsplit_search(-4, c=1)
    ok &= gauss.found_prime == 3
    ok &= abs(mp.exp(gauss.theoretical_log_bound) - mp.mpf("86.985")) < 0.01
    _verdict(7, f"least non-split prime within bound for {count} fundamental discriminants", bool(ok))


def test_criterion_8_prime_ideal_counts():
    ok = True
    ratios = {}
    for D in (-4, -3):
        res = pi_K_count(D, 10**5)
        ratios[D] = res.ratio
        ok &= 0.9 <= res.ratio <= 1.1
    _verdict(
        8,
        f"pi_K(1e5)/Li(1e5) = {ratios[-4]:.4f} (Q(i)), {ratios[-3]:.4f} (Q(sqrt(-3))) within [0.9, 1.1]",
        bool(ok),
    )


def test_criterion_9_kernel():
    ok = True
    rng = random.Random(99)
    for _ in range(100):
        deg = rng.randint(1, 8)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if charpoly(companion(f)) != f:
            ok = False
    for m in range(1, 201):
        prod = IntPoly([1])
        for d in divisors(m):
            prod = prod * cyclotomic(d)
        if prod != IntPoly([-1] + [0] * (m - 1) + [1]):
            ok = False
    # compound eigenvalue products at 200-bit precision, matrices up to 6x6
    with mp.workprec(300):
        tol = mp.mpf(2) ** -100
        for s in (3, 4, 5, 6):
            M = IntMatrix(s, s, [rng.randint(-9, 9) for _ in range(s * s)])
            eigs = complex_roots(charpoly(M))
            for r in range(1, s + 1):
                comp_eigs = complex_roots(charpoly(compound_matrix(M, r)))
                products = []
                for I in itertools.combinations(range(s), r):
                    prod = mp.mpc(1)
                    for i in I:
                        prod *= eigs[i]
                    products.append(prod)
                remaining = list(comp_eigs)
                for v in products:
                    best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - v))
                    if abs(remaining[best] - v) >= tol:
                        ok = False
                    remaining.pop(best)
                if remaining:
                    ok = False
    _verdict(9, "companion round trip, cyclotomic product identity, compound eigenvalues", bool(ok))
