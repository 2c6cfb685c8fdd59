"""Effective-bound calculators against independent high-precision evaluation."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from tatecycles.bounds import (
    C_MAX_DIMENSION,
    F_K_MAX_DEGREE,
    F_K_MAX_EXPONENT,
    MAX_PRECISION_BITS,
    RATIONALS,
    FieldParams,
    f_of_K,
    hensel_galois_log_disc,
    hensel_log_disc,
    least_nonsplit_bound,
    bound_B,
    bound_C,
    parse_real,
)
from tatecycles.bounds import _exact_value
from tatecycles.polycore import BudgetExceededError


def _rel_close(a, b, rel="1e-10"):
    a, b = mp.mpf(a), mp.mpf(b)
    return abs(a - b) <= mp.mpf(rel) * max(abs(a), abs(b), mp.mpf(1))


# ---------------------------------------------------------------------------
# f(K)

def test_f_of_rationals_is_one():
    assert f_of_K(RATIONALS) == 1


def test_f_of_K_exceptional_example():
    # max(2! * log 4, sqrt(4)) + 4
    fp = FieldParams(2, mp.log(4), "yes")
    got = f_of_K(fp)
    with mp.workprec(512):
        want = max(2 * mp.log(4), mp.mpf(2)) + 4
    assert _rel_close(got, want)
    assert abs(got - mp.mpf("6.7726")) < 1e-3


def test_f_of_K_no_exceptional_is_degree_squared():
    assert f_of_K(FieldParams(3, mp.log(23), "no")) == 9


def test_f_of_K_unknown_equals_yes():
    log_d = mp.log(12)
    yes = f_of_K(FieldParams(2, log_d, "yes"))
    unknown = f_of_K(FieldParams(2, log_d, "unknown"))
    assert yes == unknown


def test_f_of_K_caps():
    # at the caps f(K) is computed; past them it raises, with no exceptional
    # zero it is n_K^2 whatever the inputs
    f_of_K(FieldParams(F_K_MAX_DEGREE, 1, "yes"))
    f_of_K(FieldParams(3, 3 * F_K_MAX_EXPONENT, "yes"))
    for fp in (FieldParams(F_K_MAX_DEGREE + 1, 1, "yes"), FieldParams(3, mp.mpf("3.1e100"), "unknown")):
        with pytest.raises(BudgetExceededError):
            f_of_K(fp)
    assert f_of_K(FieldParams(F_K_MAX_DEGREE + 1, mp.mpf("1e10000"), "no")) == (F_K_MAX_DEGREE + 1) ** 2


def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams(0, 0)
    with pytest.raises(ValueError):
        FieldParams(1, 1.0)  # the rationals force log |d_K| = 0
    with pytest.raises(ValueError):
        FieldParams(2, -1.0)
    with pytest.raises(ValueError):
        FieldParams(2, 0, "maybe")


# ---------------------------------------------------------------------------
# Hensel log-discriminant estimates

def test_hensel_example():
    got = hensel_log_disc(2, {2})
    with mp.workprec(512):
        want = 3 * mp.log(2)
    assert _rel_close(got, want)
    # the Gaussian field (true |d| = 4) obeys the bound d_L <= 8
    assert mp.log(4) <= got


def test_hensel_degree_one_is_zero():
    assert hensel_log_disc(1, set()) == 0
    assert hensel_log_disc(1, {2, 3, 5}) == 0


def test_hensel_monotone():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 8)
        ps = set(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4)))
        base = hensel_log_disc(n, ps)
        assert hensel_log_disc(n + 1, ps) >= base
        assert hensel_log_disc(n, ps | {17}) >= base


def test_hensel_galois_example():
    got = hensel_galois_log_disc(4, 2, mp.log(4), {3})
    with mp.workprec(512):
        want = 2 * mp.log(3) + 4 * (mp.log(4) - mp.log(2)) + 2 * mp.log(4)
    assert _rel_close(got, want)
    assert abs(got - mp.mpf("7.7424")) < 1e-3


def test_hensel_galois_trivial_extension_returns_base():
    x = mp.log(7)
    assert _rel_close(hensel_galois_log_disc(3, 3, x, set()), x)


def test_hensel_galois_divisibility_required():
    with pytest.raises(ValueError):
        hensel_galois_log_disc(3, 2, 0, set())


def test_hensel_galois_nonnegative():
    rng = random.Random(32)
    for _ in range(30):
        nk = rng.randint(1, 4)
        nl = nk * rng.randint(1, 4)
        ps = set(rng.sample([2, 3, 5, 7], rng.randint(0, 3)))
        assert hensel_galois_log_disc(nl, nk, rng.random() * 5, ps) >= 0


# ---------------------------------------------------------------------------
# least non-split prime bound

def test_least_nonsplit_bound_gaussian_example():
    rep = least_nonsplit_bound(RATIONALS, mp.log(4), 2, 1)
    with mp.workprec(512):
        want = mp.log(mp.e * 32)  # e^1 * 4^(5/2)
    assert _rel_close(rep.log_value, want)
    assert rep.exact_value == 87
    assert dict(rep.inputs)["active_branch"] == "formula"


def test_least_nonsplit_bound_constant_branch():
    rep = least_nonsplit_bound(RATIONALS, mp.mpf("0.01"), 9, 1)
    # e^1 * tiny discriminant power stays under 55
    assert dict(rep.inputs)["active_branch"] == "constant_55"
    assert _rel_close(rep.log_value, mp.log(55))
    assert rep.exact_value == 55


def test_least_nonsplit_bound_requires_degree_two():
    with pytest.raises(ValueError):
        least_nonsplit_bound(RATIONALS, 1.0, 1)


def test_least_nonsplit_bound_monotone_in_disc():
    prev = None
    for log_dl in (1, 2, 4, 8, 16):
        rep = least_nonsplit_bound(RATIONALS, log_dl, 2)
        if prev is not None:
            assert rep.log_value >= prev
        prev = rep.log_value


# ---------------------------------------------------------------------------
# the bound B

def test_bound_B_worked_example():
    rep = bound_B(2, RATIONALS, 1, 1)
    with mp.workprec(512):
        # direct product form, not the module's log-space sum
        B = mp.e ** 1 * mp.mpf(2) ** 1 * (1 + mp.log(2)) ** 2
        want = mp.log(B)
    assert _rel_close(rep.log_value, want)
    assert abs(mp.exp(rep.log_value) - mp.mpf("15.5853")) < 1e-3
    assert rep.exact_value == 16


def test_bound_B_boundary_N1():
    rep = bound_B(1, RATIONALS, 1, 1)
    assert _rel_close(rep.log_value, 1)


def test_bound_B_monotone():
    rng = random.Random(33)
    for _ in range(20):
        N = rng.randint(1, 50)
        m = rng.randint(1, 3)
        d = rng.randint(1, 3)
        base = bound_B(N, RATIONALS, m, d).log_value
        assert bound_B(N + 1, RATIONALS, m, d).log_value > base or N == 0
        assert bound_B(N, RATIONALS, m, d + 1).log_value >= base
        assert bound_B(N, RATIONALS, m + 1, d).log_value >= base


def test_bound_B_rejects_nonpositive():
    with pytest.raises(ValueError):
        bound_B(0, RATIONALS, 1, 1)
    with pytest.raises(ValueError):
        bound_B(-2.5, RATIONALS, 1, 1)


def test_bound_B_exact_value_invariant():
    rng = random.Random(34)
    for _ in range(25):
        rep = bound_B(rng.randint(1, 10**6), RATIONALS, rng.randint(1, 2), rng.randint(1, 2))
        if rep.exact_value is None:
            continue
        with mp.workprec(512):  # the gap is far below double precision
            gap = abs(mp.log(mp.mpf(rep.exact_value)) - mp.mpf(rep.log_value))
            assert gap <= mp.mpf("1e-20") + mp.log1p(mp.mpf(1) / rep.exact_value)


# ---------------------------------------------------------------------------
# the bound C

def test_bound_C_worked_example():
    rep = bound_C(1, 1, mp.log(4), RATIONALS, 1, 1)
    with mp.workprec(512):
        n_prime = 96 * mp.log(4)
        want = 1 + 32 * mp.log(n_prime) + 33 * mp.log(1 + mp.log(n_prime))
    assert _rel_close(rep.log_value, want)
    # headline figure from rounding the three displayed terms
    assert abs(rep.log_value - mp.mpf("216.05")) < 0.05


def test_bound_C_monotone():
    base = bound_C(1, 1, mp.log(4), RATIONALS).log_value
    assert bound_C(2, 1, mp.log(4), RATIONALS).log_value > base
    assert bound_C(1, 2, mp.log(4), RATIONALS).log_value > base
    assert bound_C(1, 1, mp.log(8), RATIONALS).log_value > base


def test_bound_C_exponent_linearity():
    r1 = bound_C(1, 1, mp.log(4), RATIONALS, c=1, c1=1)
    r2 = bound_C(1, 1, mp.log(4), RATIONALS, c=2, c1=1)
    assert _rel_close(r2.log_value, 2 * r1.log_value)


def test_bound_C_rejects_nonpositive_log_df():
    with pytest.raises(ValueError):
        bound_C(1, 1, 0, RATIONALS)


@pytest.mark.parametrize("c1", [-1, 0])
def test_bound_C_rejects_nonpositive_c1(c1):
    with pytest.raises(ValueError, match="c1 must be positive"):
        bound_C(1, 1, 1, RATIONALS, c1=c1)


def test_bound_C_exact_value_absent_for_d2():
    rep = bound_C(1, 2, mp.log(4), RATIONALS)
    assert rep.exact_value is None  # log C far beyond 4096 bits


def test_bound_C_dimension_cap():
    # B_m = (2d)! is echoed in full; one more d and Python refuses to print it
    rep = bound_C(2, C_MAX_DIMENSION, 1, RATIONALS)
    assert dict(rep.inputs)["B_m"] == str(factorial(2 * C_MAX_DIMENSION))
    with pytest.raises(BudgetExceededError, match="capped at d"):
        bound_C(2, C_MAX_DIMENSION + 1, 1, RATIONALS)


@pytest.mark.parametrize(
    "call",
    [
        lambda prec: bound_B(2, FieldParams(3, mp.mpf("1e6"), "yes"), 1, 1, prec),
        lambda prec: bound_C(2, 1, 1, RATIONALS, precision_bits=prec),
        lambda prec: f_of_K(RATIONALS, prec),
        lambda prec: hensel_log_disc(2, [2], prec),
        lambda prec: hensel_galois_log_disc(2, 1, 0, [2], prec),
        lambda prec: least_nonsplit_bound(RATIONALS, 1, 2, precision_bits=prec),
        lambda prec: parse_real("1", "--c", prec),
    ],
    ids=["B", "C", "f_of_K", "hensel", "hensel_galois", "nonsplit", "parse_real"],
)
def test_precision_cap(call):
    # above about 14,300 bits the first call raised mpmath's ValueError on
    # printing a 4300-digit integer
    call(MAX_PRECISION_BITS)
    with pytest.raises(BudgetExceededError, match="precision capped"):
        call(MAX_PRECISION_BITS + 1)
    with pytest.raises(BudgetExceededError):
        call(16384)


# ---------------------------------------------------------------------------
# precision stability

def test_double_precision_agreement():
    exc = FieldParams(2, mp.log(4), "yes")
    cases = [
        bound_B(2, RATIONALS, 1, 1, precision_bits=256).log_value,
        bound_B(7, exc, 2, 2, precision_bits=256).log_value,
        bound_C(1, 1, mp.log(4), RATIONALS, precision_bits=256).log_value,
        bound_C(3, 2, mp.log(9), exc, precision_bits=256).log_value,
        least_nonsplit_bound(RATIONALS, mp.log(4), 2, precision_bits=256).log_value,
        least_nonsplit_bound(exc, mp.log(44), 3, precision_bits=256).log_value,
    ]
    doubled = [
        bound_B(2, RATIONALS, 1, 1, precision_bits=512).log_value,
        bound_B(7, exc, 2, 2, precision_bits=512).log_value,
        bound_C(1, 1, mp.log(4), RATIONALS, precision_bits=512).log_value,
        bound_C(3, 2, mp.log(9), exc, precision_bits=512).log_value,
        least_nonsplit_bound(RATIONALS, mp.log(4), 2, precision_bits=512).log_value,
        least_nonsplit_bound(exc, mp.log(44), 3, precision_bits=512).log_value,
    ]
    for a, b in zip(cases, doubled):
        assert abs(a - b) < mp.mpf("1e-20")


def test_report_serialization_shape():
    rep = bound_B(2, RATIONALS, 1, 1)
    record = rep.to_record()
    assert record["name"] == "bound_B"
    assert set(record) == {"name", "inputs", "log_value", "exact_value"}
    assert isinstance(record["log_value"], str)
    assert record["exact_value"] == "16"


# ---------------------------------------------------------------------------
# exact_value against the logarithmic floor test it short-cuts

EXACT_VALUE_MAX_BITS = 4096


def _exact_value_reference(log_value) -> int | None:
    if log_value > EXACT_VALUE_MAX_BITS * mp.log(2):
        return None
    need = int(log_value / mp.log(2)) + 80
    with mp.workprec(max(need, mp.prec)):
        v = mp.exp(mp.mpf(log_value))
        c = int(mp.ceil(v))
        if c >= 1 and mp.log(c) - log_value > mp.mpf("1e-20") + mp.log1p(mp.mpf(1) / c):
            c = int(mp.floor(v))
    return c


_PRECISIONS = st.sampled_from([100, 256, 300, 512, 1024])
_EXACT = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _log_at(x, work: int, prec: int):
    """log of x(), a real built at ``work`` bits (enough to hold it exactly),
    rounded to prec bits like every log_value the bounds produce."""
    with mp.workprec(work):
        L = mp.log(x())
    with mp.workprec(prec):
        return +L


def _same_exact_value(L, prec: int) -> int | None:
    with mp.workprec(prec):
        want = _exact_value_reference(L)
        assert _exact_value(L) == want, (mp.nstr(L, 40), prec)
    return want


@_EXACT
@given(prec=_PRECISIONS, num=st.integers(-3 * 2**80, 2840 * 2**80))
def test_exact_value_matches_reference_on_random_logs(prec, num):
    with mp.workprec(prec):
        L = mp.mpf(num) / 2**80
    _same_exact_value(L, prec)


@_EXACT
@given(
    prec=_PRECISIONS,
    k=st.integers(1, 10**6) | st.integers(1, 2**4090),
    shape=st.sampled_from(["k", "k+", "k-", "k+t/(k+1)", "k+t/(k+2)"]),
    j=st.integers(1, 1100),
    s=st.integers(-1, 1),
)
def test_exact_value_matches_reference_near_integers(prec, k, shape, j, s):
    # log(k), log(k +- 2^-j) and log(k + t/(k+1)), log(k + t/(k+2)) with
    # t = 1 + s 2^-j; the floor test flips at e^L = k + 1/(k+2)
    def x():
        tiny = mp.ldexp(1, -j)
        t = 1 + s * tiny
        return {
            "k": mp.mpf(k),
            "k+": k + tiny,
            "k-": k - tiny,
            "k+t/(k+1)": k + t / (k + 1),
            "k+t/(k+2)": k + t / (k + 2),
        }[shape]

    _same_exact_value(_log_at(x, prec + j + k.bit_length() + 64, prec), prec)


@pytest.mark.parametrize("prec", [100, 256, 300, 512, 1024])
def test_exact_value_matches_reference_at_c1_c2_edges(prec):
    # c = 1 moves to the floor below e^L = 1/2, c = 2 below 4/3; c = 3 below 9/4
    floors = 0
    for num, den in ((1, 2), (1, 1), (4, 3), (2, 1), (9, 4), (3, 1)):
        for j in (2, 10, 40, 70, 200, prec - 2, prec + 40):
            for s in (-1, 0, 1):
                x = lambda: mp.mpf(num) / den * (1 + s * mp.ldexp(1, -j))  # noqa: E731
                got = _same_exact_value(_log_at(x, prec + j + 64, prec), prec)
                with mp.workprec(prec + j + 64):
                    floors += got < x()
    assert floors  # the edges reach the floor branch


@pytest.mark.parametrize("prec", [100, 256, 300, 512, 1024])
def test_exact_value_matches_reference_at_the_cap(prec):
    # log_value = 4096 log 2 at the caller's precision, and a few ulps and
    # relative 2^-j either side of it
    with mp.workprec(prec):
        cap = 4096 * mp.log(2)
        values = [cap * (1 + s * mp.ldexp(1, -j)) for j in (10, 30, prec - 4) for s in (-1, 1)]
        values += [cap + u * mp.ldexp(1, 12 - prec) for u in range(-3, 4)]
    got = [_same_exact_value(L, prec) for L in values]
    assert got.count(None) == 6  # the three above by 2^-j and the three ulps above


def test_least_nonsplit_bound_cache_keeps_input_types():
    # FieldParams(2, ...) == FieldParams(2.0, ...) and 2 == 2.0, but the
    # echoed strings differ, so the cached invariants must not be shared
    least_nonsplit_bound(FieldParams(2, 1), 3, 2)
    echo = dict(least_nonsplit_bound(FieldParams(2.0, 1), 3, 2).inputs)
    assert (echo["n_K"], echo["n"]) == ("2.0", "2")
    echo = dict(least_nonsplit_bound(FieldParams(2, 1), 3, 2.0).inputs)
    assert (echo["n_K"], echo["n"]) == ("2", "2.0")


def test_least_nonsplit_bound_cache_is_per_precision():
    # c = "0.1" rounds differently at each precision, so a cached c f(K)
    # reused at another precision would move the last bits of log_value
    log_d_L = mp.log(163)
    for prec in (256, 512, 100, 256):
        rep = least_nonsplit_bound(RATIONALS, log_d_L, 3, "0.1", precision_bits=prec)
        with mp.workprec(prec):
            want = mp.mpf("0.1") + mp.mpf(5) / 4 * mp.mpf(log_d_L)
        assert rep.log_value == want, prec


# ---------------------------------------------------------------------------
# least_nonsplit_bound against the same formula through the mp context

def _least_nonsplit_bound_reference(fp, log_d_L, n, c, precision_bits):
    """The bound computed with mp operations under workprec, with the
    logarithmic floor test for exact_value; returns (record, inputs, log_value)."""
    with mp.workprec(precision_bits):
        fk = f_of_K(fp, precision_bits)
        ldl = mp.mpf(log_d_L)
        log_const = mp.log(55)
        log_formula = mp.mpf(c) * fk + mp.mpf(5) / (2 * (n - 1)) * ldl
        active = "formula" if log_formula > log_const else "constant_55"
        log_value = log_formula if log_formula > log_const else log_const
        inputs = (
            ("n_K", str(fp.n_K)),
            ("log_abs_disc_K", mp.nstr(mp.mpf(fp.log_abs_disc), 30)),
            ("has_exceptional_zero", fp.has_exceptional_zero),
            ("log_abs_disc_L", mp.nstr(ldl, 30)),
            ("n", str(n)),
            ("c", mp.nstr(mp.mpf(c), 30)),
            ("constants_pinned", "no"),
            ("f_K", mp.nstr(fk, 30)),
            ("branch_constant_log", mp.nstr(log_const, 30)),
            ("branch_formula_log", mp.nstr(log_formula, 30)),
            ("active_branch", active),
        )
        exact = _exact_value_reference(log_value)
        record = {
            "name": "least_nonsplit_bound",
            "inputs": dict(inputs),
            "log_value": mp.nstr(log_value, 30),
            "exact_value": str(exact) if exact is not None else None,
        }
    return record, inputs, log_value


def _high_precision_log(n):
    with mp.workprec(2000):
        return mp.log(n)


_LOG_D_L = (
    st.integers(0, 10**6)
    | st.floats(0, 2000, allow_nan=False)
    | st.builds(lambda a, b: f"{a}.{b:035d}", st.integers(0, 3000), st.integers(0, 10**35 - 1))
    | st.builds(_high_precision_log, st.integers(1, 10**30))
)
_FIELDS = st.builds(
    FieldParams,
    n_K=st.just(1),
    log_abs_disc=st.just(0),
    has_exceptional_zero=st.sampled_from(["yes", "no", "unknown"]),
) | st.builds(
    FieldParams,
    n_K=st.integers(2, 4),
    log_abs_disc=st.sampled_from([0, 1, 3, 2.5, "5.25"]) | st.builds(_high_precision_log, st.integers(2, 10**6)),
    has_exceptional_zero=st.sampled_from(["yes", "no", "unknown"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    fp=_FIELDS,
    log_d_L=_LOG_D_L,
    n=st.integers(2, 6),
    c=st.sampled_from([1, "0.1", 2.5]),
    prec=_PRECISIONS,
)
def test_least_nonsplit_bound_matches_mp_context_reference(fp, log_d_L, n, c, prec):
    want, inputs, log_value = _least_nonsplit_bound_reference(fp, log_d_L, n, c, prec)
    for caller_prec in (64, 2000):
        with mp.workprec(caller_prec):
            rep = least_nonsplit_bound(fp, log_d_L, n, c, precision_bits=prec)
            assert mp.prec == caller_prec
        assert rep.to_record() == want
        assert rep.inputs == inputs
        assert rep.log_value == log_value
