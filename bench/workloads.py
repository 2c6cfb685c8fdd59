"""Seeded inputs and independent output checks for the benchmark workloads.

Inputs are built from the seed with integer arithmetic only, so generating
them calls no code under test.  Weil polynomials are built by construction:
products of elliptic factors T^2 - aT + q with a^2 <= 4q, and quartics
T^2 h(T + q/T) whose real quadratic h has both roots in [-2 sqrt q, 2 sqrt q].

Checks recompute what they can without the package (Euler's criterion,
trial division, a prime sieve) and test the structural identities of a tate
report; they never call the code whose output they check.
"""

from __future__ import annotations

import json
import math
import random
from math import isqrt

WORKLOADS = ("cm-survey", "tate-heavy", "tate-small", "fields")

CLASS_NUMBER_ONE_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
SURVEY_PMAX = 20_000
NONCM_CURVE = "0,0,1,-1,0"  # conductor 37
NONCM_PMAX = 3000

HEAVY_REPORTS = 3
HEAVY_DIM = 4
SMALL_REPORTS = 150
Q_MAX = 97
# chance that a polynomial of dimension >= 2 gets one quartic factor, as in
# the package's own test generator (tests/conftest.random_weil)
QUARTIC_SHARE = 0.4

FIELDS_DISC_LIMIT = 10_000
FIELDS_PIK_X = 10**6


# ---------------------------------------------------------------------------
# integers

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, or None."""
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return None


PRIME_POWERS = tuple(q for q in range(2, Q_MAX + 1) if _prime_power(q))


def _sieve(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, v in enumerate(flags) if v]


def _splitting(D: int, p: int) -> int:
    """+1 split, -1 inert, 0 ramified for the prime p in Q(sqrt(D)), D a
    fundamental discriminant (Euler's criterion; D mod 8 at p = 2)."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 == 1 else -1
    return 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1


def _squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def fundamental_discriminants(limit: int) -> list[int]:
    """Fundamental discriminants 1 < |D| <= limit, ordered by |D| then sign."""
    out = []
    for a in range(2, limit + 1):
        for D in (-a, a):
            if D % 4 == 1 and _squarefree(abs(D)):
                out.append(D)
            elif D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(abs(D) // 4):
                out.append(D)
    return out


# ---------------------------------------------------------------------------
# Weil polynomials by construction (coefficient lists, constant term first)

def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _elliptic(rng: random.Random, q: int) -> list[int]:
    """T^2 - aT + q with a uniform in the Hasse interval a^2 <= 4q."""
    amax = isqrt(4 * q)
    return [q, -rng.randint(-amax, amax), 1]


def _quartic(rng: random.Random, q: int) -> list[int]:
    """T^2 h(T + q/T) for h = x^2 + b1 x + b0 with both roots real and in
    [-2 sqrt q, 2 sqrt q], drawn uniformly among such (b1, b0) and tested
    exactly: discriminant >= 0, |b1| <= 4 sqrt q, and h(+-2 sqrt q) >= 0,
    that is 4q + b0 >= 0 and (4q + b0)^2 >= 4 q b1^2."""
    bmax = isqrt(16 * q)
    while True:
        b1 = rng.randint(-bmax, bmax)
        b0 = rng.randint(-4 * q, 4 * q)
        edge = 4 * q + b0
        if b1 * b1 >= 4 * b0 and edge >= 0 and edge * edge >= 4 * q * b1 * b1:
            return [q * q, b1 * q, 2 * q + b0, b1, 1]


def newton_class(coeffs: list[int], q: int) -> str:
    """ordinary (middle coefficient prime to p), supersingular (every
    coefficient a_i of T^(2d-i) has p-adic valuation >= i e / 2) or mixed."""
    p, e = _prime_power(q)
    d = (len(coeffs) - 1) // 2
    if coeffs[d] % p:
        return "ordinary"
    for i in range(1, 2 * d + 1):
        a, v = coeffs[2 * d - i], 0
        if a == 0:
            continue
        while a % p == 0:
            a //= p
            v += 1
        if 2 * v < i * e:
            return "mixed"
    return "supersingular"


def weil_poly(rng: random.Random, d: int) -> dict:
    """A Weil polynomial of dimension d over a random q <= Q_MAX: with chance
    QUARTIC_SHARE (d >= 2) one quartic factor, the rest elliptic factors."""
    q = rng.choice(PRIME_POWERS)
    quartic = d >= 2 and rng.random() < QUARTIC_SHARE
    coeffs = _quartic(rng, q) if quartic else [1]
    for _ in range(d - 2 if quartic else d):
        coeffs = _mul(coeffs, _elliptic(rng, q))
    return {
        "coeffs": coeffs,
        "q": q,
        "d": d,
        "shape": "quartic" if quartic else "product",
        "newton": newton_class(coeffs, q),
    }


# ---------------------------------------------------------------------------
# workloads

def build(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed: ``ops`` is a list of CLI argv
    lists (``kind`` "cli") or of library calls (``kind`` "fields")."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cm-survey":
        D = rng.choice(CLASS_NUMBER_ONE_DISCS)
        ops = [
            ["cm", "survey", "--disc", str(D), "--pmax", str(SURVEY_PMAX), "--json"],
            ["cm", "noncm", "--curve", NONCM_CURVE, "--pmax", str(NONCM_PMAX), "--json"],
        ]
        return {"kind": "cli", "ops": ops, "mix": {"disc": D}}
    if workload in ("tate-heavy", "tate-small"):
        if workload == "tate-heavy":
            dims = [HEAVY_DIM] * HEAVY_REPORTS
        else:
            dims = [1 + i % 3 for i in range(SMALL_REPORTS)]
            rng.shuffle(dims)
        polys = [weil_poly(rng, d) for d in dims]
        ops = [
            ["tate", "--poly", ",".join(map(str, w["coeffs"])), "--q", str(w["q"]), "--json"]
            for w in polys
        ]
        mix: dict[str, int] = {}
        for w in polys:
            for key in (f"d{w['d']}", w["shape"], w["newton"]):
                mix[key] = mix.get(key, 0) + 1
        return {"kind": "cli", "ops": ops, "mix": dict(sorted(mix.items())), "polys": polys}
    if workload == "fields":
        discs = fundamental_discriminants(FIELDS_DISC_LIMIT)
        D = rng.choice(discs)
        ops = [("fundamental_discriminants", FIELDS_DISC_LIMIT)]
        ops += [("least_nonsplit_search", D_) for D_ in discs]
        ops.append(("pi_K_count", D, FIELDS_PIK_X))
        return {"kind": "fields", "ops": ops, "mix": {"pik_disc": D, "discs": len(discs)}}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason

def check_tate(report: dict, poly: dict) -> str | None:
    w = report["inputs"]["weil"]
    if [int(c) for c in w["coeffs"]] != poly["coeffs"] or (w["q"], w["d"]) != (poly["q"], poly["d"]):
        return "weil echo differs from the input"
    d = w["d"]
    rows = report["rows"]
    if [r["k"] for r in rows] != list(range(d + 1)):
        return "rows do not cover k = 0..d"
    dims = [{x["n"]: x["dim"] for x in r["dims"]} for r in rows]
    for r, dk in zip(rows, dims):
        if dk != dims[d - r["k"]]:
            return f"duality fails at k={r['k']}"
        if any(v > r["stable_dim"] for v in dk.values()):
            return f"a dimension exceeds stable_dim at k={r['k']}"
        if r["degree_bound"] % r["min_stable_degree"]:
            return f"min_stable_degree does not divide degree_bound at k={r['k']}"
    return None


def check_survey(report: dict) -> str | None:
    *rows, density = report["rows"]
    for r in rows:
        if r["reduction_type"] == "bad-or-excluded":
            continue
        if r["rank_base"] != 4:
            return f"rank_base {r['rank_base']} at p={r['p']}"
        if r["kronecker"] == -1 and (r["rank_stable"], r["stable_degree"]) != (6, 2):
            return f"inert prime p={r['p']} without stable rank 6 at degree 2"
        if r["kronecker"] == 1 and r["rank_stable"] != 4:
            return f"split prime p={r['p']} with stable rank {r['rank_stable']}"
    inert = float(density["density"]["fractions"]["inert"])
    if not 0.45 <= inert <= 0.55:
        return f"inert fraction {inert} outside [0.45, 0.55]"
    return None


def check_noncm(report: dict) -> str | None:
    *rows, summary = report["rows"]
    good = [r for r in rows if r["reduction_type"] != "bad"]
    if not summary["summary"]["all_rank_base_4"] or any(r["rank_base"] != 4 for r in good):
        return "a good prime without prime-field rank 4"
    if any(r["rank_stable"] < 4 for r in good):
        return "a good prime with stable rank below 4"
    return None


def check_cli(argv: list[str], text: str, poly: dict | None) -> str | None:
    report = json.loads(text)
    if argv[0] == "tate":
        return check_tate(report, poly)
    if argv[1] == "survey":
        return check_survey(report)
    return check_noncm(report)


def check_nonsplit(D: int, found: int, satisfied: bool, log_bound: float) -> str | None:
    if not _is_prime(found) or _splitting(D, found) != -1:
        return f"D={D}: {found} is not an inert prime"
    if any(_splitting(D, p) == -1 for p in range(2, found) if _is_prime(p)):
        return f"D={D}: a smaller prime than {found} is inert"
    if not satisfied or math.log(found) > log_bound * (1 + 1e-12):
        return f"D={D}: {found} exceeds the bound"
    return None


def check_pik(D: int, x: int, count: int) -> str | None:
    expected = 0
    for p in _sieve(x):
        chi = _splitting(D, p)
        expected += 2 if chi == 1 else 1 if chi == 0 or p * p <= x else 0
    return None if count == expected else f"pi_K({D}, {x}) = {count}, expected {expected}"
