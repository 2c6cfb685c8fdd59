"""Command-line front door.

Three commands: ``tate`` (dimension profiles from a Weil polynomial),
``bounds`` (the effective bound calculators), and ``cm`` (prime surveys).
Every command supports --json, which emits a deterministic machine-readable
report: byte-identical output for identical inputs and tool version.  Numbers
that may exceed 64 bits (polynomial coefficients, exact bound values) are
serialized as strings.

Exit status: 0 success, 2 input error, 3 computational budget exceeded,
4 internal invariant violation (including --verify mismatches).

``bounds`` and ``cmlab``, and with them mpmath, are imported by the commands
that use them, so building the parser and running ``tate`` load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache

from . import __version__, tate, weil
from .jsonout import write_json
from .polycore import BudgetExceededError, InternalError, PolyFormatError, format_poly, parse_int_list, parse_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1


class VerifyMismatchError(Exception):
    pass


def _report(command: str, inputs: dict, rows, precision_bits: int | None = None) -> dict:
    meta = {"version": __version__}
    if precision_bits is not None:
        meta["precision_bits"] = precision_bits
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "rows": rows,
        "meta": meta,
    }


def _emit(report: dict, as_json: bool, human) -> None:
    if as_json:
        write_json(report, sys.stdout.write)
    else:
        human(report)


# ---------------------------------------------------------------------------
# tate

def cmd_tate(args) -> dict:
    if args.verify:
        return _verify_tate(args.verify)
    if args.poly is None or args.q is None:
        raise PolyFormatError("--poly and --q are required (or use --verify FILE)")
    f = parse_poly(args.poly)
    w = weil.validate_weil(f, args.q)
    inputs = {
        "poly": format_poly(f),
        "q": args.q,
        "n_max": args.n_max,
        "paper_convention": bool(args.paper_convention),
        "weil": {"coeffs": [str(c) for c in w.poly.coeffs], "q": w.q, "d": w.d},
    }
    if args.paper_convention:
        inputs["reciprocal_coeffs"] = [str(c) for c in weil.reciprocal_form(w.poly).coeffs]
    rows = [
        {
            "k": row.k,
            "degree_bound": row.degree_bound,
            "stable_dim": row.stable_dim,
            "min_stable_degree": row.min_stable_degree,
            "h2k": {"coeffs": [str(c) for c in weil.h_charpoly(w, 2 * row.k).coeffs], "q": w.q, "r": 2 * row.k},
            "dims": [{"n": n, "dim": dim} for n, dim in row.dims],
        }
        for row in tate.tate_profile(w, n_report=args.n_max)
    ]
    return _report("tate", inputs, rows)


def _human_tate(report: dict) -> None:
    w = report["inputs"]["weil"]
    print(f"Weil polynomial over F_{w['q']}, dimension d = {w['d']}")
    print(f"  coefficients (constant term first): {','.join(w['coeffs'])}")
    if "reciprocal_coeffs" in report["inputs"]:
        print(f"  reciprocal convention: {','.join(report['inputs']['reciprocal_coeffs'])}")
    for row in report["rows"]:
        print(
            f"k={row['k']}: stable_dim={row['stable_dim']} "
            f"min_stable_degree={row['min_stable_degree']} degree_bound={row['degree_bound']}"
        )
        dims = "  ".join(f"n={d['n']}:{d['dim']}" for d in row["dims"])
        print(f"  dims: {dims}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _verify_tate(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PolyFormatError(f"cannot read report {path}: {exc}") from None
    if (
        not isinstance(loaded, dict)
        or not _is_int(loaded.get("schema"))
        or loaded["schema"] != SCHEMA_VERSION
        or loaded.get("command") != "tate"
    ):
        raise PolyFormatError(f"{path} is not a schema-{SCHEMA_VERSION} tate report")
    inputs = loaded.get("inputs")
    if not (
        isinstance(inputs, dict)
        and isinstance(inputs.get("poly"), str)
        and _is_int(inputs.get("q"))
        and (inputs.get("n_max") is None or _is_int(inputs["n_max"]))
        and isinstance(inputs.get("paper_convention", False), bool)
    ):
        raise PolyFormatError(
            f"{path}: inputs must hold poly (a string), q (an integer), n_max (an integer or null)"
            " and, if present, paper_convention (true or false)"
        )
    ns = argparse.Namespace(
        poly=inputs["poly"],
        q=inputs["q"],
        n_max=inputs.get("n_max"),
        paper_convention=inputs.get("paper_convention", False),
        verify=None,
    )
    recomputed = cmd_tate(ns)
    # compared as JSON text, where true, 1 and 1.0 differ (in Python they are equal)
    if json.dumps(recomputed, sort_keys=True) != json.dumps(loaded, sort_keys=True):
        raise VerifyMismatchError(f"recomputed report does not match {path}")
    return recomputed


# ---------------------------------------------------------------------------
# bounds
#
# Each report row takes the bounds module from cmd_bounds, which imports it.

def _real(bounds, args, name: str) -> str:
    """The text of ``--name`` once it reads as a finite real: bounds read it at each precision they use."""
    bounds.parse_real(getattr(args, name), "--" + name.replace("_", "-"), args.precision)
    return getattr(args, name)


def _field_params(bounds, args):
    return bounds.FieldParams(args.nk, _real(bounds, args, "log_dk"), args.exceptional)


def _bounds_fk(bounds, args) -> dict:
    value = bounds.f_of_K(_field_params(bounds, args), precision_bits=args.precision)
    return {
        "name": "f_of_K",
        "inputs": {
            "n_K": str(args.nk),
            "log_abs_disc_K": args.log_dk,
            "has_exceptional_zero": args.exceptional,
        },
        "value": bounds.format_real(value),
    }


def _bounds_hensel(bounds, args) -> dict:
    primes = parse_int_list(args.primes)
    value = bounds.hensel_log_disc(args.nl, primes, precision_bits=args.precision)
    return {
        "name": "hensel_log_disc",
        "inputs": {"n_L": str(args.nl), "ramified_primes": args.primes},
        "log_value": bounds.format_real(value),
    }


def _bounds_hensel_galois(bounds, args) -> dict:
    primes = parse_int_list(args.primes)
    value = bounds.hensel_galois_log_disc(
        args.nl, args.nk, _real(bounds, args, "log_dk"), primes, precision_bits=args.precision
    )
    return {
        "name": "hensel_galois_log_disc",
        "inputs": {
            "n_L": str(args.nl),
            "n_K": str(args.nk),
            "log_abs_disc_K": args.log_dk,
            "ramified_primes": args.primes,
        },
        "log_value": bounds.format_real(value),
    }


def _bounds_nonsplit(bounds, args) -> dict:
    fp = _field_params(bounds, args)
    rep = bounds.least_nonsplit_bound(
        fp, _real(bounds, args, "log_dl"), args.n, _real(bounds, args, "c"), precision_bits=args.precision
    )
    return rep.to_record()


def _bounds_B(bounds, args) -> dict:
    fp = _field_params(bounds, args)
    return bounds.bound_B(_real(bounds, args, "N"), fp, args.m, args.d, precision_bits=args.precision).to_record()


def _bounds_C(bounds, args) -> dict:
    fp = _field_params(bounds, args)
    N, log_df, c, c1 = (_real(bounds, args, name) for name in ("N", "log_df", "c", "c1"))
    return bounds.bound_C(N, args.d, log_df, fp, c, c1, precision_bits=args.precision).to_record()


_FIELD_INPUTS = ("nk", "log_dk", "exceptional")

# subcommand -> (report row, parsed arguments echoed as the report inputs)
BOUNDS_COMMANDS = {
    "fk": (_bounds_fk, _FIELD_INPUTS),
    "hensel": (_bounds_hensel, ("nl", "primes")),
    "hensel-galois": (_bounds_hensel_galois, ("nl", "nk", "log_dk", "primes")),
    "nonsplit": (_bounds_nonsplit, _FIELD_INPUTS + ("log_dl", "n", "c")),
    "B": (_bounds_B, ("N",) + _FIELD_INPUTS + ("m", "d")),
    "C": (_bounds_C, ("N", "d", "log_df") + _FIELD_INPUTS + ("c", "c1")),
}


def cmd_bounds(args) -> dict:
    from . import bounds

    if args.precision is None:
        args.precision = bounds.DEFAULT_PRECISION_BITS
    if args.precision < bounds.MIN_PRECISION_BITS:
        raise ValueError(f"--precision must be at least {bounds.MIN_PRECISION_BITS} bits, got {args.precision}")
    row, echoed = BOUNDS_COMMANDS[args.subcommand]
    inputs = {name: getattr(args, name) for name in echoed}
    inputs["precision_bits"] = args.precision
    return _report(f"bounds {args.subcommand}", inputs, [row(bounds, args)], precision_bits=args.precision)


class _BoundsHelpFormatter(argparse.HelpFormatter):
    """Reads the --precision range from bounds, so only a bounds --help
    imports it."""

    def _get_help_string(self, action):
        if action.dest != "precision":
            return action.help
        from . import bounds

        return f"working precision in bits ({bounds.MIN_PRECISION_BITS} to {bounds.MAX_PRECISION_BITS})"


def _human_bounds(report: dict) -> None:
    for row in report["rows"]:
        print(f"{row['name']}:")
        for key, val in row["inputs"].items():
            print(f"  {key} = {val}")
        if "value" in row:
            print(f"  value = {row['value']}")
        if "log_value" in row:
            print(f"  log_value = {row['log_value']}")
            lv = float(row["log_value"])
            if lv < 700:  # plain value still fits in a double
                print(f"  value ~= {math.exp(lv):.6g}")
        if row.get("exact_value") is not None:
            print(f"  exact_value = {row['exact_value']}")


# ---------------------------------------------------------------------------
# cm

def cmd_cm(args) -> dict:
    from . import bounds, cmlab

    if getattr(args, "pmax", 0) < 0:
        raise ValueError(f"--pmax must be nonnegative, got {args.pmax}")
    if args.subcommand == "survey":
        sweep = cmlab.exe_survey(args.disc, args.pmax)
        return _report("cm survey", {"disc": args.disc, "pmax": args.pmax}, (item.to_record() for item in sweep))
    if args.subcommand == "noncm":
        sweep = cmlab.noncm_rank_check(cmlab.EllipticCurve.parse(args.curve), args.pmax)
        return _report("cm noncm", {"curve": args.curve, "pmax": args.pmax}, (item.to_record() for item in sweep))
    if args.subcommand == "nonsplit":
        bounds.parse_real(args.c, "--c")  # the text goes on, for the bound to read at each precision it uses
        res = cmlab.least_nonsplit_search(args.disc, c=args.c)
        row = {
            "found_prime": res.found_prime,
            "theoretical_log_bound": bounds.format_real(res.theoretical_log_bound),
            "satisfied": res.satisfied,
            "bound": res.bound.to_record(),
        }
        inputs = {"disc": args.disc, "c": args.c}
        return _report("cm nonsplit", inputs, [row])
    if args.subcommand == "pik":
        if args.x < 0:
            raise ValueError(f"--x must be nonnegative, got {args.x}")
        res = cmlab.pi_K_count(args.disc, args.x)
        inputs = {"disc": args.disc, "x": args.x}
        return _report("cm pik", inputs, [res.to_record()])


def _human_cm(report: dict) -> None:
    for row in report["rows"]:
        if "density" in row:
            d = row["density"]
            print(f"density summary (p_max={d['p_max']}):")
            print(f"  counts: {d['counts']}")
            print(f"  fractions: {d['fractions']} (reference {d['reference_fraction']})")
        elif "summary" in row:
            print(f"summary: {row['summary']}")
        elif "p" in row:
            parts = [f"p={row['p']}"]
            for key in ("kronecker", "a_p", "reduction_type", "rank_base", "rank_stable", "stable_degree"):
                if row.get(key) is not None:
                    parts.append(f"{key}={row[key]}")
            print("  ".join(parts))
        else:
            for key, val in row.items():
                print(f"{key} = {val}")


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tatecycles",
        description="Tate-class dimensions, effective bounds, and CM prime surveys.",
    )
    parser.add_argument("--version", action="version", version=f"tatecycles {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tate = sub.add_parser("tate", help="Tate-class dimension profile of a Weil polynomial")
    p_tate.add_argument("--poly", help="coefficients, constant term first, e.g. 25,0,10,0,1")
    p_tate.add_argument("--q", type=int, help="residue field size (prime power)")
    p_tate.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="tabulate extension degrees up to this (default: degree bound, capped at 60)")
    p_tate.add_argument("--paper-convention", action="store_true",
                        help="also echo the reciprocal-root form of the polynomial")
    p_tate.add_argument("--verify", metavar="FILE",
                        help="recompute a previously emitted --json report and compare")
    p_tate.add_argument("--json", action="store_true")
    p_tate.set_defaults(run=cmd_tate, human=_human_tate)

    p_bounds = sub.add_parser("bounds", help="effective bound calculators")
    bsub = p_bounds.add_subparsers(dest="subcommand", required=True)

    def add_field_args(p):
        p.add_argument("--nk", type=int, required=True, help="degree of K over the rationals")
        p.add_argument("--log-dk", default="0", dest="log_dk", help="natural log of |d_K|")
        p.add_argument("--exceptional", choices=["yes", "no", "unknown"], default="no",
                       help="exceptional zero of the Dedekind zeta function of K")

    b_fk = bsub.add_parser("fk", help="the field constant f(K)")
    add_field_args(b_fk)
    b_h = bsub.add_parser("hensel", help="log-discriminant bound from ramified primes")
    b_h.add_argument("--nl", type=int, required=True)
    b_h.add_argument("--primes", default="", help="comma-separated ramified primes")
    b_hg = bsub.add_parser("hensel-galois", help="Galois form of the log-discriminant bound")
    b_hg.add_argument("--nl", type=int, required=True)
    b_hg.add_argument("--nk", type=int, required=True)
    b_hg.add_argument("--log-dk", default="0", dest="log_dk")
    b_hg.add_argument("--primes", default="")
    b_ns = bsub.add_parser("nonsplit", help="least non-split prime norm bound")
    add_field_args(b_ns)
    b_ns.add_argument("--log-dl", required=True, dest="log_dl", help="natural log of |d_L|")
    b_ns.add_argument("--n", type=int, required=True, help="relative degree of L over K")
    b_ns.add_argument("--c", default="1")
    b_B = bsub.add_parser("B", help="the bound B(N, K, m, d)")
    b_B.add_argument("--N", required=True)
    b_B.add_argument("--m", type=int, required=True)
    b_B.add_argument("--d", type=int, required=True)
    add_field_args(b_B)
    b_C = bsub.add_parser("C", help="the bound C(N, d, F, K)")
    b_C.add_argument("--N", required=True)
    b_C.add_argument("--d", type=int, required=True)
    b_C.add_argument("--log-df", required=True, dest="log_df", help="natural log of |d_F|")
    b_C.add_argument("--c", default="1")
    b_C.add_argument("--c1", default="1")
    add_field_args(b_C)
    for p in (b_fk, b_h, b_hg, b_ns, b_B, b_C):
        # the default (bounds.DEFAULT_PRECISION_BITS) is filled in by cmd_bounds
        p.add_argument("--precision", type=int, help="working precision in bits")
        p.add_argument("--json", action="store_true")
        p.formatter_class = _BoundsHelpFormatter
    p_bounds.set_defaults(run=cmd_bounds, human=_human_bounds)

    p_cm = sub.add_parser("cm", help="prime surveys")
    csub = p_cm.add_subparsers(dest="subcommand", required=True)
    c_s = csub.add_parser("survey", help="E x E rank survey for a CM discriminant")
    c_s.add_argument("--disc", type=int, required=True)
    c_s.add_argument("--pmax", type=int, default=10000)
    c_n = csub.add_parser("noncm", help="E x E prime-field rank sweep via point counting")
    c_n.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    c_n.add_argument("--pmax", type=int, default=1000)
    c_ns = csub.add_parser("nonsplit", help="least inert prime and its theoretical bound")
    c_ns.add_argument("--disc", type=int, required=True)
    c_ns.add_argument("--c", default="1")
    c_pk = csub.add_parser("pik", help="prime ideals of norm up to x")
    c_pk.add_argument("--disc", type=int, required=True)
    c_pk.add_argument("--x", type=int, required=True)
    for p in (c_s, c_n, c_ns, c_pk):
        p.add_argument("--json", action="store_true")
    p_cm.set_defaults(run=cmd_cm, human=_human_cm)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parse_args leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        # a sweep's rows are computed as _emit writes them, so both are inside
        _emit(args.run(args), getattr(args, "json", False), args.human)
    except (PolyFormatError, weil.WeilValidationError, ValueError) as exc:
        print(f"{exc}", file=sys.stderr)
        if isinstance(exc, weil.WeilValidationError):
            print("hint: pass a monic Weil polynomial as coefficients from the constant term up", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalError, VerifyMismatchError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not getattr(args, "json", False):
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
