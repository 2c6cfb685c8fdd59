"""The exit-code contract as one property: every argv a user can type for any
command ends in 0, 2, 3 or 4, never a traceback.

Argv is drawn from ``build_parser()``'s own actions, so a flag added to the
parser is drawn without a change here.  Integers sit at 0, +-1, each budget
+-1 and powers of ten; ``--q``, ``--disc`` and ``--primes`` also take any
integer up to 10^30 and hard-to-factor values such as 999983^2 and 2^61 - 1;
reals include nan, inf, 1e999999, -0 and the empty string; integer lists
include the tokens the list grammar rejects.  ``--verify`` reads a missing
file or a corrupt ``tate`` report, which must exit 2 or 4.  Sizes are capped
so the test stays fast: surveys, sweeps and tables run only small ranges,
while every value above a budget is kept, since it must exit 3 at once.  On
exit 0, ``--json`` output must parse, and a ``tate`` report must pass
``--verify``.

The example count comes from the Hypothesis profile: the default in the
tier-1 suite, and the larger ``ci`` profile (``conftest.py``) with
TATECYCLES_HYPOTHESIS_PROFILE=ci.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import instance_suite
from tatecycles import bounds, cli, cmlab, tate

# tokens the integer-list grammar rejects: a leading '+', '_' separators,
# non-ASCII digits, blanks and non-numbers
_BAD_TOKENS = ["+2", "1_1", "٠", "²", "٣", "", " ", "- 3", "1.5", "0x10", "x"]
_REJECTED = {t.strip() for t in _BAD_TOKENS}  # "" too: an empty entry in a nonempty list
_PRIME_40 = 10**39 + 3  # 40 digits, past the trial-division budget
# any integer to 10^30, and squares and products of primes near the budget
_WIDE_INTS = st.one_of(
    st.integers(-10, 10**4),
    st.integers(10**4, 10**30),
    st.sampled_from([999999000001, 999983**2, 1000003 * 1000033, 2**61 - 1, 10**30]),
)


def _edges(*budgets):
    values = {0, 1, -1, 2, 10, 100}
    for b in budgets:
        values |= {b - 1, b, b + 1}
    return sorted(values)


def _capped(small, above):
    """Small values, and values above a budget, which must exit 3 at once."""
    return st.sampled_from(sorted(set(small) | set(above)))


_INTS = {
    "q": st.sampled_from(_edges(4, 5, 9, 97) + [10**12]) | _WIDE_INTS,
    "n_max": _capped(_edges(60), [tate.N_REPORT_BUDGET + 1, 10**6]),
    "nk": st.sampled_from(_edges(bounds.F_K_MAX_DEGREE) + [10**30]),
    "nl": st.sampled_from(_edges(4, 6) + [10**30]),
    "n": st.sampled_from(_edges(3, 6) + [10**30]),
    "m": st.sampled_from(_edges(3) + [10**30]),
    "precision": st.sampled_from(
        _edges(bounds.MIN_PRECISION_BITS, bounds.DEFAULT_PRECISION_BITS, bounds.MAX_PRECISION_BITS)
    ),
    "disc": st.sampled_from(
        _edges() + list(cmlab.CLASS_NUMBER_ONE_DISCS) + [5, 8, 12, -15, -20, -(2**61 - 1), 10**30, -(10**30)]
    )
    | _WIDE_INTS,
}
# flags whose range depends on the command: the survey, sweep and table sizes
_PER_COMMAND_INTS = {
    ("cm", "survey", "pmax"): _capped(_edges(1000), [cmlab.SURVEY_BUDGET + 1, 10**8]),
    ("cm", "noncm", "pmax"): _capped(_edges(300), [cmlab.NONCM_BUDGET + 1, 10**5]),
    ("cm", "pik", "x"): _capped(_edges(10**4), [cmlab.PIK_BUDGET + 1, 10**9]),
    ("bounds", "B", "d"): st.sampled_from(_edges(3) + [10**30]),
    ("bounds", "C", "d"): st.sampled_from(_edges(3, bounds.C_MAX_DIMENSION)),
}

_REALS = st.one_of(
    st.sampled_from(
        ["0", "-0", "1", "-1", "2.5", "0.1", "1e-5", "nan", "NaN", "inf", "+inf", "-inf", "Infinity", "1e400",
         "1e999999", "-1e999999", "", "x", " 2", "1_0", "150.25", "200.3", "300", "1e30", "1e100", "1e-999999"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 10**6).map(str),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_REPORT = _run(["tate", "--poly", "25,0,10,0,1", "--q", "5", "--n-max", "4", "--json"])[1]
_SAVED = tempfile.TemporaryDirectory(prefix="tatecycles-reports-")


@st.composite
def _corrupt_report(draw):
    """(kind, text) of a tate report that --verify must reject: truncated JSON,
    a JSON array, a wrong schema or command, q or n_max of the wrong type, or
    a valid report with one dim changed."""
    report = json.loads(_REPORT)
    kind = draw(st.sampled_from(["truncated", "array", "schema", "command", "q", "n_max", "dim"]))
    if kind == "truncated":
        text = _REPORT.rstrip()
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    if kind == "array":
        return kind, json.dumps(draw(st.sampled_from([[], [report]])))
    if kind == "schema":
        report["schema"] = draw(st.sampled_from([0, 2, "1", True, 1.0, None]))
    elif kind == "command":
        report["command"] = draw(st.sampled_from(["bounds", "cm", "Tate", "", None]))
    elif kind == "q":
        report["inputs"]["q"] = draw(st.sampled_from(["5", True, False]))
    elif kind == "n_max":
        report["inputs"]["n_max"] = draw(st.sampled_from([True, False, 4.0, 2.5]))
    else:
        entry = draw(st.sampled_from([e for row in report["rows"] for e in row["dims"]]))
        entry["dim"] += draw(st.sampled_from([-1, 1, 2, 10**30]))
    return kind, json.dumps(report, indent=2)


def _saved(text):
    path = os.path.join(_SAVED.name, hashlib.sha256(text.encode("utf-8")).hexdigest() + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module", autouse=True)
def _remove_saved_reports():
    yield
    _SAVED.cleanup()


def _int_list(elements, max_size):
    tokens = st.one_of(elements.map(str), st.sampled_from(_BAD_TOKENS))
    return st.lists(tokens, max_size=max_size).map(",".join)


_TEXT = {
    "poly": _int_list(st.integers(-(10**30), 10**30) | st.sampled_from(_edges(5, 25)), 14),
    "primes": _int_list(st.sampled_from([0, 1, -1, 2, 3, 5, 7, 11, 4, 10**12 + 39, _PRIME_40]) | _WIDE_INTS, 3),
    "curve": st.one_of(
        _int_list(st.integers(-3, 3), 6),
        st.sampled_from(["0,0,1,-1,0", "0,-1,1,-10,-20", "0,0,0,1,0", "0,0,0,0,1", "0,0,0,0,0", "1,1,1,1,1"]),
    ),
    "verify": st.just(os.path.join(tempfile.gettempdir(), "tatecycles-no-such-report.json"))
    | _corrupt_report().map(lambda drawn: _saved(drawn[1])),
}

# valid (poly, q) pairs for tate, d <= 3 and q <= 97, and T^2 + q for any
# drawn q, beside the random text
_WEIL = st.one_of(
    st.sampled_from([(",".join(map(str, w.poly.coeffs)), str(w.q)) for w in instance_suite(24)]),
    _WIDE_INTS.map(lambda q: (f"{q},0,1", str(q))),
)


def _leaves(parser, path=()):
    """(command path, parser) for every runnable command of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for a in subs for name, p in a.choices.items() for leaf in _leaves(p, path + (name,))]


_COMMANDS = _leaves(cli.build_parser())


def _value(path, action):
    if action.choices:
        return st.sampled_from(list(action.choices) + ["maybe"])
    key = path + (action.dest,)
    if key in _PER_COMMAND_INTS:
        return _PER_COMMAND_INTS[key].map(str)
    if action.type is int:
        return _INTS[action.dest].map(str)
    return _TEXT.get(action.dest, _REALS)


@st.composite
def _argv(draw, path, parser):
    argv = list(path)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true
            if draw(st.booleans()):
                argv.append(flag)
            continue
        # a required flag is left out now and then, an optional one half the time
        if not draw(st.integers(0, 9) if action.required else st.booleans()):
            continue
        argv += [flag, draw(_value(path, action))]
    if path == ("tate",) and draw(st.integers(0, 3)):
        poly, q = draw(_WEIL)
        argv += ["--poly", poly, "--q", q]  # argparse keeps the last of a repeated flag
    return argv


@pytest.mark.parametrize("path, parser", _COMMANDS, ids=[" ".join(p) for p, _ in _COMMANDS])
@settings(deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(path, parser, data):
    argv = data.draw(_argv(path, parser), label="argv")
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if "--verify" in argv:  # a missing file or a corrupt report
        assert code in (2, 4), (argv, code, err)
    last = dict(zip(argv, argv[1:]))  # argparse keeps the last value of a repeated flag
    lists = [last[f] for f in ("--poly", "--primes", "--curve") if f in last]
    if any(text.strip() and _REJECTED & {t.strip() for t in text.split(",")} for text in lists):
        assert code != 0, (argv, out)
    if code != 0 or "--json" not in argv:
        return
    report = json.loads(out)
    if path == ("tate",) and "--verify" not in argv:
        with tempfile.TemporaryDirectory() as tmp:
            saved = os.path.join(tmp, "report.json")
            with open(saved, "w", encoding="utf-8") as fh:
                fh.write(out)
            code, again, err = _run(["tate", "--verify", saved, "--json"])
        assert code == 0, (argv, err)
        assert json.loads(again) == report


@settings(deadline=None, derandomize=True, database=None)
@given(drawn=_corrupt_report())
def test_a_corrupt_report_never_verifies(drawn):
    kind, text = drawn
    # a changed dim is a well-formed report whose content differs; every
    # other corruption is a malformed input
    codes = (2, 4) if kind == "dim" else (2,)
    for mode in (["--json"], []):
        code, out, err = _run(["tate", "--verify", _saved(text), *mode])
        assert code in codes, (kind, text, code, out)
        assert "Traceback" not in err and out == "", err
