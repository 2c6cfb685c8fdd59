"""Command-line interface: worked examples, JSON reports, exit codes,
determinism, and the verify round trip."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from mpmath import mp

from tatecycles import bounds, cli
from tatecycles.polycore import IntPoly


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# tate

def test_tate_supersingular_exe_profile(capsys):
    report = run_json(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5")
    assert report["schema"] == 1
    assert report["command"] == "tate"
    assert report["inputs"]["weil"] == {"coeffs": ["25", "0", "10", "0", "1"], "q": 5, "d": 2}
    k1 = next(r for r in report["rows"] if r["k"] == 1)
    assert k1["dims"][0] == {"n": 1, "dim": 4}
    assert k1["dims"][1] == {"n": 2, "dim": 6}
    assert k1["stable_dim"] == 6
    assert k1["min_stable_degree"] == 2
    assert k1["degree_bound"] == 2520
    # (T-5)^4 (T+5)^2, the eigenvalue-product polynomial on H^2
    assert k1["h2k"] == {
        "coeffs": ["15625", "-6250", "-625", "500", "-25", "-10", "1"],
        "q": 5,
        "r": 2,
    }


def test_tate_elliptic_stable_dim(capsys):
    report = run_json(capsys, "tate", "--poly", "5,-3,1", "--q", "5")
    k1 = next(r for r in report["rows"] if r["k"] == 1)
    assert k1["stable_dim"] == 1


def test_tate_invalid_weil_exit_code(capsys):
    code, _, err = run_cli(capsys, "tate", "--poly", "5,-6,1", "--q", "5")
    assert code == 2
    assert "RootModulusFails" in err


def test_tate_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "tate", "--poly", "+5,1", "--q", "5")
    assert code == 2


def test_tate_human_output(capsys):
    code, out, _ = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--n-max", "2")
    assert code == 0
    assert "k=1" in out and "stable_dim=6" in out


def test_tate_paper_convention_flag(capsys):
    report = run_json(capsys, "tate", "--poly", "5,-3,1", "--q", "5", "--paper-convention")
    assert report["inputs"]["reciprocal_coeffs"] == ["1", "-3", "5"]


def test_python_dash_m_matches_main(capsys):
    argv = ["tate", "--poly", "5,-3,1", "--q", "5", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tatecycles", *argv], capture_output=True, env=env, timeout=60, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()


def test_json_deterministic(capsys):
    a = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--json")
    b = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--json")
    assert a == b


def test_tate_verify_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out, encoding="utf-8")
    code, _, _ = run_cli(capsys, "tate", "--verify", str(path), "--json")
    assert code == 0


def test_tate_verify_detects_tampering(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--json")
    report = json.loads(out)
    report["rows"][1]["stable_dim"] = 7
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run_cli(capsys, "tate", "--verify", str(path))
    assert code == 4
    assert "invariant" in err


def test_tate_verify_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, "tate", "--verify", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "report",
    [
        {"schema": 1, "command": "tate"},
        {"schema": 1, "command": "tate", "inputs": {"poly": "5,0,1", "q": "5", "n_max": None}},
        {"schema": 1, "command": "tate", "inputs": {"poly": [5, 0, 1], "q": 5, "n_max": None}},
        {"schema": 1, "command": "tate", "inputs": {"poly": "5,0,1", "q": 5, "n_max": "3"}},
        [1, 2],
        # true and 1.0 equal 1 in Python but are not the integer schema
        {"schema": True, "command": "tate", "inputs": {"poly": "5,0,1", "q": 5, "n_max": None}},
        {"schema": 1.0, "command": "tate", "inputs": {"poly": "5,0,1", "q": 5, "n_max": None}},
    ],
)
def test_tate_verify_rejects_malformed_inputs(capsys, tmp_path, report):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run_cli(capsys, "tate", "--verify", str(path))
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "where, value, code",
    [
        (("rows", 0, "stable_dim"), True, 4),  # true for the integer 1
        (("rows", 1, "dims", 0, "dim"), 4.0, 4),  # 4.0 for the integer 4
        (("inputs", "paper_convention"), 0, 2),
        (("inputs", "paper_convention"), "yes", 2),
    ],
)
def test_tate_verify_checks_json_types(capsys, tmp_path, where, value, code):
    # in Python true == 1 == 1.0, so a retyped entry must be caught some other way
    _, out, _ = run_cli(capsys, "tate", "--poly", "25,0,10,0,1", "--q", "5", "--json")
    report = json.loads(out)
    node = report
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    path = tmp_path / "retyped.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    got, _, err = run_cli(capsys, "tate", "--verify", str(path))
    assert got == code, err
    assert "Traceback" not in err


def test_tate_d4_report_pinned(capsys):
    # quartic x elliptic x elliptic over F_7 (H^4 has degree 70); the digest
    # was taken from the compound-matrix route, so any change to the H^{2k}
    # charpolys or to the report layout shows here
    code, out, _ = run_cli(capsys, "tate", "--poly", "2401,686,588,175,136,25,12,2,1", "--q", "7", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "e7ecb75a0a5d63e888b06f42454cf2f0a76bc36bea6e27aa3fb1e4bf1e561606"


def test_tate_d5_report_pinned(capsys):
    # a d = 5 instance over F_7 (H^4 and H^6 have degree 210);
    # the digest was taken before the cyclotomic scan gained its modular
    # pre-test, so a factor the pre-test dropped would show here
    code, out, _ = run_cli(
        capsys, "tate", "--poly", "16807,7203,7203,2499,1715,486,245,51,21,3,1", "--q", "7", "--json"
    )
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "6c5391950a3d410e4b76fe239313540e452a1839913e71864c9d03d86c3e3d86"


# ---------------------------------------------------------------------------
# bounds

def test_bounds_fk_rationals(capsys):
    report = run_json(capsys, "bounds", "fk", "--nk", "1")
    assert report["rows"][0]["value"] == "1.0"


def test_bounds_fk_reads_no_discriminant_without_exceptional_zero(capsys):
    # any finite log |d_K| >= 0 is in the domain, however large: without an
    # exceptional zero f(K) = n_K^2; with one, the cap on log|d_K| / n_K exits 3
    report = run_json(capsys, "bounds", "fk", "--nk", "2", "--log-dk", "1e999999")
    assert report["rows"][0]["inputs"]["log_abs_disc_K"] == "1e999999"
    assert report["rows"][0]["value"] == "4.0"
    code, out, err = run_cli(capsys, "bounds", "fk", "--nk", "2", "--log-dk", "1e999999", "--exceptional", "yes")
    assert (code, out) == (3, "")
    assert "budget exceeded" in err


def test_bounds_B_worked_example(capsys):
    report = run_json(capsys, "bounds", "B", "--N", "2", "--nk", "1", "--m", "1", "--d", "1")
    row = report["rows"][0]
    assert abs(float(row["log_value"]) - 2.74633) < 1e-3
    assert row["exact_value"] == "16"


def test_bounds_C_worked_example(capsys):
    report = run_json(
        capsys, "bounds", "C",
        "--d", "1", "--N", "1", "--log-df", "1.3863", "--nk", "1", "--c", "1", "--c1", "1",
    )
    row = report["rows"][0]
    assert abs(float(row["log_value"]) - 216.05) < 0.05


def test_bounds_nonsplit(capsys):
    report = run_json(
        capsys, "bounds", "nonsplit",
        "--nk", "1", "--log-dl", "1.3862943611198906", "--n", "2",
    )
    row = report["rows"][0]
    assert row["exact_value"] == "87"
    assert row["inputs"]["active_branch"] == "formula"
    assert row["inputs"]["constants_pinned"] == "no"


def test_bounds_hensel(capsys):
    report = run_json(capsys, "bounds", "hensel", "--nl", "2", "--primes", "2")
    assert abs(float(report["rows"][0]["log_value"]) - 2.0794) < 1e-3


def test_bounds_hensel_galois(capsys):
    report = run_json(
        capsys, "bounds", "hensel-galois",
        "--nl", "4", "--nk", "2", "--log-dk", "1.3862943611198906", "--primes", "3",
    )
    assert abs(float(report["rows"][0]["log_value"]) - 7.7424) < 1e-3


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["fk", "--nk", "2", "--log-dk", "1.3862943611198906", "--exceptional", "yes"],
            "1427eae09a2c7b2ebc18ea448aab147fcd642cb56e864bf5265c62d138309bb8",
        ),
        (
            ["hensel", "--nl", "4", "--primes", "2,3,5"],
            "caeee8d41c3067baa201ad473a631dcf89569b72af8fb47117a4d24c40b42034",
        ),
        (
            ["hensel-galois", "--nl", "4", "--nk", "2", "--log-dk", "1.3862943611198906", "--primes", "3,7"],
            "4604b4095f26cf247b62d4eee3a0120639848b6de12f763f37a22d8f7f080146",
        ),
        (
            ["nonsplit", "--nk", "2", "--log-dk", "2.5", "--exceptional", "unknown",
             "--log-dl", "10.75", "--n", "3", "--c", "1.5"],
            "8a00ef5605aeb0238b8c2b6583709c02d8841f5ecd7dc72892782ac6504f42ec",
        ),
        (
            ["B", "--N", "37", "--nk", "2", "--log-dk", "1.0986122886681098", "--exceptional", "no",
             "--m", "2", "--d", "2"],
            "c7d13e9d37b72249d32ee3ca7b1f6ed9414daf269d47e0bd68914a6c6edd014c",
        ),
        (
            ["C", "--N", "11", "--d", "2", "--log-df", "2.0794415416798357", "--nk", "1",
             "--c", "2", "--c1", "3", "--precision", "300"],
            "81be631a845f675f3f18a4b044cb57a5769cd985e79fff6ece52657211be743f",
        ),
    ],
)
def test_bounds_reports_pinned(capsys, argv, digest):
    # one report per bounds subcommand, digests taken before cmd_bounds
    # became table-driven; the inputs echo and the rows must not move
    code, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "fk", "--nk", "2", "--log-dk", "1.3862943611198906", "--exceptional", "yes"],
        ["bounds", "hensel", "--nl", "4", "--primes", "2,3,5"],
        ["bounds", "hensel-galois", "--nl", "4", "--nk", "2", "--log-dk", "1.5", "--primes", "3,7"],
        ["bounds", "nonsplit", "--nk", "2", "--log-dk", "2.5", "--log-dl", "10.75", "--n", "3", "--c", "0.1"],
        ["bounds", "B", "--N", "37.5", "--nk", "2", "--log-dk", "1.1", "--m", "2", "--d", "2", "--precision", "128"],
        ["bounds", "C", "--N", "1", "--d", "1", "--log-df", "1.3863", "--nk", "1"],
        ["cm", "nonsplit", "--disc", "-4", "--c", "0.3"],
        ["cm", "pik", "--disc", "-4", "--x", "10000"],
    ],
)
def test_reports_ignore_the_callers_mpmath_precision(capsys, argv):
    # every bound names the precision of each operation, so mp.prec, set
    # far below or far above the report's precision, moves nothing
    outs = []
    for caller_prec in (20, 3000):
        with mp.workprec(caller_prec):
            code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1] == run_cli(capsys, *argv, "--json")[1]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["B", "--N", "nan", "--nk", "1", "--m", "1", "--d", "1"], "--N"),
        (["B", "--N", "inf", "--nk", "1", "--m", "1", "--d", "1"], "--N"),
        (["fk", "--nk", "2", "--log-dk", "nan", "--exceptional", "yes"], "--log-dk"),
        (["nonsplit", "--nk", "1", "--log-dl", "inf", "--n", "2"], "--log-dl"),
        (["C", "--N", "1", "--d", "1", "--log-df", "1", "--nk", "1", "--c1", "nan"], "--c1"),
    ],
)
def test_bounds_rejects_non_finite_reals(capsys, argv, flag):
    code, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert code == 2
    assert out == ""
    assert flag in err and "finite" in err


_BOUNDS_C = ("bounds", "C", "--N", "1", "--d", "1", "--log-df", "1", "--nk", "1")
_BOUNDS_NONSPLIT = ("bounds", "nonsplit", "--nk", "1", "--log-dl", "1", "--n", "2")


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        pytest.param(_BOUNDS_C, "--c1", "-1", "c1 must be positive", id="-1"),
        pytest.param(_BOUNDS_C, "--c1", "0", "c1 must be positive", id="0"),
        pytest.param(_BOUNDS_C, "--c", "-1", "c must be positive", id="c=-1"),
        pytest.param(_BOUNDS_C, "--c", "0", "c must be positive", id="c=0"),
        pytest.param(_BOUNDS_NONSPLIT, "--c", "-1", "c must be positive", id="nonsplit c=-1"),
        pytest.param(_BOUNDS_NONSPLIT, "--c", "0", "c must be positive", id="nonsplit c=0"),
        pytest.param(("cm", "nonsplit", "--disc", "-4"), "--c", "0", "c must be positive", id="cm nonsplit c=0"),
    ],
)
def test_bounds_C_rejects_nonpositive_c1(capsys, argv, flag, value, message):
    # log c1 is complex for c1 < 0 (a traceback) and -inf at 0 (a raw
    # message); c <= 0 gave C = c1 B^c <= c1, and a least-non-split bound
    # with e^{c f(K)} <= 1, with exit 0
    code, out, err = run_cli(capsys, *argv, flag, value, "--json")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nonsplit", "--nk", "1", "--n", "2", "--log-dl", "-5"], "log |d_L| must be >= 0"),
        (["hensel-galois", "--nl", "2", "--nk", "1", "--log-dk", "-7", "--primes", "2"], "log |d_K| must be >= 0"),
        (["fk", "--nk", "2", "--log-dk", "-1", "--exceptional", "yes"], "log |d_K| must be >= 0"),
    ],
)
def test_bounds_rejects_negative_log_disc(capsys, argv, message):
    code, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert code == 2
    assert out == ""
    assert message in err


def test_bounds_hensel_galois_rejects_log_disc_over_rationals(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "hensel-galois", "--nl", "2", "--nk", "1", "--log-dk", "5", "--primes", "2", "--json"
    )
    assert code == 2
    assert out == ""
    assert "the rationals have |d_K| = 1, so log |d_K| must be 0" in err


def test_bounds_missing_parameter(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds", "B", "--N", "2", "--m", "1", "--d", "1"])  # no --nk
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cm

@pytest.mark.parametrize(
    "argv, digest",
    [
        (["survey", "--disc", "-3", "--pmax", "3000"],
         "44a126a1235ecb0cba2557ad0c80c3392832bba93b57fbe676e9a998be7549e9"),
        (["survey", "--disc", "-4", "--pmax", "3000"],
         "76c802bda655b8b70cc5cb1c26bc3f1fa5e6e258e9a062cfcb060e79207c1333"),
        (["survey", "--disc", "-7", "--pmax", "3000"],
         "14647aec1273ea55a0ab0b3ec8e135ce5ed455eadc0d1546eeb261f9714c6245"),
        (["survey", "--disc", "-8", "--pmax", "3000"],
         "f6af9f9f3a39bea2487514f92a3aa1f968803a60d0c91c207d8eba28790ffcb1"),
        (["survey", "--disc", "-11", "--pmax", "3000"],
         "9a8526ce84931f29b3831cc0e9bfa5e6a0de12774b195917e4f2b1225a5a470f"),
        (["survey", "--disc", "-19", "--pmax", "3000"],
         "7931c1167e4dad14574f57137030af445363ea1c6c2d2f55969e9af88cff859c"),
        (["survey", "--disc", "-43", "--pmax", "3000"],
         "6bc8df4549c2720505ef267af3a13fafe49995a6076c0e8061e894be9fa655e0"),
        (["survey", "--disc", "-67", "--pmax", "3000"],
         "6dbce25e6a24949bb205f93c8c45e3862ee8bdd128ea9dbfa45a7e55d2dd5da8"),
        (["survey", "--disc", "-163", "--pmax", "3000"],
         "a4b2dd1f44c5eb8a9169fb17c3bcbb3a6e8ec00e086d1523fe66f2cfbfbdc211"),
        (["noncm", "--curve", "0,0,1,-1,0", "--pmax", "1000"],
         "2d350eddfabdf4da791bd35dc5990947022440d32cbd724ee8ed1613bbd2651c"),
        (["nonsplit", "--disc", "-4"],
         "d4a37e656a8cf65fc8996a92b2b4f81b6eaf65340cf64c8a0bb7bf1b2e3a62cd"),
        (["nonsplit", "--disc", "-3"],
         "eb0e8a278701452bbbc0e54fc65f7a423f15813421e8caa4ce5161ac0904a319"),
        (["nonsplit", "--disc", "5"],
         "84d91e9fe8c6ed687c71198e83644f1a263bf1e36159db337513f6bd62ce3119"),
        (["pik", "--disc", "-4", "--x", "10000"],
         "8ce5ba5fee903de4490aa5582509890076e744fe1bc0cfd8d152079e41a87c32"),
    ],
)
def test_cm_reports_pinned(capsys, argv, digest):
    # every cm subcommand and all nine survey discriminants, digests taken
    # before the Cornacchia and splitting code was rewritten; the traces,
    # splittings and ranks of every row must not move
    code, out, err = run_cli(capsys, "cm", *argv, "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cm_survey_rows(capsys):
    report = run_json(capsys, "cm", "survey", "--disc", "-4", "--pmax", "100")
    rows = [r for r in report["rows"] if "p" in r]
    by_p = {r["p"]: r for r in rows}
    assert by_p[7]["rank_stable"] == 6 and by_p[7]["stable_degree"] == 2
    assert by_p[13]["rank_stable"] == 4
    density = report["rows"][-1]["density"]
    assert density["counts"]["split"] + density["counts"]["inert"] > 0


def test_cm_noncm(capsys):
    report = run_json(capsys, "cm", "noncm", "--curve", "0,0,1,-1,0", "--pmax", "100")
    summary = report["rows"][-1]["summary"]
    assert summary["all_rank_base_4"] is True
    rows = [r for r in report["rows"] if "p" in r]
    assert all(r["rank_base"] == 4 for r in rows if r["reduction_type"] != "bad")


def test_cm_nonsplit(capsys):
    report = run_json(capsys, "cm", "nonsplit", "--disc", "-4")
    row = report["rows"][0]
    assert row["found_prime"] == 3
    assert row["satisfied"] is True
    assert row["bound"]["exact_value"] == "87"


def test_cm_nonsplit_exact_value_matches_a_6000_bit_reference(capsys):
    # --c goes to the bound as text, so the second evaluation that exact_value
    # needs (about 330 bits here) reads 200.3 at that precision
    report = run_json(capsys, "cm", "nonsplit", "--disc", "-163", "--c", "200.3")
    with mp.workprec(6000):
        want = mp.exp(mp.mpf("200.3")) * mp.mpf(163) ** 2 * mp.sqrt(163)
        assert report["rows"][0]["bound"]["exact_value"] == str(int(mp.ceil(want)))


@pytest.mark.parametrize(
    "argv",
    [
        ["tate", "--poly", "5,٠,1", "--q", "5"],
        ["tate", "--poly", "5,²,1", "--q", "5"],
        ["bounds", "hensel", "--nl", "2", "--primes", "1_1"],
        ["bounds", "hensel-galois", "--nl", "4", "--nk", "2", "--primes", "+3"],
        ["cm", "noncm", "--curve", "0,0,1,-1,٣", "--pmax", "10"],
        ["cm", "noncm", "--curve", "0,0,1,-1_0,0", "--pmax", "10"],
    ],
)
def test_integer_lists_share_one_grammar(capsys, argv):
    # --poly, --primes and --curve all take ASCII digits with an optional '-'
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert "bad integer" in err


def test_cm_pik(capsys):
    report = run_json(capsys, "cm", "pik", "--disc", "-4", "--x", "10")
    assert report["rows"][0]["count"] == 4


def test_cm_pik_rejects_negative_x(capsys):
    code, out, err = run_cli(capsys, "cm", "pik", "--disc", "-4", "--x", "-5", "--json")
    assert code == 2
    assert out == ""
    assert "--x must be nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--disc", "-4", "--pmax", "-1", "--json"],
        ["noncm", "--curve", "0,0,1,-1,0", "--pmax", "-5"],
    ],
)
def test_cm_rejects_negative_pmax(capsys, argv):
    code, out, err = run_cli(capsys, "cm", *argv)
    assert code == 2
    assert out == ""
    assert "--pmax must be nonnegative" in err


def test_cm_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "cm", "pik", "--disc", "-4", "--x", str(10**9))
    assert code == 3
    assert "budget" in err.lower()


def test_cm_unsupported_disc_exit_code(capsys):
    code, out, _ = run_cli(capsys, "cm", "survey", "--disc", "-15", "--pmax", "100")
    assert code == 2
    assert out == ""


def test_survey_json_numbers_within_64_bits_are_ints(capsys):
    report = run_json(capsys, "cm", "survey", "--disc", "-4", "--pmax", "50")
    row = next(r for r in report["rows"] if r.get("p") == 13)
    assert isinstance(row["p"], int) and isinstance(row["a_p"], int)


# ---------------------------------------------------------------------------
# budgets and the exit-code contract

# the least prime above 10^399
PRIME_400_DIGITS = str(10**399 + 1311)


@pytest.mark.parametrize(
    "argv",
    [
        ["tate", "--poly", "1,0,1", "--q", "1000000000000000003"],
        ["cm", "nonsplit", "--disc", "1000000000000000009"],
        ["cm", "pik", "--disc", "1000000000000000009", "--x", "10"],
        ["bounds", "hensel", "--nl", "2", "--primes", "1000000000000000003"],
        ["bounds", "hensel", "--primes", PRIME_400_DIGITS, "--nl", "2"],
        ["tate", "--poly", "25,0,10,0,1", "--q", "5", "--n-max", "100000000"],
        ["cm", "survey", "--disc", "-4", "--pmax", "10000001"],
        ["cm", "noncm", "--curve", "0,0,1,-1,0", "--pmax", "10001"],
    ],
)
def test_budget_exit_code(capsys, argv):
    # primes above the trial-division cap and an oversized report used to
    # hang or end in a traceback; a sweep past its budget stops at the call,
    # before any of its report is written
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


def test_tate_dimension_budget_exit_code(capsys):
    # (T^2 + 5)^6, a d = 6 product: the degree bounds alone took minutes
    poly = ",".join(str(c) for c in (IntPoly([5, 0, 1]) ** 6).coeffs)
    code, out, err = run_cli(capsys, "tate", "--poly", poly, "--q", "5", "--json")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["B", "--N", "2", "--m", "1", "--d", "1", "--nk", "1", "--precision", "1000000"],
        ["B", "--N", "2", "--m", "1", "--d", "1", "--nk", "1", "--precision", str(bounds.MAX_PRECISION_BITS + 1)],
        ["fk", "--nk", "3", "--log-dk", "1e10000", "--exceptional", "yes"],
        ["B", "--N", "2", "--m", "1", "--d", "1", "--nk", "3", "--log-dk", "1e5000", "--exceptional", "yes"],
        ["fk", "--nk", "10001", "--log-dk", "1", "--exceptional", "unknown"],
        ["C", "--d", "780", "--N", "2", "--log-df", "1", "--nk", "1"],
    ],
)
def test_bounds_budget_exit_code(capsys, argv):
    # without the caps the first and third ran for more than 60 s and the
    # fourth and sixth exited 2 with Python's message on integer string
    # conversion
    start = time.monotonic()
    code, out, err = run_cli(capsys, "bounds", *argv, "--json")
    assert time.monotonic() - start < 1
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


def test_bounds_run_at_their_caps(capsys):
    report = run_json(
        capsys, "bounds", "C", "--N", "2", "--d", "1", "--log-df", "1", "--nk", "10000",
        "--log-dk", "1e104", "--exceptional", "yes", "--precision", str(bounds.MAX_PRECISION_BITS),
    )
    assert report["rows"][0]["exact_value"] is None


@pytest.mark.parametrize("precision", ["0", "-5", "1", "99"])
def test_bounds_precision_floor(capsys, precision):
    # below 100 bits the 30 printed digits were wrong (log_value 4.0 at 0)
    code, out, err = run_cli(
        capsys, "bounds", "B", "--N", "2", "--nk", "1", "--m", "1", "--d", "1", "--precision", precision, "--json"
    )
    assert code == 2
    assert out == ""
    assert "--precision" in err
    report = run_json(capsys, "bounds", "B", "--N", "2", "--nk", "1", "--m", "1", "--d", "1", "--precision", "100")
    assert report["rows"][0]["exact_value"] == "16"


def test_bounds_help_gives_the_precision_range(capsys):
    # the parser leaves the range to bounds, read only when the help is printed
    with pytest.raises(SystemExit):
        cli.main(["bounds", "B", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"working precision in bits ({bounds.MIN_PRECISION_BITS} to {bounds.MAX_PRECISION_BITS})" in help_text


def test_factor_budget_edge_resolves(capsys):
    # a prime just below 10^12 is still certified: T^2 + q over F_q
    report = run_json(capsys, "tate", "--poly", "999999000001,0,1", "--q", "999999000001")
    assert report["inputs"]["weil"]["d"] == 1


# ---------------------------------------------------------------------------
# the --json stream

class _RecordingStream:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


def test_emit_writes_to_stdout_current_at_call_time():
    report = {"schema": 1, "rows": [{"k": 0}], "meta": {}}
    outer, inner = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(outer):
        with contextlib.redirect_stdout(inner):
            cli._emit(report, True, None)
    assert outer.getvalue() == ""
    assert inner.getvalue() == json.dumps(report, indent=2) + "\n"


def test_emit_streams_a_survey_in_several_writes():
    args = cli.build_parser().parse_args(["cm", "survey", "--disc", "-4", "--pmax", "20000", "--json"])
    report = args.run(args)
    stream = _RecordingStream()
    with contextlib.redirect_stdout(stream):
        cli._emit(report, True, args.human)
    assert len(stream.chunks) > 1
    # the rows are a one-shot iterator, so the oracle takes a second build
    # with its rows made into a list
    materialised = args.run(args)
    materialised["rows"] = list(materialised["rows"])
    assert "".join(stream.chunks) == json.dumps(materialised, indent=2) + "\n"


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("cm", "survey", "--disc", "-4", "--pmax", "200000"), 1_500_000),
        (("cm", "noncm", "--curve", "0,0,1,-1,0", "--pmax", "10000"), 550_000),
    ],
    ids=["survey", "noncm"],
)
def test_sweep_reports_are_written_in_bounded_memory(argv, bound):
    # each row is made as it is written: neither the rows nor the primes are
    # held all at once (the peaks were 6.1 and 0.75 MB when they were)
    with contextlib.redirect_stdout(_Discard()):
        assert cli.main([*argv[:-1], "100", "--json"]) == 0  # imports and caches
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, peak
