"""Command-line interface: worked examples, JSON reports, exit codes,
determinism, and the verify round trip."""

import hashlib
import json

import pytest

from tatecycles import cli


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
    ],
)
def test_tate_verify_rejects_malformed_inputs(capsys, tmp_path, report):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = run_cli(capsys, "tate", "--verify", str(path))
    assert code == 2
    assert "Traceback" not in err


def test_tate_d4_report_pinned(capsys):
    # quartic x elliptic x elliptic over F_7 (H^4 has degree 70); the digest
    # was taken from the compound-matrix route, so any change to the H^{2k}
    # charpolys or to the report layout shows here
    code, out, _ = run_cli(capsys, "tate", "--poly", "2401,686,588,175,136,25,12,2,1", "--q", "7", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "e7ecb75a0a5d63e888b06f42454cf2f0a76bc36bea6e27aa3fb1e4bf1e561606"


# ---------------------------------------------------------------------------
# bounds

def test_bounds_fk_rationals(capsys):
    report = run_json(capsys, "bounds", "fk", "--nk", "1")
    assert report["rows"][0]["value"] == "1.0"


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


def test_bounds_missing_parameter(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds", "B", "--N", "2", "--m", "1", "--d", "1"])  # no --nk
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cm

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


def test_cm_pik(capsys):
    report = run_json(capsys, "cm", "pik", "--disc", "-4", "--x", "10")
    assert report["rows"][0]["count"] == 4


def test_cm_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "cm", "pik", "--disc", "-4", "--x", str(10**9))
    assert code == 3
    assert "budget" in err.lower()


def test_cm_unsupported_disc_exit_code(capsys):
    code, _, _ = run_cli(capsys, "cm", "survey", "--disc", "-15", "--pmax", "100")
    assert code == 2


def test_survey_json_numbers_within_64_bits_are_ints(capsys):
    report = run_json(capsys, "cm", "survey", "--disc", "-4", "--pmax", "50")
    row = next(r for r in report["rows"] if r.get("p") == 13)
    assert isinstance(row["p"], int) and isinstance(row["a_p"], int)
