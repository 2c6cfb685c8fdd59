"""Self-test of the benchmark: python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tatecycles.polycore import IntPoly  # noqa: E402
from tatecycles.weil import validate_weil  # noqa: E402

SURVEY_ARGV = ["cm", "survey", "--disc", "-7", "--pmax", "3000", "--json"]


def _traced(fn):
    t = tracer.Tracer()
    t.install()
    try:
        return fn(t), t
    finally:
        t.restore()


def test_traced_reports_are_byte_identical():
    ops = workloads.build("tate-small", 1)["ops"][:30] + [SURVEY_ARGV]
    (_, traced_texts), t = _traced(lambda t: child.run_cli(ops, t))
    _, texts = child.run_cli(ops, None)
    assert all(isinstance(x, str) for x in texts)
    assert traced_texts == texts
    layers = t.aggregate()
    assert layers["weil.validate_weil.calls"] == 30
    assert layers["tate.tate_dim.calls"] > 0 and layers["cli.report.calls"] == len(ops)

    fields = workloads.build("fields", 1)["ops"][:40]
    (_, traced_results), t = _traced(lambda t: child.run_fields(fields))
    _, results = child.run_fields(fields)
    assert [child.fields_text(op, r) for op, r in zip(fields, traced_results)] == [
        child.fields_text(op, r) for op, r in zip(fields, results)
    ]
    assert t.aggregate()["bounds.least_nonsplit_bound.calls"] == 39


def test_every_wrapped_function_is_restored():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracer.PATCHES]
    _, t = _traced(lambda t: child.run_cli([SURVEY_ARGV], t))
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.PATCHES] == before
    assert not t._patched


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10_000))
    layers = t.aggregate()
    assert layers["outer.busy_s"] >= layers["inner.busy_s"] > 0
    assert layers["outer.self_s"] == pytest.approx(layers["outer.busy_s"] - layers["inner.busy_s"])
    assert [s[3] for s in t.spans] == [-1, 0]


def test_report_equals_cli_stdout():
    argv = workloads.build("tate-small", 2)["ops"][0]
    _, [text] = child.run_cli([argv], None)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "tatecycles.cli", *argv], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == text


@pytest.mark.parametrize("workload", ["tate-small", "tate-heavy"])
def test_inputs_are_seeded_weil_polynomials(workload):
    spec = workloads.build(workload, 3)
    assert spec == workloads.build(workload, 3)
    assert spec["ops"] != workloads.build(workload, 4)["ops"]
    for w in spec["polys"]:
        assert validate_weil(IntPoly(w["coeffs"]), w["q"]).d == w["d"]
    assert sum(spec["mix"].get(k, 0) for k in ("product", "quartic")) == len(spec["ops"])


def test_checks_reject_wrong_outputs():
    spec = workloads.build("tate-small", 5)
    argv, poly = spec["ops"][0], spec["polys"][0]
    _, [text] = child.run_cli([argv], None)
    report = json.loads(text)
    assert workloads.check_tate(report, poly) is None
    report["rows"][0]["dims"][0]["dim"] += 1
    assert workloads.check_tate(report, poly)

    _, [survey] = child.run_cli([SURVEY_ARGV], None)
    report = json.loads(survey)
    assert workloads.check_survey(report) is None
    report["rows"][5]["rank_base"] = 5
    assert workloads.check_survey(report)

    assert workloads.check_nonsplit(-4, 3, True, 4.0) is None
    assert workloads.check_nonsplit(-4, 7, True, 4.0)  # 3 is a smaller inert prime
    assert workloads.check_nonsplit(-4, 5, True, 4.0)  # 5 splits
    assert workloads.check_nonsplit(-4, 3, True, 1.0)  # log 3 exceeds the bound
    assert workloads.check_pik(-4, 100, 25) is None
    assert workloads.check_pik(-4, 100, 26)


def test_layer_map_covers_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "bench" / "layers.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert set(layer_map) == names
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    for entry in layer_map.values():
        assert entry["moves"] in end_to_end and set(entry["workloads"]) <= workload_names


def test_deadline_kills_the_pass_and_fails_its_operations(monkeypatch):
    monkeypatch.setattr(run, "PASS_DEADLINE_S", 1.0)
    result = run.one_pass("tate-small", 1, None)
    assert result["timed_out"] and result["failed"] == result["ops"] == workloads.SMALL_REPORTS
