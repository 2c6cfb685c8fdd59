"""The documented examples: every module docstring, the tests' oracles and
the README quick start."""

import ast
import doctest
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = ["tatecycles", "polycore", "weil", "tate", "bounds", "cmlab", "cli", "jsonout"]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name if name == "tatecycles" else f"tatecycles.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0


def test_oracle_doctests():
    # the tests' own oracles document their examples too
    result = doctest.testmod(importlib.import_module("oracles"))
    assert result.failed == 0 and result.attempted > 0


def _quick_start_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Library quick start"):].split("```python\n", 1)[1]
    return block.split("\n```", 1)[0].splitlines()


def test_readme_quick_start():
    # an expression line's comment is its value; other lines just run
    namespace: dict = {}
    checked = 0
    for line in _quick_start_lines():
        code, _, comment = line.partition("#")
        try:
            ast.parse(code, mode="eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
        checked += 1
    assert checked >= 5


def test_import_binds_only_the_version():
    # a fresh interpreter: under pytest the submodules are already imported
    script = "import tatecycles; print(tatecycles.__version__, [n for n in vars(tatecycles) if n[0] != '_'])"
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout
    assert out == "0.1.0 []\n"
