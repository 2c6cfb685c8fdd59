"""Which module may load what: mpmath stays out of the exact tate path, and the
names the benchmark's tracer wraps stay bound."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fresh(script: str) -> str:
    # a fresh interpreter: under pytest mpmath is already imported
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout


def test_parser_and_exact_modules_load_no_mpmath():
    script = (
        "import sys\n"
        "import tatecycles.weil, tatecycles.tate, tatecycles.cli\n"
        "tatecycles.cli.build_parser()\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert _fresh(script) == "False\n"


def test_tate_command_loads_no_mpmath():
    script = (
        "import contextlib, io, sys\n"
        "from tatecycles import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['tate', '--poly', '25,0,10,0,1', '--q', '5', '--json'])\n"
        "print(code, out.getvalue().startswith('{'), 'mpmath' in sys.modules)\n"
    )
    assert _fresh(script) == "0 True False\n"


def _imports_mpmath(path: pathlib.Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            return True
    return False


def test_only_bounds_and_cmlab_import_mpmath():
    users = sorted(p.name for p in (SRC / "tatecycles").glob("*.py") if _imports_mpmath(p))
    assert users == ["bounds.py", "cmlab.py"]


def test_bench_tracer_names_resolve():
    # bench/run.py --trace wraps these by name; a missing one is an
    # AttributeError only when a traced pass starts
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _, _ in tracer.PATCHES:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    for name, fn in tracer.CACHES:
        assert callable(getattr(fn, "cache_info", None)), name
