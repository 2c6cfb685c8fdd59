"""Which module may load what: mpmath stays out of the exact tate path,
dataclasses out of the package, exec and eval out of everything but
polycore.Record's method builder, nothing in src/ changes mpmath's
process-wide precision or holds an assert statement, and the names the
benchmark's tracer wraps and the modules export stay bound."""

import ast
import importlib
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


def _imports(source: str, package: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
            return True
    return False


def _importers(package: str) -> list[str]:
    return sorted(p.name for p in (SRC / "tatecycles").glob("*.py") if _imports(p.read_text(encoding="utf-8"), package))


def test_only_bounds_and_cmlab_import_mpmath():
    assert _importers("mpmath") == ["bounds.py", "cmlab.py"]


def test_import_scan_finds_both_forms():
    assert _imports("import dataclasses\n", "dataclasses")
    assert _imports("from dataclasses import dataclass, field\n", "dataclasses")
    assert not _imports("from .polycore import Record\n", "dataclasses")


def test_src_never_imports_dataclasses():
    # the records share polycore.Record: importing dataclasses costs every
    # process about 6 ms (inspect, ast, dis, tokenize, copy, linecache)
    assert _importers("dataclasses") == []


def test_no_module_loads_dataclasses():
    modules = ", ".join(f"tatecycles.{p.stem}" for p in sorted((SRC / "tatecycles").glob("*.py")) if p.stem != "__init__")
    assert _fresh(f"import sys, {modules}\nprint('dataclasses' in sys.modules)\n") == "False\n"


_DYNAMIC = {"exec", "eval"}


def _dynamic_code_uses(tree: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing qualname, line) of every exec or eval name or attribute."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _dynamic_code_uses(node, f"{scope}.{node.name}".lstrip("."))
            continue
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in _DYNAMIC:
            found.append((scope, node.lineno))
        found += _dynamic_code_uses(node, scope)
    return found


def test_dynamic_code_scan_finds_each_form():
    source = (
        "exec('x = 1')\n"
        "class A:\n"
        "    def f(self):\n"
        "        return eval('1')\n"
        "    run = builtins.exec\n"
        "def g(): lambda: exec\n"
    )
    assert _dynamic_code_uses(ast.parse(source)) == [("", 1), ("A.f", 4), ("A", 5), ("g", 6)]


def test_only_record_builds_methods_from_source():
    # polycore.Record.__init_subclass__ compiles each record's __init__, ==
    # and hash; generated code anywhere else would be harder to read and trace
    found = {
        f"{path.stem}.{scope}"
        for path in sorted((SRC / "tatecycles").glob("*.py"))
        for scope, _ in _dynamic_code_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"polycore.Record.__init_subclass__"}


# context managers and attributes that change mpmath's process-wide precision,
# and functions that raise it while they run
_GLOBAL_PRECISION = {"workprec", "workdps", "extraprec", "extradps"}
_RAISES_PRECISION = {"li", "log1p"}


def _global_precision_uses(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _GLOBAL_PRECISION:
            found.append((node.lineno, node.attr))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            found += [(node.lineno, a.name) for a in node.names if a.name in _GLOBAL_PRECISION | _RAISES_PRECISION]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [(node.lineno, "." + t.attr) for t in targets if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RAISES_PRECISION
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("mp", "mpmath")
        ):
            found.append((node.lineno, node.func.attr))
    return found


def test_global_precision_scan_finds_each_form():
    source = (
        "from mpmath import mp, workdps\n"
        "with mp.workprec(9): pass\n"
        "mp.extradps(3)\n"
        "mp.prec = 80\n"
        "mp.dps += 5\n"
        "mpmath.li(10)\n"
        "mp.log1p(x)\n"
    )
    assert sorted(line for line, _ in _global_precision_uses(source)) == [1, 2, 3, 4, 5, 6, 7]


def test_src_never_changes_the_process_wide_mpmath_precision():
    # every bound names the precision of each operation; a workprec block or
    # a function that raises mp.prec while it runs would make reports depend
    # on the caller's precision and on other threads
    found = {
        path.name: _global_precision_uses(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "tatecycles").glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


def _assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_finds_each_form():
    source = (
        "assert x\n"
        "def f():\n"
        "    assert y, 'message'\n"
        "raise AssertionError('kept')\n"
        "assert_equal(x, y)\n"
    )
    assert _assert_lines(source) == [1, 3]


def test_src_holds_no_assert_statement():
    # python -O strips assert statements: an invariant check must raise
    # InternalError, which maps to exit 4 under every interpreter flag
    found = {
        path.name: _assert_lines(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "tatecycles").glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def test_every_exported_name_resolves():
    # a class dropped from a module must leave its __all__ too
    exporters = set()
    for path in sorted((SRC / "tatecycles").glob("[!_]*.py")):
        module = importlib.import_module(f"tatecycles.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
            exporters.add(path.stem)
    assert {"weil", "tate", "cmlab", "bounds"} <= exporters
