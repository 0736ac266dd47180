import ast
import importlib.util
import sys
from pathlib import Path

import isotypic.cli  # noqa: F401  (imports every library module the tracer wraps)

REPO = Path(__file__).resolve().parents[1]
SOURCE_DIR = REPO / "src" / "isotypic"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so invariants in the library
    # must be explicit raises
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_hooks_resolve():
    # bench/tracing.py wraps library functions by name; a rename or a
    # deletion would otherwise surface only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # load it without leaving a __pycache__ under bench/
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    missing, undo = tracing.install(tracing.Tracer())
    try:
        assert missing == []
    finally:
        tracing.uninstall(undo)
