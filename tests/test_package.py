"""Package-wide properties: each import loads only the modules it uses, the
package itself exports nothing, and every docstring prints as written."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by(statement):
    """The names in sys.modules after `statement` runs in a fresh interpreter
    started with -S, so that no site hook loads modules of its own."""
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def package_modules(modules):
    return {m for m in modules if m.startswith("multicolor.")}


def test_the_package_loads_no_module_and_exports_nothing():
    assert package_modules(loaded_by("import multicolor")) == set()
    (docstring,) = ast.parse((SRC / "multicolor" / "__init__.py").read_text()).body
    assert isinstance(docstring.value, ast.Constant) and isinstance(docstring.value.value, str)


def test_graph_loads_only_what_it_uses():
    modules = loaded_by("import multicolor.graph")
    assert package_modules(modules) == {"multicolor.graph", "multicolor.errors",
                                        "multicolor.value"}
    assert not {"json", "csv"} & modules


def test_cli_loads_every_module_but_the_adversary():
    """The CLI imports adversary only for `gen`."""
    assert package_modules(loaded_by("import multicolor.cli")) == {
        f"multicolor.{name}" for name in ("advice", "algorithms", "cli", "errors", "graph",
                                          "harness", "instance", "oracle", "value")}


def docstrings(path):
    """(line, text) of each module, class and function docstring of a file."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text is not None:
                yield getattr(node, "lineno", 1), text


@pytest.mark.parametrize("path", sorted((SRC / "multicolor").glob("*.py")), ids=lambda p: p.name)
def test_no_docstring_holds_a_control_character(path):
    """A docstring that means the escape `\\r` must not hold a carriage
    return, which help() would print as one."""
    for line, text in docstrings(path):
        bad = sorted({ch for ch in text if ch != "\n" and (ord(ch) < 32 or ord(ch) == 127)})
        assert not bad, f"{path.name}:{line} docstring holds {bad!r}"
