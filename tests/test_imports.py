"""Source hygiene: every module of the package uses each name it imports, every definition is named somewhere, no class forwards attributes, and the CLI loads no heavy standard modules."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistcech"
# the package's own imports are its exports
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_definition_is_named_outside_itself():
    # a top-level function or class, or a method other than a dunder, that no
    # source, test or benchmark file names outside its own definition is dead
    sources = {
        path: path.read_text(encoding="utf-8") for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
    }
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(sources[path])
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            item
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
        ]
        for node in defs:
            lines = sources[path].splitlines()
            del lines[min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1 : node.end_lineno]
            texts = ["\n".join(lines), *(text for other, text in sources.items() if other != path)]
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(text) for text in texts):
                unnamed.append(f"{path.stem}.{node.name}")
    assert unnamed == []


def test_no_class_defines_getattr():
    # a class's attributes are the ones it names; none is looked up elsewhere on a miss
    forwarding = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__getattr__" for item in node.body)
    ]
    assert forwarding == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: pytest itself imports both; records.record stands in for dataclasses,
    # whose per-class code generation was most of the CLI's import time
    code = "import sys, twistcech.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
