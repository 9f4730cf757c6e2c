"""No public API that only the tests use.

Every public module-level function or class in `src/layermotion` must be
referenced as a name or attribute somewhere in `src/` or `perfbench/`
(its own definition and docstrings do not count), or be one of the
library entry points the README documents.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "layermotion"

# Documented in the README's "Library entry points" and called by nothing else.
README_ENTRY_POINTS = {("dataset", "dataset_from_scene"), ("evalkit", "evaluate_params")}


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def test_every_public_definition_is_used_outside_the_tests():
    used = referenced_names(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [
        f"{module}.{name}"
        for module, name in public_definitions()
        if name not in used and (module, name) not in README_ENTRY_POINTS
    ]
    assert unused == []


def test_the_scan_sees_definitions():
    defs = set(public_definitions())
    assert ("fields", "load_checkpoint") in defs
    assert README_ENTRY_POINTS <= defs
