"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "farfield"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """The private names of farfield modules that source imports or reads as attributes."""
    tree = ast.parse(source)
    modules, found = set(), []  # local names bound to farfield modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "farfield")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "farfield"):
            found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
            if node.module == "farfield":
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(ast.unparse(node))
    return found


def test_private_uses_finds_imports_and_attributes():
    found = private_uses("from farfield.pipeline import _build, load_config\n"
                         "import farfield.pipeline\n"
                         "import farfield.pipeline as p\n"
                         "from farfield import gss\n"
                         "p._validate(1); farfield.pipeline._KEYED; gss._QUAD_FLOOR\n"
                         "self._stack; p.__file__; np._core\n")
    assert sorted(found) == ["farfield.pipeline._KEYED", "farfield.pipeline._build",
                             "gss._QUAD_FLOOR", "p._validate"]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []
