"""No module of the package reaches into another module's private names, keeps code
that only tests call, or loads a pipeline stage that it does not need."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "farfield"


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


# definitions that only tests call, each with the test that keeps it
_TEST_ONLY = {
    "segments.Segmentation.merged_per_speaker": "acceptance criterion c07",
    "segments.Segmentation.total_speech": "tests/test_fusion.py",
    "segments.erode_bounds": "acceptance criterion c11",
    "segments.extend_segments": "acceptance criterion c11",
}


def _references(node) -> Counter:
    """How often each identifier is read as a name, an attribute, an imported name
    or a string (perfbench/spans.py names the functions that it wraps)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found[n.value] += 1
    return found


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def uncalled(package: dict, others) -> list:
    """The definitions of package ({module: source}) whose name is read nowhere
    outside the definition itself, in package or in the other sources.

    Names are matched as names, not resolved: a method stays if any attribute
    of its name is read anywhere.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    total += sum((_references(ast.parse(source)) for source in others), Counter())
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, node in _definitions(tree)
            if total[node.name] == _references(node)[node.name]]


def test_uncalled_finds_names_read_only_by_themselves():
    package = {"a": "def used(): pass\n"
                    "def recursive(n): return recursive(n - 1)\n"
                    "class C:\n"
                    "    def __init__(self): pass\n"
                    "    def wrapped(self): pass\n"
                    "    def chained(self): return self.chained()\n",
               "b": "from a import used\n"}
    assert uncalled(package, ["wrap('wrapped')\n"]) == ["a.recursive", "a.C", "a.C.chained"]


def test_every_definition_has_a_caller_outside_tests():
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(_SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for directory in ("perfbench", "tools")
              for path in sorted((_ROOT / directory).rglob("*.py"))]
    assert sorted(uncalled(package, others)) == sorted(_TEST_ONLY)


def test_simulator_loads_no_pipeline_stage():
    # a fresh process, since this one has loaded every module already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys, farfield.simulate\n"
                           "print(sorted(m for m in sys.modules if m.startswith('farfield')))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    stages = {f"farfield.{m}" for m in ("preprocess", "diarize", "fusion", "gss", "pipeline")}
    assert stages.isdisjoint(ast.literal_eval(done.stdout))
