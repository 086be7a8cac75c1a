"""Import layering of the package, read from the source with ast.

Importing the package loads every module (its ``__init__`` imports them
all), so the layering is checked on the import statements themselves.
Every name a module imports must also be read in it, so no import is kept
for a caller elsewhere or left behind by a deleted path.  Likewise every
function the package exports must be used outside the tests, so an
oracle only tests call lives in ``tests/helpers.py``, not in the package.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import tuttelab

PACKAGE = Path(tuttelab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REPO = Path(__file__).resolve().parent.parent


def imported_siblings(source: str) -> set[str]:
    """Package modules named by any import in source, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 0 and (node.module or "").startswith("tuttelab."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tuttelab."):
                    found.add(alias.name.split(".")[1])
    return found & set(MODULES)


def sibling_imports(module: str) -> set[str]:
    return imported_siblings((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


ALLOWED = {
    "core": set(),
    "generators": {"core"},
    "matching": {"core"},
    "verifier": {"core", "matching"},
    "orientation": {"core", "matching"},
    "layered": {"core", "matching", "verifier"},
}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert sibling_imports(module) <= ALLOWED[module]


def test_layered_asks_core_no_graph_question():
    # The level certificate reads its odd components from its Tutte
    # report; layered takes only core's types, never a component search.
    tree = ast.parse((PACKAGE / "layered.py").read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "core")
        for alias in node.names
    }
    assert names == {"Edge", "Graph", "InputError", "Window"}


def unused_imports(source: str) -> set[str]:
    """Names bound by an import in source and never read in it."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == set()


def test_unused_import_reader():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from itertools import islice, chain as link\n"
        "from .core import Graph, Edge\n"
        "def f(g: Graph) -> None:\n"
        "    return os.path.join(link())\n"
    )
    assert unused_imports(source) == {"system", "islice", "Edge"}


def test_reader_sees_every_form_of_import():
    source = (
        "from .core import Graph\n"
        "from . import generators, cli\n"
        "import tuttelab.layered\n"
        "from tuttelab.orientation import Orientation\n"
        "import itertools\n"
        "def f():\n"
        "    from .verifier import hull_report\n"
    )
    assert imported_siblings(source) == {
        "core", "generators", "cli", "layered", "orientation", "verifier"
    }


def read_names(source: str) -> set[str]:
    """Names source reads: each ast Name, and the attribute of each Attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def fenced_block(text: str, heading: str, fence: str) -> str:
    """The first block opened by the line fence after the line heading."""
    lines = text.splitlines()
    start = lines.index(fence, lines.index(heading)) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    return "\n".join(lines[start:end])


def unreferenced_exports() -> set[str]:
    """Exported functions that no code outside the tests refers to.

    A reference is a read (see :func:`read_names`) in a package module
    (``__init__`` only re-exports), or in ``bench/*.py``, or the name in
    the README's CLI or Library example.  Classes are exempt.
    """
    exports = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    mentioned = {
        word
        for heading, fence in (("## CLI", "```sh"), ("## Library", "```python"))
        for word in re.findall(r"\w+", fenced_block(readme, heading, fence))
    }
    sources = [PACKAGE / f"{module}.py" for module in MODULES]
    sources += sorted((REPO / "bench").glob("*.py"))
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in sources))
    return {
        name for name in exports
        if inspect.isfunction(getattr(tuttelab, name))
        and name not in read | mentioned
    }


def test_every_exported_function_is_used_outside_the_tests():
    assert unreferenced_exports() == set()


def test_reference_reader():
    source = (
        "import tuttelab as tl\n"
        "from tuttelab import fixture, parse_window_text\n"
        "def distance(g):\n"
        "    \"\"\"Calls hull_report.\"\"\"\n"
        "    return tl.max_matching(fixture(g))  # edge_boundary\n"
    )
    assert read_names(source) == {"tl", "max_matching", "fixture", "g"}
    text = "## CLI\n```python\nno\n```\n\n```sh\ntuttelab match -\n```\n```sh\nlater\n```\n"
    assert fenced_block(text, "## CLI", "```sh") == "tuttelab match -"
