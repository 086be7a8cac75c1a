"""Import layering of the package, read from the source with ast.

Importing the package loads every module (its ``__init__`` imports them
all), so the layering is checked on the import statements themselves.
"""

import ast
from pathlib import Path

import pytest

import tuttelab

PACKAGE = Path(tuttelab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


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
    "verifier": {"core"},
    "orientation": {"core", "matching"},
}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert sibling_imports(module) <= ALLOWED[module]


def test_layered_does_not_import_cli():
    assert "cli" not in sibling_imports("layered")


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
