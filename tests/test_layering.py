"""Import layering of the package, read from the source with ast.

Importing the package loads every module (its ``__init__`` imports them
all), so the layering is checked on the import statements themselves.
Every name a module imports must also be read in it, so no import is kept
for a caller elsewhere or left behind by a deleted path.  Likewise the
public surface must be used outside the tests: every function the
package exports is read, so an oracle only tests call lives in
``tests/helpers.py``, not in the package; every option, a parameter with
a default, is passed by some call and left out by another, since with one
value in use it would be a constant; and every field, property and method
of an exported class is read, so no fact is kept that nothing asks for.
"""

import ast
import dataclasses
import inspect
import re
from collections import defaultdict
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


def exported() -> set[str]:
    """The names the package's ``__init__`` imports, so exports."""
    return {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def outside_sources() -> list[str]:
    """The Python code outside the tests: each package module (``__init__``
    only re-exports), each ``bench/*.py``, and the README's Library example."""
    paths = [PACKAGE / f"{module}.py" for module in MODULES]
    paths += sorted((REPO / "bench").glob("*.py"))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return [p.read_text(encoding="utf-8") for p in paths] + [
        fenced_block(readme, "## Library", "```python")
    ]


def unreferenced_exports() -> set[str]:
    """Exported functions that no code outside the tests refers to.

    A reference is a read (see :func:`read_names`) in one of the
    :func:`outside_sources`, or the name in the README's CLI example.
    Classes are exempt here; :func:`unread_attributes` reads their members.
    """
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    mentioned = set(re.findall(r"\w+", fenced_block(readme, "## CLI", "```sh")))
    read = set().union(*map(read_names, outside_sources()))
    return {
        name for name in exported()
        if inspect.isfunction(getattr(tuttelab, name))
        and name not in read | mentioned
    }


def test_every_exported_function_is_used_outside_the_tests():
    assert unreferenced_exports() == set()


def call_shapes(source: str) -> dict[str, list[tuple[int, frozenset[str]]]]:
    """Each call in source, keyed by the name it calls (a Name's id or an
    Attribute's attr): its count of positional arguments and the keywords
    it passes.  A call that unpacks ``*args`` or ``**kwargs`` shows neither,
    and is left out."""
    calls = defaultdict(list)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(
            isinstance(a, ast.Starred) for a in node.args
        ) or any(k.arg is None for k in node.keywords):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        calls[name].append((len(node.args), frozenset(k.arg for k in node.keywords)))
    return calls


def public_callables():
    """(label, function, bound) for each exported function and each public
    method of an exported class; a call binds the first ``bound`` parameters
    itself (a method's self or cls)."""
    for name in sorted(exported()):
        obj = getattr(tuttelab, name)
        if inspect.isfunction(obj):
            yield name, obj, 0
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    yield f"{name}.{attr}", member.__func__, 0
                elif isinstance(member, classmethod):
                    yield f"{name}.{attr}", member.__func__, 1
                elif inspect.isfunction(member):
                    yield f"{name}.{attr}", member, 1


def one_way_options(callables, sources) -> set[str]:
    """Each option, "label(parameter)", that the calls in sources do not
    both pass (by position or keyword) and leave out.

    callables holds (label, function, bound) as :func:`public_callables`
    gives them; calls are matched to a function by its name.
    """
    calls = defaultdict(list)
    for source in sources:
        for name, shapes in call_shapes(source).items():
            calls[name] += shapes
    flagged = set()
    for label, func, bound in callables:
        params = list(inspect.signature(func).parameters.values())[bound:]
        for position, p in enumerate(params):
            if p.default is p.empty:
                continue
            passed = {
                count > position or p.name in keywords
                for count, keywords in calls[func.__name__]
            }
            if passed != {True, False}:
                flagged.add(f"{label}({p.name})")
    return flagged


def test_every_option_is_set_both_ways_outside_the_tests():
    flagged = one_way_options(public_callables(), outside_sources())
    assert not flagged, (
        "options that no call outside the tests both passes and leaves out: "
        + ", ".join(sorted(flagged)))


def attribute_reads(source: str) -> set[str]:
    """Names source reads as an attribute (``x.name``) or passes as a
    keyword (``f(name=...)``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
    return found


def public_attributes():
    """(class, attribute) for each field, property and method of each
    exported class: a dataclass's fields, and every public name its body
    binds (a named tuple's fields among them)."""
    for name in sorted(exported()):
        cls = getattr(tuttelab, name)
        if not inspect.isclass(cls):
            continue
        attrs = {a for a in vars(cls) if not a.startswith("_")}
        if dataclasses.is_dataclass(cls):
            attrs.update(f.name for f in dataclasses.fields(cls))
        for attr in sorted(attrs):
            yield name, attr


def unread_attributes(attributes, sources) -> set[str]:
    """Each "class.attribute" of attributes that no source reads (see
    :func:`attribute_reads`)."""
    read = set().union(*map(attribute_reads, sources))
    return {f"{cls}.{attr}" for cls, attr in attributes if attr not in read}


def test_every_public_attribute_is_read_outside_the_tests():
    flagged = unread_attributes(public_attributes(), outside_sources())
    assert not flagged, (
        "attributes of exported classes that nothing outside the tests reads: "
        + ", ".join(sorted(flagged)))


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


def test_call_reader():
    source = (
        "import tuttelab as tl\n"
        "tl.check(w, 1, mask)\n"
        "check(w, 1, live=mask)\n"
        "state.check(w)\n"
        "check(*args)\n"
        "check(w, **options)\n"
        "print(report.passed)\n"
    )
    calls = call_shapes(source)
    assert sorted(calls["check"]) == [
        (1, frozenset()), (2, frozenset({"live"})), (3, frozenset())]
    assert calls["print"] == [(1, frozenset())]
    assert set(calls) == {"check", "print"}


def test_option_rule():
    def check(w, k, live=None, *, mode="fast"):
        pass

    class Host:
        def run(self, x, host=None):
            pass

    callables = [("check", check, 0), ("Host.run", Host.run, 1)]
    # A positional pass, a keyword pass and a left-out default.
    both = ["check(w, 1, m)", "check(w, 1, mode='slow')", "h.run(1, host=g)", "h.run(1)"]
    assert one_way_options(callables, both) == set()
    assert one_way_options(callables, ["check(w, 1, live=m, mode='a')", "h.run(1, g)"]) == {
        "check(live)", "check(mode)", "Host.run(host)"}
    assert one_way_options(callables, ["check(w, 1)"]) == {
        "check(live)", "check(mode)", "Host.run(host)"}


def test_attribute_reader():
    source = (
        "m = tl.max_matching(g)\n"
        "print(m.covered, run.levels[0].odd_component_count)\n"
        "NetLevels(levels=nets)\n"
        "residual = 1  # x.empty\n"
        "w.graph = None\n"
        "\"\"\"s.size\"\"\"\n"
    )
    assert attribute_reads(source) == {
        "max_matching", "covered", "levels", "odd_component_count"}
    attributes = [("Graph", "empty"), ("MatchingState", "covered"),
                  ("NetLevels", "levels"), ("NetLevels", "residual"), ("Window", "graph")]
    assert unread_attributes(attributes, [source]) == {
        "Graph.empty", "NetLevels.residual", "Window.graph"}
