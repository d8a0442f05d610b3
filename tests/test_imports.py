"""Every name a module imports is used in that module, every public
top-level function or class of ``qng``, and every public method of a public
top-level class, is used by ``qng`` itself, and ``qng`` has one float
tolerance.

No linter is part of the toolchain, so the checks walk the AST themselves: an
imported name counts as used when it appears as a name anywhere in the
module or in its ``__all__``; a top-level definition counts as used when its
name appears as a name or an attribute in ``src/qng`` outside the
definition, and a method when its name appears as an attribute there.
``qng/__init__.py`` only re-exports and is skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "qng").glob("*.py") if p.name != "__init__.py")
MODULES = sorted(SOURCES + list((ROOT / "tests").glob("*.py")))

#: Public definitions that ``qng`` itself does not call, each kept on purpose.
UNCALLED_ON_PURPOSE = {
    "partitions.equitable_quotient": "the Q-quotient of any equitable partition, exported for users and the "
                                     "tests' reference for ``graph.BlowUp`` quotients",
    "theorems.check_lemma27": "Lemma 2.7 of the paper, checked per (graph, non-edge) pair by the tests",
    "theorems.check_ng_generic": "the per-graph ``ng`` entry, which the benchmark's registry-n7 workload calls",
    "graph.Graph.without_edge": "the public graph API, the inverse of ``Graph.with_edge``",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: a", "line 3: z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is read in ``node``."""
    return Counter(ref.attr for ref in ast.walk(node) if isinstance(ref, ast.Attribute))


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """In sorted order: ``module.name`` of each public top-level def or class in ``sources``
    (module name to source) whose name no code of ``sources`` reads as a name or attribute
    outside that definition, and ``module.Class.name`` of each public method of a public
    top-level class whose name no code of ``sources`` reads as an attribute outside that method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    tops = [top for tree in trees.values() for top in tree.body]
    reads = {id(top): {ref.id if isinstance(ref, ast.Name) else ref.attr
                       for ref in ast.walk(top) if isinstance(ref, (ast.Name, ast.Attribute))} for top in tops}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
             if isinstance(node, (*functions, ast.ClassDef)) and node.name[0] != "_"
             and not any(node.name in reads[id(top)] for top in tops if top is not node)]
    attributes = sum(map(_attributes, tops), Counter())
    found += [f"{module}.{cls.name}.{node.name}" for module, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name[0] != "_" for node in cls.body
              if isinstance(node, functions) and node.name[0] != "_"
              and attributes[node.name] == _attributes(node)[node.name]]
    return sorted(found)


def test_uncalled_definitions_are_found():
    sources = {"a": "def f():\n    return f()\n\nclass C:\n    def m(self):\n        return self.m()\n\n"
                    "    def k(self):\n        pass\n\nclass _D:\n    def j(self):\n        pass\n\n"
                    "def _g():\n    pass\n",
               "b": "import a\n\ndef h():\n    m = a.C().k\n    return a.C, m\n"}
    assert uncalled_definitions(sources) == ["a.C.m", "a.f", "b.h"]


def test_every_public_definition_is_called_by_qng():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert sorted(uncalled_definitions(sources)) == sorted(UNCALLED_ON_PURPOSE)


def float_literals(source: str) -> list[str]:
    """Each nonzero float literal of ``source``: the name a module-level assignment gives it,
    else its line."""
    tree = ast.parse(source)
    named = {id(node.value): target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    return [named.get(id(node), f"line {node.lineno}") for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value]


def test_float_literals_are_found():
    source = "W = 1e-6\nZ = 0.0\n\ndef f(x):\n    return abs(x) < 2.5\n"
    assert float_literals(source) == ["W", "line 5"]


def test_one_float_tolerance():
    """Floats only screen, and ``polys.ESCALATION_WINDOW`` says how far a float must lie from a
    bound to decide it: no other nonzero float literal, such as a second tolerance, is in ``qng``,
    and the seed's scale, an int, is read off the window rather than written as a second one."""
    found = [f"{p.stem}.{name}" for p in SOURCES for name in float_literals(p.read_text())]
    assert found == ["polys.ESCALATION_WINDOW"]
    tree = ast.parse((ROOT / "src" / "qng" / "polys.py").read_text())
    [scale] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "SEED_SCALE" for t in node.targets)]
    assert "ESCALATION_WINDOW" in {node.id for node in ast.walk(scale) if isinstance(node, ast.Name)}
