"""Every name a library module imports is used in that module, so a
deletion cannot leave a dead import behind.  `__init__.py` re-exports by
import and `from __future__` imports bind nothing, so both are exempt.
Every private module-level function or class is named somewhere else in
`src/`, so a change cannot leave a dead helper behind.  No function imports
from a sibling module that its module already imports from at top level,
so an import kept inside a function is one that closes a cycle.  Every
public module-level name, and every method of a `src/` class other than a
dunder, is named in `src/`, `scripts/` or `perfbench/`, or is on the
explicit `API` list of names that only tests and library users reach."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "locallemma"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that nothing else reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom a import b, c\n"
              "def f():\n    from d import e\n    return b(), os.sep\n")
    assert unused_imports(source) == ["j", "c", "e"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def names(tree) -> Counter:
    """How often each name, attribute or imported name occurs in `tree`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def unused_private_defs(sources: dict) -> list:
    """(module, name) of each undecorated module-level `_private` function
    or class that no source names outside its own definition.  A decorator
    such as `@register_predicate` is a use."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not node.decorator_list
                    and named[node.name] == names(node)[node.name]):
                unused.append((module, node.name))
    return unused


def test_private_checker_flags_only_unnamed_definitions():
    sources = {
        "a.py": ("def _used(): pass\ndef _recursive(n):\n    return _recursive(n - 1)\n"
                 "@wrap\ndef _registered(): pass\nclass _Orphan: pass\n"
                 "def _imported(): pass\ndef _by_attribute(): pass\n"
                 "def public(): return _used()\n"),
        "b.py": "from .a import _imported\nfrom . import a\nx = a._by_attribute\n",
    }
    assert unused_private_defs(sources) == [("a.py", "_recursive"), ("a.py", "_Orphan")]


def test_every_private_definition_is_named_in_src():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_defs(sources) == []


def redundant_local_imports(source: str) -> list:
    """(line, module) of each `from .x import ...` inside a function body
    of a module that already imports from `.x` at top level."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level == 1}
    return sorted({(node.lineno, node.module)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module in top})


def test_local_import_checker_flags_only_repeated_modules():
    source = ("from .a import b\nfrom os import path\n"
              "def f():\n    from .a import c\n    from .d import e\n"
              "    from os import sep\n"
              "    def g():\n        from .a import h\n    return b, c, e, g, h, sep\n"
              "class K:\n    def m(self):\n        from .a import i\n        return i\n")
    assert redundant_local_imports(source) == [(4, "a"), (8, "a"), (12, "a")]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_import_of_a_top_level_module(module):
    assert redundant_local_imports((SRC / module).read_text()) == []


def top_level_names(tree):
    """(name, defining node) for each module-level function, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def methods(tree):
    """("Class.method", name, defining node) for each method of each
    module-level class, dunders aside."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    yield f"{cls.name}.{node.name}", node.name, node


def unreferenced_public_names(sources: dict, users: list) -> list:
    """(module, name) of each public module-level name in `sources`, and
    (module, "Class.method") of each method of a class in `sources`, that
    no source names outside its own definition and no text in `users`
    names.  Any name or attribute spelled the same counts as a use, so the
    check can miss a dead name but does not flag one that is read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((names(tree) for tree in trees.values()), Counter())
    named += sum((names(ast.parse(text)) for text in users), Counter())
    public = [(module, name) for module, tree in trees.items()
              for name, node in top_level_names(tree)
              if not name.startswith("_") and named[name] == names(node)[name]]
    return public + [(module, qualified) for module, tree in trees.items()
                     for qualified, name, node in methods(tree)
                     if named[name] == names(node)[name]]


def test_public_checker_flags_only_unnamed_definitions():
    sources = {
        "a.py": ("LIMIT = 3\nTAG: int = 1\nPLANTED = 0\n"
                 "def used(): return LIMIT\ndef recursive(n):\n    return recursive(n - 1)\n"
                 "class Planted: pass\ndef _private(): pass\n"),
        "b.py": "from .a import used\n",
    }
    users = ["import a\nprint(a.TAG)\n"]
    assert unreferenced_public_names(sources, users) == [
        ("a.py", "PLANTED"), ("a.py", "recursive"), ("a.py", "Planted")]


def test_public_checker_flags_only_unnamed_methods():
    sources = {
        "a.py": ("class Shape:\n"
                 "    def __init__(self): self.area()\n"
                 "    def area(self): return 1\n"
                 "    @property\n    def side(self): return 2\n"
                 "    @classmethod\n    def unit(cls): return cls()\n"
                 "    def grow(self, n):\n        return self.grow(n - 1)\n"
                 "    def _hidden(self): pass\n"
                 "    def read_by_user(self): pass\n"
                 "class _Private:\n    def orphan(self): pass\n"
                 "def make(): return Shape.unit()\n"),
        "b.py": "from .a import make\nprint(make().side)\n",
    }
    users = ["import a\nprint(a.Shape().read_by_user())\n"]
    assert unreferenced_public_names(sources, users) == [
        ("a.py", "Shape.grow"), ("a.py", "Shape._hidden"), ("a.py", "_Private.orphan")]


# Public names that only tests and library users reach.  `__init__.py`
# re-exports by import, so it is not counted as a use.
API = {
    # README documents hex forms and reading them back with `from_hex`
    ("canonical.py", "CanonicalForm.from_hex"),
    ("compilers.py", "bootstrap"),
    ("engine.py", "branch_trace"),
    ("engine.py", "check_partial_solution"),
    # the vertices whose degree the gadget's correctness proof pins at d - 1
    ("generators.py", "GadgetLayout.v_ids"),
    ("generators.py", "lift_coloring"),
    ("graphcsp.py", "decode_graph_csp"),
    ("graphs.py", "power_graph"),
    ("randgen.py", "random_binary_lowp_csp"),
    ("randgen.py", "random_small_csp"),
    ("serialize.py", "csp_to_json"),
    ("serialize.py", "weights_to_json"),
}


def test_every_public_name_is_used_or_listed_as_api():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    users = [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    assert sorted(unreferenced_public_names(sources, users)) == sorted(API)
