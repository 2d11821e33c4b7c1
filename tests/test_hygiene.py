"""Every name a library module imports is used in that module, so a
deletion cannot leave a dead import behind.  `__init__.py` re-exports by
import and `from __future__` imports bind nothing, so both are exempt.
Every private module-level function or class is named somewhere else in
`src/`, so a change cannot leave a dead helper behind.  No function imports
from a sibling module that its module already imports from at top level,
so an import kept inside a function is one that closes a cycle.  Every
public module-level name, and every method of a `src/` class other than a
dunder, is reached by a chain of references from what `scripts/` and
`perfbench/` name, the library's import-time code and the command-line
entry point, or is on one of two explicit lists: `API`, names that only
tests and library users reach, kept by decision, and `AMPLIFIED_ROUTE`,
the bootstrap route that no command runs."""

import ast
import re
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


def definitions(tree):
    """(label, name, the names its definition spells) for each module-level
    name and each method other than a dunder.  A class spells its bases,
    decorators, fields and dunders; an assigned name spells nothing, since
    its value is import-time code."""
    for name, node in top_level_names(tree):
        if isinstance(node, ast.FunctionDef):
            yield name, name, names(node)
        elif isinstance(node, ast.ClassDef):
            own = [(q, m, names(n)) for q, m, n in methods(ast.Module([node], []))]
            yield name, name, names(node) - sum((spells for *_, spells in own), Counter())
            yield from own
        else:
            yield name, name, Counter()


def import_time_names(tree) -> Counter:
    """The names a module's import-time code spells: every statement
    outside function and class bodies, and the decorators of module-level
    definitions, but no import and no name an assignment binds."""
    out = Counter()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out += sum((names(d) for d in node.decorator_list), Counter())
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = Counter(name for name, _ in top_level_names(ast.Module([node], [])))
            out += names(node) - bound
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            out += names(node)
    return out


def unreachable_public_names(sources: dict, roots) -> list:
    """(module, name) of each public module-level name in `sources`, and
    (module, "Class.method") of each method of a class in `sources` other
    than a dunder, that no chain of references reaches from the spellings
    in `roots` and the sources' import-time code.  A reached definition
    reaches every definition spelled like a name or attribute it spells,
    so the check can miss a dead name but does not flag one that is read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    spelled = set(roots).union(*map(import_time_names, trees.values()))
    pending = [(module, label, name, spells) for module, tree in trees.items()
               for label, name, spells in definitions(tree)]
    while True:
        reached = [spells for _, _, name, spells in pending if name in spelled]
        if not reached:
            break
        pending = [entry for entry in pending if entry[2] not in spelled]
        spelled.update(*reached)
    return [(module, label) for module, label, name, _ in pending
            if "." in label or not name.startswith("_")]


def test_public_checker_flags_only_unnamed_definitions():
    sources = {
        "a.py": ("LIMIT = 3\nTAG: int = 1\nPLANTED = 0\n"
                 "def used(): return LIMIT\ndef recursive(n):\n    return recursive(n - 1)\n"
                 "class Planted: pass\ndef _private(): pass\n"),
        "b.py": "from .a import used\nused()\n",
    }
    roots = names(ast.parse("import a\nprint(a.TAG)\n"))
    assert unreachable_public_names(sources, roots) == [
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
    roots = names(ast.parse("import a\nprint(a.Shape().read_by_user())\n"))
    assert unreachable_public_names(sources, roots) == [
        ("a.py", "Shape.grow"), ("a.py", "Shape._hidden"), ("a.py", "_Private.orphan")]


def test_public_checker_follows_references_from_the_roots_only():
    """A name that only an unreached name spells is flagged with it, however
    it is spelled.  Import-time code, decorators, the `__main__` line and
    the given roots reach; a decorator reaches itself, not what it
    decorates, and an import binds without reaching."""
    sources = {
        "a.py": ("from .b import imported\n"
                 "def documented(): return _private()\n"
                 "def _private(): return Deep.method\n"
                 "class Deep:\n    def method(self): return LIMIT\n"
                 "LIMIT = 3\n"
                 "def entry(): return _helper()\n"
                 "def _helper(): return Base\n"
                 "class Base: pass\n"
                 "@register\ndef hooked(): pass\n"
                 "def register(f): return f\n"
                 "TABLE = {1: table_row}\n"
                 "def table_row(): pass\n"
                 "if __name__ == '__main__':\n    entry()\n"),
        "b.py": "def imported(): pass\ndef main(): pass\n",
    }
    assert unreachable_public_names(sources, {"main"}) == [
        ("a.py", "documented"), ("a.py", "Deep"), ("a.py", "Deep.method"),
        ("a.py", "LIMIT"), ("a.py", "hooked"), ("a.py", "TABLE"), ("b.py", "imported")]


# Public names that only tests and library users reach, each kept by
# decision.  `__init__.py` re-exports by import, so it reaches nothing.
API = {
    # README documents hex forms and reading them back with `from_hex`
    ("canonical.py", "CanonicalForm.from_hex"),
    # README documents its refusal of a predicate body it cannot write
    ("serialize.py", "csp_to_json"),
    # the writer of the `--weights` format, kept beside its reader
    ("serialize.py", "weights_to_json"),
}

# The amplified route (ROADMAP item 10): `bootstrap`, the names that only it
# reaches, and `decode_graph_csp`, the graph encoding's inverse that only
# tests call.  No command runs the route; it stays in `src/` because
# `perfbench/spans.TRACED` looks up `compilers.bootstrap` by name.
AMPLIFIED_ROUTE = {
    ("compilers.py", "bootstrap"),
    ("compilers.py", "BootstrapResult"),
    ("compilers.py", "DEFAULT_GRID"),
    ("compilers.py", "max_ball_size"),
    ("graphcsp.py", "encode_graph_csp"),
    ("graphcsp.py", "decode_graph_csp"),
    ("graphcsp.py", "csp_to_lcl"),
    ("graphcsp.py", "parallel_resample"),
    ("graphcsp.py", "encoded_constraints"),
    ("graphcsp.py", "layer_value_global"),
    ("graphcsp.py", "ENTRY_BUDGET"),
    ("graphs.py", "base_structure"),
    ("graphs.py", "layer_value"),
    ("graphs.py", "TAG_RANGE"),
    ("graphs.py", "StructuredGraph.adjacent"),
    ("connect.py", "Connection.width"),
    ("csp.py", "Constraint.materialize"),
    ("errors.py", "BootstrapInfeasibleError"),
    ("errors.py", "EncodingBudgetError"),
}


def test_every_public_name_is_used_or_listed_as_api():
    """The roots are every name `scripts/` or `perfbench/` spells and the
    `[project.scripts]` entry points (`cli.main`)."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    users = [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    roots = set().union(*(names(ast.parse(text)) for text in users))
    roots.update(re.findall(r'= "locallemma\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    assert sorted(unreachable_public_names(sources, roots)) == sorted(API | AMPLIFIED_ROUTE)
