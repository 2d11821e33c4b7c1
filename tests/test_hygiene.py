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
the bootstrap route that no command runs.  Every defaulted parameter of a
`src/` function is passed at some call in `src/`, `scripts/` or
`perfbench/`, and every attribute a `src/` class defines is read there,
unless it is listed (`UNPASSED`, `UNREAD`) or belongs to
`AMPLIFIED_ROUTE`: the library keeps no knob and no field that only tests
use."""

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


def program_sources():
    """(the library's modules but `__init__.py`, by file name; the texts of
    `scripts/` and `perfbench/`)."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    users = [p.read_text() for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    return sources, users


def test_every_public_name_is_used_or_listed_as_api():
    """The roots are every name `scripts/` or `perfbench/` spells and the
    `[project.scripts]` entry points (`cli.main`)."""
    sources, users = program_sources()
    roots = set().union(*(names(ast.parse(text)) for text in users))
    roots.update(re.findall(r'= "locallemma\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    assert sorted(unreachable_public_names(sources, roots)) == sorted(API | AMPLIFIED_ROUTE)


def scoped_definitions(tree, path=()):
    """(enclosing definitions, node) for each function and class in `tree`,
    however deeply nested."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield path, node
            yield from scoped_definitions(node, path + (node,))
        else:
            yield from scoped_definitions(node, path)


def spelled(call: ast.Call):
    """The name a call spells its callee by, or None."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaulted_parameters(trees: dict):
    """(module, qualified name, parameter, the spellings that call it, its
    position among the arguments a call passes by position or None) for
    each parameter with a default of each function and method in `trees`.
    A method's receiver takes no position; a class's call, or a subclass's,
    calls its `__init__`."""
    subclasses = {}   # class name -> the names of it and its subclasses
    for tree in trees.values():
        for _, node in scoped_definitions(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    name = getattr(base, "id", getattr(base, "attr", None))
                    subclasses.setdefault(name, set()).add(node.name)
    for module, tree in trees.items():
        for path, node in scoped_definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            owner = path[-1] if path and isinstance(path[-1], ast.ClassDef) else None
            spellings = {node.name}
            if owner is not None and node.name == "__init__":
                pending = [owner.name]
                while pending:
                    name = pending.pop()
                    if name not in spellings:
                        spellings.add(name)
                        pending += subclasses.get(name, ())
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            receiver = owner is not None and not static
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            label = ".".join(n.name for n in path + (node,))
            for i, arg in enumerate(positional[first_default:], first_default):
                yield module, label, arg.arg, spellings, i - receiver
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield module, label, arg.arg, spellings, None


def unpassed_parameters(sources: dict, users=()) -> list:
    """(module, qualified name, parameter) of each parameter with a default
    of a function or method in `sources` that no call in `sources` or
    `users` passes: by keyword, by position, or through `*` or `**`.  A
    call matches every definition of the name it spells, so the check can
    miss a parameter that is never passed; a call whose callee is neither a
    name nor an attribute (`table[k](x)`, `make()(x)`) spells none and
    matches nothing."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = {}   # spelling -> [(positions before a `*`, `*` passed, keywords, `**` passed)]
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := spelled(node)):
                stars = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                calls.setdefault(name, []).append(
                    (stars[0] if stars else len(node.args), bool(stars),
                     {k.arg for k in node.keywords}, None in {k.arg for k in node.keywords}))
    return [(module, label, param)
            for module, label, param, spellings, position in defaulted_parameters(trees)
            if not any((position is not None and (position < count or star))
                       or param in keywords or double_star
                       for name in spellings for count, star, keywords, double_star
                       in calls.get(name, ()))]


def test_parameter_checker_flags_only_parameters_no_call_passes():
    sources = {
        "a.py": ("def f(x, by_keyword=1, by_position=2, never=3, *, only_keyword=4,\n"
                 "      unpassed_keyword=5): pass\n"
                 "def g(a, through_star=1, through_double_star=2): pass\n"
                 "class Base:\n"
                 "    def __init__(self, by_subclass=0, never=1): pass\n"
                 "    def method(self, by_position=0, never=1): pass\n"
                 "    @staticmethod\n    def static(by_position=0, never=1): pass\n"
                 "class Child(Base): pass\n"
                 "def outer():\n    def inner(x=0): pass\n    return inner\n"),
        "b.py": ("from .a import f, g, Child\n"
                 "f(0, by_keyword=1, only_keyword=2)\nf(0, 1, 2)\n"
                 "g(*[0, 1])\ng(0, **{})\nChild(0)\n"
                 "Child().method(0)\nChild.static(0)\n"),
    }
    assert unpassed_parameters(sources) == [
        ("a.py", "f", "never"), ("a.py", "f", "unpassed_keyword"),
        ("a.py", "Base.__init__", "never"), ("a.py", "Base.method", "never"),
        ("a.py", "Base.static", "never"), ("a.py", "outer.inner", "x")]
    # a call is matched by the name it spells, here `inner`
    users = ["from a import outer\ninner = outer()\ninner(x=1)\n"]
    assert unpassed_parameters(sources, users) == [
        ("a.py", "f", "never"), ("a.py", "f", "unpassed_keyword"),
        ("a.py", "Base.__init__", "never"), ("a.py", "Base.method", "never"),
        ("a.py", "Base.static", "never")]


# Defaulted parameters that no call in the program passes, each kept by
# decision.  The functions of `AMPLIFIED_ROUTE` are exempt as a whole.
UNPASSED = {
    # the entry point: `python -m locallemma.cli` reads sys.argv, tests pass lists
    ("cli.py", "main", "argv"),
}


def test_every_defaulted_parameter_is_passed_or_listed():
    found = unpassed_parameters(*program_sources())
    assert sorted(entry for entry in found
                  if (entry[0], entry[1]) not in AMPLIFIED_ROUTE) == sorted(UNPASSED)


def defined_attributes(tree):
    """("Class.attribute", attribute) for each attribute a class in `tree`
    defines: an annotated name in its body (a dataclass field), a
    `__slots__` entry, a store through its methods' first parameter
    (`self.x = ...`), and a property."""
    for _, cls in scoped_definitions(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        found = []
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.append(node.target.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                      for t in node.targets):
                found += [c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(getattr(d, "id", None) in ("property", "cached_property")
                       for d in node.decorator_list):
                    found.append(node.name)
                if node.args.args:
                    receiver = node.args.args[0].arg
                    found += [a.attr for a in ast.walk(node)
                              if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                              and getattr(a.value, "id", None) == receiver]
        yield from ((f"{cls.name}.{name}", name) for name in dict.fromkeys(found))


def unread_attributes(sources: dict, users=()) -> list:
    """(module, "Class.attribute") of each attribute a class in `sources`
    defines that no source in `sources` or `users` reads as an attribute
    (`x.name` in a load, or the target of an augmented assignment).  A read
    matches every attribute of that name, so the check can miss an unread
    attribute but does not flag a read one."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in [*trees.values(), *map(ast.parse, users)]
             for node in ast.walk(tree)]
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    read.update(node.target.attr for node in nodes
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute))
    return [(module, label) for module, tree in trees.items()
            for label, name in defined_attributes(tree) if name not in read]


def test_attribute_checker_flags_only_unread_attributes():
    sources = {
        "a.py": ("from dataclasses import dataclass\n"
                 "@dataclass\nclass Record:\n    read: int\n    unread: int = 0\n"
                 "class Slotted:\n    __slots__ = ('kept', 'dropped')\n"
                 "class Stored:\n"
                 "    def __init__(self):\n"
                 "        self.count, self.total = 0, 0\n        self.orphan = 1\n"
                 "    def bump(this):\n        this.count += 1\n        this.later = 2\n"
                 "    @property\n    def shown(self): return self.total\n"
                 "    @property\n    def hidden(self): return 0\n"),
        "b.py": "from .a import Record\nprint(Record(1).read)\n",
    }
    assert unread_attributes(sources, ["def f(s): return s.kept, s.shown\n"]) == [
        ("a.py", "Record.unread"), ("a.py", "Slotted.dropped"), ("a.py", "Stored.orphan"),
        ("a.py", "Stored.later"), ("a.py", "Stored.hidden")]


# Attributes that nothing in the program reads, each kept by decision.  The
# attributes of the classes in `AMPLIFIED_ROUTE` are exempt as a whole.
UNREAD = {
    # the replay record of a level walk, which the tests' oracles read
    # (ROADMAP item 3 writes it with `csp solve --trace`)
    ("engine.py", "PartialSolutionTrace.classes"),
    ("engine.py", "PartialSolutionTrace.chosen"),
    ("engine.py", "PartialSolutionTrace.phi"),
    ("engine.py", "PartialSolutionTrace.covered_weight"),
    # a cap-out carries its cap and its need (errors.py)
    ("errors.py", "CanonicalizationCapError.size"),
    ("errors.py", "EnumerationCapError.cap_bits"),
    ("errors.py", "CoverBudgetError.n_levels"),
}


def test_every_attribute_is_read_or_listed():
    found = unread_attributes(*program_sources())
    assert sorted(entry for entry in found
                  if (entry[0], entry[1].split(".")[0]) not in AMPLIFIED_ROUTE) == sorted(UNREAD)
