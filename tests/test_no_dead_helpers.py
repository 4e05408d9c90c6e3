"""No dead helpers: every module-level function, class and constant of
the engine is referenced somewhere in src/ outside its own definition
or assignment.  Constants are the non-dunder names a module-level
assignment binds, and only reading one counts.  The one exception is
the emitters that `cli` picks by name, through
getattr(emit, kind + "_" + format)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sphere_calculus"


def _defined(top):
    """The names a top-level statement defines: a function or a class,
    or the non-dunder constants of an assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return (top.name,)
    if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = getattr(top, "targets", None) or (top.target,)
        return tuple(node.id for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)
                     and not node.id.startswith("__"))
    return ()


def _uses(tree):
    """(names the enclosing top-level statement defines, name) for every
    name the module reads, imports or reaches as an attribute."""
    for top in tree.body:
        owner = _defined(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.alias):
                yield owner, node.name.split(".")[-1]


def _getattr_prefixes(tree):
    """The constant prefixes of getattr(emit, "prefix" + ...) calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) == 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "emit"
                and isinstance(node.args[1], ast.BinOp)
                and isinstance(node.args[1].left, ast.Constant)):
            yield node.args[1].left.value


def unreferenced(sources):
    """Module-level functions, classes and constants of `sources`
    ({module: text}) that nothing else references, as "module.name"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    users = {}  # name -> {(module, names the enclosing statement defines)}
    for mod, tree in trees.items():
        for owner, name in _uses(tree):
            users.setdefault(name, set()).add((mod, owner))
    prefixes = tuple(p for tree in trees.values()
                     for p in _getattr_prefixes(tree))
    dead = []
    for mod, tree in trees.items():
        for top in tree.body:
            for name in _defined(top):
                if mod == "emit" and name.startswith(prefixes):
                    continue
                if all(m == mod and name in owner
                       for m, owner in users.get(name, ())):
                    dead.append("%s.%s" % (mod, name))
    return dead


def test_engine_has_no_dead_helpers():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced(sources) == []


def test_guard_finds_dead_and_self_recursive_helpers():
    sources = {
        "a": "LIMIT = 2\nSTALE = LIMIT + 1\nLOOP = lambda: LOOP()\n\n"
             "def used():\n    return 1\n\n"
             "def dead():\n    return dead()\n\n"
             "class Orphan:\n    def m(self):\n        return Orphan()\n",
        "b": "from .a import used\n\n__all__ = ['X']\nX = used()\n",
    }
    assert unreferenced(sources) == [
        "a.STALE", "a.LOOP", "a.dead", "a.Orphan", "b.X"]
