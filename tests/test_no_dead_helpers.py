"""No dead helpers: every module-level function, class and constant of
the engine, and every non-dunder member of its classes, is referenced
somewhere in src/ outside its own definition or assignment.  Constants
are the non-dunder names a module-level assignment binds, and only
reading one counts.  A member counts as used when its name is read or
reached as an attribute anywhere outside its own definition, whatever
the object.  The one exception is the emitters that `cli` picks by
name, through getattr(emit, kind + "_" + format)."""

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


def _parts(top):
    """(owner, nodes) pairs that cover a top-level statement: a class
    splits into its header and its body statements, and a member's owner
    is its class's name followed by the names the member defines."""
    if not isinstance(top, ast.ClassDef):
        return [(_defined(top), [top])]
    header = top.bases + top.keywords + top.decorator_list
    return [((top.name,), header)] + [
        ((top.name,) + _defined(stmt), [stmt]) for stmt in top.body]


def _definitions(top):
    """The names a top-level statement defines, and for a class its
    non-dunder members, as "name" or "Class.member"."""
    names = list(_defined(top))
    if isinstance(top, ast.ClassDef):
        names += ["%s.%s" % (top.name, member) for stmt in top.body
                  for member in _defined(stmt) if not member.startswith("__")]
    return names


def _uses(tree):
    """(names the enclosing part of a top-level statement defines, name)
    for every name the module reads, imports or reaches as an attribute."""
    for top in tree.body:
        for owner, roots in _parts(top):
            for node in (node for root in roots for node in ast.walk(root)):
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
    ({module: text}), and members of those classes, that nothing else
    references, as "module.name" or "module.Class.member".  A dead class
    is listed without its members."""
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
            for qualified in _definitions(top):
                cls, _, name = qualified.rpartition(".")
                if mod == "emit" and name.startswith(prefixes):
                    continue
                if "%s.%s" % (mod, cls) in dead:
                    continue  # a dead class's members go with it
                if all(m == mod and name in owner
                       for m, owner in users.get(name, ())):
                    dead.append("%s.%s" % (mod, qualified))
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


def test_guard_finds_dead_and_self_recursive_class_members():
    sources = {
        "a": "class Kept:\n    __slots__ = ('v',)\n    LIMIT = 3\n"
             "    STALE = 4\n    view = property(lambda k: k.v)\n\n"
             "    def __init__(self, v):\n        self.v = Kept.LIMIT\n\n"
             "    def used(self):\n        return self.view\n\n"
             "    def dead(self):\n        return 0\n\n"
             "    def loop(self):\n        return self.loop()\n\n"
             "    @staticmethod\n    def make():\n        return Kept(1)\n",
        "b": "from .a import Kept\n\nUSE = Kept.make().used()\nprint(USE)\n",
    }
    assert unreferenced(sources) == [
        "a.Kept.STALE", "a.Kept.dead", "a.Kept.loop"]
