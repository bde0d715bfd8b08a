"""No dead code in src: every top-level function, class and constant of
`src/vqebench`, and every field and property of its classes, is read
somewhere in `src` or in a `perfbench/*.py` script.

A use of a top-level name is a load of the name (`name` or
`something.name`), or an import of it whose binding is then loaded.  The
strings of `__all__` and of the export maps are not uses: a name that is
only exported has no production caller, and belongs in `tests/oracles.py`
or needs a caller.

A read of a field (an annotated name in a class body) or of a property is
an attribute load of its name, or a `getattr` with its name as a constant.
Names are matched without types, so a read of `x.n` counts for every field
named `n`: an unread field that shares its name with a read one goes
unflagged (a property `e_sa` on any class would pass on the reads of
`RunRecord.e_sa`).  The rule finds names nothing reads, not every unread
field.  Loads in the field's own class's `__post_init__` do not count:
a check of a field that nothing else reads keeps nothing alive.  A class
named in a `fields(...)` call in `src` is read whole.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vqebench"

#: Entry points the README documents that no code inside the package calls.
ALLOWED = {
    ("harness/config.py", "toy_problem_paths"),
    ("harness/records.py", "write_records"),
}

#: Fields no code in src reads, each kept for a stated reason.
ALLOWED_FIELDS = {
    # the raw post-hoc p-values, before the Benjamini-Hochberg adjustment:
    # tests pin them, and stopping a permutation test once its p-value is
    # settled needs them
    ("stats/types.py", "PairwiseMatrix.p_raw"),
}


def _trees():
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _in_package(trees):
    for path, tree in trees.items():
        if PACKAGE in path.parents:
            yield path.relative_to(PACKAGE).as_posix(), tree


def _uses(tree) -> set[str]:
    loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used = loads | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names if (alias.asname or alias.name) in loads}
    return used


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _unused():
    trees = _trees()
    used = set().union(*(_uses(tree) for tree in trees.values()))
    return {
        (module, name)
        for module, tree in _in_package(trees)
        for name in _definitions(tree)
        if not name.startswith("__") and name not in used
    }


def _is_property(node) -> bool:
    names = {getattr(d, "id", None) or getattr(d, "attr", None) for d in node.decorator_list}
    return bool(names & {"property", "cached_property"})


def _fields(tree):
    """(class, name) for every annotated field and property of a class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id
            elif isinstance(node, ast.FunctionDef) and _is_property(node):
                yield cls.name, node.name


def _reads(node, post_init_of=None):
    """(name, class) for every attribute read below node; class names the
    class whose `__post_init__` holds the read, and is None elsewhere."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, post_init_of
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
    ):
        yield node.args[1].value, post_init_of
    for child in ast.iter_child_nodes(node):
        if isinstance(node, ast.ClassDef) and getattr(child, "name", None) == "__post_init__":
            yield from _reads(child, node.name)
        else:
            yield from _reads(child, post_init_of)


def _read_whole(tree) -> set[str]:
    """The classes named in a `fields(...)` call."""
    return {
        node.args[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "fields"
        and node.args
        and isinstance(node.args[0], ast.Name)
    }


def _unread_fields():
    trees = _trees()
    readers = defaultdict(set)  # name -> the classes whose __post_init__ reads it, None outside
    for tree in trees.values():
        for name, post_init_of in _reads(tree):
            readers[name].add(post_init_of)
    whole = set().union(*(_read_whole(tree) for _, tree in _in_package(trees)))
    return {
        (module, f"{cls}.{name}")
        for module, tree in _in_package(trees)
        for cls, name in _fields(tree)
        if cls not in whole and not readers[name] - {cls}
    }


def test_every_top_level_name_in_src_has_a_caller():
    unused = _unused()
    assert sorted(unused - ALLOWED) == []
    assert sorted(ALLOWED - unused) == [], "an allowed entry point gained a caller or was removed"


def test_every_field_in_src_has_a_reader():
    unread = _unread_fields()
    assert sorted(unread - ALLOWED_FIELDS) == []
    assert sorted(ALLOWED_FIELDS - unread) == [], "an allowed field gained a reader or was removed"
