"""No dead code in src: every top-level function, class and constant of
`src/vqebench` is loaded somewhere in `src` or in a `perfbench/*.py` script.

A use is a load of the name (`name` or `something.name`), or an import of
it whose binding is then loaded.  The strings of `__all__` and `_EXPORTS`
are not uses: a name that is only exported has no production caller, and
belongs in `tests/oracles.py` or needs a caller.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Entry points the README documents that no code inside the package calls.
ALLOWED = {
    ("harness/config.py", "toy_problem_paths"),
    ("harness/records.py", "write_records"),
}


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
    package = ROOT / "src" / "vqebench"
    files = sorted(package.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = set().union(*(_uses(tree) for tree in trees.values()))
    return {
        (path.relative_to(package).as_posix(), name)
        for path in files
        if package in path.parents
        for name in _definitions(trees[path])
        if not name.startswith("__") and name not in used
    }


def test_every_top_level_name_in_src_has_a_caller():
    unused = _unused()
    assert sorted(unused - ALLOWED) == []
    assert sorted(ALLOWED - unused) == [], "an allowed entry point gained a caller or was removed"
