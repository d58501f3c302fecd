"""The public surface of oil holds only what something reaches.

A function that oil exports stays only if a subcommand, an acceptance
criterion or a benchmark workload names it outside its own module and
outside its import statements, or if it states a paper object or
identity, listed in KEEP with that identity.
"""

import ast
import inspect
import re
from pathlib import Path

import oil

ROOT = Path(__file__).resolve().parents[1]
READERS = [
    *(ROOT / "src" / "oil").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
]
KEEP = {
    "symbol_conjugate": "the adjoint symbol: T_conj(a) = (T_a)^*",
}


def exported_functions():
    return {name: obj for name, obj in vars(oil).items() if inspect.isfunction(obj)}


def test_keep_table_names_exported_functions():
    assert set(KEEP) <= set(exported_functions())


def without_imports(path: Path) -> str:
    """The text of path with its import statements dropped, so that an import alone reaches nothing."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_exported_function_is_reached():
    texts = {f.resolve(): without_imports(f) for f in READERS}
    unreached = []
    for name, obj in exported_functions().items():
        skip = {Path(inspect.getsourcefile(obj)).resolve(), Path(oil.__file__).resolve()}
        named = re.compile(rf"\b{name}\b")
        if not any(named.search(text) for f, text in texts.items() if f not in skip):
            unreached.append(name)
    assert sorted(set(unreached) - set(KEEP)) == []
