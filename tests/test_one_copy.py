"""Each test helper is written once.

A top-level helper (a function or class, not a test or a fixture) defined in two test
modules is a second copy of one idea; a module-level name bound twice hides its first value.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds: a def, a class, an assignment's targets or an import."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def second_copies(sources: dict) -> tuple[dict, dict]:
    """Helpers defined in more than one module, and names bound more than once per module, from {module: source}."""
    owners, rebound = defaultdict(list), {}
    for module, source in sorted(sources.items()):
        body = ast.parse(source).body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith(("test_", "Test")):
                if not any(ast.unparse(d).startswith(("pytest.fixture", "fixture")) for d in node.decorator_list):
                    owners[node.name].append(module)
        counts = Counter(name for node in body for name in _bound_names(node))
        rebound.update({(module, name): n for name, n in counts.items() if n > 1})
    return {name: mods for name, mods in owners.items() if len(mods) > 1}, rebound


def test_scanner_finds_second_copies():
    first = "import pytest\n\n@pytest.fixture\ndef data(): pass\n\ndef helper(): pass\n\nX = 1\nX, Y = 2, 3\n"
    second = "def helper(): pass\n\ndef data(): pass\n\ndef test_x(): pass\n\nclass TestX: pass\n"
    assert second_copies({"a.py": first, "b.py": second}) == ({"helper": ["a.py", "b.py"]}, {("a.py", "X"): 2})


def test_no_helper_or_module_level_name_has_a_second_copy():
    tests = Path(__file__).resolve().parent
    assert second_copies({path.name: path.read_text() for path in tests.glob("*.py")}) == ({}, {})
