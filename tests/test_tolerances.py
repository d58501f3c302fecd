"""Every tolerance of oil has one owner, the table hardy.TOLERANCES.

A float literal in (0, 1e-6) reads as a tolerance or a rounding slack.
Outside the table, and the RANK_CUTOFF that perfbench imports by name, it
would be a second place that states a threshold.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oil"
OWNERS = {"TOLERANCES", "RANK_CUTOFF"}


def stray_tolerances(source: str, name: str) -> list[str]:
    """file:line of each float literal with 0 < |x| < 1e-6 outside an assignment to OWNERS."""
    tree = ast.parse(source)
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in OWNERS for t in node.targets):
            owned.update(id(n) for n in ast.walk(node.value))
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6
        and id(node) not in owned
    ]


def test_scanner_finds_a_literal_outside_the_table():
    source = 'TOLERANCES = {"a": 1e-12}\nRANK_CUTOFF = 1e-10\nslack = 1e-6\n\n\ndef f(x):\n    return x < 1e-14\n'
    assert stray_tolerances(source, "m.py") == ["m.py:7"]


def test_no_tolerance_outside_the_table():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in stray_tolerances(path.read_text(), path.name)]
    assert hits == []
