"""The checkers and the bench harness read the system through its
public surface only.

A probe that reaches into ``obj._name`` pins an implementation detail:
the attribute can be renamed or replaced by a component without any
test of the component noticing, and the probe then checks nothing, or
crashes in a gate. Code under ``repro.check`` and ``repro.bench`` may
touch private names of its own objects (``self`` / ``cls``) and dunders,
nothing else.
"""

import ast
from pathlib import Path

import repro.bench
import repro.check

PACKAGES = (repro.check, repro.bench)


def private_reaches(source: str) -> list[tuple[int, str]]:
    """(line, ``expr._name``) for every private attribute access in
    ``source`` on anything but ``self`` or ``cls``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (
                name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_detector_sees_a_reach():
    src = "x = wal._next_lsn\ny = self._own\nz = type(a).__name__\n"
    assert private_reaches(src) == [(1, "wal._next_lsn")]


def test_check_and_bench_reach_no_private_attribute():
    reaches = []
    for package in PACKAGES:
        root = Path(package.__file__).parent
        for path in sorted(root.rglob("*.py")):
            for line, expr in private_reaches(path.read_text()):
                reaches.append(f"{path.relative_to(root.parent)}:{line}: {expr}")
    assert reaches == []
