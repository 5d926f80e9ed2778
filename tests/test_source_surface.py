"""Every public module-level function and class of ``splap`` is read by ``splap``.

A definition that only tests call belongs in ``tests/oracles.py``.  A
name counts as read when some module of the package loads it by name or
as an attribute; importing it alone does not count.
"""

import ast
from pathlib import Path

import splap

SRC = Path(splap.__file__).resolve().parent

# public names that no module reads and that stay in the package
ALLOWED = {
    # the bias factor itself, which the acceptance gate test_bias_formula pins
    "analysis.bias",
    # the unsmoothed KKT residual, to be reported per cell by the run telemetry
    "psolver.kkt_residual",
}


def public_definitions_and_reads():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = {
        f"{module}.{node.name}": node.name
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_every_public_definition_is_read_by_the_package():
    defined, read = public_definitions_and_reads()
    unread = sorted(qualified for qualified, name in defined.items() if name not in read)
    assert [q for q in unread if q not in ALLOWED] == []
    # an allowance ends when its name is read or gone
    assert sorted(ALLOWED) == [q for q in unread if q in ALLOWED]
