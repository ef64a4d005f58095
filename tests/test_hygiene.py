"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "haarlab").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(name bound, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _referenced(tree):
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                names.add(base.id)
        annotation = getattr(node, "annotation", None) or \
            getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            names |= _referenced(ast.parse(annotation.value, mode="eval"))
    return names


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":  # imports there are re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _referenced(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree) if name not in used]
    assert unused == []
