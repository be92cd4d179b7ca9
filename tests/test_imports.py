"""Every imported name is read somewhere in its module.

No linter runs here or in CI, so this scans the library, the tests and the
scripts with ``ast``.  The package ``__init__`` is skipped: it imports names
to re-export them.
"""

from __future__ import annotations

import ast

from helpers import ROOT

SOURCES = sorted(
    [p for p in (ROOT / "src" / "reglog").glob("*.py") if p.name != "__init__.py"]
    + [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each imported name that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport os.path as p\nfrom sys import argv, exit\nexit(p)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: argv"]


def test_every_imported_name_is_used():
    assert SOURCES
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
