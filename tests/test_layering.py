"""Cross-module private imports inside the package are pinned.

A module that imports another module's ``_name`` couples to a detail that
module may change freely. The set below is what the package needs today; a
new entry fails this test until it is added here on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinchain"

# (importing module, source module, private name)
ALLOWED = {
    ("analogue", "spectra", "_pinched_offsets"),
    ("cli", "chain", "_bands"),
    ("cli", "spectra", "_pinched_fit"),
}


def private_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.name
                    if name.startswith("_") and not name.startswith("__"):
                        found.add((path.stem, node.module or "", name))
    return found


def test_private_imports_pinned():
    assert private_imports() == ALLOWED
