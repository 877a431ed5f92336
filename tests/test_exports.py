"""Every name the package exports is used by the package itself, by
`scripts/` or by `perfbench/`: a function that only tests call belongs in
`tests/`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "extatica"
INIT = PACKAGE / "__init__.py"


def _exported() -> list:
    """The names `extatica/__init__.py` imports from its modules."""
    return [alias.asname or alias.name
            for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _uses(name: str, text: str) -> int:
    """Occurrences of `name` in `text` other than its definitions."""
    word = re.escape(name)
    found = len(re.findall(rf"\b{word}\b", text))
    defined = len(re.findall(
        rf"^\s*(?:def|class)\s+{word}\b|^{word}\s*=", text, re.M))
    return found - defined


def test_every_export_is_used_outside_tests():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p != INIT]
    sources += [p.read_text() for folder in ("scripts", "perfbench")
                for p in sorted((ROOT / folder).glob("*.py"))]
    unused = [name for name in _exported()
              if sum(_uses(name, text) for text in sources) <= 0]
    assert unused == []
