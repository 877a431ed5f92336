"""No library code that only tests use: every name the package exports,
and every module-level function and class of the package, private ones
too, is used by the package itself, by `scripts/` or by `perfbench/`.  A
function that only tests call belongs in `tests/`."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "extatica"
INIT = PACKAGE / "__init__.py"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p != INIT] + [
    p for folder in ("scripts", "perfbench")
    for p in sorted((ROOT / folder).glob("*.py"))]


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


def _names(tree) -> Counter:
    """The names read in `tree`, as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_export_is_used_outside_tests():
    sources = [p.read_text() for p in SOURCES]
    unused = [name for name in _exported()
              if sum(_uses(name, text) for text in sources) <= 0]
    assert unused == []


def test_every_module_level_definition_is_used_outside_tests():
    # a use is a name or attribute read outside the definition itself, so
    # recursion does not count; names alike in two modules count together
    used = Counter()
    definitions = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        used += _names(tree)
        if path.parent == PACKAGE:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    definitions.append((path.name, node))
    assert definitions
    unused = [f"{module}:{node.name}" for module, node in definitions
              if used[node.name] <= _names(node)[node.name]]
    assert unused == []
