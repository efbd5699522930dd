"""The package needs only the standard library: every import in every module
under src/seshadri names a standard-library module or the package itself.
sympy is installed for the test oracles, so an accidental import of it in the
package would otherwise go unnoticed."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seshadri"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    allowed = set(sys.stdlib_module_names) | {"seshadri"}
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    ]
    assert foreign == []


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom . import jets\n\ndef f():\n    import sympy\n")
    roots = [root for _, root in _imported_roots(tree)]
    assert roots == ["os", "sympy"]
    assert "sympy" not in sys.stdlib_module_names
