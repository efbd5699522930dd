"""The package needs only the standard library: every import in every module
under src/seshadri names a standard-library module or the package itself.
sympy is installed for the test oracles, so an accidental import of it in the
package would otherwise go unnoticed.  The same walk also finds names that a
module imports and never uses."""

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


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read as a
    name or as the root of an attribute chain.  With `from __future__ import
    annotations` the annotations are still ast nodes, so a name used only in
    an annotation counts as used."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_package_modules_use_every_name_they_import():
    # An __init__ module imports names to re-export them.
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport re\nfrom typing import List, Union\n"
        "from .linalg import rank as r\n\n"
        "def f(x: List[int]):\n    return os.path.join(r(x))\n"
    )
    assert _unused_imports(tree) == [(3, "re"), (4, "Union")]
