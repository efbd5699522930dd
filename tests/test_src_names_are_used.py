"""Every function, class, method and module-level name in src/seshadri is
used by the package itself: by the CLI, the reproduce table, or a function
that one of them reaches.  A helper or a constant that only the tests read
belongs in the tests.  No two functions or methods in src/seshadri have
the same body: a helper is written once and imported.  And every name that an
import binds is read by its module: an import left behind still loads its
module.

A name counts as used when another part of the package reads it, as a name
or as an attribute, or when the parser stores it as a subcommand's handler.
Its own definition and body (for a module-level name, its assignment), its
docstring and a re-export in an __init__ module do not count.  Dunder
names are read by the language."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seshadri"

# Read by bench/tracing.py, which wraps exactmath.parse_polynomial and reads
# the size of exact_rank's argument.  No part of the package calls them.
READ_BY_THE_BENCH = {"parse_polynomial", "ExactMatrix.rows", "ExactMatrix.cols"}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class, of
    each method of a top-level class, and of each name that a top-level
    assignment binds; the node of such a name is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node


def _references(tree: ast.Module):
    """(name, node) of each name and attribute read, and of each handler
    name stored by `set_defaults(handler=...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.keyword) and node.arg == "handler" and isinstance(node.value, ast.Constant):
            yield node.value.value, node


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """'module: qualified name' of each definition in sources, a map of module
    path to text, that nothing outside its own body refers to."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    references = [(name, node) for tree in trees.values() for name, node in _references(tree)]
    unused = []
    for path, tree in trees.items():
        for qualname, name, definition in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in own for ref, node in references):
                unused.append(f"{path}: {qualname}")
    return unused


def _same_bodies(sources: dict[str, str]) -> list[list[str]]:
    """Groups of 'module: qualified name' of the non-dunder functions and
    methods in sources, a map of module path to text, whose bodies are the
    same, docstring aside."""
    by_body: dict[str, list[str]] = {}
    for path, text in sources.items():
        for qualname, name, node in _definitions(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            by_body.setdefault(ast.dump(ast.Module(body, [])), []).append(f"{path}: {qualname}")
    return [names for names in by_body.values() if len(names) > 1]


def _unread_imports(sources: dict[str, str]) -> list[str]:
    """'module: name' of each name that an import in sources, a map of module
    path to text, binds and that its module never reads.  An __init__ module
    is skipped: its imports are re-exports."""
    unread = []
    for path, text in sources.items():
        if Path(path).name == "__init__.py":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread.extend(f"{path}: {name}" for name in bound if name not in read)
    return unread


def _package_sources() -> dict[str, str]:
    return {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_every_definition_in_the_package_is_used_by_the_package():
    sources = _package_sources()
    assert len(sources) >= 10
    unused = [entry for entry in _unreferenced(sources) if entry.split(": ")[1] not in READ_BY_THE_BENCH]
    assert unused == []


def test_the_names_read_by_the_bench_are_still_defined():
    defined = {qualname for text in _package_sources().values() for qualname, _, _ in _definitions(ast.parse(text))}
    assert READ_BY_THE_BENCH <= defined


def test_the_guard_sees_a_helper_only_the_tests_call():
    sources = _package_sources()
    sources["cli.py"] += (
        "\n\ndef _parse_leaf(value):\n"
        "    if isinstance(value, list):\n"
        "        return [_parse_leaf(v) for v in value]\n"
        "    return value\n"
        "\n\ndef decode(fmt, text):\n"
        "    '''decode inverts emit; _parse_leaf reads each leaf'''\n"
        "    return _parse_leaf(json.loads(text))\n"
    )
    sources["exactmath/__init__.py"] += "from ..cli import decode\n"
    assert [entry for entry in _unreferenced(sources) if "decode" in entry or "_parse_leaf" in entry] == [
        "cli.py: decode"
    ]


def test_the_guard_sees_a_constant_only_the_tests_read():
    sources = _package_sources()
    sources["valuations.py"] += (
        "\nSQRT2 = QuadExt(Fraction(0), Fraction(1))\n"
        "STATED: tuple = tuple(c for c in (1, 2) if c)\n"
        "_LIMIT = 4300\n"
        "\n\ndef _over(x):\n    return x > _LIMIT\n"
        "\n\nWIDE = _over(5)\n"
    )
    names = ("SQRT2", "STATED", "_LIMIT", "_over", "WIDE")
    assert [entry for entry in _unreferenced(sources) if entry.split(": ")[1] in names] == [
        "valuations.py: SQRT2",
        "valuations.py: STATED",
        "valuations.py: WIDE",
    ]


def test_the_guard_counts_handlers_and_methods_and_skips_dunders():
    tree = (
        "class A:\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def used(self):\n        return self.unused_elsewhere\n"
        "    def unused(self):\n        return self.unused()\n"
        "def cmd_run(args):\n    return A().used()\n"
        "def build(p):\n    p.set_defaults(handler='cmd_run')\n"
    )
    assert _unreferenced({"m.py": tree}) == ["m.py: A.unused", "m.py: build"]


def test_no_two_functions_in_the_package_have_the_same_body():
    assert _same_bodies(_package_sources()) == []


def test_the_same_body_guard_sees_a_copied_helper_and_skips_dunders():
    tree = (
        "def halve(x):\n    '''x / 2'''\n    return x / 2\n"
        "def third(x):\n    return x / 3\n"
        "class A:\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def __ne__(self, other):\n        return True\n"
        "    def half(self, x):\n        '''the half of x'''\n        return x / 2\n"
        "    def third(self, y):\n        return y / 3\n"
    )
    assert _same_bodies({"m.py": tree}) == [["m.py: halve", "m.py: A.half"]]


def test_every_import_in_the_package_is_read_by_its_module():
    assert _unread_imports(_package_sources()) == []


def test_the_guard_sees_an_import_its_module_never_reads():
    sources = _package_sources()
    sources["bounds.py"] += (
        "\nfrom dataclasses import field\n"
        "\n\ndef _load(text):\n"
        "    import inspect as _inspect\n"
        "    from json import dumps, loads\n"
        "    return loads(text)\n"
    )
    sources["exactmath/__init__.py"] += "from .scalars import TOO_LONG\n"
    assert _unread_imports(sources) == ["bounds.py: field", "bounds.py: _inspect", "bounds.py: dumps"]
