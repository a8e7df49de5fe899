"""Every public top-level function of a ``quotematch`` module has a caller
outside its own module: another module under ``src/``, ``bench/`` or
``demos/`` names it. Tests do not count as callers, and ``cli`` is the entry
point, so its functions need none."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quotematch"

# (module, function) -> why it may stay without a caller.
ALLOWED = {
    ("matcher", "estimate_jaccard"): "goes with MinHash, ROADMAP item 17",
}


def _names(tree: ast.AST) -> set[str]:
    """Identifiers a module uses: names, attributes, imports and identifier
    strings (``bench/trace.py`` looks functions up by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_every_public_function_has_an_outside_caller():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uncalled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        others = set().union(*(_names(tree) for p, tree in trees.items() if p != path))
        uncalled.update(
            (path.stem, node.name)
            for node in trees[path].body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in others
        )
    # Equality, so an allowed function that gains a caller leaves the list too.
    assert uncalled == set(ALLOWED)
