"""Static checks over the library source (src/lps), read with `ast`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lps").glob("*.py"))


def parsed():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def references(tree):
    """Every name the tree refers to: loads and stores of bare names,
    attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_no_assert_statements_in_the_library():
    # a check that `python -O` strips is no check
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_library_definition_is_used_in_the_library():
    # a function or class that only tests call is API nobody uses; a
    # reference inside the definition itself (recursion) does not count
    trees = parsed()
    used = Counter(name for _, tree in trees for name in references(tree))
    unused = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = sum(1 for ref in references(node) if ref == node.name)
            if used[node.name] <= inside:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
