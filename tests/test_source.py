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


def assigned(node, name: str) -> bool:
    """Whether node is a plain `name = ...` statement."""
    return isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]


def test_tracer_names_are_bound_in_the_library():
    # perfbench/tracing.py rebinds each LAYERS entry by (module, function)
    # name and reads linalg._EXACT_CELL_LIMIT, so a rename here would
    # break traced benchmark runs
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tracing.body if assigned(node, "LAYERS"))
    trees = {name.removesuffix(".py"): tree for name, tree in parsed()}
    functions = {
        name: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name, tree in trees.items()
    }
    missing = [f"{module}.{function}" for module, function, _ in layers
               if function not in functions.get(module, ())]
    assert layers and missing == []
    assert any(assigned(node, "_EXACT_CELL_LIMIT") for node in trees["linalg"].body)
