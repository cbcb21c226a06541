"""Every function schurkit exports has a caller, or a stated reason to stay,
and every private function or method has a library caller.

A caller is library code outside the function's own definition (an AST name
or attribute), a call in the README's library tour, or a name the benchmark
traces.  A public function that none of these reach is surface to maintain
with nothing to show for it: give it a caller, or delete it.  A private one
counts library code only, so a helper whose last caller goes fails here.
"""

import ast
import inspect
import json
import re
from pathlib import Path

import schurkit

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "schurkit").glob("*.py"))

# exported functions kept without a caller, each with its reason
ALLOWED = {
    "apply_raising": "ROADMAP item 2: the raising-operator suite calls it",
    "adjacent_swap_identity_check": "ROADMAP item 2: the raising-operator suite calls it",
    "h_split_check": "ROADMAP item 2: the raising-operator suite calls it",
    "eval_sym_func": "ROADMAP item 8: the convert suite evaluates both sides with it",
    "compositions_of": "documented primitive: the checked face of _compositions",
    "staircase": "documented primitive: the checked face of _staircase",
    "contains": "documented primitive: containment of Young diagrams",
}


def _exported_functions() -> set[str]:
    return {
        name
        for name, obj in vars(schurkit).items()
        if not name.startswith("_") and inspect.isfunction(obj)
    }


def _library_references() -> set[str]:
    """Names read by library code, outside the definition of that name."""
    seen: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, ast.Name) and node.id not in inside:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            seen.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), frozenset())
    return seen


def _private_functions() -> set[str]:
    """The single-underscore functions and methods defined in the library."""
    return {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def _readme_tour_calls() -> set[str]:
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\b(\w+)\(", tour))


def _benchmark_traced() -> set[str]:
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"].split(".")[-2] for m in per_layer if m["name"].endswith(".calls")}


def test_every_exported_function_has_a_caller_or_a_reason():
    called = _library_references() | _readme_tour_calls() | _benchmark_traced()
    exported = _exported_functions()
    uncalled = sorted(exported - called - ALLOWED.keys())
    assert uncalled == [], f"exported with no caller: {uncalled}"


def test_the_allowlist_holds_only_uncalled_exports():
    # a name that gains a caller, or leaves the package, leaves the list
    called = _library_references() | _readme_tour_calls() | _benchmark_traced()
    assert ALLOWED.keys() <= _exported_functions()
    assert sorted(ALLOWED.keys() & called) == []


def test_every_private_function_has_a_library_caller():
    # hooks such as _check_head, _key and _body count through attribute access
    private = _private_functions()
    assert {"_key", "_eval_s"} <= private  # methods and functions both
    unreferenced = sorted(private - _library_references())
    assert unreferenced == [], f"private with no library caller: {unreferenced}"
