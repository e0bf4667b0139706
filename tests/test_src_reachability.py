"""Every definition in src/holelab is reached by a command, an acceptance test or a benchmark pin.

A function that only other tests call is an oracle of those tests and belongs
with them, not in the package.  The walk goes by identifier: a reference to a
name reaches every top-level function, class and method of that name in any
module.  It can therefore miss dead code that shares a name with live code,
but it never flags a definition that a command reaches.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "holelab"

def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute name and imported name read in `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> tuple[dict[str, list[tuple[str, list[ast.AST]]]], set[str]]:
    """(identifier -> [(qualified name, nodes walked once it is reached)], module-level roots).

    A class's own nodes are its decorators, bases and class-level statements
    with its dunder methods, which Python calls without naming them; each
    other method is a definition of its own.
    """
    defs: dict[str, list[tuple[str, list[ast.AST]]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", [node]))
            elif isinstance(node, ast.ClassDef):
                own: list[ast.AST] = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        qualified = f"{module}.{node.name}.{item.name}"
                        defs.setdefault(item.name, []).append((qualified, [item]))
                    else:
                        own.append(item)
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", own))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers(node)  # _RUNNERS, _MODULI, the __main__ guard, ...
    return defs, roots


def _benchmark_call_names() -> set[str]:
    """The <name> of every `<layer>.<name>.calls` metric the benchmark pins."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (metric["name"].split(".") for metric in spec["per_layer"])
    return {parts[1] for parts in names if len(parts) == 3 and parts[2] == "calls"}


def _unreached() -> list[str]:
    defs, roots = _definitions()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    # main is pyproject.toml's console script; argparse calls _Parser.error itself
    todo = roots | {"main", "error"} | _identifiers(acceptance) | _benchmark_call_names()
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, nodes in defs.get(name, ()):
            for node in nodes:
                todo |= _identifiers(node) - seen
    return sorted(qualified for name, entries in defs.items() if name not in seen
                  for qualified, _ in entries)


def test_every_src_definition_is_reached():
    unreached = _unreached()
    assert not unreached, ("reached by no command, acceptance test or benchmark pin; "
                           "move them into the tests that use them: " + ", ".join(unreached))


def _reached_in_module(path: Path, start: str) -> set[str]:
    """Top-level functions and classes of one module that a walk from `start` reaches.

    The walk follows identifiers through the module's own definitions and
    module-level assignments (so `_NO_ARCS` leads to `_Arcs`), never into
    other modules; the assignments themselves are constants, not counted.
    """
    body = ast.parse(path.read_text(encoding="utf-8")).body
    defs = {node.name: node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = {target.id: node for node in body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    seen: set[str] = set()
    todo = {start}
    while todo:
        name = todo.pop()
        seen.add(name)
        node = defs.get(name, assigned.get(name))
        if node is not None:
            todo |= _identifiers(node) - seen
    return seen & defs.keys()


def test_the_two_counting_routes_share_no_function():
    # the winding kernel and the root oracle cross-check every verified
    # count, so neither may run code of the other
    path = SRC / "evaluate_zeros.py"
    kernel = _reached_in_module(path, "winding_counts_polar")
    oracle = _reached_in_module(path, "_root_stacks")
    assert {"_grid_turns", "_bisect", "_certified", "_Arcs"} <= kernel
    assert {"_aberth_roots", "_check_residuals", "_log_largest_terms", "_Values"} <= oracle
    assert not kernel & oracle, f"reached by both routes: {sorted(kernel & oracle)}"
