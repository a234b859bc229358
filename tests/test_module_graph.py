"""Every module under ``src/repro`` is reachable from a product entry point.

The import graph is read with ``ast`` (nothing is imported): a module's
edges are every ``import`` / ``from ... import`` statement anywhere in
its body, function-local ones included, plus the ``__init__`` of each
package on the way to it.  Code only its own tests call has no place in
``src``; a module listed in ``UNREACHABLE_BY_DESIGN`` carries its reason.
"""

import ast
import os

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENTRY_POINTS = ("repro.cli", "repro.api", "repro.serve")
#: module -> why it stays in ``src`` though no entry point imports it
UNREACHABLE_BY_DESIGN = {
    "repro.learn": "rule-weight learning: examples/weight_learning.py and "
    "benchmarks/bench_ablation_learned_weights.py call it",
    "repro.learn.weights": "the implementation behind repro.learn",
}


def all_modules():
    """Dotted name -> source file for every module under ``src/repro``."""
    modules = {}
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def imported_names(name, path):
    """The modules ``name``'s source imports, as candidate dotted names."""
    package = name if path.endswith("__init__.py") else name.rpartition(".")[0]
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def reachable(modules):
    seen = set()
    stack = list(ENTRY_POINTS)
    while stack:
        name = stack.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        stack.extend(imported_names(name, modules[name]))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    modules = all_modules()
    assert set(ENTRY_POINTS) <= set(modules)
    unreached = set(modules) - reachable(modules)
    assert unreached == set(UNREACHABLE_BY_DESIGN), sorted(unreached)
