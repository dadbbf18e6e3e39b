"""Guard: ``src/repro`` holds only modules a served entry point can reach.

The import graph is built statically with ``ast`` (function-level imports
included).  A package ``__init__`` is a *resolver*, not a node: ``from
repro.pkg import Name`` becomes an edge to the module that defines ``Name``,
found through the package's own re-export — so a module does not count as
reachable merely because its package re-exports it.

Roots are the served surface (:mod:`repro.api`, :mod:`repro.cli`, the HTTP
service).  Every module outside ``testing/`` must be reachable from a root,
or from a module listed — with its reason — in ``UNSERVED``.
Adding to that table is a decision to keep code the product never runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = ("repro.api", "repro.cli", "repro.serve.app", "repro.serve.http")

#: Modules kept although no served path reaches them, and why.
UNSERVED = {
    "repro.datasets.paper_graphs": "the paper's example graphs (also roots pattern.builder)",
    "repro.metrics.support": "the paper's supp(Q, G), supp(R, G) and Exp-2's minimum-image support",
    "repro.partition.lifecycle": "a retired stub benchmarks/e2e/wraps.py names; ROADMAP 1(c) deletes both",
}

#: Harness code: allowed to exist without a served importer, never a root.
EXEMPT = ("repro.testing",)


def _module_files() -> dict[str, Path]:
    """``dotted module name -> file`` for every module of the package tree."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


def _imports(module: str):
    """Yield ``(base module, imported name or None)`` for each import statement."""
    for node in ast.walk(ast.parse(FILES[module].read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            # The tree imports absolutely throughout; resolving a relative
            # form is not implemented, so refuse one instead of missing edges.
            assert node.level == 0, f"{module}: relative import at line {node.lineno}"
            for alias in node.names:
                yield node.module, alias.name


def _defining_module(base: str, name: str | None) -> str | None:
    """The non-package module an import of *name* from *base* lands in."""
    if base not in FILES:
        return None  # stdlib / third party
    if name is not None and f"{base}.{name}" in FILES:
        base, name = f"{base}.{name}", None
    if base not in PACKAGES:
        return base
    if name is None:
        return None  # a bare package import executes no module of interest
    for source, imported in _imports(base):
        if imported == name:
            return _defining_module(source, imported)
    return None  # defined in the __init__ itself


def _edges(module: str) -> set[str]:
    targets = (_defining_module(base, name) for base, name in _imports(module))
    return {target for target in targets if target is not None}


def _reachable(roots) -> set[str]:
    seen, stack = set(), list(roots)
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(_edges(module))
    return seen


def test_resolver_follows_package_reexports():
    assert _defining_module("repro.graph", "Graph") == "repro.graph.graph"
    assert _defining_module("repro.graph", "columnar") == "repro.graph.columnar"
    assert _defining_module("repro.graph.columnar", "ColumnarFragment") == "repro.graph.columnar"
    assert _defining_module("os", "path") is None
    assert "repro.stream.identifier" in _reachable(["repro.api"])


def test_every_module_is_served_or_listed():
    assert set(ROOTS) | set(UNSERVED) <= set(FILES)
    reachable = _reachable(ROOTS + tuple(UNSERVED))
    unreachable = sorted(
        module
        for module in FILES
        if module not in PACKAGES
        and not module.startswith(EXEMPT)
        and module not in reachable
    )
    assert unreachable == [], (
        "modules no served entry point imports (delete them, or list them in "
        f"UNSERVED with a reason): {unreachable}"
    )


def test_unserved_table_lists_only_what_is_unserved():
    served = _reachable(ROOTS)
    assert sorted(module for module in UNSERVED if module in served) == []


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _environment_reads() -> dict[str, str]:
    """``variable name -> first module`` for every environment key ``src/repro`` reads.

    A key is a string literal or a module-level string constant; any other
    key expression fails the scan, so a computed name cannot slip past it.
    """
    reads: dict[str, str] = {}
    for module, path in FILES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                if (isinstance(func, ast.Attribute) and _is_environ(func.value)) or (
                    getattr(func, "attr", getattr(func, "id", None)) == "getenv"
                ):
                    key = node.args[0]
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                key = node.slice
            elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
                key = node.left
            if key is None:
                continue
            name = key.value if isinstance(key, ast.Constant) else constants.get(getattr(key, "id", None))
            assert isinstance(name, str), f"{module}:{node.lineno}: environment key is not a named constant"
            reads.setdefault(name, module)
    return reads


def test_no_new_environment_knobs():
    """The environment switches diagnostics, never a threshold of the algorithms."""
    reads = _environment_reads()
    assert set(reads) == {"REPRO_OBS"}, reads
