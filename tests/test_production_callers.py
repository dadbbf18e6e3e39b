"""Guard: every def in ``src/repro`` has a caller outside the test suite.

A function, method or class of ``src/repro`` (outside ``repro.testing``)
must have its name read by some production module — a load of the name,
an attribute read or an import of it.  Package ``__init__`` re-exports do
not count: they publish a name, they do not call it.  A def whose name no
production module reads is still allowed when ``examples/`` or
``benchmarks/`` read it, or when it is an entry point listed in
:data:`ENTRY_POINTS` (the paper's API, and the checkpoint resume call) with
the reason it stays.

Anything else is code only tests reach: delete it, or move it to
``repro.testing`` when a test needs it as an oracle or helper.  The check
goes by name, so a def whose name some other production code happens to
read passes; it catches what no caller names at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Entry points kept without a production caller, ``(module.qualified name,
#: reason)``: the paper's definitions and baselines, and the calls that resume
#: a checkpoint ``repro stream --save-state`` writes.
ENTRY_POINTS = (
    ("repro.datasets.paper_graphs.example7_graph", "the graph of Examples 6/7 (LCWA's three classes)"),
    ("repro.datasets.paper_graphs.example7_rule_r2", "rule R2 of Examples 6/7"),
    ("repro.metrics.support.antecedent_support", "supp(Q, G) of Section 3"),
    ("repro.metrics.support.rule_support", "supp(R, G) of Section 3"),
    ("repro.metrics.support.minimum_image_support", "the minimum-image support behind Exp-2's Iconf"),
    ("repro.metrics.confidence.image_based_confidence", "Iconf, the image-based confidence of Exp-2"),
    ("repro.mining.dmine.dmine_baseline", "DMineno, the unoptimised miner of Exp-1"),
    ("repro.mining.dmine.dmine_auto", "mining with no predicate given (Section 4.2, Remarks)"),
    ("repro.api.restore_core", "resumes a saved core; the CLI's --save-state help names it"),
    (
        "repro.stream.identifier.StreamingIdentifier.restore",
        "resumes the bare union engine from a saved core; the CLI's --save-state help names it",
    ),
    (
        "repro.stream.identifier._CanonicalPickler.reducer_override",
        "the pickler's own hook, called for every object a checkpoint writes",
    ),
    (
        "repro.partition.lifecycle.FragmentManager",
        "a retired stub benchmarks/e2e/wraps.py names by string; ROADMAP 1(c) deletes both",
    ),
    (
        "repro.obs.tracing.Tracer.adopt",
        "re-parents shipped worker spans (docs/observability.md); the session pool that shipped them is "
        "gone, ROADMAP 8 ships batch pool workers' spans next",
    ),
    (
        "repro.obs.tracing.override_tracer",
        "routes a worker's spans into its own tracer beside active()'s per-thread override, which every "
        "batch span still reads; ROADMAP 8's pool workers are its next caller",
    ),
    (
        "repro.obs.tracing.tracing_enabled",
        "whether a worker should ship spans (docs/observability.md); ROADMAP 8's pool workers are its next caller",
    ),
)

#: Trees whose reads count besides production's own.
CALLER_TREES = ("examples", "benchmarks")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _production_files() -> list[Path]:
    return [
        path
        for path in sorted(PACKAGE.rglob("*.py"))
        if not _module_name(path).startswith("repro.testing")
    ]


def _reads(tree: ast.AST, is_init: bool = False) -> set[str]:
    """Names *tree* loads, reads as attributes or imports; the imports of a
    package ``__init__`` are re-exports and do not count."""
    reads: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            reads.update(alias.name for alias in node.names)
    return reads


def _defs(tree: ast.Module, module: str):
    """``(qualified name, bare name)`` of each module-level def and class member."""
    stack = [(module, node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                stack.extend((f"{prefix}.{node.name}", child) for child in node.body)


def _scan() -> tuple[dict[str, str], set[str], set[str]]:
    """``(defs: qualified -> bare name, production reads, example/benchmark reads)``."""
    defs: dict[str, str] = {}
    production: set[str] = set()
    for path in _production_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        defs.update(_defs(tree, module))
        production |= _reads(tree, is_init=path.name == "__init__.py")
    outside: set[str] = set()
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            outside |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    return defs, production, outside


def _uncalled(defs: dict[str, str], production: set[str], outside: set[str]) -> list[str]:
    kept = {name for name, _reason in ENTRY_POINTS}
    return sorted(
        qualified
        for qualified, name in defs.items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in production
        and name not in outside
        and qualified not in kept
    )


def test_every_def_has_a_caller_outside_the_tests():
    uncalled = _uncalled(*_scan())
    assert uncalled == [], (
        "defs that only tests reach (delete them, or move a test helper to "
        f"repro.testing): {uncalled}"
    )


def test_entry_point_table_names_live_defs_without_a_caller():
    defs, production, outside = _scan()
    for qualified, reason in ENTRY_POINTS:
        assert reason, qualified
        assert qualified in defs, f"{qualified} is gone: drop it from ENTRY_POINTS"
        assert defs[qualified] not in production | outside, (
            f"{qualified} has a caller now: drop it from ENTRY_POINTS"
        )


def test_scan_sees_a_test_only_def():
    """A def only tests name is reported; a re-export alone does not save it."""
    defs = {"repro.fake.helper": "helper", "repro.fake.used": "used"}
    init_reads = _reads(ast.parse("from repro.fake import helper\n__all__ = ['helper']"), is_init=True)
    production = init_reads | _reads(ast.parse("used()"))
    assert _uncalled(defs, production, set()) == ["repro.fake.helper"]
    assert _uncalled(defs, production, {"helper"}) == []
