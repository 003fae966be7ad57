"""No public function that only the tests call, and no dependency but numpy.

Every public module-level ``def`` or ``class`` in ``src/hyperlab/*.py``
must be referred to from the package itself (outside its own definition)
or from ``perfbench/*.py``: by a name, an attribute, an import alias or a
string constant (the tracer names its targets by strings).  Every import in
``src/hyperlab/*.py`` must name numpy, the package itself or a module of
the standard library.  The scans read the sources with ``ast`` and import
nothing.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperlab"

# Public names allowed without a caller, each with the caller it waits for.
ALLOWED = {
    "opsys.is_irreducible",  # Arveson's boundary theorem as a decider (ROADMAP item 1(b))
}


def _references(node: ast.AST) -> Counter:
    """Names under node that could refer to a module-level definition."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def unreferenced() -> list:
    """Sorted "module.name" of every public definition no caller names."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and total[node.name] - _references(node)[node.name] <= 0):
                missing.append(f"{path.stem}.{node.name}")
    return sorted(missing)


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_allowlist_names_only_uncalled_definitions():
    """An allowlisted name that has gained a caller leaves the list."""
    assert set(unreferenced()) >= ALLOWED


def test_package_imports_only_numpy_and_the_standard_library():
    """The package depends on numpy alone: an import of any other installed
    distribution would pass every other test on a host that has it."""
    allowed = {"numpy", "hyperlab"} | set(sys.stdlib_module_names)
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one (the package itself)
            stray += [f"{path.stem}: {m}" for m in modules if m.partition(".")[0] not in allowed]
    assert stray == []
