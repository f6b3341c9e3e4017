"""The layer rule of ``docs/architecture.md`` ("lower layers never import
higher ones"), pinned for the bottom two layers.

``repro.neural`` (the autograd substrate) imports no other ``repro``
package, and ``repro.core`` (module specs and the distributivity
identities) imports only ``repro.neural``.  Both may use the private
``repro._lazy`` helper their front doors are built with.  The check
walks the source's AST, so an import inside a function counts as much
as one at the top of a file.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: The ``repro`` packages each layer may import (itself included).
ALLOWED = {
    "neural": {"neural", "_lazy"},
    "core": {"core", "neural", "_lazy"},
}


def imported_packages(path):
    """Yield ``(lineno, package)`` for every ``repro.<package>`` import of
    the module at ``path``, relative imports resolved."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    package = parts[:-1]  # an __init__'s package is its own directory
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]) \
                if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            # ``from .. import x`` names the top-level packages themselves.
            targets = ([module + [alias.name] for alias in node.names]
                       if module == ["repro"] else [module])
        else:
            continue
        for target in targets:
            if target[0] == "repro" and len(target) > 1:
                yield node.lineno, target[1]


@pytest.mark.parametrize("layer", sorted(ALLOWED))
def test_bottom_layers_import_nothing_above_them(layer):
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno} imports repro.{package}"
        for path in sorted((SRC / layer).rglob("*.py"))
        for lineno, package in imported_packages(path)
        if package not in ALLOWED[layer]
    ]
    assert not offenders, offenders


def test_relative_imports_resolve_to_their_package():
    # The resolver itself: the core front door reads ``repro._lazy``
    # (``from .._lazy import ...``), and the module file reads
    # ``repro.neural`` through ``from ..neural`` and ``from
    # ..neural.layers``.
    core = SRC / "core"
    assert ("_lazy" in
            {pkg for _, pkg in imported_packages(core / "__init__.py")})
    assert {pkg for _, pkg in imported_packages(core / "module.py")} == {
        "neural"}
