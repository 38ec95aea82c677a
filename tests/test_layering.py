"""Package layering: a layer imports nothing from the layers above it.

The model layers (``reliability``, ``masking``, ``microarch``,
``workloads``, ``ser``, ``analytical``) import nothing from ``core``,
``methods``, ``harness`` or ``lint``, and ``core``, which holds the
estimation methods, imports nothing from ``methods``, ``harness`` or
``lint``. Every import statement counts, including the ones inside
functions that defer a module's load.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Each layer and the subpackages of ``repro`` it must not import.
FORBIDDEN = {
    **{
        layer: ("core", "methods", "harness", "lint")
        for layer in (
            "reliability", "masking", "microarch", "workloads", "ser",
            "analytical",
        )
    },
    "core": ("methods", "harness", "lint"),
}


def imported_modules(source: str, module: str) -> list[tuple[int, str]]:
    """``(line, absolute module name)`` for every import in ``source``.

    ``module`` is the dotted name of the file (``repro.core.system``;
    a package's ``__init__`` counts as a module inside it), which
    resolves relative imports. ``from X import name`` yields
    ``X.name`` as well, since ``name`` may be a submodule.
    """
    parts = module.split(".")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level] if node.level else []
            if node.module:
                base = [*base, node.module]
            found.append((node.lineno, ".".join(base)))
            found += [
                (node.lineno, ".".join([*base, alias.name]))
                for alias in node.names
            ]
    return found


def test_scan_resolves_relative_imports_inside_functions():
    source = (
        "from ..errors import ReproError\n"
        "def run():\n"
        "    from .. import methods\n"
        "    from ..methods.batch import evaluate_design_space\n"
    )
    names = imported_modules(source, "repro.core.sweep")
    assert (1, "repro.errors") in names
    assert (3, "repro.methods") in names
    assert (4, "repro.methods.batch") in names


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_above_it(layer):
    files = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert files, layer
    upper = {f"repro.{name}" for name in FORBIDDEN[layer]}
    offending = []
    for path in files:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        text = path.read_text(encoding="utf-8")
        for line, name in imported_modules(text, module):
            if ".".join(name.split(".")[:2]) in upper:
                offending.append(f"{module}:{line} imports {name}")
    assert offending == []
