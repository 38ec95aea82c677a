"""Static invariants of src/repro, checked on its AST (the unread-import
scan also reads the tests, examples and benchmarks).

Each file is parsed once (``ast.parse`` raises on a file it cannot
parse, so no check skips unread code) and its imports resolved once,
for three families of checks (DESIGN.md, "Static invariants"):

* **layering** — the model layers (``reliability``, ``masking``,
  ``microarch``, ``workloads``, ``ser``, ``analytical``) import nothing
  from ``core``, ``methods`` or ``harness``, and ``core`` nothing from
  ``methods`` or ``harness``; imports inside functions count too.
* **determinism** — every ResultSet is a pure function of its
  configuration. No file reads the wall clock outside
  :data:`CLOCK_ALLOWANCES`, draws entropy no seed replays or touches
  NumPy's global random state, and ``core`` and ``methods`` call no
  ``id()`` and iterate over no set. Each scan also runs on a seeded
  breach, so a scan that stops seeing its target fails as well.
* **one engine caller** — in ``harness``, only ``experiment.py``
  (``Experiment.run``) calls ``evaluate_design_space``: an artifact
  yields its sweeps, so every sweep is checked before any runs.
* **one place per pool** — only ``harness/spec_setup.py`` uses
  ``multiprocessing`` or a ``ProcessPoolExecutor`` (the trace batch),
  and only ``methods/batch.py`` builds a ``ThreadPoolExecutor`` (the
  ordered map).
* **the runtime dependencies** — no file imports SciPy, inside a
  function or not, so pyproject's ``dependencies`` (NumPy alone) is the
  whole runtime; the tests keep SciPy as an oracle.
* **every import is read** — in ``src/``, ``tests/``, ``examples/`` and
  ``benchmarks/``, every name an import binds is read in its own file
  (``__init__.py`` files, whose imports are re-exports, are left out).
"""

import ast
import functools
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The trees the unread-import scan covers, relative to the repository
#: root. perfbench/ is left to its own checks.
IMPORT_TREES = ("src", "tests", "examples", "benchmarks")

#: Imports run for what importing does, as ``(file, name)``: nothing
#: reads the name.
IMPORT_ALLOWANCES = {
    # Importing the artifact modules runs their ``@artifact``
    # decorators, which fill the registry.
    ("src/repro/harness/registry.py", "experiments"),
    ("src/repro/harness/registry.py", "ablations"),
}

#: Each layer and the subpackages of ``repro`` it must not import.
FORBIDDEN = {
    **{
        layer: ("core", "methods", "harness")
        for layer in (
            "reliability", "masking", "microarch", "workloads", "ser",
            "analytical",
        )
    },
    "core": ("methods", "harness"),
}

#: Files the wall-clock, entropy and NumPy scans cover: all of src.
EVERYWHERE = ("repro/",)

#: The engine packages, whose numbers must not move with worker count,
#: completion order or rerun.
ENGINE = ("repro/core/", "repro/methods/")

#: The harness files the engine-call scan covers, and the one file that
#: may call the engine.
HARNESS = ("repro/harness/",)
ENGINE_CALLER = "repro/harness/experiment.py"

#: The one file each pool scan may match: worker processes build the
#: SPEC traces, and one thread pool runs every ordered map.
POOL_SITES = {
    "process-pool": "repro/harness/spec_setup.py",
    "thread-pool": "repro/methods/batch.py",
}

#: Clock reads that never reach a result, as ``(file, function)``.
CLOCK_ALLOWANCES = {
    # The runner times each artifact for its "completed in" console
    # line; the experiment's numbers come from experiment.run alone.
    ("repro/harness/runner.py", "main"),
}

#: ``time`` functions that read or wait on the clock.
_CLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})

#: ``datetime`` constructors that capture "now".
_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: ``numpy.random`` functions that use or reset the hidden global
#: generator.
_NUMPY_GLOBAL = frozenset({
    "seed", "RandomState", "rand", "randn", "randint", "random",
    "random_sample", "ranf", "sample", "choice", "uniform", "normal",
    "standard_normal", "exponential", "shuffle", "permutation", "bytes",
    "get_state", "set_state",
})

#: ``numpy.random`` constructors that draw OS entropy when unseeded.
_NUMPY_SEEDABLE = frozenset({"default_rng", "SeedSequence"})

#: Builtins whose result keeps the order of the iterable they consume.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


def imports(tree: ast.AST, module: str) -> list[tuple[int, str | None, str]]:
    """``(line, local name, absolute module)`` for every import.

    ``module``, the file's dotted name (a package's ``__init__`` counts
    as a module inside it), resolves relative imports. The local name
    is ``None`` for a module loaded but not bound: the package of a
    ``from`` import, and ``a.b`` in ``import a.b``, which binds ``a``.
    ``from X import name`` yields ``X.name``: it may be a submodule.
    """
    parts = module.split(".")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.partition(".")[0]
                if alias.asname:
                    found.append((node.lineno, alias.asname, alias.name))
                    continue
                found.append((node.lineno, root, root))
                if root != alias.name:
                    found.append((node.lineno, None, alias.name))
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level] if node.level else []
            if node.module:
                base = [*base, node.module]
            found.append((node.lineno, None, ".".join(base)))
            found += [
                (
                    node.lineno,
                    alias.asname or alias.name,
                    ".".join([*base, alias.name]),
                )
                for alias in node.names
            ]
    return found


@dataclass(frozen=True)
class Module:
    """One parsed file: its path under src, dotted name and AST."""

    rel: str
    tree: ast.Module

    @classmethod
    def of(cls, rel: str, source: str) -> "Module":
        return cls(rel, ast.parse(source, filename=rel))

    @property
    def name(self) -> str:
        return self.rel.removesuffix(".py").replace("/", ".")

    @functools.cached_property
    def imports(self) -> list[tuple[int, str | None, str]]:
        return imports(self.tree, self.name)

    @functools.cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> the absolute module or object it binds."""
        return {local: target for _, local, target in self.imports if local}

    @functools.cached_property
    def nodes(self) -> list[tuple[str, ast.AST]]:
        """``(innermost enclosing function, node)`` for every node."""
        found = []

        def walk(node, function):
            for child in ast.iter_child_nodes(node):
                found.append((function, child))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, child.name)
                else:
                    walk(child, function)

        walk(self.tree, "<module>")
        return found

    def resolve(self, node: ast.AST) -> tuple[str, ...] | None:
        """The dotted path an imported Name/Attribute chain names.

        ``t.monotonic`` after ``import time as t`` is
        ``("time", "monotonic")``; a chain rooted in anything but an
        imported name is ``None``.
        """
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.aliases:
            return None
        return (*self.aliases[node.id].split("."), *reversed(chain))

    def calls(self):
        """``(enclosing function, call, dotted path or None)``."""
        for function, node in self.nodes:
            if isinstance(node, ast.Call):
                yield function, node, self.resolve(node.func)


@functools.cache
def src_modules() -> tuple[Module, ...]:
    """Every file of src/repro, parsed once per test run."""
    return tuple(
        Module.of(path.relative_to(SRC).as_posix(), path.read_text("utf-8"))
        for path in sorted((SRC / "repro").rglob("*.py"))
    )


@functools.cache
def tree_modules() -> tuple[Module, ...]:
    """Every file of :data:`IMPORT_TREES` but ``__init__.py``, parsed
    once per test run, named by its path from the repository root."""
    return tuple(
        Module.of(path.relative_to(ROOT).as_posix(), path.read_text("utf-8"))
        for tree in IMPORT_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
    )


# -- the determinism scans: each yields (line, function, what) -----------


def clock_reads(module: Module):
    """Reads of the wall clock, and sleeps."""
    for function, call, path in module.calls():
        if path and (
            (path[0] == "time" and path[-1] in _CLOCK_TIME)
            or (path[0] == "datetime" and path[-1] in _CLOCK_DATETIME)
        ):
            yield call.lineno, function, ".".join(path)


def entropy_draws(module: Module):
    """The stdlib ``random`` module, ``secrets``, ``os.urandom`` and
    ``uuid1``/``uuid4``: values no recorded seed replays."""
    for function, call, path in module.calls():
        if path and (
            path[0] in ("random", "secrets")
            or path[:2] == ("os", "urandom")
            or (path[0] == "uuid" and path[-1] in ("uuid1", "uuid4"))
        ):
            yield call.lineno, function, ".".join(path)


def numpy_global_state(module: Module):
    """NumPy's global generator, and generators seeded from the OS."""
    for function, call, path in module.calls():
        if not path or len(path) != 3 or path[:2] != ("numpy", "random"):
            continue
        if path[2] in _NUMPY_GLOBAL or (
            path[2] in _NUMPY_SEEDABLE and not call.args and not call.keywords
        ):
            yield call.lineno, function, ".".join(path)


def id_calls(module: Module):
    """``id()``, whose value the allocator picks."""
    for function, call, _ in module.calls():
        if isinstance(call.func, ast.Name) and call.func.id == "id":
            yield call.lineno, function, "id()"


def _builtin(node: ast.AST, names) -> bool:
    """Whether ``node`` calls one of the builtins ``names``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    )


def set_iterations(module: Module):
    """Loops, comprehensions and ``list``/``tuple``/``enumerate`` fed
    directly by a set, whose order depends on hashing and history."""
    for function, node in module.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            sites = [node.iter]
        elif _builtin(node, _ORDERED_CONSUMERS) and node.args:
            sites = node.args[:1]
        else:
            continue
        for site in sites:
            if isinstance(site, (ast.Set, ast.SetComp)) or _builtin(
                site, ("set", "frozenset")
            ):
                yield site.lineno, function, "iteration over a set"


def engine_calls(module: Module):
    """Calls of ``evaluate_design_space``, under any import spelling."""
    for function, call, path in module.calls():
        name = path[-1] if path else getattr(
            call.func, "attr", getattr(call.func, "id", None)
        )
        if name == "evaluate_design_space":
            yield call.lineno, function, name


def process_pools(module: Module):
    """Imports and calls of ``multiprocessing`` or a
    ``ProcessPoolExecutor``, under any import spelling."""
    for function, node in module.nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            paths = [target for _, _, target in imports(node, module.name)]
        elif isinstance(node, ast.Call):
            paths = [".".join(module.resolve(node.func) or ())]
        else:
            continue
        hit = next(
            (
                path for path in paths
                if path.split(".")[0] == "multiprocessing"
                or path.endswith("ProcessPoolExecutor")
            ),
            None,
        )
        if hit:
            yield node.lineno, function, hit


def scipy_imports(module: Module):
    """Imports of SciPy, at module level or inside a function."""
    for function, node in module.nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for _, _, target in imports(node, module.name):
                if target.split(".")[0] == "scipy":
                    yield node.lineno, function, target
                    break


def thread_pools(module: Module):
    """Calls that build a ``ThreadPoolExecutor``, under any spelling."""
    for function, call, path in module.calls():
        name = path[-1] if path else getattr(
            call.func, "attr", getattr(call.func, "id", None)
        )
        if name == "ThreadPoolExecutor":
            yield call.lineno, function, name


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: loads (an attribute chain's root is
    one), the strings of an ``__all__`` list and the names inside string
    annotations."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                read.update(
                    item.value for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant)
                    and isinstance(item.value, str)
                )
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                read |= _read_names(ast.parse(item.value, mode="eval"))
    return read


def unread_imports(module: Module):
    """Names an import binds that nothing in the file reads."""
    read = _read_names(module.tree)
    for function, node in module.nodes:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for line, local, _ in imports(node, module.name):
            if local and local not in read:
                yield line, function, local


#: Every scan with the files it covers.
SCANS = {
    "wall-clock": (clock_reads, EVERYWHERE),
    "entropy": (entropy_draws, EVERYWHERE),
    "numpy-global-state": (numpy_global_state, EVERYWHERE),
    "id": (id_calls, ENGINE),
    "set-iteration": (set_iterations, ENGINE),
    "engine-call": (engine_calls, HARNESS),
    "process-pool": (process_pools, EVERYWHERE),
    "thread-pool": (thread_pools, EVERYWHERE),
    "scipy": (scipy_imports, EVERYWHERE),
}


def src_breaches(scan: str) -> list[tuple[str, int, str, str]]:
    """``(file, line, function, what)`` for each breach of ``scan``."""
    find, scope = SCANS[scan]
    return [
        (module.rel, line, function, what)
        for module in src_modules()
        if module.rel.startswith(scope)
        for line, function, what in find(module)
    ]


# -- layering ------------------------------------------------------------


def test_scan_resolves_relative_imports_inside_functions():
    source = (
        "from ..errors import ReproError\n"
        "def run():\n"
        "    from .. import methods\n"
        "    from ..methods.batch import evaluate_design_space\n"
        "    import numpy.random as npr\n"
    )
    found = imports(ast.parse(source), "repro.core.sweep")
    names = {(line, target) for line, _, target in found}
    assert (1, "repro.errors") in names
    assert (3, "repro.methods") in names
    assert (4, "repro.methods.batch") in names
    assert (5, "npr", "numpy.random") in found


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_above_it(layer):
    modules = [
        m for m in src_modules() if m.rel.startswith(f"repro/{layer}/")
    ]
    assert modules, layer
    upper = {f"repro.{name}" for name in FORBIDDEN[layer]}
    offending = [
        f"{module.name}:{line} imports {target}"
        for module in modules
        for line, _, target in module.imports
        if ".".join(target.split(".")[:2]) in upper
    ]
    assert offending == []


# -- determinism ---------------------------------------------------------


def test_no_clock_reads_outside_the_allowances():
    reads = [
        f"{rel}:{line} {what}() in {function}"
        for rel, line, function, what in src_breaches("wall-clock")
        if (rel, function) not in CLOCK_ALLOWANCES
    ]
    assert reads == []


def test_every_clock_allowance_matches_a_clock_read():
    # An allowance that outlived its clock read would quietly admit
    # the next one in the same function.
    used = {(rel, function) for rel, _, function, _ in src_breaches(
        "wall-clock"
    )}
    assert CLOCK_ALLOWANCES <= used, CLOCK_ALLOWANCES - used


@pytest.mark.parametrize(
    "scan", sorted(set(SCANS) - {"wall-clock", "engine-call", *POOL_SITES})
)
def test_src_passes_scan(scan):
    breaches = [
        f"{rel}:{line} {what} in {function}"
        for rel, line, function, what in src_breaches(scan)
    ]
    assert breaches == []


# -- one engine caller ---------------------------------------------------


def test_only_experiment_run_calls_the_engine_in_the_harness():
    callers = {rel for rel, _, _, _ in src_breaches("engine-call")}
    assert callers == {ENGINE_CALLER}


# -- every import is read -----------------------------------------------


def tree_unread_imports() -> list[tuple[str, int, str, str]]:
    """``(file, line, function, name)`` for each unread import."""
    return [
        (module.rel, line, function, name)
        for module in tree_modules()
        for line, function, name in unread_imports(module)
    ]


def test_every_imported_name_is_read():
    unread = [
        f"{rel}:{line} {name} in {function}"
        for rel, line, function, name in tree_unread_imports()
        if (rel, name) not in IMPORT_ALLOWANCES
    ]
    assert unread == []


def test_every_import_allowance_matches_an_unread_import():
    unread = {(rel, name) for rel, _, _, name in tree_unread_imports()}
    assert IMPORT_ALLOWANCES <= unread, IMPORT_ALLOWANCES - unread


# -- one place per pool --------------------------------------------------


@pytest.mark.parametrize("scan", sorted(POOL_SITES))
def test_each_pool_is_built_in_one_file(scan):
    users = {rel for rel, _, _, _ in src_breaches(scan)}
    assert users == {POOL_SITES[scan]}


#: One seeded breach per scan, as (file, source): the scan must flag
#: exactly the lines marked ``# breach``, and none of the clean
#: spellings next to them.
SEEDED = {
    "wall-clock": ("repro/core/fixture.py", """
        import time as t
        from datetime import datetime
        from time import perf_counter
        def estimate(stamp):
            t.monotonic()  # breach
            datetime.now()  # breach
            perf_counter()  # breach
            return t.gmtime(stamp)
    """),
    "entropy": ("repro/harness/fixture.py", """
        import os, random, secrets, uuid
        random.random()  # breach
        os.urandom(8)  # breach
        secrets.token_hex()  # breach
        uuid.uuid4()  # breach
        uuid.uuid5(uuid.NAMESPACE_URL, "x")
        os.getcwd()
    """),
    "numpy-global-state": ("repro/workloads/fixture.py", """
        import numpy as np
        from numpy.random import default_rng
        np.random.seed(0)  # breach
        np.random.rand(3)  # breach
        default_rng()  # breach
        np.random.SeedSequence()  # breach
        default_rng(7)
        np.random.default_rng(seed=7)
        np.random.Generator(np.random.PCG64(0))
    """),
    "id": ("repro/methods/fixture.py", """
        key = id(system)  # breach
        other = hash(system)
    """),
    "set-iteration": ("repro/methods/fixture.py", """
        for x in {1, 2}:  # breach
            pass
        a = list(set(items))  # breach
        b = [y for y in frozenset(items)]  # breach
        c = tuple({z for z in items})  # breach
        for x in sorted(set(items)):
            pass
        d = len(set(items))
    """),
    "engine-call": ("repro/harness/fixture.py", """
        from .. import methods
        from ..methods import evaluate_design_space as sweep
        from ..methods.batch import check_support
        sweep(space, ["avf"])  # breach
        methods.evaluate_design_space(space, ["avf"])  # breach
        check_support(space, ["avf"], "exact")
    """),
    "process-pool": ("repro/methods/fixture.py", """
        import multiprocessing  # breach
        from concurrent import futures
        from concurrent.futures import ProcessPoolExecutor as Pool  # breach
        def build():
            from multiprocessing.pool import ThreadPool  # breach
            futures.ProcessPoolExecutor(2)  # breach
            Pool(2)  # breach
            multiprocessing.cpu_count()  # breach
        futures.ThreadPoolExecutor(2)
    """),
    "scipy": ("repro/analytical/fixture.py", """
        import numpy as np
        import scipy  # breach
        from scipy import integrate  # breach
        def curve(n):
            from scipy.special import erfc  # breach
            import scipy.integrate as quad  # breach
            return np.sum(n)
        from repro.scipy_like import erfc
    """),
    "thread-pool": ("repro/harness/fixture.py", """
        import concurrent.futures
        from concurrent.futures import ThreadPoolExecutor as Pool
        concurrent.futures.ThreadPoolExecutor(2)  # breach
        def build():
            Pool(4)  # breach
            ThreadPoolExecutor()  # breach
        concurrent.futures.ProcessPoolExecutor(2)
    """),
}


#: The unread-import scan's seeded breach, a test file.
SEEDED_UNREAD = ("tests/test_fixture.py", """
    from __future__ import annotations
    import math  # breach
    import numpy as np
    import os.path
    from typing import TYPE_CHECKING
    from repro.core import kernel  # breach
    from repro.core import Component, SystemModel as System
    from repro.core.sofr import sofr_mttf as combine, avf_mttf as spare  # breach
    if TYPE_CHECKING:
        from repro.core import MonteCarloConfig
        from repro.methods import MethodConfig
    __all__ = ["Component"]
    def draw(config: "MonteCarloConfig") -> System:
        import json  # breach
        return os.path.join(combine(np.ones(2)), config.name)
    def typed(config: "dict[str, MethodConfig]"):
        return config
""")


def _marked(source: str) -> list[int]:
    """The lines of ``source`` that end in ``# breach``."""
    return [
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if text.endswith("# breach")
    ]


@pytest.mark.parametrize("scan", sorted(SEEDED))
def test_scan_catches_its_seeded_breach(scan):
    rel, source = SEEDED[scan]
    module = Module.of(rel, textwrap.dedent(source))
    find, scope = SCANS[scan]
    assert rel.startswith(scope)
    assert sorted(line for line, _, _ in find(module)) == _marked(source)


def test_unread_import_scan_catches_its_seeded_breach():
    rel, source = SEEDED_UNREAD
    module = Module.of(rel, textwrap.dedent(source))
    assert rel.partition("/")[0] in IMPORT_TREES
    found = sorted(line for line, _, _ in unread_imports(module))
    assert found == _marked(source)
