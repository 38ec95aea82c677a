"""D1 — determinism rules.

The engine's core contract (docs/SCHEDULER.md, "Determinism
invariants") is that every ResultSet is a pure function of the run
configuration: bit-identical across executors, worker counts, shard
shapes, and reruns. Anything that injects wall-clock time,
process entropy, or interpreter-dependent ordering into a computation
breaks that contract in ways a 1-CPU CI runner will never reproduce —
a regression that only manifests on a 32-worker pool must be caught
at the AST, not in production. These rules flag every such source:

* ``D101`` — wall-clock reads (``time.time``/``monotonic``/
  ``perf_counter``/``sleep``, ``datetime.now``/``utcnow``/``today``).
  Flagged repo-wide: engine paths must be clean; elsewhere an audited
  ``# repro: allow[D101] reason`` documents why the clock never
  reaches a result.
* ``D102`` — non-seedable entropy: the stdlib ``random`` module,
  ``os.urandom``, ``secrets``, ``uuid.uuid1``/``uuid4``.
* ``D103`` — legacy NumPy randomness: ``np.random.seed``/
  ``RandomState`` and the global-state draw functions, plus *unseeded*
  ``default_rng()``/``SeedSequence()``. All engine randomness flows
  from explicit ``SeedSequence`` spawns (DESIGN.md, "Trial-chunked
  Monte-Carlo reduction").
* ``D104`` — ``id()`` in engine paths: object identity is
  allocator-dependent; identity-keyed containers were the PR 2 cache
  bug, replaced by content fingerprints.
* ``D105`` — direct iteration over a set display / ``set()`` /
  ``frozenset()`` / set comprehension in engine paths: set order is
  hash-seed- and history-dependent, so any ordered fold fed from it is
  nondeterministic. Wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .model import Finding, SourceFile
from .registry import Rule, register_rule

#: time-module attributes that read or depend on the wall clock.
_WALLCLOCK_TIME = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time",
        "process_time_ns", "sleep",
    }
)

#: datetime constructors that capture "now".
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: numpy.random module-level functions that use (or reset) the hidden
#: global generator, forbidden in favour of SeedSequence spawns.
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "RandomState", "rand", "randn", "randint", "random",
        "random_sample", "ranf", "sample", "choice", "uniform",
        "normal", "standard_normal", "exponential", "shuffle",
        "permutation", "bytes", "get_state", "set_state",
    }
)

#: numpy.random entry points that are fine *seeded* but flagged bare.
_SEEDABLE_NP_RANDOM = frozenset({"default_rng", "SeedSequence"})


def _calls(tree: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class WallClockRule(Rule):
    rule_id = "D101"
    title = "no wall-clock reads"
    rationale = (
        "results must be pure functions of the run configuration; a "
        "clock read that reaches an estimate, a cache key, or a wire "
        "record varies across hosts and reruns"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for call in _calls(src.tree):
            path = src.imports.resolve(call.func)
            if path is None:
                continue
            if path[0] == "time" and path[-1] in _WALLCLOCK_TIME:
                spelled = ".".join(path)
            elif (
                path[0] == "datetime"
                and path[-1] in _WALLCLOCK_DATETIME
            ):
                spelled = ".".join(path)
            else:
                continue
            where = "engine path" if src.engine else "non-engine path"
            yield self.finding(
                src.rel,
                call.lineno,
                f"wall-clock call {spelled}() in {where} "
                f"{src.rel}; results must not depend on the clock",
                col=call.col_offset,
            )


@register_rule
class EntropyRule(Rule):
    rule_id = "D102"
    title = "no non-seedable entropy"
    rationale = (
        "os.urandom, secrets, uuid1/uuid4, and the stdlib random "
        "module cannot be replayed from a recorded seed, so any value "
        "they touch is unreproducible by construction"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for call in _calls(src.tree):
            path = src.imports.resolve(call.func)
            if path is None:
                continue
            if (
                path[0] in ("random", "secrets")
                or path[:2] == ("os", "urandom")
                or (
                    path[0] == "uuid"
                    and path[-1] in ("uuid1", "uuid4")
                )
            ):
                yield self.finding(
                    src.rel,
                    call.lineno,
                    f"non-seedable entropy {'.'.join(path)}(); use "
                    "numpy SeedSequence-spawned generators so the "
                    "value replays from the recorded seed",
                    col=call.col_offset,
                )


@register_rule
class NumpyRandomRule(Rule):
    rule_id = "D103"
    title = "SeedSequence-only NumPy randomness"
    rationale = (
        "np.random.seed/RandomState and the global draw functions "
        "share hidden mutable state across threads and call sites; "
        "chunk determinism requires per-chunk SeedSequence spawns "
        "(DESIGN.md, trial-chunked reduction)"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for call in _calls(src.tree):
            path = src.imports.resolve(call.func)
            if path is None or path[:2] != ("numpy", "random"):
                continue
            tail = path[-1]
            if len(path) == 3 and tail in _LEGACY_NP_RANDOM:
                yield self.finding(
                    src.rel,
                    call.lineno,
                    f"legacy global-state np.random.{tail}(); draw "
                    "from an explicit SeedSequence-spawned Generator "
                    "instead",
                    col=call.col_offset,
                )
            elif (
                len(path) == 3
                and tail in _SEEDABLE_NP_RANDOM
                and not call.args
                and not call.keywords
            ):
                yield self.finding(
                    src.rel,
                    call.lineno,
                    f"unseeded np.random.{tail}() draws OS entropy; "
                    "pass an explicit seed or spawned SeedSequence",
                    col=call.col_offset,
                )


@register_rule
class IdentityKeyRule(Rule):
    rule_id = "D104"
    title = "no id() in engine paths"
    rationale = (
        "object identity is allocator-dependent and silently reused "
        "after garbage collection; cache keys and container keys must "
        "be content fingerprints (the PR 2 id()-key bug)"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if not src.engine:
            return
        for call in _calls(src.tree):
            func = call.func
            if (
                isinstance(func, ast.Name)
                and func.id == "id"
                and len(call.args) == 1
                and not call.keywords
            ):
                yield self.finding(
                    src.rel,
                    call.lineno,
                    "id() in an engine path; identity is not stable "
                    "across processes or reruns — key on content "
                    "fingerprints",
                    col=call.col_offset,
                )


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set with unspecified order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


#: Order-sensitive consumers of an iterable argument.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


@register_rule
class SetIterationRule(Rule):
    rule_id = "D105"
    title = "no set iteration feeding ordered folds"
    rationale = (
        "set iteration order depends on hash seeding and insertion "
        "history; the engine folds results in explicit index order, "
        "so sets must pass through sorted() before any ordered "
        "consumption"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if not src.engine:
            return
        for node in ast.walk(src.tree):
            sites: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                sites.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDERED_CONSUMERS
                and node.args
            ):
                sites.append(node.args[0])
            for site in sites:
                if _is_set_expr(site):
                    yield self.finding(
                        src.rel,
                        site.lineno,
                        "iteration directly over a set in an engine "
                        "path; wrap in sorted(...) so downstream "
                        "order is deterministic",
                        col=site.col_offset,
                    )
