"""C1 — cache-token discipline rules.

``mc_token`` (``methods/cache.py``) is the cache key fragment that
states which Monte-Carlo settings produced a number. Two invariants
keep warm caches and shard merges honest:

* **Tokens only grow.** Provenance tags (``"+"``-prefixed suffixes)
  are appended, never rewritten — a mutation that edits or replaces a
  token would let ``merge_result_sets`` mix artifacts of different
  provenance, the exact corruption the merge-refusal tests exist to
  prevent.
  ``C101`` flags any rebinding of a token-carrying variable that is
  not an append of a ``"+"``-prefixed tag.

* **Every config field is accounted for.** A ``MonteCarloConfig``
  field either joins the token (changing it invalidates exactly the
  affected cache entries) or is *proven* bit-identity-preserving and
  carries an explicit ``# repro: allow[C102] <proof>`` annotation on
  its definition. ``C102`` flags any field that does neither — the
  silently-wrong failure mode is a new knob that changes numbers while
  warm caches keep serving stale ones.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from .model import Finding, SourceFile
from .registry import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Project


def _is_token_source(node: ast.AST) -> bool:
    """An expression that *reads* a token: ``mc_token(...)`` or
    ``<x>.mc_token``."""
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        return name == "mc_token"
    if isinstance(node, ast.Attribute):
        return node.attr == "mc_token"
    return False


def _is_append_tag(node: ast.AST) -> bool:
    """A ``"+tag"`` appendable: literal, or a conditional of them."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value.startswith("+")
    if isinstance(node, ast.IfExp):
        return _is_append_tag(node.body) and _is_append_tag(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_append_tag(node.left)
    if isinstance(node, ast.JoinedStr):
        values = node.values
        return bool(values) and _is_append_tag(values[0])
    return False


def _token_ok(node: ast.AST, names: set[str]) -> bool:
    """Whether a (re)binding keeps token provenance intact."""
    if _is_token_source(node):
        return True
    if isinstance(node, ast.Name) and node.id in names:
        return True
    if isinstance(node, ast.IfExp):
        return _token_ok(node.body, names) and _token_ok(
            node.orelse, names
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _token_ok(node.left, names) and _is_append_tag(
            node.right
        )
    return False


@register_rule
class TokenAppendOnlyRule(Rule):
    rule_id = "C101"
    title = "mc_token mutations are append-only"
    scope = "file"
    rationale = (
        "provenance tags (+<tag>) append to the token so "
        "merge_result_sets can refuse mixed-provenance shards; a "
        "rewritten token forges provenance and corrupts warm caches"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        functions = [
            node
            for node in ast.walk(src.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for fn in functions:
            token_names: set[str] = set()
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Assign):
                    targets = [
                        t
                        for t in stmt.targets
                        if isinstance(t, ast.Name)
                    ]
                    if _is_token_source(stmt.value):
                        token_names.update(t.id for t in targets)
                        continue
                    for target in targets:
                        if target.id in token_names and not _token_ok(
                            stmt.value, token_names
                        ):
                            yield self.finding(
                                src.rel,
                                stmt.lineno,
                                f"token variable {target.id!r} "
                                "rebound to a non-token value; "
                                "mc_token provenance must only grow "
                                "by '+tag' appends",
                                col=stmt.col_offset,
                            )
                elif isinstance(stmt, ast.AugAssign):
                    target = stmt.target
                    if (
                        isinstance(target, ast.Name)
                        and target.id in token_names
                    ):
                        if not isinstance(
                            stmt.op, ast.Add
                        ) or not _is_append_tag(stmt.value):
                            yield self.finding(
                                src.rel,
                                stmt.lineno,
                                f"token variable {target.id!r} "
                                "mutated with a non-append value; "
                                "only '+tag' string appends are "
                                "legal",
                                col=stmt.col_offset,
                            )
                    elif (
                        isinstance(target, ast.Attribute)
                        and target.attr == "mc_token"
                    ):
                        if not isinstance(
                            stmt.op, ast.Add
                        ) or not _is_append_tag(stmt.value):
                            yield self.finding(
                                src.rel,
                                stmt.lineno,
                                "mc_token attribute mutated with a "
                                "non-append value",
                                col=stmt.col_offset,
                            )


@register_rule
class TokenCoverageRule(Rule):
    rule_id = "C102"
    title = "MonteCarloConfig fields join the cache token"
    scope = "project"
    rationale = (
        "a config field outside the token makes warm caches serve "
        "numbers the new setting no longer produces; a field may stay "
        "out only with a written bit-identity proof "
        "(# repro: allow[C102] ...) on its definition"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        config_src = token_src = None
        for rel, src in project.files.items():
            if rel.endswith("core/montecarlo.py"):
                config_src = src
            elif rel.endswith("methods/cache.py"):
                token_src = src
        if config_src is None or token_src is None:
            return
        fields = self._config_fields(config_src)
        covered = self._token_fields(token_src)
        if covered is None:
            return  # no mc_token function to check against
        for name, line in fields:
            if name not in covered:
                yield self.finding(
                    config_src.rel,
                    line,
                    f"MonteCarloConfig.{name} is not part of "
                    "mc_token; add it to the token or annotate the "
                    "field with a bit-identity proof",
                )

    @staticmethod
    def _config_fields(src: SourceFile) -> list[tuple[str, int]]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == "MonteCarloConfig"
            ):
                return [
                    (stmt.target.id, stmt.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
        return []

    @staticmethod
    def _token_fields(src: SourceFile) -> set[str] | None:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "mc_token"
                and node.args.args
            ):
                arg = node.args.args[0].arg
                return {
                    sub.attr
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == arg
                }
        return None
