"""C1 — cache-token discipline.

``mc_token`` (``methods/cache.py``) is the cache key fragment that
states which Monte-Carlo settings produced a number. One invariant
keeps warm caches honest:

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
