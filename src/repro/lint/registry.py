"""Rule registry: id -> :class:`Rule`, mirroring ``methods/registry.py``.

A lint rule is a named, documented check. File rules run once per
parsed :class:`~repro.lint.model.SourceFile`; project rules run once
per lint invocation with the whole :class:`~repro.lint.engine.Project`
(they cross-check source against documentation, or one module against
another). New rules plug in with the :func:`register_rule` decorator
and are immediately visible to the engine, the CLI's ``--rules``
selector, ``--list-rules``, and the ``--self-check`` catalog audit —
no call-site edits, exactly like ``@register_method``.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from ..errors import ConfigurationError
from .model import Finding, SourceFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Project

#: Rule ids are a family letter+digit plus a two-digit serial: D101.
RULE_ID_RE = re.compile(r"^[A-Z]\d{3}$")


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and override exactly one of
    :meth:`check_file` (``scope = "file"``) or :meth:`check_project`
    (``scope = "project"``). ``rationale`` is the sentence the catalog
    (``docs/LINT.md``) and ``--list-rules`` print — it should name the
    invariant the rule defends, not restate the pattern it greps for.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    scope: str = "file"

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        return ()

    def finding(
        self, path: str, line: int, message: str, col: int = 0
    ) -> Finding:
        """Convenience constructor stamping this rule's id."""
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
        )


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering one rule under its ``rule_id``."""
    rule = cls()
    if not RULE_ID_RE.match(rule.rule_id):
        raise ConfigurationError(
            f"rule id {rule.rule_id!r} must match {RULE_ID_RE.pattern}"
        )
    if rule.rule_id in _RULES:
        raise ConfigurationError(
            f"duplicate rule registration {rule.rule_id!r}"
        )
    if not rule.title or not rule.rationale:
        raise ConfigurationError(
            f"rule {rule.rule_id} needs a title and a rationale"
        )
    _RULES[rule.rule_id] = rule
    return cls


def available_rules() -> list[str]:
    """Sorted ids of every registered rule."""
    return sorted(_RULES)


def all_rules() -> dict[str, Rule]:
    """Every registered rule keyed by id."""
    return dict(_RULES)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by exact id."""
    if rule_id not in _RULES:
        raise ConfigurationError(
            f"unknown rule {rule_id!r}; available: {available_rules()}"
        )
    return _RULES[rule_id]


def select_rules(selectors: Iterable[str] | None) -> list[Rule]:
    """Expand ``--rules`` selectors to rule objects.

    A selector is either a full id (``D101``) or a family prefix
    (``D1``, ``R1``); ``None`` selects everything. Unknown selectors
    fail loudly with the available families and ids.
    """
    if selectors is None:
        return [rule for _, rule in sorted(_RULES.items())]
    selected: dict[str, Rule] = {}
    for selector in selectors:
        token = selector.strip()
        matches = {
            rule_id: rule
            for rule_id, rule in _RULES.items()
            if rule_id == token or rule_id.startswith(token)
        }
        if not matches or not token:
            families = sorted({rule_id[:2] for rule_id in _RULES})
            raise ConfigurationError(
                f"unknown rule selector {selector!r}; families: "
                f"{families}, rules: {available_rules()}"
            )
        selected.update(matches)
    return [rule for _, rule in sorted(selected.items())]
