"""R1 — registry/documentation consistency rules.

The repo's registries are its public vocabulary: estimation methods
(``@register_method``) and the wire-schema tags every artifact speaks.
DESIGN.md and ``docs/`` promise that each vocabulary is documented in
full; these rules make the promise a static check by cross-referencing
the AST of the scanned sources against the doc texts — generalizing
the ad-hoc guards that used to live in
``tests/test_docs_consistency.py`` (which is now a thin
``repro-lint --rules R1`` invocation).

* ``R100`` — the referenced documentation files exist at all;
* ``R101`` — every registered method name appears in DESIGN.md *and*
  README.md;
* ``R106`` — every wire-schema tag (``*_SCHEMA = "repro.<x>/v<n>"``)
  appears in the documentation set.

Findings anchor at the registration/constant site in the *source*, so
a missing doc entry is attributed to the code that demands it.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterable

from .model import Finding
from .registry import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Project

#: Documentation files the rules cross-reference (project-relative).
REQUIRED_DOCS = ("README.md", "DESIGN.md", "docs/SCHEDULER.md")

#: Where a wire-schema tag may be documented.
SCHEMA_DOC_SET = (
    "README.md", "DESIGN.md", "docs/SCHEDULER.md", "docs/LINT.md",
)

_SCHEMA_TAG_RE = re.compile(r"^repro\.[a-z0-9-]+/v\d+$")


def _word_in(name: str, text: str) -> bool:
    """Whole-word occurrence (``avf`` must not match ``avf_sofr``)."""
    return (
        re.search(
            rf"(?<![A-Za-z0-9_-]){re.escape(name)}(?![A-Za-z0-9_-])",
            text,
        )
        is not None
    )


def _str_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def _terminal(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def registered_methods(project: "Project") -> list[tuple[str, str, int]]:
    """``(name, rel, line)`` for every ``@register_method("name")``."""
    found = []
    for rel, src in sorted(project.files.items()):
        for node in ast.walk(src.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and _terminal(decorator.func) == "register_method"
                ):
                    name = _str_arg(decorator)
                    if name:
                        found.append((name, rel, decorator.lineno))
    return found


@register_rule
class RequiredDocsRule(Rule):
    rule_id = "R100"
    title = "referenced documentation files exist"
    scope = "project"
    rationale = (
        "the vocabulary cross-checks below are only meaningful when "
        "DESIGN.md, README.md, and docs/SCHEDULER.md are actually "
        "present at the project root"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        for doc in REQUIRED_DOCS:
            if project.doc_text(doc) is None:
                yield self.finding(
                    doc, 1, f"required documentation file {doc} not "
                    "found at the project root"
                )


@register_rule
class MethodsDocumentedRule(Rule):
    rule_id = "R101"
    title = "registered methods documented"
    scope = "project"
    rationale = (
        "every @register_method name is user-facing CLI/API "
        "vocabulary; DESIGN.md and README.md must list it or users "
        "discover methods only by reading adapters"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        for doc in ("DESIGN.md", "README.md"):
            text = project.doc_text(doc)
            if text is None:
                continue  # R100's finding
            for name, rel, line in registered_methods(project):
                if not _word_in(name, text):
                    yield self.finding(
                        rel, line,
                        f"registered method {name!r} missing from "
                        f"{doc}",
                    )


@register_rule
class SchemaTagsDocumentedRule(Rule):
    rule_id = "R106"
    title = "wire-schema tags documented"
    scope = "project"
    rationale = (
        "every versioned wire/artifact schema tag is a compatibility "
        "promise; a tag absent from the docs cannot be honoured by "
        "anyone implementing the other end"
    )

    def check_project(self, project: "Project") -> Iterable[Finding]:
        docs = [
            text
            for doc in SCHEMA_DOC_SET
            if (text := project.doc_text(doc)) is not None
        ]
        if not docs:
            return
        for rel, src in sorted(project.files.items()):
            for node in src.tree.body:
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.isupper()
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and _SCHEMA_TAG_RE.match(node.value.value)
                ):
                    continue
                tag = node.value.value
                if not any(tag in text for text in docs):
                    yield self.finding(
                        rel, node.lineno,
                        f"wire-schema tag {tag!r} "
                        f"({node.targets[0].id}) missing from the "
                        f"documentation set {list(SCHEMA_DOC_SET)}",
                    )
