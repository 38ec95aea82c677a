"""The lint engine: walk files, run rules, audit suppressions.

:func:`run_lint` is the one entry point the CLI, the tests, the CI
gate, and the benchmark runner all share. It parses every ``.py`` file
under the given paths into :class:`~repro.lint.model.SourceFile`\\ s,
runs the selected file rules on each and the selected project rules
once, then applies the inline-suppression audit:

* a finding covered by a ``# repro: allow[RULE-ID] reason`` on its
  line (or the line above) is moved to the *suppressed* list — it
  never gates, but stays in the report;
* ``L100`` — a file that does not parse is itself a finding (the
  linter refuses to silently skip what it cannot see);
* ``L101`` — an allow without a written reason: the suppression still
  applies, but the missing audit trail gates until someone writes
  down *why*;
* ``L102`` — an allow that matched no finding (emitted only when the
  full rule set ran, so ``--rules D1`` does not misread C-allows as
  stale).

The meta rules register like every other rule so the catalog audit
(``repro-lint --self-check``) covers them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from .model import Finding, SourceFile
from .registry import Rule, register_rule, select_rules

#: Wire-form schema tag of one serialized lint report.
REPORT_SCHEMA = "repro.lint-report/v1"


@register_rule
class ParseErrorRule(Rule):
    rule_id = "L100"
    title = "every scanned file parses"
    rationale = (
        "a file the linter cannot parse is a file none of the "
        "invariant checks saw; skipping it silently would report "
        "clean on unchecked code"
    )


@register_rule
class SuppressionReasonRule(Rule):
    rule_id = "L101"
    title = "every suppression carries a reason"
    rationale = (
        "an allow is an audited exception; without a written reason "
        "the audit trail is empty and the exception cannot be "
        "reviewed"
    )


@register_rule
class UnusedSuppressionRule(Rule):
    rule_id = "L102"
    title = "no stale suppressions"
    rationale = (
        "an allow that matches no finding either outlived its fix or "
        "never worked; stale allows erode trust in the ones that "
        "matter"
    )


@dataclass
class Project:
    """Everything a project-scope rule may inspect."""

    root: Path | None
    files: dict[str, SourceFile] = field(default_factory=dict)
    _docs: dict[str, str | None] = field(default_factory=dict)

    def doc_text(self, rel: str) -> str | None:
        """Text of a root-relative doc file, or None when absent."""
        if rel not in self._docs:
            text = None
            if self.root is not None:
                path = self.root / rel
                if path.is_file():
                    text = path.read_text(encoding="utf-8")
            self._docs[rel] = text
        return self._docs[rel]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_scanned: int
    rules_run: list[str]
    root: Path | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        """JSON wire form (``repro.lint-report/v1``)."""
        return {
            "schema": REPORT_SCHEMA,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted, deduplicated."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            found.add(path)
        else:
            raise ConfigurationError(f"no such file or directory: {raw}")
    return sorted(found)


def find_project_root(paths: Sequence[str | Path]) -> Path | None:
    """Nearest ancestor of the first path that holds DESIGN.md."""
    for raw in paths:
        probe = Path(raw).resolve()
        for candidate in (probe, *probe.parents):
            if (candidate / "DESIGN.md").is_file():
                return candidate
    return None


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[str] | None = None,
    root: str | Path | None = None,
) -> LintReport:
    """Lint ``paths`` with the selected rules; full audit applied.

    ``rules`` takes selectors as ``--rules`` does (families like
    ``"D1"`` or ids like ``"D101"``); ``None`` runs everything.
    ``root`` anchors the documentation cross-checks; by default the
    nearest ancestor directory containing ``DESIGN.md``.
    """
    selected = select_rules(rules)
    full_run = rules is None
    file_rules = [r for r in selected if r.scope == "file"]
    project_rules = [r for r in selected if r.scope == "project"]

    project_root = (
        Path(root) if root is not None else find_project_root(paths)
    )
    project = Project(root=project_root)
    raw_findings: list[Finding] = []

    files = discover_files(paths)
    for path in files:
        try:
            src = SourceFile.parse(path)
        except SyntaxError as error:
            raw_findings.append(
                Finding(
                    rule_id="L100",
                    path=str(path),
                    line=error.lineno or 1,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        project.files[src.rel] = src
        for rule in file_rules:
            raw_findings.extend(rule.check_file(src))

    for rule in project_rules:
        raw_findings.extend(rule.check_project(project))

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    reasonless_seen: set[tuple[str, int]] = set()
    for finding in raw_findings:
        src = project.files.get(finding.path)
        suppression = (
            src.suppression_for(finding) if src is not None else None
        )
        if suppression is None:
            findings.append(finding)
            continue
        suppression.used = True
        suppressed.append(
            Finding(
                rule_id=finding.rule_id,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                suppressed=True,
                reason=suppression.reason or None,
            )
        )
        key = (finding.path, suppression.line)
        if not suppression.reason and key not in reasonless_seen:
            reasonless_seen.add(key)
            findings.append(
                Finding(
                    rule_id="L101",
                    path=finding.path,
                    line=suppression.line,
                    message=(
                        f"suppression of {finding.rule_id} has no "
                        "written reason"
                    ),
                )
            )
    if full_run:
        for src in project.files.values():
            for suppression in src.suppressions.values():
                if not suppression.used:
                    findings.append(
                        Finding(
                            rule_id="L102",
                            path=src.rel,
                            line=suppression.line,
                            message=(
                                "suppression "
                                f"{list(suppression.rule_ids)} "
                                "matches no finding; remove it"
                            ),
                        )
                    )

    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    suppressed.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return LintReport(
        findings=findings,
        suppressed=suppressed,
        files_scanned=len(files),
        rules_run=[r.rule_id for r in selected],
        root=project_root,
    )
