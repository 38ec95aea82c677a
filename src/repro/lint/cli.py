"""``repro-lint``: the determinism & protocol invariant checker CLI.

Exit-code contract (pinned by ``tests/test_lint.py``):

* ``0`` — scan completed with zero unsuppressed findings;
* ``1`` — at least one finding (or a failed ``--self-check``);
* ``2`` — usage error (unknown rule selector, missing path, ...).

Output formats:

* ``human`` (default) — one ``path:line: RULE message`` per finding
  plus a summary line;
* ``json`` — the full :class:`~repro.lint.engine.LintReport` wire
  form (``repro.lint-report/v1``), suppressions included, so the
  zero-findings gate leaves an auditable artifact;
* ``github`` — GitHub Actions workflow annotations
  (``::error file=...``), one per finding.

``--self-check`` audits the rule catalog itself: every registered
rule id must be documented in ``docs/LINT.md`` and every id-shaped
token in the catalog must name a registered rule — the same
single-source-of-truth discipline the R1 rules impose on the engine
vocabularies, applied to the linter.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from ..errors import ConfigurationError
from .engine import find_project_root, run_lint
from .registry import all_rules, available_rules

#: Where the rule catalog lives, relative to the project root.
CATALOG_PATH = "docs/LINT.md"

_CATALOG_ID_RE = re.compile(r"`([A-Z]\d{3})`")


def _print_human(report) -> None:
    for finding in report.findings:
        print(
            f"{finding.path}:{finding.line}: {finding.rule_id} "
            f"{finding.message}"
        )
    status = "clean" if report.clean else (
        f"{len(report.findings)} finding(s)"
    )
    print(
        f"repro-lint: {status} — {report.files_scanned} file(s), "
        f"{len(report.rules_run)} rule(s), "
        f"{len(report.suppressed)} audited suppression(s)"
    )


def _print_github(report) -> None:
    for finding in report.findings:
        message = finding.message.replace("\n", " ")
        print(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title={finding.rule_id}::"
            f"{finding.rule_id} {message}"
        )
    print(
        f"repro-lint: {len(report.findings)} finding(s) across "
        f"{report.files_scanned} file(s)"
    )


def self_check(root: Path | None) -> int:
    """Registry <-> docs/LINT.md catalog agreement; 0 ok, 1 drift."""
    if root is None:
        print(
            "repro-lint --self-check: no project root with DESIGN.md "
            "found",
            file=sys.stderr,
        )
        return 1
    catalog_file = root / CATALOG_PATH
    if not catalog_file.is_file():
        print(
            f"repro-lint --self-check: {CATALOG_PATH} missing under "
            f"{root}",
            file=sys.stderr,
        )
        return 1
    catalog = catalog_file.read_text(encoding="utf-8")
    documented = set(_CATALOG_ID_RE.findall(catalog))
    registered = set(available_rules())
    drift = 0
    for rule_id in sorted(registered - documented):
        rule = all_rules()[rule_id]
        print(
            f"rule {rule_id} ({rule.title}) is registered but "
            f"missing from {CATALOG_PATH}"
        )
        drift += 1
    for rule_id in sorted(documented - registered):
        print(
            f"{CATALOG_PATH} documents {rule_id}, which is not a "
            "registered rule"
        )
        drift += 1
    if drift:
        return 1
    print(
        f"repro-lint --self-check: catalog and registry agree on "
        f"{len(registered)} rule(s)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static determinism & protocol invariant checker for the "
            "repro engine stack (rule catalog: docs/LINT.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (e.g. src/)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule families or ids (e.g. D1,R106); "
        "default: all rules",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="finding output format (default: %(default)s)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root for documentation cross-checks "
        "(default: nearest ancestor containing DESIGN.md)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalog and exit",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify the rule registry and docs/LINT.md catalog "
        "agree, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            scope = "project" if rule.scope == "project" else "file"
            print(f"{rule_id}  [{scope:7s}] {rule.title}")
        return 0

    if args.self_check:
        root = (
            Path(args.root)
            if args.root is not None
            else find_project_root(args.paths or ["."])
        )
        return self_check(root)

    if not args.paths:
        parser.error("no paths to lint (try: repro-lint src/)")
    selectors = (
        [token for token in args.rules.split(",")]
        if args.rules is not None
        else None
    )
    try:
        report = run_lint(args.paths, rules=selectors, root=args.root)
    except ConfigurationError as error:
        parser.error(str(error))

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        _print_github(report)
    else:
        _print_human(report)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
