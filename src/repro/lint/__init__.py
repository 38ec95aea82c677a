"""``repro.lint`` — static determinism & protocol invariant checker.

The engine stack's reliability guarantees (bit-identical ResultSets
across executors x workers x shards, SeedSequence-only randomness,
documented registry vocabularies — docs/SCHEDULER.md) are
runtime-tested by the conformance suites, but a regression that only
manifests on a 32-worker pool slips past a 1-CPU CI runner. This
package checks the invariants at the AST instead, so violations are
caught at commit time:

* rule families ``D1`` (determinism), ``R1`` (registry/docs
  consistency), ``C1`` (cache-token discipline), and the ``L1`` meta
  rules auditing the linter's own suppressions —
  catalog with rationale in ``docs/LINT.md``;
* a :func:`~repro.lint.registry.register_rule` registry mirroring
  ``methods/registry.py``, so new rules plug in without call-site
  edits;
* inline audited suppressions: ``# repro: allow[D101] reason``;
* the ``repro-lint`` CLI (``repro.lint.cli``) with human, JSON, and
  GitHub-annotation output and a ``--self-check`` catalog audit.

Library use::

    from repro.lint import run_lint
    report = run_lint(["src/"])
    assert report.clean, report.findings
"""

from __future__ import annotations

from .engine import LintReport, Project, run_lint
from .model import Finding, SourceFile, Suppression
from .registry import (
    Rule,
    all_rules,
    available_rules,
    get_rule,
    register_rule,
    select_rules,
)

# Importing the rule modules is what populates the registry.
from . import rules_cache  # noqa: E402,F401  (registration side effect)
from . import rules_determinism  # noqa: E402,F401
from . import rules_registry  # noqa: E402,F401

__all__ = [
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceFile",
    "Suppression",
    "all_rules",
    "available_rules",
    "get_rule",
    "register_rule",
    "run_lint",
    "select_rules",
]
