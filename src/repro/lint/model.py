"""Data model of the ``repro.lint`` static-analysis pass.

Three concerns live here, shared by every rule module:

* :class:`Finding` — one located diagnostic, with a lossless JSON wire
  form (``repro.lint-finding/v1``) so the CLI's ``--format json``
  output round-trips;
* :class:`SourceFile` — one parsed module plus everything a rule needs
  to reason about it: the AST, an import-resolution map, the
  engine-path classification, and the file's inline suppressions;
* :class:`Suppression` — one ``# repro: allow[RULE-ID] reason``
  comment. Suppressions are *audited*: a missing reason and an allow
  that matches no finding are themselves findings (``L101`` /
  ``L102``), so the allow-list can only shrink toward honesty.

Scope model
-----------

The determinism invariants of ``docs/SCHEDULER.md`` bind the *engine
paths* — ``repro/core/`` and ``repro/methods/`` — where any
wall-clock or entropy leak changes published numbers.
:func:`is_engine_path` maps a file path onto that set; rules consult
:attr:`SourceFile.engine` instead of re-deriving paths.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Wire-form schema tag for one serialized finding.
FINDING_SCHEMA = "repro.lint-finding/v1"

#: Engine paths: modules whose behaviour the determinism invariants of
#: docs/SCHEDULER.md bind bit-for-bit.
ENGINE_PREFIXES = ("repro/core/", "repro/methods/")

#: Inline-suppression syntax. The reason is mandatory (rule L101).
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9, ]+)\]\s*(.*?)\s*$"
)


def module_rel_path(path: Path) -> str:
    """Project-relative module path, anchored at the ``repro`` package.

    ``/any/prefix/src/repro/core/foo.py`` -> ``repro/core/foo.py``.
    Files outside a ``repro`` package keep their file name (they are
    never engine paths).
    """
    parts = path.parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    return path.name


def is_engine_path(rel: str) -> bool:
    """Whether a module-relative path is an engine path."""
    return rel.startswith(ENGINE_PREFIXES)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule, a location, and what went wrong.

    ``suppressed``/``reason`` record the audit trail of an inline
    ``# repro: allow[...]`` — suppressed findings never gate, but they
    stay visible in the JSON artifact so reviews can see what was
    waved through and why.
    """

    rule_id: str
    path: str
    line: int
    message: str
    col: int = 0
    suppressed: bool = False
    reason: str | None = None

    @property
    def family(self) -> str:
        """Rule family (``"D101"`` -> ``"D1"``; meta rules -> ``"L1"``)."""
        return self.rule_id[:2]

    def to_dict(self) -> dict:
        """Lossless JSON wire form (``repro.lint-finding/v1``)."""
        data = {
            "schema": FINDING_SCHEMA,
            "rule": self.rule_id,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }
        if self.reason is not None:
            data["reason"] = self.reason
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict`; loud on schema mismatch."""
        if data.get("schema") != FINDING_SCHEMA:
            raise ValueError(
                f"expected {FINDING_SCHEMA!r}, got {data.get('schema')!r}"
            )
        return cls(
            rule_id=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data.get("col", 0)),
            message=str(data["message"]),
            suppressed=bool(data.get("suppressed", False)),
            reason=data.get("reason"),
        )


@dataclass
class Suppression:
    """One ``# repro: allow[ID, ...] reason`` comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: bool = False


class ImportMap(ast.NodeVisitor):
    """Local-name -> dotted-module resolution for one module.

    Rules ask "is this call ``time.monotonic``?" without caring whether
    the module spelled it ``import time``, ``import time as t``, or
    ``from time import monotonic``. :meth:`resolve` normalizes an AST
    ``Name``/``Attribute`` chain to the canonical dotted path as a
    tuple (``("time", "monotonic")``, ``("numpy", "random", "seed")``)
    or ``None`` when the root is not an imported module.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._modules: dict[str, tuple[str, ...]] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else local
            self._modules[local] = tuple(target.split("."))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            return  # relative imports are intra-package, never stdlib
        base = tuple(node.module.split("."))
        for alias in node.names:
            local = alias.asname or alias.name
            self._modules[local] = base + (alias.name,)

    def resolve(self, node: ast.AST) -> tuple[str, ...] | None:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._modules.get(node.id)
        if root is None:
            return None
        return root + tuple(reversed(chain))


@dataclass
class SourceFile:
    """One parsed module, ready for rules to inspect."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    imports: ImportMap
    engine: bool
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    comment_lines: frozenset[int] = frozenset()

    @classmethod
    def parse(cls, path: Path) -> "SourceFile":
        """Read, parse, and classify one file (SyntaxError propagates)."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        rel = module_rel_path(path)
        suppressions = {}
        # Real COMMENT tokens only — a docstring that merely *mentions*
        # the allow syntax must not read as a suppression.
        for token in tokenize.generate_tokens(
            io.StringIO(text).readline
        ):
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            number = token.start[0]
            rule_ids = tuple(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            suppressions[number] = Suppression(
                line=number,
                rule_ids=rule_ids,
                reason=match.group(2).strip(),
            )
        return cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            imports=ImportMap(tree),
            engine=is_engine_path(rel),
            suppressions=suppressions,
            comment_lines=frozenset(
                number
                for number, line in enumerate(
                    text.splitlines(), start=1
                )
                if line.lstrip().startswith("#")
            ),
        )

    def suppression_for(self, finding: Finding) -> Suppression | None:
        """The allow covering ``finding``, if any.

        An allow applies from the flagged line itself or from anywhere
        in the contiguous block of comment lines directly above it (so
        a multi-line reason can open with the allow tag).
        """
        suppression = self.suppressions.get(finding.line)
        if suppression and finding.rule_id in suppression.rule_ids:
            return suppression
        probe = finding.line - 1
        while probe in self.comment_lines:
            suppression = self.suppressions.get(probe)
            if suppression and finding.rule_id in suppression.rule_ids:
                return suppression
            probe -= 1
        return None
