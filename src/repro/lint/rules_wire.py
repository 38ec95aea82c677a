"""W1 — wire-discipline rules.

Every byte the engine stack puts on a wire leaves through a *sealed
single-write frame*: the payload is assembled and length/shape-checked
by one helper, then written with exactly one ``sendall`` call, so a
peer (or a crash) can never observe half a frame (the same torn-entry
discipline ``methods/cache.py`` applies to cache entries). These rules
bind the wire modules — ``methods/cache.py`` and everything under
``service/`` — to that discipline statically:

* ``W101`` — a raw write whose payload is not (transitively) the
  return value of a sealed frame helper;
* ``W102`` — a frame assembled inline at the write site (bytes/str
  literal, concatenation, f-string, ``%``/``.format``) instead of
  through a helper — the classic route to multiple writes per frame;
* ``W103`` — ``socket.send()``: a partial-write primitive; a short
  write tears the frame. Use ``sendall`` with one sealed payload.

"Sealed" is computed, not annotated: the base helpers below are the
trusted frame builders, and any same-module function whose every
``return`` hands back a sealed expression is sealed by induction (so
``dispatch`` handlers returning ``response_bytes(...)`` need no
annotations). The bodies of base helpers themselves are exempt — they
are the one place raw bytes are legal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .model import Finding, SourceFile
from .registry import Rule, register_rule

#: The trusted frame builders: every one returns a single complete
#: frame (HTTP response, SSE stream head, SSE event). Their *bodies*
#: hold the only legal raw writes.
SEALED_HELPERS = frozenset(
    {
        "response_bytes",    # service/http.py       HTTP responses
        "sse_preamble",      # service/http.py       SSE stream head
        "sse_event",         # service/http.py       SSE events
    }
)

#: Write-call attribute names treated as raw stream writes.
_WRITE_ATTRS = frozenset({"write", "sendall", "sendto"})


def _terminal_name(func: ast.AST) -> str | None:
    """Bare name of a called function (``a.b.c()`` -> ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_inline_payload(node: ast.AST) -> bool:
    """Whether the payload is assembled at the write site."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (bytes, str))
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp):
        return True  # b"a" + x, "%d:%s" % parts, ...
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in ("format", "join", "encode")
    return False


class _ModuleSeals:
    """Sealed-function inference for one module.

    Starts from :data:`SEALED_HELPERS` and closes over same-module
    functions whose every ``return expr`` is a sealed expression, to a
    fixpoint. Name payloads are sealed when the enclosing function
    assigns them from a sealed call.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._functions = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.sealed = set(SEALED_HELPERS)
        changed = True
        while changed:
            changed = False
            for name, fn in self._functions.items():
                if name in self.sealed:
                    continue
                returns = [
                    node
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Return)
                    and node.value is not None
                ]
                if returns and all(
                    self.is_sealed_expr(node.value, fn)
                    for node in returns
                ):
                    self.sealed.add(name)
                    changed = True

    def is_sealed_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) in self.sealed
        )

    def is_sealed_expr(
        self, node: ast.AST, scope: ast.AST | None
    ) -> bool:
        """Sealed call, or a name bound to one in ``scope``."""
        if self.is_sealed_call(node):
            return True
        if isinstance(node, ast.IfExp):
            return self.is_sealed_expr(
                node.body, scope
            ) and self.is_sealed_expr(node.orelse, scope)
        if isinstance(node, ast.Name) and scope is not None:
            for stmt in ast.walk(scope):
                if (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == node.id
                        for t in stmt.targets
                    )
                    and self.is_sealed_call(stmt.value)
                ):
                    return True
        return False


def _write_sites(
    src: SourceFile,
) -> Iterable[tuple[ast.Call, ast.AST, ast.AST | None]]:
    """``(call, payload, enclosing_function)`` for every raw write.

    Covers ``<stream>.write(x)`` / ``.sendall(x)`` (one positional
    argument), ``.sendto(x, addr)``, and ``os.write(fd, x)``. Sites
    inside the body of a base sealed helper are skipped — those bodies
    *are* the single-write discipline.
    """
    enclosing: dict[ast.AST, ast.AST] = {}
    for fn in ast.walk(src.tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    enclosing.setdefault(node, fn)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = enclosing.get(node)
        if (
            fn is not None
            and getattr(fn, "name", None) in SEALED_HELPERS
        ):
            continue
        resolved = src.imports.resolve(node.func)
        if resolved is not None and resolved[:2] == ("os", "write"):
            if len(node.args) == 2:
                yield node, node.args[1], fn
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in ("write", "sendall") and len(node.args) == 1:
            yield node, node.args[0], fn
        elif attr == "sendto" and len(node.args) == 2:
            yield node, node.args[0], fn


@register_rule
class SealedWriteRule(Rule):
    rule_id = "W101"
    title = "writes route through sealed frame helpers"
    rationale = (
        "a frame must leave in one write of helper-sealed bytes so a "
        "receiver can always tell a whole record from a torn one "
        "(docs/SCHEDULER.md Layer 3; cache torn-entry discipline)"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if not src.wire:
            return
        seals = _ModuleSeals(src.tree)
        for call, payload, fn in _write_sites(src):
            if _is_inline_payload(payload):
                continue  # W102's finding, not ours
            if seals.is_sealed_expr(payload, fn):
                continue
            yield self.finding(
                src.rel,
                call.lineno,
                "raw write whose payload is not sealed-helper output; "
                "build the frame with one of "
                f"{sorted(SEALED_HELPERS)} and write it once",
                col=call.col_offset,
            )


@register_rule
class InlineFrameRule(Rule):
    rule_id = "W102"
    title = "no inline frame assembly at write sites"
    rationale = (
        "payload bytes assembled at the write site (literals, "
        "concatenation, f-strings) are how a frame ends up split "
        "across multiple writes; the sealed helpers are the only "
        "frame builders"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if not src.wire:
            return
        for call, payload, _fn in _write_sites(src):
            if _is_inline_payload(payload):
                yield self.finding(
                    src.rel,
                    call.lineno,
                    "frame assembled inline at the write site; route "
                    "the payload through a sealed frame helper",
                    col=call.col_offset,
                )


@register_rule
class PartialSendRule(Rule):
    rule_id = "W103"
    title = "no partial-write socket send()"
    rationale = (
        "socket.send may write a prefix and return; the peer then "
        "reads a torn frame — sendall with one sealed payload is the "
        "only whole-frame primitive"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if not src.wire:
            return
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and len(node.args) == 1
                and not node.keywords
            ):
                yield self.finding(
                    src.rel,
                    node.lineno,
                    ".send() is a partial-write primitive; use "
                    "sendall with one sealed frame",
                    col=node.col_offset,
                )
