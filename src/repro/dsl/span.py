"""Source spans: 1-based (line, column) positions carried through the
DSL front end.

Every AST node produced by the parser carries an optional :class:`Span`
pointing at the token that started it. Spans are *metadata*: they are
excluded from structural equality and hashing (``compare=False`` fields),
so two parses of the same text at different positions — or a parse of
pretty-printed output — remain structurally equal. This is what lets the
printer↔parser round-trip property hold while diagnostics still point at
real source text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """A 1-based source position (start of the construct)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

