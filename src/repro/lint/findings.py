"""Structured findings emitted by the determinism lint pass.

A finding pins one rule violation to one source location and carries a
machine-readable rule id plus a human-oriented fix hint, so the same
object backs the text report and the fixture assertions in the lint
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: File the violation lives in (as given to the engine).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        rule: Rule id, e.g. ``"DET003"``.
        message: What is wrong, phrased against this code.
        hint: How to fix it (or how to suppress a deliberate use).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        """``path:line:col: RULE message (hint)`` — the text report row."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

