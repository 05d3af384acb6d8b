"""Lint findings: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation.

    Ordering is (path, line, col, rule_id) so reports are stable across
    runs regardless of rule registration order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The canonical one-line form."""
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.rule_id} {self.message}"

    @staticmethod
    def parse(text: str) -> "Finding":
        """Invert :meth:`render`."""
        location, _, rest = text.partition(": ")
        rule_id, _, message = rest.partition(" ")
        path, line, col = location.rsplit(":", 2)
        return Finding(path=path, line=int(line), col=int(col),
                       rule_id=rule_id, message=message)
