"""Output renderers for lint findings: text and GitHub annotations.

``--format text`` is the classic one-line-per-finding report.
``--format github`` emits workflow commands (``::error file=...``) that
GitHub's runner turns into inline PR annotations.
"""

from __future__ import annotations

from typing import Iterable

from .findings import Finding

FORMATS = ("text", "github")


def _escape_github(value: str) -> str:
    """Escape per the workflow-command rules (data vs property position)."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _escape_github_property(value: str) -> str:
    return (_escape_github(value).replace(":", "%3A").replace(",", "%2C"))


def render_github(findings: Iterable[Finding]) -> list[str]:
    """One ``::error`` workflow command per finding."""
    lines = []
    for finding in findings:
        lines.append(
            f"::error file={_escape_github_property(finding.path)},"
            f"line={finding.line},col={finding.col},"
            f"title={_escape_github_property(finding.rule_id)}::"
            f"{_escape_github(f'{finding.rule_id} {finding.message}')}")
    return lines

