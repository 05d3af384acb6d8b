"""The repository lints clean with zero pins: linting the real src/
tree must produce no finding at all.

This is the same check CI's ``lint`` job runs; keeping it in the suite
means a finding introduced by any PR fails tier-1 tests too.
"""

from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_lints_clean():
    findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert not findings, "lint findings:\n" + "\n".join(
        finding.render() for finding in findings)
