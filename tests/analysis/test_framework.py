"""The lint framework itself: findings, registry, CLI driver."""

import argparse

import pytest

from repro.analysis import Rule, all_rules, get_rule, register
from repro.analysis.findings import Finding
from repro.analysis.main import add_lint_arguments, run_lint
from repro.analysis.registry import _REGISTRY


def make_finding(**overrides):
    base = dict(path="src/repro/core/x.py", line=3, col=4,
                rule_id="R006", message="swallowed error")
    base.update(overrides)
    return Finding(**base)


class TestFinding:
    def test_render_parse_roundtrip(self):
        finding = make_finding()
        assert finding.render() == \
            "src/repro/core/x.py:3:4: R006 swallowed error"
        assert Finding.parse(finding.render()) == finding

    def test_ordering_is_positional(self):
        early = make_finding(line=1)
        late = make_finding(line=9)
        assert sorted([late, early]) == [early, late]


class TestRegistry:
    def test_builtin_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["R002", "R004", "R006", "R007", "R009", "R010",
                       "R011"]
        assert ids == sorted(ids)

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.title, rule.rule_id
            assert rule.rationale, rule.rule_id

    def test_get_rule(self):
        assert get_rule("R004").rule_id == "R004"
        with pytest.raises(KeyError):
            get_rule("R999")

    def test_duplicate_id_rejected(self):
        class Clash(Rule):
            rule_id = "R002"

        with pytest.raises(ValueError, match="duplicate rule id"):
            register(Clash)
        assert _REGISTRY["R002"] is not Clash

    def test_missing_id_rejected(self):
        class Anonymous(Rule):
            pass

        with pytest.raises(ValueError, match="no rule_id"):
            register(Anonymous)


def parse_lint_args(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


class TestRunLint:
    BAD_SOURCE = ("def scrub(page):\n"
                  "    try:\n"
                  "        check(page)\n"
                  "    except Exception:\n"
                  "        pass\n")

    def write_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "storage"
        pkg.mkdir(parents=True)
        (pkg / "scrub.py").write_text(self.BAD_SOURCE)
        return tmp_path / "src"

    def test_new_finding_fails(self, tmp_path, capsys):
        src = self.write_tree(tmp_path)
        assert run_lint(parse_lint_args([str(src)])) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "1 finding(s)" in out

    def test_select_restricts_rules(self, tmp_path):
        src = self.write_tree(tmp_path)
        args = parse_lint_args([str(src), "--select", "R002"])
        assert run_lint(args) == 0

    def test_verbose_reports_wall_time(self, tmp_path, capsys):
        src = self.write_tree(tmp_path)
        assert run_lint(parse_lint_args([str(src), "--verbose"])) == 1
        err = capsys.readouterr().err
        assert "[repro lint]" in err and "wall" in err

    def test_list_rules(self, capsys):
        assert run_lint(parse_lint_args(["--list-rules"])) == 0
        out = capsys.readouterr().out
        for rule_id in ("R002", "R004", "R006", "R007", "R009", "R010",
                        "R011"):
            assert rule_id in out


class TestOutputFormats:
    def write_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "storage"
        pkg.mkdir(parents=True)
        (pkg / "scrub.py").write_text(TestRunLint.BAD_SOURCE)
        return tmp_path / "src"

    def test_github_format_emits_workflow_commands(self, tmp_path, capsys):
        src = self.write_tree(tmp_path)
        args = parse_lint_args([str(src), "--format", "github"])
        assert run_lint(args) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=R006" in out

    def test_github_escapes_newlines_and_commas(self):
        from repro.analysis.formats import render_github
        finding = make_finding(path="src/a,b.py",
                               message="line one\nline two")
        [line] = render_github([finding])
        assert "\n" not in line
        assert "%0A" in line
        assert "file=src/a%2Cb.py" in line
