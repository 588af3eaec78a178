"""Tests for the anchor self-check."""

from repro.analysis import validate_anchors
from repro.cli import main


class TestValidateAnchors:
    def test_all_anchors_hold(self):
        checks = validate_anchors()
        failing = [c.name for c in checks if not c.ok]
        assert not failing, failing

    def test_covers_the_headline_anchors(self):
        names = {c.name for c in validate_anchors()}
        assert "idle latency cxl_local" in names
        assert "cxl peak at 2:1" in names
        assert "mmem latency knee" in names
        assert "cost model TCO saving" in names
        assert any("link budget" in n for n in names)

    def test_check_structure(self):
        check = validate_anchors()[0]
        assert check.expected and check.measured
        assert isinstance(check.ok, bool)


class TestValidateCli:
    def test_exit_zero_when_green(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "anchors hold" in out
        assert "FAIL" not in out
