"""Unit tests for the shared stress-campaign report (repro.eval.stress)."""

import pytest

from repro.eval import CampaignReport, worst_coverage


def _report(**checks):
    return CampaignReport(
        title="Demo campaign",
        rows={
            "dead_sensors@0.1": {"coverage": 0.85, "fallback": True, "ess": None},
            "dead_sensors@0.2": {"coverage": 0.80, "fallback": False, "ess": 12.5},
            "noise_burst@0.1": {"coverage": 0.90, "fallback": False, "ess": None},
        },
        metrics={"nominal_coverage": 0.92, "final_state": "ready"},
        checks=checks,
        downgrades=(("coverage_alarm", "rolling coverage 80% < 85%"),),
        wall_s={"dead_sensors@0.1": 1.0},
    )


class TestChecks:
    def test_ok_is_the_conjunction_of_checks(self):
        assert _report(a=True, b=True).ok()
        assert not _report(a=True, b=False).ok()

    def test_failed_names_the_broken_checks_in_order(self):
        assert _report(a=False, b=True, c=False).failed() == ("a", "c")

    @pytest.mark.parametrize(
        "checks",
        [
            {},
            {"a": True},
            {"a": False},
            {"a": True, "b": False},
            {"a": False, "b": False},
        ],
    )
    def test_failed_is_empty_exactly_when_ok(self, checks):
        report = _report(**checks)
        assert (report.failed() == ()) == report.ok()

    def test_no_checks_means_nothing_asserted(self):
        assert _report().ok()


class TestEquality:
    def test_row_timings_do_not_enter_equality(self):
        a = _report(a=True)
        b = CampaignReport(
            title=a.title,
            rows=a.rows,
            metrics=a.metrics,
            checks=a.checks,
            downgrades=a.downgrades,
            wall_s={"dead_sensors@0.1": 9.0},
        )
        assert a == b

    def test_rows_enter_equality(self):
        a = _report(a=True)
        b = CampaignReport(title=a.title, rows={}, checks=a.checks)
        assert a != b


class TestWorstCoverage:
    def test_over_all_rows_and_by_prefix(self):
        report = _report()
        assert worst_coverage(report) == pytest.approx(0.80)
        assert worst_coverage(report, "noise") == pytest.approx(0.90)
        assert worst_coverage(report, "dead_sensors") == pytest.approx(0.80)

    def test_unmatched_prefix_raises(self):
        with pytest.raises(ValueError, match="no scenario matches"):
            worst_coverage(_report(), "nonexistent")


class TestTable:
    def test_renders_rows_metrics_checks_and_audit(self):
        table = _report(control_quiet=True, ends_ready=False).to_table()
        lines = table.splitlines()
        assert lines[0] == "Demo campaign"
        assert "dead_sensors@0.2" in table and "12.5" in table
        assert "nominal_coverage" in table and "ready" in table
        assert any("control_quiet" in line and "pass" in line for line in lines)
        assert any("ends_ready" in line and "FAIL" in line for line in lines)
        assert "Downgrade audit:" in table
        assert "[coverage_alarm] rolling coverage 80% < 85%" in table

    def test_cells_render_booleans_and_missing_values(self):
        lines = _report().to_table().splitlines()
        row = next(line for line in lines if line.startswith("dead_sensors@0.1"))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells == ["dead_sensors@0.1", "0.85", "yes", "-"]

    def test_title_override_and_empty_sections(self):
        table = CampaignReport(title="Empty").to_table(title="Override")
        assert table == "Override"
