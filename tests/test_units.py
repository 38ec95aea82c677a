"""Tests for unit conversions (repro.units)."""

import pytest

from repro import units
from repro.errors import ConfigurationError


class TestFitConversions:
    def test_one_fit_is_one_failure_per_billion_hours(self):
        rate = units.fit_to_rate_per_second(1.0)
        assert rate * 1e9 * 3600.0 == pytest.approx(1.0)

    def test_fit_round_trip(self):
        assert units.rate_per_second_to_fit(
            units.fit_to_rate_per_second(123.4)
        ) == pytest.approx(123.4)

    def test_paper_baseline_equivalence(self):
        # The paper equates 0.001 FIT/bit with ~1e-8 errors/year/bit.
        per_year = units.fit_to_per_year(0.001)
        assert per_year == pytest.approx(8.76e-9, rel=1e-6)
        # The paper's rounded constant is within 15% of the exact value.
        assert per_year == pytest.approx(
            units.BASELINE_RATE_PER_BIT_YEAR, rel=0.15
        )

    def test_negative_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            units.fit_to_rate_per_second(-1.0)


class TestYearConversions:
    def test_per_year_round_trip(self):
        assert units.per_second_to_per_year(
            units.per_year_to_per_second(42.0)
        ) == pytest.approx(42.0)

    def test_year_is_8760_hours(self):
        assert units.SECONDS_PER_YEAR == pytest.approx(8760 * 3600)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            units.per_year_to_per_second(-0.1)
        with pytest.raises(ConfigurationError):
            units.per_second_to_per_year(-0.1)


class TestMttfToFit:
    def test_thousand_hour_mttf(self):
        mttf_seconds = 1000 * 3600.0
        assert units.mttf_seconds_to_fit(mttf_seconds) == pytest.approx(1e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            units.mttf_seconds_to_fit(0.0)


class TestCycles:
    def test_cycles_to_seconds_at_base_clock(self):
        assert units.cycles_to_seconds(2.0e9) == pytest.approx(1.0)

    def test_round_trip(self):
        assert units.seconds_to_cycles(
            units.cycles_to_seconds(12345.0, 1e9), 1e9
        ) == pytest.approx(12345.0)

    def test_rejects_bad_clock(self):
        with pytest.raises(ConfigurationError):
            units.cycles_to_seconds(1.0, 0.0)


class TestCalendarHelpers:
    def test_days(self):
        assert units.days(2) == pytest.approx(172800.0)

    def test_hours(self):
        assert units.hours(1.5) == pytest.approx(5400.0)

    def test_years(self):
        assert units.years(1) == pytest.approx(units.SECONDS_PER_YEAR)

    def test_week_constant(self):
        assert units.SECONDS_PER_WEEK == pytest.approx(7 * units.days(1))
