"""Tests for MTTFEstimate, pipeline statistics, and misc reporting."""

import math

import pytest

from repro.errors import EstimationError
from repro.microarch.stats import PipelineStats
from repro.reliability import MTTFEstimate
from repro.units import SECONDS_PER_YEAR


class TestMttfEstimate:
    def test_years_conversion(self):
        est = MTTFEstimate(mttf_seconds=SECONDS_PER_YEAR)
        assert est.mttf_years == pytest.approx(1.0)

    def test_fit_reporting(self):
        est = MTTFEstimate(mttf_seconds=1e9 * 3600.0)
        assert est.fit == pytest.approx(1.0)

    def test_fit_zero_for_infinite(self):
        est = MTTFEstimate(mttf_seconds=math.inf)
        assert est.fit == 0.0

    def test_ci95(self):
        est = MTTFEstimate(mttf_seconds=100.0, std_error_seconds=10.0)
        lo, hi = est.ci95()
        assert lo == pytest.approx(100 - 19.6)
        assert hi == pytest.approx(100 + 19.6)

    def test_str_contains_method(self):
        est = MTTFEstimate(
            mttf_seconds=SECONDS_PER_YEAR,
            std_error_seconds=1.0,
            trials=100,
            method="monte_carlo",
        )
        text = str(est)
        assert "monte_carlo" in text and "n=100" in text

    def test_str_infinite(self):
        assert "inf" in str(MTTFEstimate(mttf_seconds=math.inf))

    def test_validation(self):
        with pytest.raises(EstimationError):
            MTTFEstimate(mttf_seconds=0.0)
        with pytest.raises(EstimationError):
            MTTFEstimate(mttf_seconds=1.0, std_error_seconds=-1.0)

    def test_nan_refused(self):
        with pytest.raises(EstimationError):
            MTTFEstimate(mttf_seconds=math.nan)
        with pytest.raises(EstimationError):
            MTTFEstimate(mttf_seconds=1.0, std_error_seconds=math.nan)


class TestPipelineStats:
    def test_ipc(self):
        stats = PipelineStats(instructions=100, cycles=50)
        assert stats.ipc == pytest.approx(2.0)

    def test_ipc_zero_cycles(self):
        assert PipelineStats().ipc == 0.0

    def test_mispredict_rate(self):
        stats = PipelineStats(branches=100, mispredictions=7)
        assert stats.mispredict_rate == pytest.approx(0.07)

    def test_mispredict_rate_no_branches(self):
        assert PipelineStats().mispredict_rate == 0.0

    def test_summary_mentions_units(self):
        stats = PipelineStats(
            instructions=10,
            cycles=20,
            unit_busy_cycles={"int": 5},
        )
        text = stats.summary()
        assert "IPC" in text
        assert "int busy: 5 cycles" in text
