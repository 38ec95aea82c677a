"""Tests for the cyclic hazard machinery (repro.reliability.hazard)."""

import math

import numpy as np
import pytest
from scipy import integrate

from repro.errors import ProfileError
from repro.reliability.hazard import (
    NestedHazard,
    PiecewiseHazard,
    constant_hazard,
    merge_piecewise,
)


def brute_force_cumulative(hazard, t, n=200_001):
    """Numerical Λ(t) by trapezoidal integration of the rate function."""
    taus = np.linspace(0, t, n)
    period = hazard.period
    local = np.mod(taus, period)
    local = np.where(local >= period, 0.0, local)
    if isinstance(hazard, PiecewiseHazard):
        rates = hazard.rate_at(np.clip(local, 0, period * (1 - 1e-15)))
    else:  # pragma: no cover - helper generality
        raise NotImplementedError
    return np.trapezoid(rates, taus)


class TestPiecewiseConstruction:
    def test_from_segments(self):
        h = PiecewiseHazard.from_segments([(2.0, 0.5), (3.0, 0.0)])
        assert h.period == pytest.approx(5.0)
        assert h.mass == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard.from_segments([])

    def test_rejects_negative_rate(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard([0.0, 1.0], [-0.1])

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard([0.0, 2.0, 1.0], [0.5, 0.5])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard([1.0, 2.0], [0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard([0.0, 1.0, 2.0], [0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(ProfileError):
            PiecewiseHazard([0.0, np.inf], [0.5])

    def test_rejects_cumulative_overflow(self):
        # Finite breakpoints and rates whose cumulative hazard is not:
        # no sampling table or closed form can take it.
        with np.errstate(over="ignore"), pytest.raises(
            ProfileError, match="overflows"
        ):
            PiecewiseHazard([0.0, 1e300], [1e300])


class TestCumulative:
    def test_piecewise_cumulative_at_breakpoints(self):
        h = PiecewiseHazard.from_segments([(2.0, 1.0), (2.0, 0.0), (1.0, 3.0)])
        assert float(h.cumulative(0.0)) == 0.0
        assert float(h.cumulative(2.0)) == pytest.approx(2.0)
        assert float(h.cumulative(4.0)) == pytest.approx(2.0)
        assert float(h.cumulative(5.0)) == pytest.approx(5.0)

    def test_cumulative_mid_segment(self):
        h = PiecewiseHazard.from_segments([(2.0, 1.5), (2.0, 0.5)])
        assert float(h.cumulative(1.0)) == pytest.approx(1.5)
        assert float(h.cumulative(3.0)) == pytest.approx(3.0 + 0.5)

    def test_extended_adds_period_mass(self):
        h = PiecewiseHazard.from_segments([(1.0, 2.0), (1.0, 0.0)])
        assert float(h.cumulative_extended(5.5)) == pytest.approx(
            2 * 2.0 + float(h.cumulative(1.5))
        )

    def test_extended_rejects_negative(self):
        h = constant_hazard(1.0)
        with pytest.raises(ProfileError):
            h.cumulative_extended(-0.1)

    def test_out_of_range_rejected(self):
        h = constant_hazard(1.0, period=2.0)
        with pytest.raises(ProfileError):
            h.cumulative(2.5)


class TestInversion:
    def test_round_trip_piecewise(self):
        h = PiecewiseHazard.from_segments(
            [(2.0, 1.0), (3.0, 0.0), (1.0, 2.5)]
        )
        for u in [0.01, 0.5, 1.99, 2.0, 3.0, h.mass]:
            tau = float(h.invert(u))
            assert float(h.cumulative(tau)) == pytest.approx(u, abs=1e-12)

    def test_inversion_skips_zero_rate_segments(self):
        h = PiecewiseHazard.from_segments([(1.0, 1.0), (5.0, 0.0), (1.0, 1.0)])
        # Hazard beyond mass 1.0 accrues only after the idle gap.
        tau = float(h.invert(1.0 + 1e-9))
        assert tau == pytest.approx(6.0, abs=1e-6)

    def test_extended_round_trip(self):
        h = PiecewiseHazard.from_segments([(1.0, 0.5), (1.0, 0.0)])
        u = np.array([0.2, 0.5, 0.7, 1.0, 2.3])
        t = h.invert_extended(u)
        np.testing.assert_allclose(h.cumulative_extended(t), u, atol=1e-12)

    def test_exact_multiple_of_mass_lands_in_previous_period(self):
        h = PiecewiseHazard.from_segments([(1.0, 1.0), (1.0, 0.0)])
        # Λ reaches exactly 1.0 at t=1.0 (end of first busy interval).
        assert float(h.invert_extended(1.0)) == pytest.approx(1.0)
        # And exactly 2.0 at t=3.0.
        assert float(h.invert_extended(2.0)) == pytest.approx(3.0)

    def test_zero_mass_returns_inf(self):
        h = constant_hazard(0.0, period=3.0)
        assert np.isinf(h.invert_extended(np.array([0.5]))).all()

    def test_invert_rejects_nonpositive(self):
        h = constant_hazard(1.0)
        with pytest.raises(ProfileError):
            h.invert(0.0)


class TestSurvivalIntegral:
    def test_constant_hazard_closed_form(self):
        lam, period = 0.7, 4.0
        h = constant_hazard(lam, period)
        expected = (1 - math.exp(-lam * period)) / lam
        assert h.survival_integral(period) == pytest.approx(expected)

    def test_matches_quadrature(self):
        h = PiecewiseHazard.from_segments(
            [(1.0, 0.3), (2.0, 0.0), (0.5, 2.0), (1.5, 0.1)]
        )

        def integrand(t):
            return math.exp(-float(h.cumulative(t)))

        value, _ = integrate.quad(integrand, 0, h.period, limit=200)
        assert h.survival_integral(h.period) == pytest.approx(value, rel=1e-9)

    def test_partial_integral(self):
        h = PiecewiseHazard.from_segments([(2.0, 0.5), (2.0, 0.0)])

        def integrand(t):
            return math.exp(-float(h.cumulative(t)))

        for x in [0.5, 1.0, 2.5, 3.7]:
            value, _ = integrate.quad(integrand, 0, x, limit=100)
            assert h.survival_integral(x) == pytest.approx(value, rel=1e-9)

    def test_weighted_integral_matches_quadrature(self):
        h = PiecewiseHazard.from_segments(
            [(1.0, 0.8), (1.0, 0.0), (2.0, 0.25)]
        )

        def integrand(t):
            return t * math.exp(-float(h.cumulative(t)))

        value, _ = integrate.quad(integrand, 0, h.period, limit=200)
        assert h.time_weighted_survival_integral(h.period) == pytest.approx(
            value, rel=1e-9
        )

    def test_zero_upper_limit(self):
        h = constant_hazard(1.0)
        assert h.survival_integral(0.0) == 0.0
        assert h.time_weighted_survival_integral(0.0) == 0.0


class TestScalingAndTiling:
    def test_scaled_mass(self):
        h = PiecewiseHazard.from_segments([(1.0, 0.5), (1.0, 0.25)])
        assert h.scaled(4.0).mass == pytest.approx(4.0 * h.mass)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ProfileError):
            constant_hazard(1.0).scaled(-1.0)

    def test_tiled_preserves_shape(self):
        h = PiecewiseHazard.from_segments([(1.0, 1.0), (1.0, 0.0)])
        t3 = h.tiled(3)
        assert t3.period == pytest.approx(3 * h.period)
        assert t3.mass == pytest.approx(3 * h.mass)
        taus = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
        np.testing.assert_allclose(
            t3.rate_at(taus), [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        )

    def test_tile_count_validated(self):
        with pytest.raises(ProfileError):
            constant_hazard(1.0).tiled(0)


class TestMerge:
    def test_merge_adds_rates(self):
        a = PiecewiseHazard.from_segments([(1.0, 1.0), (1.0, 0.0)])
        b = PiecewiseHazard.from_segments([(0.5, 0.0), (1.5, 2.0)])
        m = merge_piecewise([a, b])
        assert m.mass == pytest.approx(a.mass + b.mass)
        np.testing.assert_allclose(
            m.rate_at(np.array([0.25, 0.75, 1.25])), [1.0, 3.0, 2.0]
        )

    def test_merge_rejects_period_mismatch(self):
        a = constant_hazard(1.0, period=1.0)
        b = constant_hazard(1.0, period=2.0)
        with pytest.raises(ProfileError):
            merge_piecewise([a, b])

    def test_merge_single(self):
        a = constant_hazard(0.5, period=2.0)
        assert merge_piecewise([a]).mass == pytest.approx(a.mass)

    def test_merge_empty_rejected(self):
        with pytest.raises(ProfileError):
            merge_piecewise([])


class TestNestedHazard:
    @pytest.fixture
    def nested(self):
        inner_a = PiecewiseHazard.from_segments([(1.0, 2.0), (1.0, 0.0)])
        inner_b = PiecewiseHazard.from_segments([(0.5, 0.4), (0.5, 0.1)])
        return NestedHazard([(10.0, inner_a), (5.0, inner_b)])

    def test_period_and_mass(self, nested):
        # Segment 1: 5 repetitions of mass 2.0; segment 2: 5 reps of 0.25.
        assert nested.period == pytest.approx(15.0)
        assert nested.mass == pytest.approx(5 * 2.0 + 5 * 0.25)

    def test_cumulative_matches_manual(self, nested):
        # At t=3.5 (inside 2nd repetition of inner_a): 1 full rep (2.0)
        # + 1.0 busy (2.0) + 0.5 more busy at rate 2.0 -> wait: local 3.5
        # = rep 1 (mass 2.0) + 1.5 into rep -> busy 1.0 full (2.0) plus
        # idle 0.5 (0) = 4.0.
        assert float(nested.cumulative(3.5)) == pytest.approx(4.0)
        # Start of segment 2 at t=10: mass 10.0.
        assert float(nested.cumulative(10.0)) == pytest.approx(10.0)
        # 0.25 into segment 2: 0.25 * 0.4 = 0.1.
        assert float(nested.cumulative(10.25)) == pytest.approx(10.1)

    def test_inversion_round_trip(self, nested):
        for u in [0.1, 1.999, 2.0, 5.5, 10.0, 10.05, 11.24, nested.mass]:
            tau = float(nested.invert(u))
            assert float(nested.cumulative(tau)) == pytest.approx(
                u, abs=1e-9
            )

    def test_survival_integral_matches_quadrature(self, nested):
        def integrand(t):
            return math.exp(-float(nested.cumulative(t)))

        value, _ = integrate.quad(
            integrand, 0, nested.period, limit=500
        )
        assert nested.survival_integral(nested.period) == pytest.approx(
            value, rel=1e-7
        )

    def test_weighted_integral_matches_quadrature(self, nested):
        def integrand(t):
            return t * math.exp(-float(nested.cumulative(t)))

        value, _ = integrate.quad(
            integrand, 0, nested.period, limit=500
        )
        assert nested.time_weighted_survival_integral(
            nested.period
        ) == pytest.approx(value, rel=1e-7)

    def test_partial_repetition_tail(self):
        inner = PiecewiseHazard.from_segments([(1.0, 1.0), (1.0, 0.0)])
        # 2.5 repetitions: tail covers 1 busy interval's first half... the
        # tail is 1.0 long (half a rep): full busy interval.
        nested = NestedHazard([(5.0, inner)])
        assert nested.mass == pytest.approx(3.0)  # 2 full reps + busy tail

    def test_scaled(self, nested):
        assert nested.scaled(3.0).mass == pytest.approx(3 * nested.mass)

    def test_constant_inner_from_float(self):
        nested = NestedHazard([(4.0, 0.5), (4.0, 0.0)])
        assert nested.mass == pytest.approx(2.0)
        assert float(nested.cumulative(2.0)) == pytest.approx(1.0)

    def test_huge_repetition_counts_stay_exact(self):
        # A microsecond inner cycle repeated for 12 hours: closed forms
        # must not enumerate repetitions.
        inner = PiecewiseHazard.from_segments([(5e-7, 1e-4), (5e-7, 0.0)])
        nested = NestedHazard([(43200.0, inner)])
        reps = 43200.0 / 1e-6
        assert nested.mass == pytest.approx(reps * inner.mass, rel=1e-9)
        value = nested.survival_integral(nested.period)
        # Survival integral of a fast on/off cycle approaches that of the
        # averaged constant hazard (rate 5e-5).
        avg = constant_hazard(5e-5, 43200.0)
        assert value == pytest.approx(avg.survival_integral(43200.0), rel=1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            NestedHazard([])

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ProfileError):
            NestedHazard([(0.0, 1.0)])

    @pytest.mark.parametrize(
        "segments",
        [[(1e20, 0.0), (1.0, 0.0)], [(1e308, 0.0), (1e308, 0.0)]],
        ids=["short-segment-lost-to-rounding", "starts-overflow"],
    )
    def test_rejects_starts_that_do_not_increase(self, segments):
        with np.errstate(over="ignore"), pytest.raises(
            ProfileError, match="strictly increasing"
        ):
            NestedHazard(segments)

    def test_rejects_cumulative_overflow(self):
        with np.errstate(over="ignore"), pytest.raises(
            ProfileError, match="overflows"
        ):
            NestedHazard([(1.0, 1e308), (1.0, 1e308)])
