"""Tests for the Section-3 analytical models (repro.analytical)."""

import math

import numpy as np
import pytest
from scipy import integrate

from repro.analytical.busy_idle import (
    avf_step_mttf_busy_idle,
    busy_idle_mttf_closed_form,
    busy_idle_mttf_paper_form,
    figure3_curves,
    relative_error_busy_idle,
)
from repro.analytical.geometric_sum import (
    exponential_limit_pdf,
    geometric_erlang_mixture_pdf,
)
from repro.analytical.sofr_halfnormal import (
    figure4_curve,
    halfnormal_component_mttf,
    halfnormal_relative_error,
    halfnormal_system_mttf_exact,
    halfnormal_system_mttf_sofr,
)
from repro.analytical.theorem1 import (
    mod_cdf,
    mod_density,
    mod_distribution_distance_from_uniform,
    uniform_limit_error_bound,
)
from repro.core import exact_component_mttf
from repro.errors import ConfigurationError
from repro.masking import busy_idle_profile


class TestTheorem1:
    def test_density_integrates_to_one(self):
        lam, loop = 0.3, 5.0
        value, _ = integrate.quad(
            lambda x: float(mod_density(x, lam, loop)), 0, loop
        )
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_uniform_limit(self):
        # Theorem 1: as λL → 0 the density tends to 1/L everywhere.
        lam, loop = 1e-9, 4.0
        x = np.linspace(0, loop, 9)
        np.testing.assert_allclose(
            mod_density(x, lam, loop), 1.0 / loop, rtol=1e-6
        )

    def test_density_decreasing(self):
        lam, loop = 1.0, 3.0
        x = np.linspace(0, loop, 11)
        d = mod_density(x, lam, loop)
        assert np.all(np.diff(d) < 0)

    def test_cdf_endpoints(self):
        lam, loop = 0.5, 2.0
        assert float(mod_cdf(0.0, lam, loop)) == 0.0
        assert float(mod_cdf(loop, lam, loop)) == pytest.approx(1.0)

    def test_tv_distance_shrinks_with_lambda(self):
        loop = 10.0
        distances = [
            mod_distribution_distance_from_uniform(lam, loop)
            for lam in (1.0, 0.1, 0.01, 1e-4)
        ]
        assert all(a > b for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 1e-3

    def test_tv_distance_matches_numerical(self):
        lam, loop = 0.7, 3.0
        value, _ = integrate.quad(
            lambda x: abs(float(mod_density(x, lam, loop)) - 1 / loop),
            0,
            loop,
        )
        assert mod_distribution_distance_from_uniform(
            lam, loop
        ) == pytest.approx(0.5 * value, rel=1e-6)

    def test_bound_dominates(self):
        lam, loop = 0.05, 4.0
        assert mod_distribution_distance_from_uniform(lam, loop) <= (
            uniform_limit_error_bound(lam, loop)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mod_density(0.5, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            mod_density(2.0, 1.0, 1.0)


class TestBusyIdle:
    @pytest.mark.parametrize(
        "lam,busy,period",
        [(0.1, 3.0, 10.0), (2.5, 0.5, 1.0), (1e-7, 43200.0, 86400.0)],
    )
    def test_paper_form_equals_simplified(self, lam, busy, period):
        assert busy_idle_mttf_paper_form(
            lam, busy, period
        ) == pytest.approx(
            busy_idle_mttf_closed_form(lam, busy, period), rel=1e-10
        )

    def test_matches_renewal_machinery(self):
        lam, busy, period = 0.8, 2.0, 7.0
        profile = busy_idle_profile(busy, period)
        assert busy_idle_mttf_closed_form(
            lam, busy, period
        ) == pytest.approx(exact_component_mttf(lam, profile), rel=1e-12)

    def test_avf_step_value(self):
        assert avf_step_mttf_busy_idle(0.5, 2.0, 8.0) == pytest.approx(
            (8.0 / 2.0) / 0.5
        )

    def test_relative_error_vanishes_at_small_mass(self):
        assert relative_error_busy_idle(1e-9, 5.0, 10.0) < 1e-6

    def test_relative_error_grows_with_rate(self):
        errors = [
            relative_error_busy_idle(lam, 5.0, 10.0)
            for lam in (0.01, 0.1, 0.5)
        ]
        assert errors[0] < errors[1] < errors[2]

    def test_figure3_structure(self):
        points = figure3_curves()
        assert len(points) == 16 * 3  # 16 loop lengths x 3 scales
        # Error grows with the rate scale at fixed L.
        at_16_days = {
            p.rate_scale: p.relative_error
            for p in points
            if p.loop_days == 16
        }
        assert at_16_days[1.0] < at_16_days[3.0] < at_16_days[5.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            busy_idle_mttf_closed_form(1.0, 0.0, 5.0)
        with pytest.raises(ConfigurationError):
            busy_idle_mttf_closed_form(1.0, 5.0, 5.0)
        with pytest.raises(ConfigurationError):
            busy_idle_mttf_closed_form(0.0, 1.0, 5.0)


class TestHalfNormalSofr:
    def test_component_mttf(self):
        assert halfnormal_component_mttf() == pytest.approx(
            1.0 / math.sqrt(math.pi)
        )

    def test_single_component_exact_equals_mttf(self):
        assert halfnormal_system_mttf_exact(1) == pytest.approx(
            halfnormal_component_mttf(), rel=1e-8
        )

    def test_sofr_underestimates(self):
        for n in (2, 8, 32):
            assert halfnormal_system_mttf_sofr(n) < (
                halfnormal_system_mttf_exact(n)
            )

    def test_paper_endpoints(self):
        # "error grows from 15% ... to about 32% for 32 components".
        assert halfnormal_relative_error(2) == pytest.approx(0.146, abs=0.005)
        assert halfnormal_relative_error(32) == pytest.approx(0.344, abs=0.01)

    def test_error_monotone(self):
        errors = [p.relative_error for p in figure4_curve()]
        assert all(a < b for a, b in zip(errors, errors[1:]))

    def test_exact_matches_sampling(self, rng):
        from repro.reliability import HalfNormalSquare

        n = 4
        samples = (
            HalfNormalSquare().sample(200_000 * n, rng).reshape(-1, n).min(axis=1)
        )
        assert samples.mean() == pytest.approx(
            halfnormal_system_mttf_exact(n), rel=0.01
        )

    #: ``∫_0^∞ erfc(y)^N dy`` to 30 digits (mpmath at 40-digit working
    #: precision), beside the closed forms at N = 1 and 2.
    EXACT_30_DIGITS = {
        1: 1.0 / math.sqrt(math.pi),
        2: (2.0 - math.sqrt(2.0)) / math.sqrt(math.pi),
        4: 0.185320157624852535609263208109,
        8: 0.0999920587848386156833465494798,
        16: 0.0523770898295576448762218005088,
        32: 0.0268911088229298059176619107688,
        256: 0.00344843486972592934044711544073,
    }

    @pytest.mark.parametrize("n", sorted(EXACT_30_DIGITS))
    def test_quadrature_matches_30_digits(self, n):
        assert halfnormal_system_mttf_exact(n) == pytest.approx(
            self.EXACT_30_DIGITS[n], rel=1e-15, abs=0.0
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            halfnormal_system_mttf_exact(0)
        with pytest.raises(ConfigurationError):
            halfnormal_system_mttf_sofr(0)


class TestGeometricErlang:
    def test_mixture_collapses_to_exponential(self):
        # Section 3.2.1: the geometric mixture of Erlangs IS the
        # exponential with rate λ·AVF.
        lam, avf = 2.0, 0.3
        x = np.linspace(0.01, 3.0, 25)
        mixture = geometric_erlang_mixture_pdf(x, lam, avf, terms=400)
        limit = exponential_limit_pdf(x, lam, avf)
        np.testing.assert_allclose(mixture, limit, rtol=1e-8)

    def test_avf_one_is_plain_exponential(self):
        lam = 1.5
        x = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(
            geometric_erlang_mixture_pdf(x, lam, 1.0),
            lam * np.exp(-lam * x),
            rtol=1e-12,
        )

    def test_truncation_converges(self):
        lam, avf, x = 1.0, 0.2, 2.0
        few = float(geometric_erlang_mixture_pdf(x, lam, avf, terms=3))
        many = float(geometric_erlang_mixture_pdf(x, lam, avf, terms=300))
        limit = float(exponential_limit_pdf(x, lam, avf))
        assert abs(many - limit) < abs(few - limit)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            geometric_erlang_mixture_pdf(1.0, -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            geometric_erlang_mixture_pdf(1.0, 1.0, 1.5)
        with pytest.raises(ConfigurationError):
            geometric_erlang_mixture_pdf(-1.0, 1.0, 0.5)
