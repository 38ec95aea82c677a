"""Chunked Monte-Carlo reduction tests (merge correctness, determinism)."""

import math

import numpy as np
import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    chunk_configs,
    estimate_from_moments,
    merge_moments,
    moments_from_samples,
    monte_carlo_component_mttf,
    monte_carlo_mttf,
    sample_system_ttf,
    system_chunk_moments,
)
from repro.errors import EstimationError
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def system(day_profile):
    return SystemModel(
        [Component("n", 2.0 / SECONDS_PER_DAY, day_profile,
                   multiplicity=8)]
    )


class TestChunkConfigs:
    def test_trials_partition_exactly(self):
        config = MonteCarloConfig(trials=10_007, seed=5, chunks=8)
        chunks = chunk_configs(config)
        assert len(chunks) == 8
        assert sum(c.trials for c in chunks) == 10_007
        assert all(c.chunks == 1 for c in chunks)

    def test_seeds_deterministic_and_distinct(self):
        config = MonteCarloConfig(trials=1_000, seed=5, chunks=4)
        a = [c.seed for c in chunk_configs(config)]
        b = [c.seed for c in chunk_configs(config)]
        assert a == b
        assert len(set(a)) == 4

    def test_parent_seed_changes_chunk_seeds(self):
        a = chunk_configs(MonteCarloConfig(trials=100, seed=1, chunks=2))
        b = chunk_configs(MonteCarloConfig(trials=100, seed=2, chunks=2))
        assert [c.seed for c in a] != [c.seed for c in b]

    def test_chunks_clamped_to_trials(self):
        config = MonteCarloConfig(trials=3, seed=0, chunks=10)
        chunks = chunk_configs(config)
        assert len(chunks) == 3
        assert all(c.trials == 1 for c in chunks)

    def test_invalid_chunks_rejected(self):
        with pytest.raises(EstimationError, match="chunks"):
            MonteCarloConfig(trials=10, chunks=0)


class TestMomentMerge:
    def test_merged_moments_match_whole_array(self, system):
        config = MonteCarloConfig(trials=9_001, seed=11, chunks=7)
        chunks = chunk_configs(config)
        merged = merge_moments(
            [system_chunk_moments(system, c) for c in chunks]
        )
        samples = np.concatenate(
            [sample_system_ttf(system, c) for c in chunks]
        )
        assert merged.count == samples.size
        assert merged.mean == pytest.approx(
            float(samples.mean()), rel=1e-12
        )
        # Merged stderr must equal the ddof=1 stderr of the pooled
        # samples — the merge is exact, not an approximation.
        est = estimate_from_moments(merged, "mc")
        expected = float(
            samples.std(ddof=1) / math.sqrt(samples.size)
        )
        assert est.std_error_seconds == pytest.approx(
            expected, rel=1e-9
        )

    def test_merge_is_order_deterministic(self, system):
        chunks = chunk_configs(
            MonteCarloConfig(trials=4_000, seed=2, chunks=4)
        )
        parts = [system_chunk_moments(system, c) for c in chunks]
        assert merge_moments(parts) == merge_moments(list(parts))

    def test_empty_merge_rejected(self):
        with pytest.raises(EstimationError, match="no sample moments"):
            merge_moments([])

    def test_all_infinite_chunks_merge_to_infinite(self):
        inf = moments_from_samples(np.full(10, np.inf))
        merged = merge_moments([inf, inf])
        assert math.isinf(merged.mean) and merged.count == 20
        est = estimate_from_moments(merged, "mc")
        assert math.isinf(est.mttf_seconds)

    def test_mixed_infinite_rejected(self):
        finite = moments_from_samples(np.array([1.0, 2.0]))
        inf = moments_from_samples(np.full(2, np.inf))
        with pytest.raises(EstimationError, match="mixed"):
            merge_moments([finite, inf])


class TestChunkedEstimates:
    def test_chunked_estimate_reproducible(self, system):
        config = MonteCarloConfig(trials=6_000, seed=9, chunks=6)
        assert monte_carlo_mttf(system, config) == monte_carlo_mttf(
            system, config
        )

    def test_chunked_component_matches_system_single(self, day_profile):
        comp = Component("n", 1.0 / SECONDS_PER_DAY, day_profile)
        config = MonteCarloConfig(trials=4_000, seed=3, chunks=4)
        a = monte_carlo_component_mttf(comp, config)
        b = monte_carlo_mttf(SystemModel([comp]), config)
        assert a.mttf_seconds == b.mttf_seconds

    def test_chunked_agrees_with_unchunked_within_noise(self, system):
        mono = monte_carlo_mttf(
            system, MonteCarloConfig(trials=40_000, seed=1)
        )
        chunked = monte_carlo_mttf(
            system, MonteCarloConfig(trials=40_000, seed=1, chunks=8)
        )
        tolerance = 6 * math.hypot(
            mono.std_error_seconds, chunked.std_error_seconds
        )
        assert abs(
            mono.mttf_seconds - chunked.mttf_seconds
        ) <= tolerance

    def test_zero_rate_chunked_is_infinite(self, day_profile):
        comp = Component("never", 0.0, day_profile)
        est = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=100, seed=0, chunks=4)
        )
        assert math.isinf(est.mttf_seconds)
