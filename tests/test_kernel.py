"""Compiled sampling plans: tables, pickles, bit-identity.

Every inverse Monte-Carlo draw runs through a
:class:`~repro.core.kernel.SamplingPlan`, and the plans promise
*bit-identical* estimates: with batched dispatch and plan hydration,
any result must byte-match the legacy object-graph sampler, which
``sampler_oracle`` keeps as the oracle. These tests enforce that
promise at every level: compiled tables vs hazard objects, plan
sampling vs the oracle (property-tested across profiles, methods, and
phases), the batch engine end to end (executors, worker counts, shards,
adaptive stopping) against oracle-installed baselines, plan pickling,
and the worker hydration protocol. Plus the satellite invariants:
memoized ``combined_intensity`` and the vectorized survival integral's
exact agreement with the scalar closed forms.

The cheap-trial layer is held to the same standard: the bucket-guided
search must return ``np.searchsorted``'s index on fuzzed tables, the
sliced sampler must match the oracle at trial counts on both sides of
every slice edge, malformed tables must be refused with a typed error,
plans must keep their source model and build component dicts lazily,
and the plan cache must evict least recently used first.
"""

import json
import pickle

import numpy as np
import pytest
import sampler_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Component,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    sample_system_ttf,
)
from repro.core import kernel as kernel_mod
from repro.core.kernel import (
    CompiledNested,
    CompiledPiecewise,
    PLAN_MISS,
    PLAN_OK,
    SamplingPlan,
    clear_plan_cache,
    compile_intensity,
    plan_for_component,
    plan_for_system,
    run_plan_chunks,
)
from repro.core.montecarlo import adaptive_chunk_configs
from repro.errors import ConfigurationError, ProfileError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.methods import evaluate_design_space, merge_result_sets
from repro.reliability.hazard import (
    NestedHazard,
    PiecewiseHazard,
    _segment_integral,
    _segment_weighted_integral,
)
from repro.units import SECONDS_PER_DAY
from repro.workloads.longrun import (
    combined_workload,
    day_workload,
    week_workload,
)


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """Plan hydration is process-global; isolate it per test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def piecewise_system(day_profile):
    return SystemModel(
        [
            Component("cpu", 2.0 / SECONDS_PER_DAY, day_profile),
            Component(
                "cache", 1.0 / SECONDS_PER_DAY, day_profile,
                multiplicity=3,
            ),
        ]
    )


@pytest.fixture
def nested_system():
    workload = combined_workload(day_workload(0.5), week_workload(5.0))
    return SystemModel([Component("core", 1e-6, workload)])


@st.composite
def piecewise_hazards(draw, max_segments=5):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    durations = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=n, max_size=n,
        )
    )
    rates = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=5.0),
            ),
            min_size=n, max_size=n,
        )
    )
    return PiecewiseHazard.from_segments(list(zip(durations, rates)))


@st.composite
def nested_hazards(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    segments = []
    for _ in range(n):
        duration = draw(st.floats(min_value=0.5, max_value=20.0))
        inner = draw(piecewise_hazards(max_segments=3))
        segments.append((duration, inner))
    return NestedHazard(segments)


def _profile_of(hazard: PiecewiseHazard) -> PiecewiseProfile:
    # Rate 1 makes the hazard the vulnerability profile itself.
    durations = np.diff(hazard.breakpoints)
    values = np.clip(hazard.rates, 0.0, 1.0)
    return PiecewiseProfile.from_segments(
        list(zip(durations.tolist(), values.tolist()))
    )


@st.composite
def profiles(draw):
    """A piecewise or a nested vulnerability profile."""
    if draw(st.booleans()):
        return _profile_of(draw(piecewise_hazards()))
    n = draw(st.integers(min_value=1, max_value=3))
    return NestedProfile(
        [
            (
                draw(st.floats(min_value=0.5, max_value=20.0)),
                _profile_of(draw(piecewise_hazards(max_segments=3))),
            )
            for _ in range(n)
        ]
    )


#: Trial counts on both sides of the blocked transform's slice edges.
_SLICE = kernel_mod.SLICE_TRIALS
SLICE_EDGE_TRIALS = (1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 7)


@st.composite
def sorted_tables(draw):
    """Sorted finite tables, 1 to thousands of entries.

    Shapes: spread-out entries (breakpoints), runs of equal entries
    (cumulative tables over zero-rate segments), tight clusters (most
    entries in a few buckets), subnormal spans (the bucket scale
    overflows) and spans over hundreds of decades (up to one that
    overflows itself).
    """
    n = draw(st.integers(min_value=1, max_value=3000))
    shape = draw(
        st.sampled_from(["spread", "runs", "clusters", "subnormal", "wide"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from([0.0, 1.0, -3.5, 1e12]))
    if shape == "spread":
        table = origin + np.cumsum(rng.exponential(size=n))
    elif shape == "runs":
        steps = rng.exponential(size=n) * (rng.random(n) < 0.5)
        table = origin + np.cumsum(steps)
    elif shape == "clusters":
        centers = rng.uniform(0.0, 1e6, size=max(1, n // 50))
        table = origin + rng.choice(centers, n) + rng.uniform(0, 1e-6, n)
    elif shape == "subnormal":
        step = float(draw(st.integers(1, 1000))) * 5e-324
        table = np.cumsum(rng.integers(0, 3, size=n) * step)
    else:
        table = np.sign(rng.uniform(-1, 1, n)) * 10.0 ** rng.uniform(
            -308, 308, n
        )
    return np.sort(table)


# ---------------------------------------------------------------------------
# Compiled intensities: same tables, same bits, same refusals.
# ---------------------------------------------------------------------------


class TestCompiledIntensity:
    def grid(self, period):
        # Interior points, exact breakpoints, and both endpoints.
        return np.concatenate(
            [
                np.linspace(0.0, period, 41),
                np.asarray([0.0, period]),
            ]
        )

    @given(piecewise_hazards())
    @settings(max_examples=40, deadline=None)
    def test_piecewise_cumulative_and_invert_bits(self, hazard):
        compiled = compile_intensity(hazard)
        taus = self.grid(hazard.period)
        np.testing.assert_array_equal(
            compiled.cumulative(taus), hazard.cumulative(taus)
        )
        mass = compiled.mass
        if mass > 0:
            us = np.concatenate(
                [
                    np.linspace(mass * 1e-6, mass, 37),
                    # The hazard's own cumulative values: exact
                    # segment-boundary inversions.
                    hazard.cumulative(taus)[
                        hazard.cumulative(taus) > 0
                    ],
                ]
            )
            np.testing.assert_array_equal(
                compiled.invert(us), hazard.invert(us)
            )

    @given(nested_hazards())
    @settings(max_examples=30, deadline=None)
    def test_nested_cumulative_and_invert_bits(self, hazard):
        compiled = compile_intensity(hazard)
        taus = self.grid(hazard.period)
        np.testing.assert_array_equal(
            compiled.cumulative(taus), hazard.cumulative(taus)
        )
        if compiled.mass > 0:
            us = np.linspace(compiled.mass * 1e-6, compiled.mass, 37)
            np.testing.assert_array_equal(
                compiled.invert(us), hazard.invert(us)
            )

    def test_extended_evaluation_bits(self, day_profile):
        hazard = day_profile.to_hazard(2.0 / SECONDS_PER_DAY)
        compiled = compile_intensity(hazard)
        t = np.linspace(0.0, 5.5 * hazard.period, 101)[1:]
        np.testing.assert_array_equal(
            kernel_mod._cumulative_extended(compiled, t),
            hazard.cumulative_extended(t),
        )
        u = np.linspace(1e-9, 4.0 * compiled.mass, 101)
        np.testing.assert_array_equal(
            kernel_mod._invert_extended(compiled, u),
            hazard.invert_extended(u),
        )

    def test_validation_matches_hazard(self, day_profile):
        hazard = day_profile.to_hazard(1e-5)
        compiled = compile_intensity(hazard)
        with pytest.raises(ProfileError, match="tau"):
            compiled.cumulative(np.asarray([-1.0]))
        with pytest.raises(ProfileError, match="tau"):
            compiled.cumulative(np.asarray([hazard.period * 2]))
        with pytest.raises(ProfileError, match="u outside"):
            compiled.invert(np.asarray([0.0]))
        with pytest.raises(ProfileError, match="u outside"):
            compiled.invert(np.asarray([compiled.mass * 2]))

    def test_rejects_uncompilable_intensity(self):
        with pytest.raises(ConfigurationError, match="cannot compile"):
            compile_intensity("not an intensity")

    def test_rejects_inconsistent_tables(self):
        with pytest.raises(ConfigurationError, match="inconsistent"):
            CompiledPiecewise(
                np.asarray([0.0, 1.0]),
                np.asarray([1.0, 2.0]),
                np.asarray([0.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "field, values",
        [
            ("breakpoints", [0.0, 2.0, 1.0, 3.0]),
            ("breakpoints", [1.0, 2.0, 3.0, 4.0]),
            ("breakpoints", [0.0, 1.0, 2.0, np.inf]),
            ("rates", [1.0, -1.0, 1.0]),
            ("rates", [1.0, 1.0, np.nan]),
            ("cum", [0.0, 5.0, 1.0, 6.0]),
            ("cum", [0.0, 1.0, 2.0, np.inf]),
            ("cum", [0.5, 1.0, 2.0, 3.0]),
        ],
    )
    def test_rejects_malformed_wire_tables(self, field, values):
        # A pool worker rebuilds unpickled tables through the
        # constructor (``__reduce__``), so its checks guard them.
        tables = {
            "breakpoints": [0.0, 1.0, 2.0, 3.0],
            "rates": [1.0, 0.0, 2.0],
            "cum": [0.0, 1.0, 1.0, 3.0],
        }
        CompiledPiecewise(*tables.values())  # the well-formed original
        tables[field] = values
        with pytest.raises(ConfigurationError, match=repr(field)):
            CompiledPiecewise(*tables.values())

    def test_rejects_malformed_nested_tables(self, nested_system):
        nested = plan_for_system(nested_system).intensity
        tables = {
            "starts": nested.starts,
            "durations": nested.durations,
            "cum_mass": nested.cum_mass,
        }
        for field in ("starts", "cum_mass"):
            broken = {**tables, field: tables[field][::-1]}
            with pytest.raises(ConfigurationError, match=repr(field)):
                CompiledNested(*broken.values(), nested.inners)
        inner = nested.inners[0]
        cum = inner.cum.copy()
        cum[-1] = float("nan")
        with pytest.raises(ConfigurationError, match="'cum'"):
            CompiledNested(
                *tables.values(),
                [CompiledPiecewise(inner.bp, inner.rates, cum),
                 *nested.inners[1:]],
            )


# ---------------------------------------------------------------------------
# The bucket-guided search: np.searchsorted's index, exactly.
# ---------------------------------------------------------------------------


def _queries(table, rng):
    """Every entry, its float neighbours, 0, the extremes, and points
    drawn between random pairs of entries."""
    a, b = rng.choice(table, 256), rng.choice(table, 256)
    w = rng.random(256)
    return np.concatenate(
        [
            table,
            np.nextafter(table, -np.inf),
            np.nextafter(table, np.inf),
            [0.0, -1e308, 1e308, -5e-324, 5e-324],
            a * w + b * (1.0 - w),
        ]
    )


class TestGuide:
    @given(sorted_tables(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_both_sides(self, table, seed):
        guide = kernel_mod._Guide(table)
        queries = _queries(table, np.random.default_rng(seed))
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                guide.search(queries, side),
                np.searchsorted(table, queries, side=side),
            )

    def test_table_is_a_view_of_the_padded_buffer(self):
        table = np.asarray([0.0, 1.0, 1.0, 4.0])
        guide = kernel_mod._Guide(table)
        np.testing.assert_array_equal(guide.table, table)
        assert guide.table.base is not None
        assert guide.table.base.size > table.size

    def test_subnormal_span_falls_back_to_one_bucket(self):
        table = np.asarray([0.0, 5e-324, 1e-323])
        guide = kernel_mod._Guide(table)
        queries = np.asarray([0.0, 5e-324, 1e-323, 1.0, -1.0])
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                guide.search(queries, side),
                np.searchsorted(table, queries, side=side),
            )

    def test_scalar_queries(self):
        guide = kernel_mod._Guide(np.asarray([0.0, 1.0, 2.0]))
        assert guide.search(np.float64(1.0), "right") == 2
        assert np.shape(guide.search(np.float64(1.0), "left")) == ()


# ---------------------------------------------------------------------------
# Plan sampling vs the oracle samplers.
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(trials=400, seed=9, chunks=1)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestPlanBitIdentity:
    @pytest.mark.parametrize("method", ["inverse", "arrival"])
    @pytest.mark.parametrize("start_phase", ["zero", "random"])
    def test_system_samples_match_legacy(
        self, piecewise_system, nested_system, method, start_phase
    ):
        for system in (piecewise_system, nested_system):
            config = _config(method=method, start_phase=start_phase)
            legacy = oracle.sample_system_ttf(system, config)
            via_plan = plan_for_system(system).sample_ttf(config)
            np.testing.assert_array_equal(via_plan, legacy)

    @pytest.mark.parametrize("method", ["inverse", "arrival"])
    def test_component_samples_match_legacy(self, day_profile, method):
        component = Component("unit", 3.0 / SECONDS_PER_DAY, day_profile)
        config = _config(method=method)
        legacy = oracle.sample_component_ttf(component, config)
        via_plan = plan_for_component(component).sample_ttf(config)
        np.testing.assert_array_equal(via_plan, legacy)

    def test_config_routing_is_transparent(self, piecewise_system):
        """``sample_system_ttf`` routes inverse draws through a plan."""
        routed = sample_system_ttf(piecewise_system, _config())
        key = f"system:{piecewise_system.content_fingerprint}"
        assert key in kernel_mod._PLANS
        np.testing.assert_array_equal(
            routed, oracle.sample_system_ttf(piecewise_system, _config())
        )

    def test_compiled_path_never_calls_searchsorted(
        self, monkeypatch, piecewise_system, nested_system
    ):
        plans = [
            plan_for_system(s) for s in (piecewise_system, nested_system)
        ]

        def refuse(*_args, **_kwargs):
            raise AssertionError("np.searchsorted on the compiled path")

        monkeypatch.setattr(np, "searchsorted", refuse)
        for plan in plans:
            for start_phase in ("zero", "random"):
                plan.sample_ttf(_config(start_phase=start_phase))

    def test_masked_system_is_all_infinite(self, piecewise_system):
        masked = SystemModel(
            [
                Component(
                    "off", 0.0, busy_idle_profile(1.0, 2.0, 0.0)
                )
            ]
        )
        samples = plan_for_system(masked).sample_ttf(_config())
        assert np.all(np.isinf(samples))

    @given(
        profiles(),
        st.sampled_from(SLICE_EDGE_TRIALS),
        st.sampled_from(["zero", "random"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_samples_match_legacy(
        self, profile, trials, start_phase
    ):
        system = SystemModel([Component("c", 0.8, profile)])
        config = _config(trials=trials, start_phase=start_phase)
        legacy = oracle.sample_system_ttf(system, config)
        clear_plan_cache()
        via_plan = plan_for_system(system).sample_ttf(config)
        np.testing.assert_array_equal(via_plan, legacy)


# ---------------------------------------------------------------------------
# Engine-level equality: every scheduler configuration, same bytes.
# ---------------------------------------------------------------------------


def _space(day_profile):
    rate = 2.0 / SECONDS_PER_DAY
    return [
        (
            f"C={c}",
            SystemModel(
                [Component("node", rate, day_profile, multiplicity=c)]
            ),
        )
        for c in (1, 4, 16)
    ]


def _result_bytes(space, **kwargs):
    mc = kwargs.pop("mc", MonteCarloConfig(trials=2_000, seed=3, chunks=4))
    result = evaluate_design_space(
        space,
        methods=["avf_sofr"],
        reference="monte_carlo",
        mc_config=mc,
        skip_unsupported=True,
        **kwargs,
    )
    return json.dumps(result.to_dict(), sort_keys=True)


def _oracle_bytes(space, **kwargs):
    """One ``workers=1`` thread run with every draw through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        oracle.install(patch)
        baseline = _result_bytes(
            space, workers=1, executor="thread", **kwargs
        )
        assert oracle.draws > 0
    return baseline


class TestEngineBitIdentity:
    def test_oracle_install_routes_engine_draws(self, day_profile):
        space = _space(day_profile)
        with pytest.MonkeyPatch.context() as patch:
            oracle.install(patch)
            assert oracle.draws == 0
            _result_bytes(space, workers=2, executor="thread")
            # Three points of four chunks each, one draw per chunk.
            assert oracle.draws == 12
        assert SamplingPlan.sample_ttf is not oracle._plan_sample_ttf

    def test_kernel_matches_legacy_across_schedulers(self, day_profile):
        space = _space(day_profile)
        baseline = _oracle_bytes(space)
        for kwargs in (
            dict(workers=1, executor="thread"),
            dict(workers=2, executor="thread"),
            dict(workers=2, executor="process"),
        ):
            assert _result_bytes(space, **kwargs) == baseline

    def test_adaptive_kernel_matches_legacy(self, day_profile):
        space = _space(day_profile)
        mc = MonteCarloConfig(
            trials=4_000, seed=3, chunks=8,
            stopping=StoppingRule(
                target_rel_stderr=0.08, min_trials=500
            ),
        )
        baseline = _oracle_bytes(space, mc=mc)
        assert _result_bytes(space, workers=2, mc=mc) == baseline
        assert (
            _result_bytes(space, workers=2, executor="process", mc=mc)
            == baseline
        )

    def test_shard_merge_matches_unsharded_legacy(self, day_profile):
        space = _space(day_profile)
        unsharded = _oracle_bytes(space)
        shards = [
            evaluate_design_space(
                space,
                methods=["avf_sofr"],
                reference="monte_carlo",
                mc_config=MonteCarloConfig(trials=2_000, seed=3, chunks=4),
                skip_unsupported=True,
                workers=2,
                executor="process",
                shard=(i, 2),
            )
            for i in (0, 1)
        ]
        merged = merge_result_sets(shards)
        assert json.dumps(merged.to_dict(), sort_keys=True) == unsharded


# ---------------------------------------------------------------------------
# Plan pickling: the form a process pool ships.
# ---------------------------------------------------------------------------


class TestPlanWire:
    def test_round_trip_samples_identically(self, nested_system):
        plan = plan_for_system(nested_system)
        clone = pickle.loads(pickle.dumps(plan))
        config = _config(trials=256)
        np.testing.assert_array_equal(
            clone.sample_ttf(config), plan.sample_ttf(config)
        )
        assert clone.cache_key == plan.cache_key

    def test_pickle_drops_model_cache(self, piecewise_system):
        plan = plan_for_system(piecewise_system)
        plan.model()  # populate the per-process cache
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._model is None
        config = _config(method="arrival")
        np.testing.assert_array_equal(
            clone.sample_ttf(config), plan.sample_ttf(config)
        )

    def test_arrival_model_rebuild_preserves_fingerprint(
        self, piecewise_system
    ):
        plan = plan_for_system(piecewise_system)
        rebuilt = pickle.loads(pickle.dumps(plan)).model()
        assert (
            rebuilt.content_fingerprint
            == piecewise_system.content_fingerprint
        )

    def test_plan_keeps_its_source_and_builds_dicts_lazily(
        self, piecewise_system, day_profile
    ):
        plan = plan_for_system(piecewise_system)
        assert plan.model() is piecewise_system
        assert plan._components is None
        assert plan.__getstate__()["components"] == tuple(
            c.to_dict() for c in piecewise_system.components
        )
        component = Component("unit", 3.0 / SECONDS_PER_DAY, day_profile)
        plan = plan_for_component(component)
        assert plan.model() is component
        assert plan.components == (component.to_dict(),)

    def test_plan_needs_exactly_one_source(self, piecewise_system):
        intensity = plan_for_system(piecewise_system).intensity
        for sources in ({}, {"components": [], "model": piecewise_system}):
            with pytest.raises(ConfigurationError, match="exactly one"):
                SamplingPlan("system", "fp", intensity, **sources)

    def test_guides_stay_out_of_wire_forms_and_pickles(self, nested_system):
        plan = plan_for_system(nested_system)
        pickled = pickle.dumps(plan)
        plan.sample_ttf(_config(start_phase="random"))
        assert plan.intensity._guides  # sampling built the guides
        assert pickle.dumps(plan) == pickled
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.intensity._guides == {}
        assert all(inner._guides == {} for inner in clone.intensity.inners)
        config = _config(trials=256, start_phase="random")
        np.testing.assert_array_equal(
            clone.sample_ttf(config), plan.sample_ttf(config)
        )


# ---------------------------------------------------------------------------
# Hydration cache and the batched-dispatch miss protocol.
# ---------------------------------------------------------------------------


class TestHydration:
    def test_plan_cache_evicts_least_recently_used(self):
        profile = busy_idle_profile(1.0, 1.0, 0.5)
        components = [
            Component(f"c{i}", 1e-3 * (i + 1), profile)
            for i in range(kernel_mod._PLANS_CAP + 2)
        ]
        first, second, *rest = components
        first_plan = plan_for_component(first)
        second_plan = plan_for_component(second)
        for component in rest[:-2]:
            plan_for_component(component)
        # Hits refresh recency, through either entry point.
        assert plan_for_component(first) is first_plan
        assert run_plan_chunks(second_plan.cache_key, None, [])[0] == PLAN_OK
        plan_for_component(rest[-2])
        plan_for_component(rest[-1])
        assert plan_for_component(first) is first_plan
        assert plan_for_component(second) is second_plan
        evicted = {f"component:{c.content_fingerprint}" for c in rest[:2]}
        assert not evicted & set(kernel_mod._PLANS)
        assert len(kernel_mod._PLANS) == kernel_mod._PLANS_CAP

    def test_plan_for_system_memoizes(self, piecewise_system):
        assert plan_for_system(piecewise_system) is plan_for_system(
            piecewise_system
        )

    def test_identical_content_shares_a_plan(self, day_profile):
        a = SystemModel(
            [Component("x", 1e-4, day_profile, multiplicity=2)]
        )
        b = SystemModel(
            [Component("x", 1e-4, day_profile, multiplicity=2)]
        )
        assert plan_for_system(a) is plan_for_system(b)

    def test_run_plan_chunks_miss_then_hydrate(self, piecewise_system):
        plan = plan_for_system(piecewise_system)
        config = _config(trials=512, chunks=2)
        jobs = list(enumerate(adaptive_chunk_configs(config)))
        clear_plan_cache()
        status, payload = run_plan_chunks(plan.cache_key, None, jobs)
        assert status == PLAN_MISS
        assert payload == plan.cache_key
        # Resubmission with the plan attached hydrates the cache...
        status, pairs = run_plan_chunks(plan.cache_key, plan, jobs)
        assert status == PLAN_OK
        assert [index for index, _ in pairs] == [0, 1]
        # ...so the next key-only call succeeds.
        status, again = run_plan_chunks(plan.cache_key, None, jobs)
        assert status == PLAN_OK
        assert again == pairs

    def test_batch_moments_match_direct_chunks(self, nested_system):
        plan = plan_for_system(nested_system)
        config = _config(trials=600, chunks=3)
        jobs = list(enumerate(adaptive_chunk_configs(config)))
        _status, pairs = run_plan_chunks(plan.cache_key, plan, jobs)
        for (index, moments), (_, chunk_config) in zip(pairs, jobs):
            expected = plan.chunk_moments(chunk_config)
            assert moments == expected, index


# ---------------------------------------------------------------------------
# Satellites: memoized combined_intensity, vectorized survival integral.
# ---------------------------------------------------------------------------


class TestCombinedIntensityMemo:
    def test_same_object_across_calls(self, piecewise_system):
        assert (
            piecewise_system.combined_intensity()
            is piecewise_system.combined_intensity()
        )

    def test_memo_preserves_values(self, piecewise_system):
        first = piecewise_system.combined_intensity()
        rebuilt = piecewise_system._build_combined_intensity()
        taus = np.linspace(0.0, first.period, 57)
        np.testing.assert_array_equal(
            first.cumulative(taus), rebuilt.cumulative(taus)
        )


def _scalar_survival_integral(hazard, x, weighted):
    """The pre-vectorization per-segment loop, kept as the reference."""
    if x <= 0:
        return 0.0
    x = min(x, hazard.period)
    bp, rates, cum = hazard._bp, hazard._rates, hazard._cum
    m = min(int(np.searchsorted(bp, x, side="left")), rates.size)
    total = 0.0
    for i in range(m):
        t0 = bp[i]
        t1 = min(bp[i + 1], x)
        if t1 <= t0:
            continue
        segment = (
            _segment_weighted_integral
            if weighted
            else _segment_integral
        )
        total += segment(t0, t1, float(cum[i]), float(rates[i]))
    return total


class TestSurvivalIntegralVectorization:
    @given(piecewise_hazards(max_segments=8), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bits_match_scalar_loop(self, hazard, fraction):
        x = hazard.period * fraction
        for weighted in (False, True):
            assert hazard._survival_integral_impl(
                x, weighted
            ) == _scalar_survival_integral(hazard, x, weighted)

    def test_series_branch_bits(self):
        # Rates small enough that r*dt < 1e-8 exercises the series
        # expansion on every segment.
        hazard = PiecewiseHazard.from_segments(
            [(1.0, 1e-12), (2.0, 0.0), (0.5, 9e-9)]
        )
        for frac in (0.3, 0.9999, 1.0):
            x = hazard.period * frac
            for weighted in (False, True):
                assert hazard._survival_integral_impl(
                    x, weighted
                ) == _scalar_survival_integral(hazard, x, weighted)
