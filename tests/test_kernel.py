"""Compiled sampling plans: tables, bit-identity, the plan cache.

Every inverse Monte-Carlo draw runs through a system's compiled plan
(:func:`~repro.core.kernel.inverse_system_ttf`), and the plans promise
*bit-identical* estimates: any result must byte-match the legacy
object-graph sampler, which ``sampler_oracle`` keeps as the oracle.
These tests enforce that promise at every level: compiled tables vs
hazard objects (through the extended forms every draw evaluates), plan
sampling vs the oracle (property-tested across profiles and phases),
and the batch engine end to end (worker counts) against
oracle-installed baselines. Plus the satellite
invariants: memoized ``combined_intensity`` and the vectorized survival
integral's exact agreement with the scalar closed forms.

The cheap-trial layer is held to the same standard: the segment
lookup must return the segment ``np.searchsorted`` selects on fuzzed
tables (NaN included), flat nested plans must match the oracle at every
outer boundary, the sliced sampler must match the oracle at trial counts
on both sides of every slice edge, the guard chain and clamps that run
only when a reduction finds work must keep the bits on inputs that take
each of them, a component instance must draw through its one-instance
system's plan, and the plan cache must evict least recently used
first. Each
``(seed, trials)`` stream is drawn once, read-only, and shared by every
plan and thread that draws at it, and lookups built by racing threads
draw the oracle's bits.
"""

import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest
import sampler_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sampler_golden import sampler_systems

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    sample_component_ttf,
    sample_system_ttf,
)
from repro.core import kernel as kernel_mod
from repro.core import montecarlo as mc
from repro.core.kernel import (
    clear_plan_cache,
    compile_intensity,
    inverse_system_ttf,
    plan_for_system,
)
from repro.errors import ConfigurationError, ProfileError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.methods import evaluate_design_space
from repro.reliability.hazard import (
    _REL_TOL,
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
    """The plan cache is process-global; isolate it per test."""
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


def _extended(compiled, name, x):
    """A compiled plan's ``cumulative_extended`` or ``invert_extended``:
    the forms every draw evaluates, compared with the hazard method of
    the same name."""
    return getattr(kernel_mod, f"_{name}")(compiled, x)


#: Trial counts on both sides of the blocked transform's slice edges.
_SLICE = kernel_mod.SLICE_TRIALS
SLICE_EDGE_TRIALS = (1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 7)


@st.composite
def sorted_tables(draw):
    """Sorted finite tables that start at 0, 2 to thousands of entries.

    Shapes: spread-out entries (breakpoints), runs of equal entries
    (cumulative tables over zero-rate segments), tight clusters (buckets
    that hold many entries), subnormal spans (the bucket scale
    overflows), spans over hundreds of decades and a single distinct
    value. The first entry is 0.0 or -0.0.
    """
    n = draw(st.integers(min_value=2, max_value=3000))
    shape = draw(
        st.sampled_from(
            ["spread", "runs", "clusters", "subnormal", "wide", "single"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = n - 1
    if shape == "spread":
        tail = np.cumsum(rng.exponential(size=rest))
    elif shape == "runs":
        tail = np.cumsum(rng.exponential(size=rest) * (rng.random(rest) < 0.5))
    elif shape == "clusters":
        centers = rng.uniform(0.0, 1e6, size=max(1, n // 50))
        tail = rng.choice(centers, rest) + rng.uniform(0, 1e-6, rest)
    elif shape == "subnormal":
        step = float(draw(st.integers(1, 1000))) * 5e-324
        tail = np.cumsum(rng.integers(0, 3, size=rest) * step)
    elif shape == "wide":
        tail = 10.0 ** rng.uniform(-308, 308, rest)
    else:
        tail = np.zeros(rest)
    first = draw(st.sampled_from([0.0, -0.0]))
    return np.concatenate(([first], np.sort(tail)))


# ---------------------------------------------------------------------------
# Compiled intensities: same tables, same bits.
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
            _extended(compiled, "cumulative_extended", taus),
            hazard.cumulative_extended(taus),
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
                _extended(compiled, "invert_extended", us),
                hazard.invert_extended(us),
            )

    @given(nested_hazards())
    @settings(max_examples=30, deadline=None)
    def test_nested_cumulative_and_invert_bits(self, hazard):
        compiled = compile_intensity(hazard)
        taus = self.grid(hazard.period)
        np.testing.assert_array_equal(
            _extended(compiled, "cumulative_extended", taus),
            hazard.cumulative_extended(taus),
        )
        if compiled.mass > 0:
            us = np.linspace(compiled.mass * 1e-6, compiled.mass, 37)
            np.testing.assert_array_equal(
                _extended(compiled, "invert_extended", us),
                hazard.invert_extended(us),
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
        for name, x, match in (
            ("cumulative_extended", [-1.0], "non-negative"),
            ("invert_extended", [0.0], "positive"),
        ):
            with pytest.raises(ProfileError, match=match):
                getattr(hazard, name)(np.asarray(x))
            with pytest.raises(ProfileError, match=match):
                _extended(compiled, name, np.asarray(x))

    def test_rejects_uncompilable_intensity(self):
        with pytest.raises(ConfigurationError, match="cannot compile"):
            compile_intensity("not an intensity")


# ---------------------------------------------------------------------------
# Reduction-gated passes: skipped only where they change nothing.
# ---------------------------------------------------------------------------


def _multiples(length, count=10_000):
    """``length``, its exact multiples ``k * length`` for k = 1..count,
    and the float neighbours of each multiple on both sides."""
    exact = np.arange(1.0, count + 1) * length
    return np.concatenate(
        [
            [length],
            exact,
            np.nextafter(exact, 0.0),
            np.nextafter(exact, np.inf),
        ]
    )


@pytest.fixture(scope="module")
def paper_hazards():
    """day, a 13k-segment SPEC table and the nested ``combined`` table."""
    return {
        name: system.combined_intensity()
        for name, system in sampler_systems().items()
    }


class TestGatedPasses:
    """The guard chain of ``invert_extended`` and the clamps run only
    when a reduction finds an element they would change. Inputs at
    exact period multiples and their neighbours make them change
    elements, so a skip condition that is too eager changes bits."""

    @pytest.mark.parametrize("mass", [1.0, 0.1, 3.7e-9, 2.5e6])
    def test_wrap_is_the_guard_chain(self, mass):
        def guard_chain(k, rem):
            # ``CyclicIntensity.invert_extended``'s chain, verbatim.
            under = rem <= 0.0
            k = np.where(under, k - 1, k)
            rem = np.where(under, rem + mass, rem)
            over = rem > mass
            k = np.where(over, k + 1, k)
            rem = np.where(over, rem - mass, rem)
            return k, np.clip(rem, np.finfo(float).smallest_subnormal, mass)

        inside = np.linspace(mass * 1e-3, mass, _SLICE)
        for value in (
            -0.0, 0.0, -mass * 1e-16, np.nextafter(0.0, -1.0),
            np.nextafter(mass, np.inf), mass * (1 + 1e-15), mass, 5e-324,
        ):
            # Alone, and as the one element of its kind in a slice.
            for rem in ([value], np.append(inside, value),
                        np.append(value, inside)):
                rem = np.asarray(rem, dtype=float)
                k = np.arange(float(rem.size))
                expected = guard_chain(k, rem)
                kernel_mod._wrap(k, rem, mass)
                np.testing.assert_array_equal(k, expected[0])
                np.testing.assert_array_equal(rem, expected[1])

    def test_clamped_is_clip(self):
        inside = np.linspace(1e-3, 1.0, _SLICE)
        for value in (-0.0, 0.0, -1e-16, 5e-324, 1.0,
                      np.nextafter(1.0, np.inf), np.nan):
            for x in ([value], np.append(inside, value),
                      np.append(value, inside)):
                x = np.asarray(x, dtype=float)
                clipped = kernel_mod._clamped(x, 0.0, 1.0)
                np.testing.assert_array_equal(clipped, np.clip(x, 0.0, 1.0))
                assert np.array_equal(
                    np.signbit(clipped), np.signbit(np.clip(x, 0.0, 1.0))
                )

    def test_extended_evaluation_at_period_edges(self, paper_hazards):
        taken = Counter()
        for hazard in paper_hazards.values():
            compiled = compile_intensity(hazard)
            mass, period = hazard.mass, hazard.period
            u = _multiples(mass)
            np.testing.assert_array_equal(
                kernel_mod._invert_extended(compiled, u),
                hazard.invert_extended(u),
            )
            t = np.append(_multiples(period), period * (1 + _REL_TOL))
            np.testing.assert_array_equal(
                kernel_mod._cumulative_extended(compiled, t),
                hazard.cumulative_extended(t),
            )
            # The elements each branch changes, by the hazard's own
            # arithmetic.
            rem = u - np.floor(u / mass) * mass
            taken["under"] += np.count_nonzero(rem <= 0)
            rem = np.where(rem <= 0, rem + mass, rem)
            taken["over"] += np.count_nonzero(rem > mass)
            rem = t - np.floor(t / period) * period
            taken["clip"] += np.count_nonzero((rem < 0) | (rem > period))
        assert min(taken.values()) > 0, taken

    def test_clamps_at_the_table_ends(self, paper_hazards):
        for hazard in paper_hazards.values():
            compiled = compile_intensity(hazard)
            for evaluate, end in (
                ("cumulative_extended", hazard.period),
                ("invert_extended", hazard.mass),
            ):
                edges = [
                    np.nextafter(end, 0.0),
                    end,
                    np.nextafter(end, np.inf),
                    end * (1 + _REL_TOL),
                ]
                # One element past the end among a slice of interior
                # ones, first and last: the reductions must see it.
                inside = np.linspace(end * 1e-3, end * 0.999, _SLICE)
                for edge in edges:
                    for x in (
                        np.asarray([edge]),
                        np.append(inside, edge),
                        np.append(edge, inside),
                    ):
                        np.testing.assert_array_equal(
                            _extended(compiled, evaluate, x),
                            getattr(hazard, evaluate)(x),
                        )

    @given(piecewise_hazards(max_segments=8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_property_table_ends(self, hazard, ends_idle):
        """Random tables at their ends, where the division rounding can
        pass the period by an ulp and the inner clamp takes it back."""
        if ends_idle:
            segments = list(
                zip(np.diff(hazard.breakpoints).tolist(),
                    hazard.rates.tolist())
            )
            hazard = PiecewiseHazard.from_segments(segments + [(1.0, 0.0)])
        compiled = compile_intensity(hazard)
        ends = {
            "cumulative_extended": hazard.period,
            "invert_extended": hazard.mass,
        }
        for evaluate, end in ends.items():
            if end <= 0:
                continue
            x = np.asarray(
                [
                    np.nextafter(end, 0.0),
                    end,
                    np.nextafter(end, np.inf),
                    end * (1 + _REL_TOL),
                ]
            )
            for edge in x:
                np.testing.assert_array_equal(
                    _extended(compiled, evaluate, np.asarray([edge])),
                    getattr(hazard, evaluate)(np.asarray([edge])),
                )

    def test_range_checks_refuse_the_same_inputs(self, paper_hazards):
        """NaN fails every comparison, so it neither trips a range check
        nor hides an out-of-range element beside it. Where no check
        trips, NaN comes back with the hazard object's bits."""
        for name in ("gzip_fig6a", "combined_sec54"):
            hazard = paper_hazards[name]
            self._check_range_refusals(hazard, compile_intensity(hazard))

    @staticmethod
    def _check_range_refusals(hazard, compiled):
        nan = float("nan")
        mass, period = hazard.mass, hazard.period
        refused = {
            "invert_extended": [[nan, 0.0], [1.0, nan, -1.0], [-0.0]],
            "cumulative_extended": [[nan, -1.0], [-5e-324, nan]],
        }
        accepted = {
            "invert_extended": [
                [5e-324], [mass * 1e6, 1.0], [nan], [mass * 0.5, nan, 1.0],
                [mass * (1 + _REL_TOL), mass],
            ],
            "cumulative_extended": [
                [-0.0], [0.0, period * 1e6], [nan], [nan, period * 2.5],
                [period * (1 + _REL_TOL), 0.0],
            ],
        }
        for name in refused:
            reference = getattr(hazard, name)
            evaluate = lambda x, name=name: _extended(compiled, name, x)
            for values in refused[name]:
                for call in (reference, evaluate):
                    with pytest.raises(ProfileError):
                        call(np.asarray(values))
            for values in accepted[name]:
                x = np.asarray(values)
                np.testing.assert_array_equal(evaluate(x), reference(x))

    @pytest.mark.parametrize(
        "hazard",
        [
            # NaN ranks into the last segment and stays NaN there,
            # whether that segment accrues hazard or not.
            PiecewiseHazard.from_segments([(1, 1), (1, 0), (1, 2)]),
            PiecewiseHazard.from_segments([(1, 1), (1, 2), (1, 0)]),
            NestedHazard(
                [(2.0, PiecewiseHazard.from_segments([(0.5, 1), (0.5, 0)])),
                 (1.0, 0.0)]
            ),
        ],
        ids=["piecewise", "piecewise-idle-end", "nested-massless-end"],
    )
    def test_nan_queries_get_the_oracle_bits(self, hazard):
        """The hazard objects pass NaN through every entry point, so the
        compiled plans must too, instead of casting it to a bucket
        index."""
        compiled = compile_intensity(hazard)
        x = np.asarray([0.5, np.nan])
        for name in ("invert_extended", "cumulative_extended"):
            expected = getattr(hazard, name)(x)
            assert np.isfinite(expected[0]) and np.isnan(expected[1])
            np.testing.assert_array_equal(
                _extended(compiled, name, x), expected
            )
        self._check_range_refusals(hazard, compiled)


# ---------------------------------------------------------------------------
# The segment lookup: np.searchsorted's segment, exactly.
# ---------------------------------------------------------------------------


def _queries(table, rng):
    """Every entry, its float neighbours and points drawn between random
    pairs of entries, all inside ``[table[0], table[-1]]``; 0, -0.0 and
    NaN."""
    a, b = rng.choice(table, 256), rng.choice(table, 256)
    w = rng.random(256)
    x = np.concatenate(
        [
            table,
            np.nextafter(table, -np.inf),
            np.nextafter(table, np.inf),
            a * w + b * (1.0 - w),
        ]
    )
    x = x[(x >= table[0]) & (x <= table[-1])]
    return np.concatenate([x, [0.0, -0.0, np.nan]])


def _searchsorted_segment(table, x, side):
    """The segment the hazard objects select: searchsorted's, shifted
    and clipped. NaN ranks after every entry."""
    return np.clip(np.searchsorted(table, x, side) - 1, 0, table.size - 2)


class TestLookup:
    @given(
        st.lists(sorted_tables(), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_both_sides(self, tables, seed):
        """One table, or several ranked through one lookup with a table
        index per query (a nested plan's inner tables)."""
        rng = np.random.default_rng(seed)
        lookup = kernel_mod._Lookup(tables)
        offsets = np.cumsum([0] + [t.size for t in tables])
        queries = [_queries(t, rng) for t in tables]
        x = np.concatenate(queries)
        which = np.repeat(np.arange(len(tables)), [q.size for q in queries])
        order = rng.permutation(x.size)
        x, which = x[order], which[order]
        for side in ("left", "right"):
            expected = np.empty(x.size, dtype=np.intp)
            for j, table in enumerate(tables):
                mine = which == j
                expected[mine] = offsets[j] + _searchsorted_segment(
                    table, x[mine], side
                )
            got = lookup.segments(
                x, side, None if len(tables) == 1 else which
            )
            np.testing.assert_array_equal(got, expected)

    def test_paper_tables_take_one_probe(self, paper_hazards):
        """The zero-phase hot path: gzip's cumulative table gets at most
        one distinct entry per bucket from at most 4 buckets per entry,
        so every query costs one probe."""
        compiled = compile_intensity(paper_hazards["gzip_fig6a"])
        lookup = compiled._lookup("cum")
        distinct = np.unique(compiled.cum).size
        assert lookup._steps == (1,)
        assert lookup._starts.size <= 4 * distinct + 1
        u = np.linspace(compiled.mass * 1e-6, compiled.mass, 10_001)
        np.testing.assert_array_equal(
            lookup.segments(u, "left"),
            _searchsorted_segment(compiled.cum, u, "left"),
        )

    def test_subnormal_span_falls_back_to_one_bucket(self):
        table = np.asarray([0.0, 5e-324, 1e-323])
        lookup = kernel_mod._Lookup([table])
        assert lookup._starts.size == 1
        queries = np.asarray([0.0, -0.0, 5e-324, 1e-323, np.nan])
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                lookup.segments(queries, side),
                _searchsorted_segment(table, queries, side),
            )

    def test_scalar_queries(self):
        lookup = kernel_mod._Lookup([np.asarray([0.0, 1.0, 2.0])])
        assert lookup.segments(np.float64(1.0), "right") == 1
        assert np.shape(lookup.segments(np.float64(1.0), "left")) == ()
        assert lookup.segments(np.float64(np.nan), "left") == 1


# ---------------------------------------------------------------------------
# Flat nested plans: per-element outer constants, one inner lookup.
# ---------------------------------------------------------------------------


def _around(values):
    """Each value and its float neighbours on both sides."""
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


@pytest.fixture
def massless_nested():
    """Two inner tables around a segment that accrues no hazard, and a
    massless last segment (where NaN ranks). At its full mass the second
    inner table's division overshoots its period by an ulp, which the
    inner clamp takes back."""
    inner_a = PiecewiseHazard.from_segments(
        [(0.25, 2.0), (0.5, 0.0), (0.25, 1.0)]
    )
    inner_b = PiecewiseHazard.from_segments([(8.55, 4.38), (8.61, 2.36)])
    return NestedHazard(
        [(2.6, inner_a), (1.5, 0.0), (60.0, inner_b), (0.5, 0.0)]
    )


class TestFlatNested:
    """Every element still sees the hazard object's operations, so the
    outer boundaries, where an element changes segment, and the inner
    boundaries of each segment's repetitions keep the oracle's bits."""

    def test_outer_boundaries_match_the_oracle(
        self, massless_nested, paper_hazards
    ):
        for hazard in (massless_nested, paper_hazards["combined_sec54"]):
            compiled = compile_intensity(hazard)
            tau = _around(compiled.starts)
            tau = tau[(tau >= 0) & (tau <= hazard.period)]
            u = _around(compiled.cum_mass)
            u = u[(u > 0) & (u <= hazard.mass)]
            # The boundaries in the first period, and one and three
            # periods on.
            for periods in (0, 1, 3):
                np.testing.assert_array_equal(
                    kernel_mod._cumulative_extended(
                        compiled, tau + periods * hazard.period
                    ),
                    hazard.cumulative_extended(tau + periods * hazard.period),
                )
                np.testing.assert_array_equal(
                    kernel_mod._invert_extended(
                        compiled, u + periods * hazard.mass
                    ),
                    hazard.invert_extended(u + periods * hazard.mass),
                )

    def test_inner_boundaries_match_the_oracle(self, massless_nested):
        hazard = massless_nested
        compiled = compile_intensity(hazard)
        tau, u = [], []
        for j, (_duration, inner) in enumerate(hazard.segments):
            reps = np.arange(4.0)[:, None]
            tau.append(
                compiled.starts[j] + reps * inner.period + inner.breakpoints
            )
            u.append(compiled.cum_mass[j] + reps * inner.mass + inner._cum)
        tau = _around(np.concatenate(tau, axis=None))
        tau = tau[(tau >= 0) & (tau <= hazard.period)]
        u = _around(np.concatenate(u, axis=None))
        u = u[(u > 0) & (u <= hazard.mass)]
        np.testing.assert_array_equal(
            _extended(compiled, "cumulative_extended", tau),
            hazard.cumulative_extended(tau),
        )
        np.testing.assert_array_equal(
            _extended(compiled, "invert_extended", u),
            hazard.invert_extended(u),
        )


# ---------------------------------------------------------------------------
# One live segment: closed-form transforms with the table path's bits.
# ---------------------------------------------------------------------------


def _same_bits(got, expected):
    """Equal element for element, down to the sign of zero, and NaN
    wherever the expected value is NaN."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _neighbours(values):
    """Each value with both float neighbours, and NaN."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([_around(values), [np.nan]])


def _offsets(period):
    """Random-phase offsets, all below ``period`` (0, -0.0, the last
    float below it and NaN among them), and the same with one offset at
    the period."""
    inside = np.random.default_rng(5).random(_SLICE) * period
    inside = np.concatenate(
        [inside, [0.0, -0.0, np.nextafter(period, 0.0), np.nan]]
    )
    return inside, np.append(inside, period)


@pytest.fixture(
    params=["day", "week", "idle-first", "idle-busy-idle", "component",
            "subnormal-rate"]
)
def live_plan(request):
    """``(hazard, compiled, j)`` for a hazard that accrues in segment
    ``j`` only. The workloads are eight-instance system plans, as the
    sweeps build them; ``component`` is a one-instance component plan.
    ``idle-first`` is the day loop starting at midnight (``bp[j] != 0``).
    In ``subnormal-rate`` the product ``r * (τ - bp[j])`` rounds to
    ``-0.0`` before the live segment, where the table path adds
    ``cum[0]`` and returns ``+0.0``."""
    rate = 2.0 / SECONDS_PER_DAY
    half = SECONDS_PER_DAY / 2
    if request.param == "subnormal-rate":
        hazard = PiecewiseHazard([0.0, 1.0, 2.0, 3.0], [0.0, 5e-324, 0.0])
        return hazard, compile_intensity(hazard), 1
    if request.param == "component":
        component = Component("unit", rate, day_workload())
        return component.intensity, plan_for_system(component.alone()), 0
    profile, live = {
        "day": (day_workload(), 0),
        "week": (week_workload(), 0),
        "idle-first": (
            PiecewiseProfile([0.0, half, SECONDS_PER_DAY], [0.0, 1.0]), 1
        ),
        "idle-busy-idle": (
            PiecewiseProfile([0.0, 3.0, 10.0, 24.0], [0.0, 1.0, 0.0]), 1
        ),
    }[request.param]
    system = SystemModel([Component("c", rate, profile, multiplicity=8)])
    return system.combined_intensity(), plan_for_system(system), live


class TestLiveSegmentClosedForms:
    """Busy/idle plans accrue hazard in one segment ``j``, so
    ``Λ(τ) = clip(r (τ - bp[j]), 0, M)`` and ``Λ⁻¹(u) = bp[j] + u / r``
    replace the lookups and gathers. Every query the hazard objects
    accept must come back with their bits, signed zeros included."""

    def test_plans_take_the_closed_form(self, live_plan):
        hazard, compiled, j = live_plan
        assert compiled._live == (hazard.breakpoints[j], hazard.rates[j])

    def test_cumulative_and_invert_bits(self, live_plan):
        hazard, compiled, j = live_plan
        period, mass = hazard.period, hazard.mass
        bp = hazard.breakpoints
        tau = _neighbours(
            [0.0, -0.0, bp[j], bp[j + 1], period, period * (1 + _REL_TOL),
             *np.linspace(0.0, period, 17)]
        )
        tau = tau[~(tau < 0) & ~(tau > period * (1 + _REL_TOL))]
        u = _neighbours(
            [5e-324, mass, mass * (1 + _REL_TOL),
             *np.linspace(0.0, mass, 17)[1:], *hazard.cumulative(tau[:-1])]
        )
        u = u[~(u <= 0) & ~(u > mass * (1 + _REL_TOL))]
        for k in range(4):
            t = tau + k * period
            _same_bits(
                kernel_mod._cumulative_extended(compiled, t),
                hazard.cumulative_extended(t),
            )
            _same_bits(
                kernel_mod._invert_extended(compiled, u + k * mass),
                hazard.invert_extended(u + k * mass),
            )

    def test_random_phase_offsets(self, live_plan, monkeypatch):
        """Offsets below the period skip the whole-period split; one
        offset at the period takes it. Both keep the oracle's bits."""
        hazard, compiled, _j = live_plan
        inside, at_period = _offsets(hazard.period)
        expected = hazard.cumulative_extended(inside)
        _same_bits(
            kernel_mod._cumulative_extended(compiled, at_period),
            hazard.cumulative_extended(at_period),
        )

        def refuse(*_args):
            raise AssertionError("split offsets that are all in range")

        monkeypatch.setattr(kernel_mod, "_periods", refuse)
        _same_bits(kernel_mod._cumulative_extended(compiled, inside), expected)

    def test_offsets_skip_the_split_on_every_shape(
        self, paper_hazards, massless_nested
    ):
        """The skip is in the extended form, so table and nested plans
        take it too."""
        for hazard in (*paper_hazards.values(), massless_nested):
            compiled = compile_intensity(hazard)
            for t in _offsets(hazard.period):
                _same_bits(
                    kernel_mod._cumulative_extended(compiled, t),
                    hazard.cumulative_extended(t),
                )

    def test_draws_use_no_lookup(self, live_plan, monkeypatch):
        hazard, compiled, _j = live_plan

        def refuse(*_args):
            raise AssertionError("a segment lookup on a one-segment plan")

        monkeypatch.setattr(kernel_mod._Lookup, "segments", refuse)
        for phase in ("zero", "random"):
            config = _config(trials=_SLICE + 5, start_phase=phase)
            # The subnormal mass's period counts overflow to inf in both.
            with np.errstate(over="ignore"):
                _same_bits(
                    kernel_mod.inverse_ttf(compiled, config),
                    oracle.inverse_samples(
                        hazard, config, np.random.default_rng(config.seed)
                    ),
                )

    @pytest.mark.parametrize(
        "hazard",
        [PiecewiseHazard([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0])],
        ids=["two-live-segments"],
    )
    def test_other_tables_keep_the_table_path(self, hazard):
        compiled = compile_intensity(hazard)
        assert compiled._live is None
        tau = np.linspace(0.0, compiled.period, 9)[:-1]
        idx = _searchsorted_segment(compiled.bp, tau, "right")
        _same_bits(
            _extended(compiled, "cumulative_extended", tau),
            compiled.cum[idx] + compiled.rates[idx] * (tau - compiled.bp[idx]),
        )


# ---------------------------------------------------------------------------
# Plan sampling vs the oracle samplers.
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(trials=400, seed=9)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestPlanBitIdentity:
    @pytest.mark.parametrize("start_phase", ["zero", "random"])
    def test_system_samples_match_legacy(
        self, piecewise_system, nested_system, start_phase
    ):
        for system in (piecewise_system, nested_system):
            config = _config(start_phase=start_phase)
            legacy = oracle.sample_system_ttf(system, config)
            via_plan = sample_system_ttf(system, config)
            np.testing.assert_array_equal(via_plan, legacy)

    @pytest.mark.parametrize("method", ["inverse", "arrival"])
    def test_component_samples_match_legacy(self, day_profile, method):
        """A component instance draws as its one-instance system, with
        the bits of the per-component sampler on its own intensity, at
        any multiplicity and in both phases: the inverse draw through
        the system's plan, the arrival draw through the paper-literal
        sampler's system loop."""
        component = Component(
            "unit", 3.0 / SECONDS_PER_DAY, day_profile, multiplicity=8
        )
        draw, legacy_draw = {
            "inverse": (sample_component_ttf, oracle.sample_component_ttf),
            "arrival": (
                lambda c, config: mc.arrival_system_ttf(c.alone(), config),
                oracle.arrival_component_ttf,
            ),
        }[method]
        for start_phase in ("zero", "random"):
            config = _config(start_phase=start_phase)
            legacy = legacy_draw(component, config)
            np.testing.assert_array_equal(draw(component, config), legacy)

    def test_config_routing_is_transparent(self, piecewise_system):
        """``sample_system_ttf`` routes inverse draws through a plan."""
        routed = sample_system_ttf(piecewise_system, _config())
        assert piecewise_system.content_fingerprint in kernel_mod._PLANS
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
                kernel_mod.inverse_ttf(plan, _config(start_phase=start_phase))

    def test_masked_system_is_all_infinite(self, piecewise_system):
        masked = SystemModel(
            [
                Component(
                    "off", 0.0, busy_idle_profile(1.0, 2.0, 0.0)
                )
            ]
        )
        samples = inverse_system_ttf(masked, _config())
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
        via_plan = inverse_system_ttf(system, config)
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
    mc = kwargs.pop("mc", MonteCarloConfig(trials=2_000, seed=3))
    result = evaluate_design_space(
        space,
        methods=["avf_sofr"],
        reference="monte_carlo",
        mc_config=mc,
        **kwargs,
    )
    return json.dumps(result.to_dict(), sort_keys=True)


def _oracle_bytes(space, **kwargs):
    """One ``workers=1`` thread run with every draw through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        oracle.install(patch)
        baseline = _result_bytes(space, workers=1, **kwargs)
        assert oracle.draws > 0
    return baseline


class TestEngineBitIdentity:
    def test_oracle_install_routes_engine_draws(self, day_profile):
        space = _space(day_profile)
        with pytest.MonkeyPatch.context() as patch:
            oracle.install(patch)
            assert oracle.draws == 0
            _result_bytes(space, workers=2)
            # Three points, one reference draw each.
            assert oracle.draws == 3
        assert kernel_mod.inverse_system_ttf is inverse_system_ttf

    def test_kernel_matches_legacy_across_schedulers(self, day_profile):
        space = _space(day_profile)
        baseline = _oracle_bytes(space)
        for workers in (1, 2, 3):
            assert _result_bytes(space, workers=workers) == baseline


# ---------------------------------------------------------------------------
# The process-wide plan cache.
# ---------------------------------------------------------------------------


class TestHydration:
    """Plans are compiled once per content fingerprint and kept in a
    bounded process-wide LRU."""

    def test_plan_cache_evicts_least_recently_used(self):
        profile = busy_idle_profile(1.0, 1.0, 0.5)
        systems = [
            SystemModel([Component(f"c{i}", 1e-3 * (i + 1), profile)])
            for i in range(kernel_mod._PLANS_CAP + 2)
        ]
        first, second, *rest = systems
        first_plan = plan_for_system(first)
        second_plan = plan_for_system(second)
        for system in rest[:-2]:
            plan_for_system(system)
        # Hits refresh recency.
        assert plan_for_system(first) is first_plan
        assert plan_for_system(second) is second_plan
        plan_for_system(rest[-2])
        plan_for_system(rest[-1])
        assert plan_for_system(first) is first_plan
        assert plan_for_system(second) is second_plan
        evicted = {s.content_fingerprint for s in rest[:2]}
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

    def test_instance_shares_the_one_component_plan(self, day_profile):
        """A cluster's instance is its one-instance system: at every
        multiplicity it draws through the plan of the one-component
        point, which is its own intensity compiled."""
        rate = 3.0 / SECONDS_PER_DAY
        point = SystemModel([Component("unit", rate, day_profile)])
        plan = plan_for_system(point)
        for c in (1, 8, 5000):
            instance = Component("unit", rate, day_profile, multiplicity=c)
            assert plan_for_system(instance.alone()) is plan
        compiled = compile_intensity(instance.intensity)
        for table in ("bp", "rates", "cum"):
            assert getattr(plan, table).tobytes() == (
                getattr(compiled, table).tobytes()
            )


# ---------------------------------------------------------------------------
# The process-wide stream cache.
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_streams(monkeypatch):
    """Every ``(seed, trials)`` stream drawn from now on, in order."""
    drawn = []

    class CountedStream(kernel_mod._Stream):
        __slots__ = ()

        def __init__(self, seed, trials):
            super().__init__(seed, trials)
            drawn.append((seed, trials))

    monkeypatch.setattr(kernel_mod, "_Stream", CountedStream)
    return drawn


class TestStreams:
    """Each ``(seed, trials)`` stream is drawn once per process, and
    every plan that draws at it reads the same read-only arrays."""

    def test_plans_share_one_read_only_stream(
        self, piecewise_system, nested_system, counted_streams
    ):
        config = _config(trials=_SLICE + 3)
        for system in (piecewise_system, nested_system):
            np.testing.assert_array_equal(
                inverse_system_ttf(system, config),
                oracle.sample_system_ttf(system, config),
            )
        assert counted_streams == [(config.seed, config.trials)]
        stream = kernel_mod._stream(config.seed, config.trials)
        with pytest.raises(ValueError, match="read-only"):
            stream.exponentials[0] = 1.0

    def test_random_phase_reuses_the_exponentials(
        self, piecewise_system, nested_system, counted_streams
    ):
        zero = _config(start_phase="zero")
        random = _config(start_phase="random")
        inverse_system_ttf(piecewise_system, zero)
        stream = kernel_mod._stream(zero.seed, zero.trials)
        exponentials = stream.exponentials
        draws = [
            inverse_system_ttf(system, random)
            for system in (piecewise_system, nested_system)
        ]
        uniforms = stream.uniforms()
        assert counted_streams == [(zero.seed, zero.trials)]
        assert kernel_mod._stream(zero.seed, zero.trials) is stream
        assert stream.exponentials is exponentials
        assert stream.uniforms() is uniforms
        with pytest.raises(ValueError, match="read-only"):
            uniforms[0] = 0.5
        for system, draw in zip((piecewise_system, nested_system), draws):
            np.testing.assert_array_equal(
                draw, oracle.sample_system_ttf(system, random)
            )

    def test_cache_is_capped_and_cleared(
        self, piecewise_system, counted_streams
    ):
        plan = plan_for_system(piecewise_system)
        cap = kernel_mod._STREAMS.cap
        for seed in range(cap + 3):
            kernel_mod.inverse_ttf(
                plan, _config(seed=seed, start_phase="random")
            )
            assert len(kernel_mod._STREAMS) <= cap
        assert set(kernel_mod._STREAMS) == {
            (seed, 400) for seed in range(3, cap + 3)
        }
        # The least recently used stream went; drawing it again redraws.
        kernel_mod.inverse_ttf(plan, _config(seed=0))
        assert counted_streams.count((0, 400)) == 2
        clear_plan_cache()
        assert len(kernel_mod._STREAMS) == 0

    def test_concurrent_draws_match_the_oracle(
        self, piecewise_system, nested_system
    ):
        """8 threads on 2 cores draw three seeds in both phases, so
        streams are drawn, shared and evicted under contention."""
        systems = (piecewise_system, nested_system)
        configs = [
            _config(trials=_SLICE + 5, seed=seed, start_phase=phase)
            for seed in (0, 1, 2)
            for phase in ("zero", "random")
        ]
        expected = {
            (i, j): oracle.sample_system_ttf(system, config)
            for i, system in enumerate(systems)
            for j, config in enumerate(configs)
        }
        failures = []
        sizes = []

        def draw(worker):
            try:
                for step in range(12):
                    i, j = (worker + step) % 2, (3 * worker + step) % 6
                    got = inverse_system_ttf(systems[i], configs[j])
                    sizes.append(len(kernel_mod._STREAMS))
                    if not np.array_equal(got, expected[i, j]):
                        failures.append((worker, step))
            except Exception as error:  # reported below, not lost
                failures.append(error)

        threads = [
            threading.Thread(target=draw, args=(worker,))
            for worker in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(sizes) == 8 * 12
        assert max(sizes) <= kernel_mod._STREAMS.cap

    def test_lookups_built_under_contention_match_the_oracle(
        self, paper_hazards
    ):
        """8 threads on 2 cores draw from fresh plans in both phases, so
        every lookup (cumulative, breakpoint, outer and inner) is built
        by threads racing for it."""
        configs = [
            _config(trials=_SLICE + 5, seed=4, start_phase=phase)
            for phase in ("zero", "random")
        ]
        hazards = list(paper_hazards.values())
        expected = {
            (i, j): oracle.inverse_samples(
                hazard, config, np.random.default_rng(config.seed)
            )
            for i, hazard in enumerate(hazards)
            for j, config in enumerate(configs)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(3):
                compiled = [compile_intensity(h) for h in hazards]
                start = threading.Barrier(8)
                failures = []

                def draw(worker, compiled=compiled, start=start,
                         failures=failures):
                    try:
                        start.wait(timeout=60)
                        for step in range(3):
                            i = (worker + step) % len(hazards)
                            j = (worker // 3 + step) % 2
                            got = kernel_mod.inverse_ttf(
                                compiled[i], configs[j]
                            )
                            if not np.array_equal(got, expected[i, j]):
                                failures.append((worker, step))
                    except Exception as error:  # reported below
                        failures.append(error)

                threads = [
                    threading.Thread(target=draw, args=(worker,))
                    for worker in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
        finally:
            sys.setswitchinterval(interval)


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
