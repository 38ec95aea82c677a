"""Golden fingerprints of the Section-5.4 analytical estimators.

The digests pin, bit for bit, what SoftArch and the first-principles
closed form returned for the 72 systems of ``repro-experiments sec5.4``
before SoftArch's event construction and folds became array code. A
rewrite that keeps them green is numerically identical by construction.

* ``MTTF_SHA256`` — SHA-256 over the float64 bytes of the SoftArch and
  first-principles MTTFs, system by system in sweep order.
* ``TIMELINE_SHA256`` — SHA-256 over every SoftArch timeline: its event
  count, then the float64 bytes of its event times, probabilities and
  conditional mean times (chronological order), then its iteration
  failure probability. (First computed from the scalar implementation's
  ``events`` records; the columns hold the same bytes.)

The 72 systems are rebuilt here from the public API exactly as
``run_sec54`` builds them (the ``combined`` workload from undilated
gzip and swim profiles, the SPEC workloads dilated to the paper's
window), with the trace window pinned to the default 40k instructions
so ``REPRO_SPEC_INSTRUCTIONS`` cannot move them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    Component,
    SystemModel,
    first_principles_mttf,
    softarch_mttf,
    timeline_from_intensity,
)
from repro.harness import processor_profile
from repro.ser import component_rate_per_second
from repro.workloads import combined_workload, day_workload, week_workload

MTTF_SHA256 = (
    "2c5d63fc996d0dd6f2b0b46d114b9f25444bf6819cd07316bc93a740336a0b08"
)
TIMELINE_SHA256 = (
    "6ad289108499169308aff8356923ba09428b7744ee6d6d865291b1714080e74c"
)

N_INSTRUCTIONS = 40_000


def sec54_systems() -> list[tuple[str, SystemModel]]:
    """The sec5.4 design space: 6 workloads x 3 N*S x 4 component counts."""

    def spec(bench, dilate):
        return processor_profile(
            bench, N_INSTRUCTIONS, dilate_to_paper_window=dilate
        )

    workloads = {
        "day": day_workload(),
        "week": week_workload(),
        "combined": combined_workload(
            spec("gzip", False), spec("swim", False)
        ),
        **{bench: spec(bench, True) for bench in ("gzip", "mcf", "swim")},
    }
    systems = []
    for name, profile in workloads.items():
        for n_times_s in (1e8, 1e10, 1e12):
            rate = component_rate_per_second(n_times_s, 1.0)
            for count in (1, 8, 5000, 50000):
                systems.append(
                    (
                        f"{name}/NxS={n_times_s:g}/C={count}",
                        SystemModel(
                            [
                                Component(
                                    name, rate, profile, multiplicity=count
                                )
                            ]
                        ),
                    )
                )
    return systems


def mttf_digest(systems) -> str:
    digest = hashlib.sha256()
    for _, system in systems:
        digest.update(np.float64(softarch_mttf(system).mttf_seconds).tobytes())
        digest.update(
            np.float64(first_principles_mttf(system).mttf_seconds).tobytes()
        )
    return digest.hexdigest()


def timeline_digest(systems) -> str:
    digest = hashlib.sha256()
    for _, system in systems:
        timeline = timeline_from_intensity(system.combined_intensity())
        digest.update(np.int64(timeline.event_count).tobytes())
        for column in (
            timeline.time, timeline.probability, timeline.mean_time
        ):
            digest.update(column.tobytes())
        digest.update(
            np.float64(timeline.iteration_failure_probability()).tobytes()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def systems():
    return sec54_systems()


def test_space_is_the_sec54_grid(systems):
    assert len(systems) == 72
    assert systems[0][0] == "day/NxS=1e+08/C=1"
    assert systems[-1][0] == "swim/NxS=1e+12/C=50000"


def test_mttf_digest(systems):
    assert mttf_digest(systems) == MTTF_SHA256


def test_timeline_digest(systems):
    assert timeline_digest(systems) == TIMELINE_SHA256
