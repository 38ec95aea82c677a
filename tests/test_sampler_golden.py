"""Golden fingerprints of the Monte-Carlo inverse sampler.

The digests pin, bit for bit, what ``sample_system_ttf`` drew before the
inverse transform ran over cache-sized slices with a bucket-guided
segment search, for three systems that span the compiled shapes:

* ``day`` — the 2-segment busy/idle day workload (3-entry tables);
* ``gzip_fig6a`` — a fig6a gzip processor profile dilated to the
  paper's window (13,681 segments);
* ``combined_sec54`` — sec5.4's ``combined`` nested workload (inner
  tables of 13,681 and 13,045 segments).

Each is drawn at 100,003 trials — three full slices and a partial one —
under both start-phase conventions, and each draw must also equal the
legacy object sampler's (``sampler_oracle``). The trace window is fixed
at 40k instructions so ``REPRO_SPEC_INSTRUCTIONS`` cannot move the
profiles.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import sampler_oracle as oracle

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.core import sample_system_ttf
from repro.core.kernel import clear_streams
from repro.harness import processor_profile
from repro.ser import component_rate_per_second
from repro.workloads import combined_workload, day_workload

N_INSTRUCTIONS = 40_000
TRIALS = 100_003

SAMPLES_SHA256 = {
    ("day", "zero"):
        "f180f341ae30cc4411ff0ff10c63490cd88725433fa190451258fa332324ca47",
    ("day", "random"):
        "671db2557ce9df498e5b159a5679ff68638a92e99afd221243481b8b3d1a82fc",
    ("gzip_fig6a", "zero"):
        "2587bb6e923b2e805bceb707aef1747763c1220d1e1244794c4ea8accb08b35b",
    ("gzip_fig6a", "random"):
        "7c0d4e4d2a3c4a7937daec23e8b759706af730ebf0b0a2a980e85eb4158d5950",
    ("combined_sec54", "zero"):
        "f93613195a287c9cfd58d02233f55af4bd05ff5e432e1e8651b027325306c0bb",
    ("combined_sec54", "random"):
        "ec2847f7faf344803d0f959f01a2e35c33529f300cf0ee25c007995ed0038ede",
}

def sampler_systems() -> dict[str, SystemModel]:
    """The three systems, eight components each, as the sweeps build them."""

    def spec(bench, dilate):
        return processor_profile(
            bench, N_INSTRUCTIONS, dilate_to_paper_window=dilate
        )

    workloads = {
        "day": (1e10, day_workload()),
        "gzip_fig6a": (2e12, spec("gzip", True)),
        "combined_sec54": (
            1e10, combined_workload(spec("gzip", False), spec("swim", False))
        ),
    }
    return {
        name: SystemModel(
            [
                Component(
                    name.split("_")[0],
                    component_rate_per_second(n_times_s, 1.0),
                    profile,
                    multiplicity=8,
                )
            ]
        )
        for name, (n_times_s, profile) in workloads.items()
    }


@pytest.fixture(scope="module")
def systems():
    return sampler_systems()


@pytest.fixture(autouse=True)
def fresh_streams():
    clear_streams()
    yield
    clear_streams()


@pytest.mark.parametrize("start_phase", ["zero", "random"])
@pytest.mark.parametrize("name", ["day", "gzip_fig6a", "combined_sec54"])
def test_sample_bits_match_golden_and_legacy(systems, name, start_phase):
    config = MonteCarloConfig(
        trials=TRIALS, seed=11, start_phase=start_phase
    )
    samples = sample_system_ttf(systems[name], config)
    digest = hashlib.sha256(samples.tobytes()).hexdigest()
    assert digest == SAMPLES_SHA256[(name, start_phase)]
    legacy = oracle.sample_system_ttf(systems[name], config)
    np.testing.assert_array_equal(samples, legacy)

