"""The object-graph Monte-Carlo sampler, kept as the compiled sampler's oracle.

Before every inverse draw ran through a compiled plan
(``repro.core.kernel``), the sampler walked the hazard objects of
``repro.reliability.hazard`` directly: ``invert_extended`` and
``cumulative_extended`` on the system's combined intensity. This module
keeps that sampler. The compiled tables replicate the hazards'
arithmetic, so every draw through a plan must match it bit for bit.

* :func:`inverse_samples`, :func:`sample_system_ttf` and
  :func:`sample_component_ttf` draw against a model's hazard objects.
  Arrival draws use the paper-literal sampler, as the plans do.
* :func:`install` swaps ``SamplingPlan.sample_ttf`` for the oracle on
  the plan's source model. Every engine draw then goes through the
  oracle: direct samples and the engine's references and per-component
  estimates. :data:`draws` counts the oracle draws since the last
  install.

Run as a script, it installs the oracle and then runs the
``repro-experiments`` CLI with the given arguments::

    PYTHONPATH=src python tests/sampler_oracle.py fig6b sec5.4 \\
        --trials 70000 --workers 2 --json oracle.json

The patch lives in this process, which the engine's thread pool shares.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core import montecarlo as mc
from repro.core.kernel import SamplingPlan

#: Oracle draws since the last :func:`install` (thread pools draw
#: concurrently, so the count is updated under a lock).
draws = 0
_draws_lock = threading.Lock()


def inverse_samples(intensity, config, rng: np.random.Generator):
    """Inverse-hazard sampling, honouring the start-phase convention.

    With a random start offset ``u``, the time to failure is
    ``X = Λ⁻¹(E + Λ(u)) - u`` for ``E ~ Exp(1)`` — the first time the
    hazard accrued *after* ``u`` reaches ``E``.
    """
    if intensity.mass <= 0:
        return np.full(config.trials, np.inf)
    e = rng.exponential(size=config.trials)
    if config.start_phase == "zero":
        return intensity.invert_extended(e)
    offsets = rng.uniform(0.0, intensity.period, size=config.trials)
    accrued = intensity.cumulative_extended(offsets)
    return intensity.invert_extended(e + accrued) - offsets


def sample_system_ttf(system, config) -> np.ndarray:
    """``trials`` i.i.d. system times to failure, without a plan."""
    rng = np.random.default_rng(config.seed)
    if config.method == "inverse":
        return inverse_samples(system.combined_intensity(), config, rng)
    return mc._arrival_system_ttf(system, config.trials, rng, config)


def sample_component_ttf(component, config) -> np.ndarray:
    """Times to failure of one component instance, without a plan."""
    rng = np.random.default_rng(config.seed)
    if config.method == "inverse":
        return inverse_samples(component.intensity, config, rng)
    return mc._arrival_component_ttf(
        component, config.trials, rng, config
    )


def _plan_sample_ttf(plan: SamplingPlan, config) -> np.ndarray:
    global draws
    with _draws_lock:
        draws += 1
    if plan.kind == "system":
        return sample_system_ttf(plan.model, config)
    return sample_component_ttf(plan.model, config)


def install(monkeypatch) -> None:
    """Route every plan draw through the oracle; reset :data:`draws`."""
    global draws
    draws = 0
    monkeypatch.setattr(SamplingPlan, "sample_ttf", _plan_sample_ttf)


def main(argv: list[str] | None = None) -> int:
    """Run the ``repro-experiments`` CLI with the oracle installed."""
    import pytest

    from repro.harness.runner import main as run_experiments

    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch)
        return run_experiments(argv)


if __name__ == "__main__":
    sys.exit(main())
