"""The object-graph Monte-Carlo sampler, kept as the compiled sampler's oracle.

Before every inverse draw ran through a compiled plan
(``repro.core.kernel``), the sampler walked the hazard objects of
``repro.reliability.hazard`` directly: ``invert_extended`` and
``cumulative_extended`` on the system's combined intensity. This module
keeps that sampler. The compiled tables replicate the hazards'
arithmetic, so every draw through a plan must match it bit for bit.

* :func:`inverse_samples`, :func:`sample_system_ttf` and
  :func:`sample_component_ttf` draw against a model's hazard objects
  (a component's own intensity, not its one-instance system).
  :func:`arrival_component_ttf` runs the paper-literal resampling loop
  on one component instance directly; the arrival sampler
  (``montecarlo.arrival_system_ttf``) draws a component as its
  one-instance system, and never reaches a plan.
* :func:`install` swaps ``kernel.inverse_system_ttf``, the one function
  every inverse draw passes, for the oracle. Every engine draw then goes
  through the oracle: direct samples, the engine's references and the
  component instances the SOFR step estimates as one-instance systems.
  :data:`draws` counts the oracle draws since the last install; arrival
  draws never reach a plan, so they are not counted.

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

from repro.core import kernel
from repro.core import montecarlo as mc

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
    return inverse_samples(system.combined_intensity(), config, rng)


def sample_component_ttf(component, config) -> np.ndarray:
    """Times to failure of one component instance, drawn against its own
    intensity (not its one-instance system) without a plan."""
    rng = np.random.default_rng(config.seed)
    return inverse_samples(component.intensity, config, rng)


def arrival_component_ttf(component, config) -> np.ndarray:
    """Arrival draws of one component instance: the resampling loop run
    on the component itself, not on its one-instance system."""
    rng = np.random.default_rng(config.seed)
    offsets = None
    if config.start_phase == "random":
        offsets = rng.uniform(0.0, component.profile.period, config.trials)
    return mc._arrival_component_ttf(component, config.trials, rng, offsets)


def _oracle_system_ttf(system, config) -> np.ndarray:
    global draws
    with _draws_lock:
        draws += 1
    return sample_system_ttf(system, config)


def install(monkeypatch) -> None:
    """Route every inverse draw through the oracle; reset :data:`draws`."""
    global draws
    draws = 0
    monkeypatch.setattr(kernel, "inverse_system_ttf", _oracle_system_ttf)


def main(argv: list[str] | None = None) -> int:
    """Run the ``repro-experiments`` CLI with the oracle installed."""
    import pytest

    from repro.harness.runner import main as run_experiments

    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch)
        return run_experiments(argv)


if __name__ == "__main__":
    sys.exit(main())
