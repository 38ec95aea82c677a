"""System model: the common input to every MTTF method.

A *component* is the granularity at which architectural masking is
analysed (Section 4.2): a functional unit, a register file, a cache, or a
whole processor in a cluster. A *system* is a series collection of
components; ``multiplicity`` models ``C`` identical components (a
homogeneous cluster) without enumerating them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ConfigurationError
from ..masking.profile import VulnerabilityProfile
from ..reliability.hazard import (
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
    merge_piecewise,
)


@dataclass(frozen=True)
class Component:
    """One masked error source.

    Attributes
    ----------
    name:
        Label for reports.
    rate_per_second:
        Raw soft error rate of the component (errors/second) — the
        paper's lambda, before any architectural masking.
    profile:
        Cyclic vulnerability profile from the workload's masking trace.
    multiplicity:
        Number of identical, independent copies of this component in the
        system (the paper's C for homogeneous clusters).
    """

    name: str
    rate_per_second: float
    profile: VulnerabilityProfile
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.rate_per_second < 0:
            raise ConfigurationError(
                f"{self.name}: raw rate must be non-negative, "
                f"got {self.rate_per_second}"
            )
        if self.multiplicity < 1:
            raise ConfigurationError(
                f"{self.name}: multiplicity must be >= 1, "
                f"got {self.multiplicity}"
            )

    @property
    def intensity(self) -> CyclicIntensity:
        """Failure intensity of a single copy (rate x vulnerability)."""
        return self.profile.to_hazard(self.rate_per_second)

    def alone(self) -> "SystemModel":
        """One instance of this component, as a system of its own.

        Its combined intensity is :attr:`intensity`, so every
        system-level estimate of it (Monte Carlo, the closed form,
        SoftArch) is this instance's estimate. The SOFR step takes its
        component MTTFs this way (Section 4.2), and a cluster's instance
        shares its system fingerprint, and so its cache entries and
        sampling plan, with the one-component point of the same
        component.
        """
        return SystemModel([replace(self, multiplicity=1)])

    @property
    def lambda_l(self) -> float:
        """The paper's validity parameter ``lambda * L`` for this component.

        More precisely the hazard mass per period ``lambda * V(L)``, which
        is the quantity whose smallness makes the AVF and SOFR assumptions
        hold (Sections 3.1.1 and 3.2.1); the coarser classical form
        ``lambda * L`` upper-bounds it.
        """
        return self.rate_per_second * self.profile.period

    @property
    def avf(self) -> float:
        return self.profile.avf


class SystemModel:
    """A series system of components, the input to every method."""

    def __init__(self, components: Sequence[Component]):
        if not components:
            raise ConfigurationError("a system needs at least one component")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate component names in {names}")
        self._components = tuple(components)

    @property
    def components(self) -> tuple[Component, ...]:
        """The components, as an immutable (and allocation-free) tuple.

        Hot loops (per-trial Monte-Carlo code, design-space sweeps) read
        this property repeatedly; returning the cached tuple avoids a
        fresh list copy per access while keeping the model immutable.
        """
        return self._components

    @property
    def component_count(self) -> int:
        """Total component instances including multiplicities (paper's C)."""
        return sum(c.multiplicity for c in self._components)

    @property
    def content_fingerprint(self) -> str:
        """Stable digest of the whole system's estimation identity.

        Covers names, raw rates, multiplicities, profile contents and
        component order, so it identifies the exact series system an
        estimate was computed for. It keys the estimate cache
        (:mod:`repro.methods.cache`) and the compiled sampling plans
        (:mod:`repro.core.kernel`); a component instance is keyed as
        :meth:`Component.alone`.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            digest = hashlib.sha256(b"system/v1:")
            for comp in self._components:
                digest.update(comp.name.encode("utf-8"))
                digest.update(b"|")
                digest.update(
                    float(comp.rate_per_second).hex().encode("ascii")
                )
                digest.update(b"|")
                digest.update(str(comp.multiplicity).encode("ascii"))
                digest.update(b"|")
                digest.update(comp.profile.fingerprint.encode("ascii"))
                digest.update(b";")
            fp = digest.hexdigest()
            self._fingerprint = fp
        return fp

    def combined_intensity(self) -> CyclicIntensity:
        """Superposed failure intensity of the whole series system.

        Independent Poisson failure processes add their intensities, so
        the system's first-failure process is governed by
        ``sum_i multiplicity_i * lambda_i * v_i(t)``.

        The merge (breakpoint union + per-segment rate sums) is pure in
        the component contents, so the result is memoized under the
        system's :attr:`content_fingerprint`, and the estimators that
        need it share one build. Keying the cached value on the
        fingerprint (rather than a bare lazy attribute) ties
        invalidation to the same identity every other cache in the
        stack uses.
        """
        cached = getattr(self, "_combined", None)
        fingerprint = self.content_fingerprint
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        intensity = self._build_combined_intensity()
        self._combined = (fingerprint, intensity)
        return intensity

    def _build_combined_intensity(self) -> CyclicIntensity:
        scaled: list[CyclicIntensity] = []
        for comp in self._components:
            intensity = comp.intensity
            if comp.multiplicity != 1:
                intensity = intensity.scaled(float(comp.multiplicity))
            scaled.append(intensity)
        if len(scaled) == 1:
            return scaled[0]
        if all(isinstance(s, PiecewiseHazard) for s in scaled):
            return merge_piecewise(scaled)  # type: ignore[arg-type]
        if all(isinstance(s, NestedHazard) for s in scaled):
            return _merge_nested(scaled)  # type: ignore[arg-type]
        raise ConfigurationError(
            "cannot combine piecewise and nested intensities in one "
            "system; use a common representation"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{c.name}(x{c.multiplicity})" for c in self._components
        )
        return f"SystemModel([{parts}])"


def _merge_nested(hazards: Sequence[NestedHazard]) -> NestedHazard:
    """Sum nested hazards with identical outer segmentation.

    Supports the cluster-of-identical-processors experiments where every
    component shares the ``combined`` workload structure. Each outer
    segment's inner piecewise hazards are merged; they must share inner
    periods (they do when they come from the same workload definition).
    """
    first = hazards[0]
    segs = first._inners  # noqa: SLF001 - module-internal composition
    durations = first._durations  # noqa: SLF001
    merged_segments = []
    for j, duration in enumerate(durations):
        inners = []
        for h in hazards:
            if len(h._durations) != len(durations) or not _close(
                h._durations[j], duration
            ):
                raise ConfigurationError(
                    "nested hazards must share outer segmentation to merge"
                )
            inners.append(h._inners[j])
        merged_segments.append((duration, merge_piecewise(inners)))
    return NestedHazard(merged_segments)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)
