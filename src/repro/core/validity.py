"""Validity advisor: when is AVF+SOFR safe? (the paper's conclusions).

The paper's Section 3 analysis and Section 5 experiments identify three
parameters that govern whether the AVF and SOFR assumptions hold:

1. the per-component raw error rate (the paper's ``N x S x baseline``),
2. the number of components ``C`` the SOFR step sums over,
3. the workload's loop/phase length ``L``.

The controlling dimensionless quantity is the hazard mass per iteration,
``λ·V(L)`` (upper-bounded by ``λ·L``): both steps are exact in the limit
``λ·L → 0`` (Sections 3.1.1 and 3.2.1) and drift as it grows. This
module turns a :class:`~repro.core.system.SystemModel` into a structured
report mirroring the paper's guidance, with each component's exact
AVF-step error computed from the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .avf import avf_mttf
from .firstprinciples import exact_component_mttf
from .system import Component, SystemModel


class Regime(Enum):
    """Where a configuration falls in the paper's design space."""

    SAFE = "safe"
    CAUTION = "caution"
    UNRELIABLE = "unreliable"


#: λ·V(L) below which the limit theorems apply essentially exactly;
#: the SPEC/uniprocessor points of Section 5.1 sit many orders below it.
SAFE_MASS_THRESHOLD = 1e-3

#: λ·V(L) above which Section 5 observed double-digit-percent errors.
UNRELIABLE_MASS_THRESHOLD = 1e-1

#: System-level hazard mass (C included) thresholds for the SOFR step.
SAFE_SYSTEM_MASS_THRESHOLD = 1e-2
UNRELIABLE_SYSTEM_MASS_THRESHOLD = 0.5


@dataclass(frozen=True)
class ComponentValidity:
    """Per-component AVF-step assessment."""

    name: str
    lambda_mass: float  # λ·V(L): hazard mass per iteration
    avf: float
    regime: Regime
    avf_step_error: float | None  # exact signed error, if finite


@dataclass(frozen=True)
class ValidityReport:
    """Structured verdict on applying AVF+SOFR to a system."""

    components: list[ComponentValidity]
    system_mass: float  # Σ C_i·λ_i·V_i(L) per iteration
    component_count: int
    avf_regime: Regime
    sofr_regime: Regime
    notes: list[str]

    @property
    def overall_regime(self) -> Regime:
        order = [Regime.SAFE, Regime.CAUTION, Regime.UNRELIABLE]
        return max(
            (self.avf_regime, self.sofr_regime), key=order.index
        )

    def summary(self) -> str:
        lines = [
            f"AVF step:  {self.avf_regime.value}",
            f"SOFR step: {self.sofr_regime.value} "
            f"(C={self.component_count}, "
            f"system hazard mass/iteration={self.system_mass:.3g})",
        ]
        for comp in self.components:
            err = (
                f", exact AVF-step error={comp.avf_step_error:+.2%}"
                if comp.avf_step_error is not None
                else ""
            )
            lines.append(
                f"  {comp.name}: λ·V(L)={comp.lambda_mass:.3g}, "
                f"AVF={comp.avf:.3f} -> {comp.regime.value}{err}"
            )
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def _classify_mass(mass: float, safe: float, unreliable: float) -> Regime:
    if mass < safe:
        return Regime.SAFE
    if mass < unreliable:
        return Regime.CAUTION
    return Regime.UNRELIABLE


def system_hazard_mass(system: SystemModel) -> float:
    """``Σ C_i·λ_i·V_i(L)``: the system's hazard mass per iteration.

    The parameter of both the SOFR verdict and ``hybrid``'s rule, summed
    over the components in their order.
    """
    return sum(
        c.multiplicity * c.intensity.mass for c in system.components
    )


def component_validity(component: Component) -> ComponentValidity:
    """Assess the AVF step for one component."""
    mass = component.intensity.mass
    regime = _classify_mass(
        mass, SAFE_MASS_THRESHOLD, UNRELIABLE_MASS_THRESHOLD
    )
    error = None
    exact = exact_component_mttf(component.rate_per_second, component.profile)
    approx = avf_mttf(component.rate_per_second, component.profile)
    if math.isfinite(exact) and math.isfinite(approx) and exact > 0:
        error = (approx - exact) / exact
    return ComponentValidity(
        name=component.name,
        lambda_mass=mass,
        avf=component.avf,
        regime=regime,
        avf_step_error=error,
    )


def validity_report(system: SystemModel) -> ValidityReport:
    """Assess both AVF and SOFR steps for a system (paper's conclusions).

    The AVF verdict is the worst per-component verdict. The SOFR verdict
    classifies the *system* hazard mass per iteration — the quantity that
    grows with both C and per-component rates, exactly the combinations
    Figures 5/6 show failing.
    """
    comps = [component_validity(c) for c in system.components]
    system_mass = system_hazard_mass(system)
    order = [Regime.SAFE, Regime.CAUTION, Regime.UNRELIABLE]
    avf_regime = max((c.regime for c in comps), key=order.index)
    sofr_regime = _classify_mass(
        system_mass,
        SAFE_SYSTEM_MASS_THRESHOLD,
        UNRELIABLE_SYSTEM_MASS_THRESHOLD,
    )
    notes = []
    if avf_regime is not Regime.SAFE:
        notes.append(
            "per-component hazard per iteration is not small; the AVF "
            "uniformity assumption (Section 3.1.1) is at risk — compare "
            "against first_principles_mttf before trusting AVF numbers"
        )
    if sofr_regime is not Regime.SAFE:
        notes.append(
            "system hazard per iteration is large (big C, big N*S, or "
            "long phases); the SOFR exponentiality assumption (Section "
            "3.2) is at risk — the masked TTF distribution departs from "
            "exponential (check FailureProcess.coefficient_of_variation)"
        )
    if not notes:
        notes.append(
            "configuration is in the regime where the paper validates "
            "AVF+SOFR (errors < 0.5%)"
        )
    return ValidityReport(
        components=comps,
        system_mass=system_mass,
        component_count=system.component_count,
        avf_regime=avf_regime,
        sofr_regime=sofr_regime,
        notes=notes,
    )
