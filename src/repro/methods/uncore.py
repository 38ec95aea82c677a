"""Uncore/ECC-aware MTTF estimation (after Cho et al.'s uncore SER study).

The uncore soft-error work of Cho et al. ("Understanding Soft Errors in
Uncore Components", DAC'15) observes that raw SER is the wrong failure
currency for protected structures: most strikes in an ECC-protected
array are *corrected* in place, most strikes in a parity-protected
queue are *detected* and recovered by a pipeline/checkpoint flush, and
only the residual slice becomes silent data corruption (SDC). An
architecture-level MTTF estimate should therefore partition each
component's raw rate into corrected / detected-recoverable / SDC and
drive the failure process with the SDC residue alone.

:func:`uncore_ecc` applies exactly that partition on top of this
repository's system model: every component's raw rate is classified by
its protection class (keyword-matched from the component name — caches
and register files carry SEC-DED ECC, queues and buffers carry parity
with flush recovery, unlabeled logic is unprotected), the rate is
scaled by the class's SDC fraction, and the exact renewal MTTF of the
rescaled system is returned. Masking profiles still apply — protection
composes with architectural masking, it does not replace it.

Registered as ``uncore_ecc`` — the registry's first post-seed method:
usable from ``repro.analyze``, ``evaluate_design_space`` and the CLI's
``--method uncore_ecc`` with no other code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.firstprinciples import first_principles_mttf
from ..core.system import Component, SystemModel
from ..reliability.metrics import MTTFEstimate
from .base import MethodConfig
from .registry import register_method


@dataclass(frozen=True)
class EccProtection:
    """Raw-SER partition of one protection class.

    ``corrected`` errors vanish (ECC corrects in place), ``detected``
    errors are caught and recovered by a flush/checkpoint (a
    detectable-unrecoverable-turned-recoverable event — availability
    cost, not data loss), and the remainder — the SDC fraction — is
    what can actually fail the system silently.
    """

    label: str
    corrected: float
    detected: float

    def __post_init__(self) -> None:
        for name in ("corrected", "detected"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.corrected + self.detected > 1.0:
            raise ValueError(
                f"{self.label}: corrected + detected exceeds 1"
            )

    @property
    def sdc_fraction(self) -> float:
        """The raw-rate fraction that survives as silent corruption."""
        return 1.0 - self.corrected - self.detected


#: Protection classes with Cho et al.-style partitions: SEC-DED ECC
#: corrects single-bit upsets (the overwhelming majority) and detects
#: most double-bit ones; parity detects but cannot correct, so detected
#: events become recoverable flushes; bare logic passes everything
#: through as potential SDC.
PROTECTION_CLASSES: dict[str, EccProtection] = {
    "ecc": EccProtection("sec-ded ecc", corrected=0.990, detected=0.009),
    "parity": EccProtection("parity + flush", corrected=0.0, detected=0.95),
    "none": EccProtection("unprotected", corrected=0.0, detected=0.0),
}

#: Component-name keywords mapped to protection classes. ECC wins over
#: parity when both match (arrays named "store_buffer_cache" etc.).
_ECC_KEYWORDS = (
    "cache", "register", "regfile", "memory", "dram", "sram", "l2", "l3",
    "directory", "tag",
)
_PARITY_KEYWORDS = ("queue", "buffer", "fifo", "link", "bus", "tlb")


def protection_for(component_name: str) -> EccProtection:
    """The protection class a component's name implies."""
    lowered = component_name.lower()
    if any(keyword in lowered for keyword in _ECC_KEYWORDS):
        return PROTECTION_CLASSES["ecc"]
    if any(keyword in lowered for keyword in _PARITY_KEYWORDS):
        return PROTECTION_CLASSES["parity"]
    return PROTECTION_CLASSES["none"]


@dataclass(frozen=True)
class ComponentSerPartition:
    """One component's raw SER split into its Cho-style destinations."""

    name: str
    protection: str
    raw_rate_per_second: float
    corrected_rate: float
    flush_rate: float
    sdc_rate: float


def uncore_partition(system: SystemModel) -> list[ComponentSerPartition]:
    """Per-component raw-SER partition (the audit behind the estimate)."""
    partitions = []
    for component in system.components:
        protection = protection_for(component.name)
        raw = component.rate_per_second
        partitions.append(
            ComponentSerPartition(
                name=component.name,
                protection=protection.label,
                raw_rate_per_second=raw,
                corrected_rate=raw * protection.corrected,
                flush_rate=raw * protection.detected,
                sdc_rate=raw * protection.sdc_fraction,
            )
        )
    return partitions


def _sdc_system(system: SystemModel) -> SystemModel:
    """The system whose raw rates are each component's SDC residue."""
    return SystemModel(
        [
            replace(
                component,
                rate_per_second=component.rate_per_second
                * protection_for(component.name).sdc_fraction,
            )
            for component in system.components
        ]
    )


@register_method("uncore_ecc")
def uncore_ecc(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """ECC/flush/SDC-partitioned MTTF over per-component raw SER.

    Exact renewal MTTF of the SDC-residue system: protection first
    (the Cho et al. partition), architectural masking second (the
    profile), renewal theory last — no AVF/SOFR assumptions.
    """
    estimate = first_principles_mttf(_sdc_system(system))
    return replace(estimate, method="uncore_ecc")
