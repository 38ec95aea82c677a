"""Wire schemas for the analysis service's job protocol.

A *job spec* is everything :func:`repro.evaluate_design_space` needs to
produce a :class:`~repro.methods.results.ResultSet`, as one plain-JSON
document (``repro.job/v1``)::

    {
      "schema": "repro.job/v1",
      "tenant": "acme",                       # quota bucket, optional
      "space": [
        {"label": "C=8", "system": {"schema": "repro.system/v1", ...}},
        ...
      ],
      "methods": ["sofr_only", "first_principles"],
      "reference": "monte_carlo",
      "mc": {"trials": 100000, "seed": 0, "chunks": 8,
             "stopping": {"target_rel_stderr": 0.02}}
    }

Systems serialize through :meth:`repro.core.system.SystemModel.to_dict`
(lossless, fingerprint-stable), so the spec's
:attr:`~JobSpec.content_fingerprint` — a digest over the ordered
labels, system fingerprints, method set, reference, and the Monte-Carlo
``mc_token`` — identifies the *numbers* a run will produce, not the
bytes of the request. Two requests that would compute the same result
share a fingerprint; the job manager coalesces them onto one estimation
(request dedup). The ``tenant`` field is deliberately excluded:
estimates are pure functions of the spec, so serving tenant B from
tenant A's in-flight run changes nothing but the bill.

The determinism guarantee of the whole service rests here: a spec is
*executed* by handing exactly these decoded objects to
``evaluate_design_space``, whose numbers never depend on worker count
or executor — so the HTTP result is bit-identical to the direct
in-process call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..core.montecarlo import (
    MonteCarloConfig,
    mc_config_from_dict,
    mc_config_to_dict,
    stopping_rule_from_dict,
    stopping_rule_to_dict,
)
from ..core.system import SystemModel
from ..errors import ConfigurationError, EstimationError, ReproError
from ..methods import registry
from ..methods.cache import mc_token

# The MC/stopping codecs live in repro.core.montecarlo (the executor
# wire protocol in repro.methods.executors shares them, and methods must
# not depend on the service layer above it); re-exported here because
# they are part of the job wire vocabulary.
__all__ = [
    "JOB_SCHEMA",
    "JobSpec",
    "mc_config_from_dict",
    "mc_config_to_dict",
    "stopping_rule_from_dict",
    "stopping_rule_to_dict",
]

#: Schema tag of the job-submission document.
JOB_SCHEMA = "repro.job/v1"


@dataclass(frozen=True)
class JobSpec:
    """One decoded analysis request: a design space plus run settings.

    ``space`` is the ordered ``(label, system)`` sequence
    ``evaluate_design_space`` consumes; ``methods``/``reference``/``mc``
    are passed through verbatim. ``tenant`` names the quota bucket the
    submission is billed to and never affects the computation.
    """

    space: tuple[tuple[str, SystemModel], ...]
    methods: tuple[str, ...]
    reference: str = "monte_carlo"
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.space:
            raise ConfigurationError("a job spec needs at least one system")
        if not self.methods:
            raise ConfigurationError(
                "a job spec needs at least one method; available: "
                f"{registry.available()}"
            )
        # Resolve names eagerly so a bad spec is rejected at submission
        # time (HTTP 400), not when a worker picks the job up.
        object.__setattr__(
            self,
            "methods",
            tuple(registry.get(name).name for name in self.methods),
        )
        object.__setattr__(
            self, "reference", registry.get(self.reference).name
        )

    # -- identity ----------------------------------------------------------

    @property
    def content_fingerprint(self) -> str:
        """Digest of everything that determines the job's numbers.

        Same discipline as the estimate caches: labels, system
        fingerprints (order-sensitive), the method set, the reference,
        and the Monte-Carlo token. ``tenant`` is excluded — results are
        pure functions of the rest, which is exactly what makes
        cross-tenant request dedup sound.
        """
        digest = hashlib.sha256(b"job/v1:")
        for label, system in self.space:
            digest.update(label.encode("utf-8"))
            digest.update(b"=")
            digest.update(system.content_fingerprint.encode("ascii"))
            digest.update(b";")
        digest.update(",".join(self.methods).encode("utf-8"))
        digest.update(b"|")
        digest.update(self.reference.encode("utf-8"))
        digest.update(b"|")
        digest.update(mc_token(self.mc).encode("utf-8"))
        return digest.hexdigest()

    def trial_cost(self) -> int:
        """Estimated Monte-Carlo trials this job may spend (quota charge).

        Per grid point, the trial *budget* (``stopping.max_trials`` when
        an adaptive rule may extend past ``trials``, else ``trials``)
        multiplied by the number of distinct stochastic estimators
        involved (reference plus methods, counted once each). An upper
        bound, deliberately: adaptive runs that stop early spend less
        than they were billed, and cache hits spend nothing — quota is
        admission control, not metering.
        """
        stochastic = {
            name
            for name in (*self.methods, self.reference)
            if registry.get(name).is_stochastic
        }
        if not stochastic:
            return 0
        budget = self.mc.trials
        if self.mc.stopping is not None and (
            self.mc.stopping.max_trials is not None
        ):
            budget = max(budget, self.mc.stopping.max_trials)
        return budget * len(stochastic) * len(self.space)

    # -- execution ---------------------------------------------------------

    def run(self, *, cache=None, workers=1, executor="thread",
            progress=None):
        """Execute the spec through the batch engine.

        This is the only way the service runs jobs, so the serving
        layer can never drift from the direct call: same space, same
        methods, same reference, same ``MonteCarloConfig`` — and the
        engine's determinism invariants make ``workers``/``executor``
        (the server's scaling knobs) invisible in the numbers.
        ``executor`` accepts any registered backend name or
        :class:`~repro.methods.executors.ChunkExecutor` instance (e.g.
        a :class:`~repro.methods.executors.RemoteExecutor` pointed at a
        worker fleet).
        """
        from ..methods.batch import evaluate_design_space

        return evaluate_design_space(
            list(self.space),
            methods=list(self.methods),
            reference=self.reference,
            mc_config=self.mc,
            workers=workers,
            executor=executor,
            cache=cache,
            progress=progress,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "tenant": self.tenant,
            "space": [
                {"label": label, "system": system.to_dict()}
                for label, system in self.space
            ],
            "methods": list(self.methods),
            "reference": self.reference,
            "mc": mc_config_to_dict(self.mc),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Decode and validate a ``repro.job/v1`` document.

        Raises :class:`~repro.errors.ConfigurationError` (the server
        maps it to HTTP 400) on a malformed document, an unknown
        method/reference, or an invalid model.
        """
        if not isinstance(data, dict):
            raise ConfigurationError("job wire form must be a JSON object")
        if data.get("schema") != JOB_SCHEMA:
            raise ConfigurationError(
                f"not a {JOB_SCHEMA} document "
                f"(schema={data.get('schema')!r})"
            )
        raw_space = data.get("space")
        if not isinstance(raw_space, list) or not raw_space:
            raise ConfigurationError(
                "job spec needs a non-empty 'space' list"
            )
        space = []
        for index, item in enumerate(raw_space):
            if not isinstance(item, dict) or "system" not in item:
                raise ConfigurationError(
                    f"space item {index} must be "
                    '{"label": ..., "system": {...}}'
                )
            label = str(item.get("label", f"system[{index}]"))
            try:
                system = SystemModel.from_dict(item["system"])
            except ReproError as error:
                raise ConfigurationError(
                    f"space item {index} ({label!r}): {error}"
                ) from None
            space.append((label, system))
        methods = data.get("methods")
        if not isinstance(methods, list) or not methods:
            raise ConfigurationError(
                "job spec needs a non-empty 'methods' list"
            )
        mc_data = data.get("mc")
        try:
            mc = (
                mc_config_from_dict(mc_data)
                if mc_data is not None
                else MonteCarloConfig()
            )
        except EstimationError as error:
            raise ConfigurationError(str(error)) from None
        return cls(
            space=tuple(space),
            methods=tuple(str(m) for m in methods),
            reference=str(data.get("reference", "monte_carlo")),
            mc=mc,
            tenant=str(data.get("tenant", "default")),
        )

    def with_tenant(self, tenant: str) -> "JobSpec":
        return replace(self, tenant=tenant)
