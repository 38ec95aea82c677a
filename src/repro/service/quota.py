"""Per-tenant trial quotas: admission control for the analysis service.

The batch engine already has one budget-allocation policy —
:func:`repro.core.montecarlo.allocate_grants`, the deterministic
worst-deficit-first round-robin splitter behind the pipelined
scheduler's re-allocation. The service
generalizes that same policy one level up, from *grid points inside a
sweep* to *tenants inside a server*: the server's trial pool is split
round-robin (in ``unit``-sized grants, worst-deficit-first) over every
tenant that has shown up, and a submission is admitted only if the
tenant's cumulative spend plus the new job's
:meth:`~repro.service.wire.JobSpec.trial_cost` still fits inside its
share.

The scheme is *work-conserving* in the same sense the in-sweep policy
is: a tenant alone on the server owns the whole pool; each tenant that
joins re-divides the pool into equal fair shares (remainder trials go
to the neediest tenant first, ties broken by arrival order — exactly
the ``allocate_grants`` ordering). Decisions are pure functions of the
recorded spends, so a replayed submission log reproduces the identical
admit/deny sequence.

Charges are an upper bound, not metering: adaptive runs that stop early
and cache hits cost the service less than the tenant was billed, and
coalesced duplicate submissions are never billed at all (the first
submitter already paid for the run everyone shares). Failed jobs are
refunded — a crash should not consume quota.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.montecarlo import allocate_grants
from ..errors import ConfigurationError, ReproError


class QuotaExceeded(ReproError):
    """A submission was denied admission; carries the full decision."""

    def __init__(self, decision: "QuotaDecision") -> None:
        self.decision = decision
        super().__init__(
            f"tenant {decision.tenant!r} quota exceeded: requested "
            f"{decision.requested} trials with {decision.spent} already "
            f"spent, but its fair share of the {decision.pool}-trial "
            f"pool is {decision.share}"
        )


@dataclass(frozen=True)
class QuotaDecision:
    """One admission decision, with everything that went into it."""

    tenant: str
    requested: int
    spent: int
    share: int
    pool: int
    admitted: bool

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "requested": self.requested,
            "spent": self.spent,
            "share": self.share,
            "pool": self.pool,
            "admitted": self.admitted,
        }


class TrialQuota:
    """Thread-safe per-tenant trial budget over one shared pool.

    ``pool`` is the total Monte-Carlo trial budget the operator is
    willing to spend across all tenants (``None`` disables quota
    enforcement entirely — every submission is admitted and merely
    accounted). ``unit`` is the grant granularity handed to
    :func:`~repro.core.montecarlo.allocate_grants`; it only affects how
    the indivisible remainder of ``pool / n_tenants`` is distributed.
    The default (``pool / 1024``, at least 1) keeps the splitter's
    round-robin loop bounded regardless of pool size.
    """

    def __init__(self, pool: int | None = None, unit: int | None = None
                 ) -> None:
        if pool is not None and pool < 1:
            raise ConfigurationError(
                f"quota pool must be >= 1 trials, got {pool}"
            )
        if unit is None:
            unit = max(1, (pool or 0) // 1024)
        if unit < 1:
            raise ConfigurationError(
                f"quota grant unit must be >= 1, got {unit}"
            )
        self.pool = pool
        self.unit = unit
        self._lock = threading.Lock()
        # tenant -> cumulative admitted trial spend; insertion order is
        # arrival order, which breaks fair-share ties deterministically.
        self._spent: dict[str, int] = {}

    # -- policy ------------------------------------------------------------

    def _shares(self, demands: dict[str, int]) -> dict[str, int]:
        """Fair share per tenant: ``allocate_grants`` over the tenant set.

        ``demands`` maps tenant -> the spend it is asking the policy to
        judge (cumulative spend, plus the new request for the tenant
        under consideration). Tenants are keyed by arrival index so the
        splitter's ascending-key tie-break becomes first-come-first-
        served, mirroring how grid points tie-break by point index.
        """
        order = list(demands)
        pairs = [
            (float(demands[tenant]), index)
            for index, tenant in enumerate(order)
        ]
        grants = allocate_grants(self.pool, pairs, self.unit)
        return {
            tenant: sum(grants.get(index, []))
            for index, tenant in enumerate(order)
        }

    def check(self, tenant: str, requested: int) -> QuotaDecision:
        """The decision :meth:`charge` would make, without recording it."""
        with self._lock:
            return self._decide(tenant, requested)

    def charge(self, tenant: str, requested: int) -> QuotaDecision:
        """Admit-and-record, or raise :class:`QuotaExceeded`.

        Admission: the tenant's cumulative spend plus ``requested``
        must fit inside its fair share of the pool, where shares are
        computed over every tenant seen so far (including this one).
        """
        with self._lock:
            decision = self._decide(tenant, requested)
            if not decision.admitted:
                raise QuotaExceeded(decision)
            self._spent[tenant] = decision.spent + requested
            return decision

    def _decide(self, tenant: str, requested: int) -> QuotaDecision:
        if requested < 0:
            raise ConfigurationError(
                f"requested trials must be >= 0, got {requested}"
            )
        spent = self._spent.get(tenant, 0)
        if self.pool is None:
            return QuotaDecision(
                tenant=tenant, requested=requested, spent=spent,
                share=spent + requested, pool=0, admitted=True,
            )
        demands = dict(self._spent)
        demands[tenant] = spent + requested
        share = self._shares(demands).get(tenant, 0)
        return QuotaDecision(
            tenant=tenant,
            requested=requested,
            spent=spent,
            share=share,
            pool=self.pool,
            admitted=spent + requested <= share,
        )

    def refund(self, tenant: str, trials: int) -> None:
        """Return trials to a tenant (failed jobs don't consume quota)."""
        with self._lock:
            spent = self._spent.get(tenant)
            if spent is not None:
                self._spent[tenant] = max(0, spent - trials)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Fleet-endpoint view: pool, per-tenant spend, current shares."""
        with self._lock:
            spent = dict(self._spent)
            if self.pool is None:
                shares = {tenant: None for tenant in spent}
            else:
                shares = self._shares(dict(spent)) if spent else {}
            return {
                "pool": self.pool,
                "unit": self.unit,
                "tenants": {
                    tenant: {
                        "spent": amount,
                        "share": shares.get(tenant),
                    }
                    for tenant, amount in spent.items()
                },
            }
