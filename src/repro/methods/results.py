"""Serializable result containers for method comparisons.

A :class:`ResultSet` is what ``repro.analyze(...).run()`` and
:func:`~repro.methods.batch.evaluate_design_space` return: an ordered
collection of :class:`~repro.core.comparison.MethodComparison` records
(one per system/grid point) plus the run's method and reference names.
``to_json``/``from_json`` round-trip losslessly — including the
per-point trial counts and achieved standard errors that make adaptive
(stopping-rule) runs auditable, and the shard coordinates of a
partitioned sweep — so experiments become artifacts that can be
archived, diffed, sharded across machines, merged back together
(:func:`merge_result_sets`), and re-rendered without rerunning any
Monte Carlo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..core.comparison import MethodComparison
from ..errors import ConfigurationError

#: Schema tag embedded in every serialized ResultSet.
SCHEMA = "repro.resultset/v1"


def validate_shard(shard) -> tuple[int, int]:
    """Normalize and validate an ``(i, n)`` shard pair.

    The single validator behind ``evaluate_design_space(shard=...)``,
    :class:`ResultSet`, and the CLI's ``i/N`` parsing.
    """
    try:
        index, count = (int(shard[0]), int(shard[1]))
    except (TypeError, ValueError, IndexError, KeyError):
        raise ConfigurationError(
            f"invalid shard {shard!r}; need an (i, n) pair"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"invalid shard {shard!r}; need 0 <= i < n"
        )
    return index, count


@dataclass(frozen=True)
class ResultSet:
    """Ordered method-comparison records from one analysis run.

    ``shard`` is ``(i, n)`` when the set holds one machine's round-robin
    share of a larger space (``evaluate_design_space(shard=...)``) and
    ``None`` for a complete run; :func:`merge_result_sets` consumes it.
    ``mc_token`` records the Monte-Carlo configuration the run used
    (trials/seed/sampler/chunking/stopping — see
    :func:`repro.methods.cache.mc_token`), so merging shards produced
    with different settings fails loudly instead of interleaving
    inconsistent estimates.
    """

    comparisons: tuple[MethodComparison, ...]
    methods: tuple[str, ...] = ()
    reference_method: str = "monte_carlo"
    shard: tuple[int, int] | None = None
    mc_token: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "comparisons", tuple(self.comparisons))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.shard is not None:
            object.__setattr__(self, "shard", validate_shard(self.shard))

    def __iter__(self) -> Iterator[MethodComparison]:
        return iter(self.comparisons)

    def __len__(self) -> int:
        return len(self.comparisons)

    def __getitem__(self, index):
        return self.comparisons[index]

    @property
    def labels(self) -> list[str]:
        return [c.system_label for c in self.comparisons]

    def errors(self, method: str) -> dict[str, float]:
        """Signed relative error of ``method`` per system label."""
        return {
            c.system_label: c.error(method)
            for c in self.comparisons
            if method in c.estimates
        }

    def worst_abs_error(self, method: str) -> float:
        """Largest |relative error| of ``method`` across the set."""
        errors = self.errors(method)
        if not errors:
            raise ConfigurationError(
                f"no comparison in this set ran method {method!r}"
            )
        return max(abs(e) for e in errors.values())

    # -- adaptive-run audit ------------------------------------------------

    def reference_trials(self) -> dict[str, int]:
        """Monte-Carlo trials behind each point's reference estimate.

        After an adaptive (stopping-rule) run the counts differ per
        point — this is the audit trail showing where the rule stopped
        early. Survives the JSON round-trip.
        """
        return {
            c.system_label: c.reference.trials for c in self.comparisons
        }

    def reference_rel_stderr(self) -> dict[str, float]:
        """Achieved relative stderr of each point's reference estimate.

        Zero for exact references and infinite-MTTF points. An adaptive
        run that hit its target has every value at or below the target
        (budget-exhausted points excepted — cross-check with
        :meth:`reference_trials`).
        """
        return {
            c.system_label: c.reference.rel_stderr
            for c in self.comparisons
        }

    def merged(self, other: "ResultSet") -> "ResultSet":
        """Concatenate two sets (method/reference metadata unioned).

        When the two sets were measured against different references the
        merged set's ``reference_method`` becomes ``"mixed"`` — each
        comparison still records its own reference estimate (and its
        producing method label), so nothing is lost.
        """
        methods = list(self.methods)
        methods.extend(m for m in other.methods if m not in methods)
        reference = (
            self.reference_method
            if other.reference_method == self.reference_method
            else "mixed"
        )
        return ResultSet(
            comparisons=self.comparisons + other.comparisons,
            methods=tuple(methods),
            reference_method=reference,
            mc_token=(
                self.mc_token
                if other.mc_token == self.mc_token
                else None
            ),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "schema": SCHEMA,
            "methods": list(self.methods),
            "reference_method": self.reference_method,
            "comparisons": [c.to_dict() for c in self.comparisons],
        }
        if self.shard is not None:
            data["shard"] = list(self.shard)
        if self.mc_token is not None:
            data["mc_token"] = self.mc_token
        return data

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialize; also write to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResultSet":
        if data.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"not a {SCHEMA} document (schema={data.get('schema')!r})"
            )
        shard = data.get("shard")
        return cls(
            comparisons=tuple(
                MethodComparison.from_dict(c) for c in data["comparisons"]
            ),
            methods=tuple(data.get("methods", ())),
            reference_method=data.get("reference_method", "monte_carlo"),
            shard=tuple(shard) if shard is not None else None,
            mc_token=data.get("mc_token"),
        )

    @classmethod
    def from_json(cls, source: str | Path) -> "ResultSet":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        elif source.lstrip().startswith("{"):
            text = source
        else:
            text = Path(source).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))


def merge_result_sets(sets: Sequence[ResultSet]) -> ResultSet:
    """Reassemble the shards of one sweep into the unsharded ResultSet.

    Every input must carry a ``shard=(i, n)`` with the same ``n``, the
    shard indices must form the complete partition ``0..n-1`` with no
    duplicates, and method/reference metadata must agree. Because
    sharding is round-robin (:func:`~repro.methods.batch.shard_select`),
    global point ``k`` lives at position ``k // n`` of shard ``k % n`` —
    interleaving restores the original order exactly, so the merged set
    equals (``==``, bit-for-bit) what one machine evaluating the whole
    space would have produced. Shard sizes are cross-checked against
    the round-robin invariant so a missing or truncated shard fails
    loudly rather than merging silently short.

    Duplicate shard indices are tolerated only when the copies are
    identical (the determinism guarantee makes two runs of one shard
    produce the same bits, say a retried machine's; anything else is a
    real conflict and fails loudly).
    """
    if not sets:
        raise ConfigurationError("no result sets to merge")
    by_index: dict[int, ResultSet] = {}
    count = None
    for result_set in sets:
        if result_set.shard is None:
            raise ConfigurationError(
                "merge_result_sets needs sharded inputs (shard=(i, n)); "
                "use ResultSet.merged() to concatenate unrelated sets"
            )
        index, n = result_set.shard
        if count is None:
            count = n
        elif n != count:
            raise ConfigurationError(
                f"mixed shard counts: expected /{count}, got /{n}"
            )
        if index in by_index:
            existing = by_index[index]
            if (
                existing.comparisons == result_set.comparisons
                and existing.methods == result_set.methods
                and existing.reference_method
                == result_set.reference_method
                and existing.mc_token == result_set.mc_token
            ):
                continue  # identical duplicate (a rerun shard)
            raise ConfigurationError(
                f"duplicate shard {index}/{n} with conflicting contents"
            )
        by_index[index] = result_set
    missing = sorted(set(range(count)) - set(by_index))
    if missing:
        raise ConfigurationError(
            f"incomplete partition: missing shards {missing} of /{count}"
        )
    first = by_index[0]
    for result_set in by_index.values():
        if result_set.methods != first.methods or (
            result_set.reference_method != first.reference_method
        ):
            raise ConfigurationError(
                "shards disagree on methods/reference; refusing to merge"
            )
        if result_set.mc_token != first.mc_token:
            raise ConfigurationError(
                "shards disagree on the Monte-Carlo configuration "
                f"({result_set.mc_token!r} vs {first.mc_token!r}); they "
                "come from different runs — refusing to merge"
            )
    total = sum(len(s) for s in by_index.values())
    for index, result_set in by_index.items():
        expected = (total - index + count - 1) // count
        if len(result_set) != expected:
            raise ConfigurationError(
                f"shard {index}/{count} has {len(result_set)} points, "
                f"round-robin partition of {total} expects {expected}"
            )
    comparisons = [
        by_index[k % count].comparisons[k // count] for k in range(total)
    ]
    return ResultSet(
        comparisons=tuple(comparisons),
        methods=first.methods,
        reference_method=first.reference_method,
        mc_token=first.mc_token,
    )
