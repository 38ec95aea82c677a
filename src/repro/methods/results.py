"""Serializable result containers for method comparisons.

A :class:`ResultSet` is what ``repro.analyze(...).run()`` and
:func:`~repro.methods.batch.evaluate_design_space` return: an ordered
collection of :class:`~repro.core.comparison.MethodComparison` records
(one per system/grid point) plus the run's method and reference names.
``to_json``/``from_json`` round-trip losslessly — including each
estimate's trial count and standard error — so experiments become
artifacts that can be archived, diffed and re-rendered without
rerunning any Monte Carlo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from ..core.comparison import MethodComparison
from ..core.system import reject_unknown
from ..errors import ConfigurationError

#: Schema tag embedded in every serialized ResultSet.
SCHEMA = "repro.resultset/v1"

#: The top-level keys a serialized ResultSet may carry.
_FIELDS = ("schema", "methods", "reference_method", "comparisons", "mc_token")


@dataclass(frozen=True)
class ResultSet:
    """Ordered method-comparison records from one analysis run.

    ``mc_token`` records the Monte-Carlo configuration the run used
    (trials/seed/sampler — see :func:`repro.methods.cache.mc_token`);
    :meth:`merged` keeps it only when both sets agree.
    """

    comparisons: tuple[MethodComparison, ...]
    methods: tuple[str, ...] = ()
    reference_method: str = "monte_carlo"
    mc_token: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "comparisons", tuple(self.comparisons))
        object.__setattr__(self, "methods", tuple(self.methods))

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
        """Inverse of :meth:`to_dict`.

        Unknown top-level keys are refused: a document carrying, say,
        a ``shard`` from an older release holds only part of a sweep
        and must not load as a complete one.
        """
        if data.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"not a {SCHEMA} document (schema={data.get('schema')!r})"
            )
        reject_unknown(data, _FIELDS, "result set")
        return cls(
            comparisons=tuple(
                MethodComparison.from_dict(c) for c in data["comparisons"]
            ),
            methods=tuple(data.get("methods", ())),
            reference_method=data.get("reference_method", "monte_carlo"),
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
