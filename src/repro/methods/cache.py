"""On-disk, content-addressed estimation cache.

The paper-scale sweeps (1e6 trials x hundreds of grid points) are
expensive enough that repeating them across CLI invocations is the
dominant cost of iterating on an experiment. :class:`DiskCache` persists
every estimate the batch engine computes as one small JSON file keyed by
a *content-addressed* cache key:

``component/<kind>/<profile-fingerprint x rate>/<mc-token>`` for
per-component MTTFs, and
``system/<method>/<reference>/<system-fingerprint>/<mc-token>`` for
system-level estimates.

Because keys derive from :attr:`~repro.core.system.Component.
content_fingerprint` (a digest of the profile's breakpoints/values and
the raw rate) rather than object identity, a warm cache directory is
valid across processes and reruns, and editing a profile (a new masking
trace, a different window) changes the fingerprint and naturally
invalidates only the affected entries.

Entries are written atomically (temp file + ``os.replace``), so a
killed run never leaves a torn entry behind; unreadable entries are
treated as misses, and so are values that do not decode (checked by
:class:`~repro.methods.base.ComponentCache`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ..core.montecarlo import MonteCarloConfig

#: Schema tag embedded in every cache entry.
ENTRY_SCHEMA = "repro.cache-entry/v1"

#: Environment default for the on-disk cache directory; honoured by
#: every entry point that accepts ``--cache-dir``.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    """The single cache-path resolution rule for every entry point.

    ``repro-experiments --cache-dir`` and any embedding code resolve
    the estimate-cache directory through this one helper so their
    defaults can never drift: an explicit path wins, an unset (or
    empty) path falls back to the :data:`CACHE_DIR_ENV` environment
    variable, ``~`` is expanded, and ``None`` means "no disk cache".
    The directory is *not* created here — that stays with
    :class:`DiskCache` so a read-only caller can resolve without side
    effects.
    """
    if cache_dir is None or cache_dir == "":
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    if cache_dir is None:
        return None
    return Path(cache_dir).expanduser()


def mc_token(mc: MonteCarloConfig | None) -> str:
    """Canonical cache-key token for a Monte-Carlo configuration.

    ``None`` means the value does not depend on any Monte-Carlo settings
    (deterministic closed forms), which all share the ``"exact"`` token.
    Every field that can change the numbers is included — trials, seed,
    sampler, start phase and the arrival-round cap.
    """
    if mc is None:
        return "exact"
    # ``chunks=1`` is a literal: every estimate is one run of ``trials``
    # draws, and earlier releases wrote the chunk count here, so the
    # literal keeps every cache key (and warm cache directory) and every
    # ResultSet ``mc_token`` byte-identical.
    return (
        f"trials={mc.trials},seed={mc.seed},method={mc.method},"
        f"start_phase={mc.start_phase},chunks=1,"
        f"cap={mc.max_arrival_rounds}"
    )


class DiskCache:
    """JSON-per-entry persistent cache under one directory.

    Values are plain JSON-serializable dicts; key-to-filename mapping is
    the SHA-256 of the key, so keys can be arbitrarily long and contain
    any characters. The original key is stored inside the entry for
    debuggability (``ls`` + ``jq .key`` answers "what is this file?").
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.json"

    def get(self, key: str) -> dict | None:
        """The entry's value, or ``None`` when absent/unreadable.

        A torn, non-JSON or foreign-schema file reads as absent.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or "value" not in entry
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["value"]

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` under ``key`` (atomic replace, last write wins)."""
        entry = {"schema": ENTRY_SCHEMA, "key": key, "value": value}
        path = self._path(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    def __len__(self) -> int:
        return sum(
            1
            for p in self.directory.iterdir()
            if p.suffix == ".json" and not p.name.startswith(".tmp-")
        )

    def clear(self) -> None:
        """Delete every entry (leaves the directory in place)."""
        for p in list(self.directory.iterdir()):
            if p.suffix == ".json" and not p.name.startswith(".tmp-"):
                try:
                    p.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )
