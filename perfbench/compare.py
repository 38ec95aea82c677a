"""Output check: a run's ResultSet against the stored per-artifact references.

``reference/trials-<T>.json`` maps each ``repro-experiments`` artifact to
the comparisons its own ``--json`` ResultSet holds at ``--trials T``. A
run of all artifacts writes one merged ResultSet whose comparison order
follows the artifact order on the command line, and labels repeat across
artifacts (``gzip`` appears in ``compare`` and ``table1``), so matching
is by multiset: each reference comparison consumes one equal run
comparison with the same label and method set. Numbers must agree to a
relative tolerance of 1e-9.

Regenerate the references (about two minutes at 1e6 trials)::

    python perfbench/compare.py --write-reference 100000
    python perfbench/compare.py --write-reference 1000000
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REL_TOL = 1e-9
#: The pinned load every benchmark invocation uses.
LOAD_ARGS = ("--workers", "2", "--executor", "thread", "--kernel", "numpy")


def reference_path(trials: int) -> Path:
    return HERE / "reference" / f"trials-{trials}.json"


def load_reference(trials: int) -> dict[str, list[dict]]:
    with open(reference_path(trials), encoding="utf-8") as handle:
        return json.load(handle)["artifacts"]


def _key(comparison: dict) -> tuple:
    return (comparison["system_label"], frozenset(comparison["estimates"]))


def same(a, b) -> bool:
    """JSON values equal, numbers to :data:`REL_TOL`."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def failed_artifacts(
    reference: dict[str, list[dict]], comparisons: list[dict]
) -> set[str]:
    """Artifacts whose comparisons are missing, wrong, or extra in a run."""
    pool: dict[tuple, list[dict]] = defaultdict(list)
    for comparison in comparisons:
        pool[_key(comparison)].append(comparison)
    owners: dict[tuple, set[str]] = defaultdict(set)
    failed = set()
    for artifact in sorted(reference):
        for expected in reference[artifact]:
            key = _key(expected)
            owners[key].add(artifact)
            candidates = pool[key]
            match = next(
                (i for i, c in enumerate(candidates) if same(c, expected)),
                None,
            )
            if match is None:
                failed.add(artifact)
            else:
                candidates.pop(match)
    for key, leftovers in pool.items():
        if leftovers:
            failed |= owners.get(key) or set(reference)
    return failed


def _list_artifacts() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-m", "repro.harness.runner", "--list"],
        cwd=ROOT, env=child_env(), check=True, capture_output=True,
        text=True,
    ).stdout
    return sorted(
        line.split()[0] for line in out.splitlines() if line.startswith("  ")
    )


def child_env() -> dict:
    """The environment of every child: ``src`` importable, no overrides.

    ``REPRO_*`` variables (trial count, trace window, cache dir) would
    change the workload, so none reach the CLI.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_reference(trials: int) -> None:
    """Run each artifact on its own and store its comparisons."""
    artifacts = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for artifact in _list_artifacts():
            path = Path(tmp) / f"{artifact}.json"
            subprocess.run(
                [sys.executable, "-m", "repro.harness.runner", artifact,
                 "--trials", str(trials), *LOAD_ARGS, "--json", str(path)],
                cwd=ROOT, env=child_env(), check=True,
                stdout=subprocess.DEVNULL,
            )
            with open(path, encoding="utf-8") as handle:
                artifacts[artifact] = json.load(handle)["comparisons"]
            print(f"{artifact}: {len(artifacts[artifact])} comparisons")
    path = reference_path(trials)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"trials": trials, "artifacts": artifacts}, handle,
                  separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", type=int, metavar="TRIALS",
                        required=True)
    write_reference(parser.parse_args().write_reference)
