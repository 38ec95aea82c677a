"""Self-test of the benchmark itself, at tiny trial counts (a few minutes).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that

1. the span wrappers leave the ResultSet bytes unchanged, for every
   workload (``run(..., trace=True)`` is only ``correct`` when the traced
   and untraced ``--json`` files are byte-identical);
2. the comparator accepts the references in a permuted order and flags
   a perturbed, a missing and an extra comparison;
3. every per-layer metric is present for every workload, and the
   deterministic counts hold (6 syntheses and simulations, trace reuse
   0.5; on ``paper-warm`` no cache misses and no SoftArch calls);
4. ``BENCHMARK.json`` names the workloads and metrics ``run.py`` reports.

Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import run
from compare import failed_artifacts, load_reference

TINY_TRIALS = 1000


def check_comparator() -> None:
    reference = load_reference(100_000)
    flat = [c for artifact in reference.values() for c in artifact]
    random.Random(1).shuffle(flat)
    assert failed_artifacts(reference, flat) == set(), "permuted run"

    perturbed = copy.deepcopy(flat)
    target = reference["fig5"][0]
    index = next(i for i, c in enumerate(flat) if c == target)
    method = sorted(perturbed[index]["estimates"])[0]
    perturbed[index]["estimates"][method]["mttf_seconds"] *= 1 + 1e-7
    assert failed_artifacts(reference, perturbed) == {"fig5"}, "perturbed"
    assert failed_artifacts(reference, flat[:index] + flat[index + 1:]) == {
        "fig5"
    }, "missing"
    assert failed_artifacts(reference, flat + [target]) == {"fig5"}, "extra"


def check_workloads() -> None:
    for name in run.WORKLOADS:
        result = run.run(name, seed=3, seconds=1, trace=True,
                         trials=TINY_TRIALS)
        assert result["correct"], f"{name}: traced bytes or exit differ"
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics.keys() == run.PER_LAYER.keys(), name
        assert metrics["workloads.synthesize_calls"] == 6, name
        assert metrics["microarch.simulate_calls"] == 6, name
        assert metrics["harness.trace_reuse"] == 0.5, name
        if name == "paper-warm":
            assert metrics["methods.cache.misses"] == 0, name
            assert metrics["methods.cache.hits"] > 0, name
            assert metrics["core.softarch.calls"] == 0, name
        print(f"{name}: ok")


def check_manifest() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert {w["name"] for w in manifest["workloads"]} <= run.WORKLOADS.keys()
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in manifest[key]} == units, key


def main() -> int:
    check_manifest()
    check_comparator()
    print("comparator: ok")
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
