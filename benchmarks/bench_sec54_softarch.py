"""Section 5.4: SoftArch across the design space.

Paper: SoftArch's MTTF error relative to Monte Carlo is < 1% for single
components and < 2% for full systems at every design point.
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_sec54_softarch(benchmark):
    experiment = get_experiment("sec5.4")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    errors = [
        abs(float(c.strip("%").replace("+", ""))) / 100
        for c in result.tables[0].column("SoftArch vs exact")
    ]
    assert max(errors) < 0.01  # single-component bound from the paper
