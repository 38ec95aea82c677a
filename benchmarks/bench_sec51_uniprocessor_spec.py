"""Section 5.1: AVF+SOFR on a modern uniprocessor running SPEC.

Paper: < 0.5% discrepancy for all four components and every benchmark;
the processor-level SOFR MTTF matches as well.
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_sec51_uniprocessor_spec(benchmark):
    experiment = get_experiment("sec5.1")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    component_errors = [
        abs(float(c.strip("%+-"))) / 100
        for c in result.tables[0].column("AVF-step error")
    ]
    sofr_errors = [
        abs(float(c.strip("%+-"))) / 100
        for c in result.tables[1].column("error")
    ]
    assert max(component_errors) < 0.005  # the paper's 0.5% bound
    assert max(sofr_errors) < 0.005
