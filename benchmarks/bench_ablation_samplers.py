"""Ablation: the paper's arrival sampler vs the fast inverse sampler."""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_ablation_samplers(benchmark):
    experiment = get_experiment("ablation.samplers")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    sigmas = [
        float(c) for c in result.tables[0].column("difference (sigma)")
    ]
    assert max(sigmas) < 5.0  # statistically indistinguishable means
