"""Ablation: Monte-Carlo trial-count convergence (1/sqrt(n) law)."""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_ablation_convergence(benchmark):
    experiment = get_experiment("ablation.convergence")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rel_ses = [
        abs(float(c.strip("%+-"))) / 100
        for c in result.tables[0].column("stderr/mean")
    ]
    assert rel_ses[0] > rel_ses[-1]  # stderr shrinks with trials
