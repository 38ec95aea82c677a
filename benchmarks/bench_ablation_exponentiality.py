"""Ablation: masked-TTF departure from exponential (why SOFR breaks)."""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_ablation_exponentiality(benchmark):
    experiment = get_experiment("ablation.exponentiality")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    verdicts = result.tables[0].column("looks exponential")
    # Small hazard mass: exponential; large: decisively not.
    assert verdicts[0] == "yes"
    assert verdicts[-1] == "no"
