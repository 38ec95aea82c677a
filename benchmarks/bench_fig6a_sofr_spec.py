"""Figure 6(a): SOFR-step error for SPEC workloads across C and N x S.

Paper: accurate for small systems (C = 2 or 8) at every N x S studied;
significant errors only once C >= 5000 *and* N x S is very large
(baseline scaled ~2000x on 1e9-bit processors).
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_fig6a_sofr_spec(benchmark):
    experiment = get_experiment("fig6a")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    table = result.tables[0]
    errors = [
        float(c.strip("%").replace("+", "")) / 100
        for c in table.column("error")
    ]
    counts = [int(c) for c in table.column("C")]
    small_c = [abs(e) for e, c in zip(errors, counts) if c <= 8]
    large_c = [abs(e) for e, c in zip(errors, counts) if c >= 5000]
    assert max(small_c) < 0.01  # SOFR fine for small clusters
    assert max(large_c) > max(small_c)  # breakdown needs large C
