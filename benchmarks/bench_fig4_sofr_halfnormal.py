"""Figure 4: SOFR error for the half-normal-square counter-example.

Paper: the error grows from 15% for two components to about 32% for 32
components.
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_fig4_sofr_halfnormal(benchmark):
    experiment = get_experiment("fig4")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    errors = [abs(float(c.strip("%+-"))) / 100 for c in
              result.tables[0].column("rel. error")]
    assert 0.13 < errors[0] < 0.17  # ~15% at N=2
    assert 0.30 < errors[-1] < 0.37  # ~32% at N=32
    assert all(a < b for a, b in zip(errors, errors[1:]))
