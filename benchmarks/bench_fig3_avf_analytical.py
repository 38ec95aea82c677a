"""Figure 3: AVF-step error for the analytical busy/idle loop.

Paper: errors negligible at the baseline rate, significant at 3x/5x
rates with multi-day loops (the curves grow with L and the rate scale).
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_fig3_avf_analytical(benchmark):
    experiment = get_experiment("fig3")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    errors = [float(c.strip("%+")) / 100 for c in
              result.tables[0].column("rel. error")]
    # Shape assertions: error grows along each curve and with the scale.
    assert errors[-1] > errors[0]
    assert max(errors) > 0.15  # 5x, 16-day loop is deep double digits
    assert min(errors) < 0.005  # 1x, 1-day loop is negligible
