"""Figure 5: AVF-step error for day/week/combined across N x S.

Paper: significant errors (up to ~90%) once N x S >= 1e9; both signs
occur, so AVF may over- or under-estimate the MTTF.
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_fig5_avf_design_space(benchmark):
    experiment = get_experiment("fig5")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    errors = [
        float(c.strip("%").replace("+", "")) / 100
        for c in result.tables[0].column("error")
    ]
    # Shape: errors at the small-N*S end are negligible, the large end
    # reaches tens of percent, and both signs occur (Section 5.2).
    assert min(abs(e) for e in errors) < 0.01
    assert max(abs(e) for e in errors) > 0.3
    assert any(e > 0 for e in errors) and any(e < 0 for e in errors)
