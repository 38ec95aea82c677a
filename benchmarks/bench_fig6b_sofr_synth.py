"""Figure 6(b): SOFR-step error for synthesized workloads.

Paper (N x S = 1e8): day 11% at C=5000 and 50% at C=50000; week 32% and
80%; combined smaller but still significant. We reproduce the structure
under two loop-phase conventions (see the experiment notes): errors are
negligible for C <= 8, break by tens of percent for C >= 5000, grow
with C, and order week > day > combined in the unsaturated regime.
"""

from conftest import BENCH_TRIALS, emit

from repro.harness import EngineOptions, get_experiment


def test_fig6b_sofr_synth(benchmark):
    experiment = get_experiment("fig6b")
    result = benchmark.pedantic(
        lambda: experiment.run(EngineOptions(trials=BENCH_TRIALS)),
        rounds=1,
        iterations=1,
    )
    emit(result)
    table = result.tables[0]
    counts = [int(c) for c in table.column("C")]
    workloads = table.column("workload")
    n_times_s = [float(c) for c in table.column("N x S")]
    rand_errors = [
        abs(float(c.strip("%").replace("+", ""))) / 100
        for c in table.column("error (random phase)")
    ]
    zero_errors = [
        abs(float(c.strip("%").replace("+", ""))) / 100
        for c in table.column("error (zero phase)")
    ]
    # The paper's quoted regime (N x S = 1e8): small clusters accurate
    # under either convention.
    for errs in (rand_errors, zero_errors):
        small = [
            e
            for e, c, ns in zip(errs, counts, n_times_s)
            if c <= 8 and ns <= 1e8
        ]
        assert max(small) < 0.05
    # Large clusters break by tens of percent.
    big = [e for e, c in zip(rand_errors, counts) if c >= 5000]
    assert max(big) > 0.3
    # week > day > combined at the paper's key point (C=5000, 1e8).
    keyed = {
        (w, c, ns): e
        for w, c, ns, e in zip(workloads, counts, n_times_s, rand_errors)
    }
    assert keyed[("week", 5000, 1e8)] > keyed[("day", 5000, 1e8)]
    assert keyed[("combined", 5000, 1e8)] < keyed[("day", 5000, 1e8)]
