"""The paper's conclusion, operationalised: a hybrid methodology.

The paper ends by motivating "future work to determine the best
combination of methodologies". This example demonstrates the library's
hybrid estimator, which keys on the system's hazard mass per iteration:
below 1e-3 the AVF+SOFR pipeline holds and runs at almost no cost, and
above it the estimator computes the exact first-principles MTTF. It
compares the hybrid and plain AVF+SOFR against ground truth across the
full severity sweep.

Run:  python examples/hybrid_methodology.py
"""

from repro.core import (
    Component,
    SystemModel,
    avf_sofr_mttf,
    first_principles_mttf,
    hybrid_regime,
    hybrid_system_mttf,
)
from repro.units import SECONDS_PER_DAY
from repro.workloads import day_workload


def main() -> None:
    profile = day_workload()
    header = (
        f"{'cluster':>8s} {'raw/node/day':>13s} {'regime':>12s} "
        f"{'method chosen':>26s} {'AVF+SOFR err':>13s} {'hybrid err':>11s}"
    )
    print(header)
    print("-" * len(header))
    for nodes, errors_per_day in (
        (2, 1e-6),
        (100, 1e-4),
        (100, 3e-3),
        (5_000, 3e-3),
        (50_000, 0.1),
    ):
        rate = errors_per_day / SECONDS_PER_DAY
        system = SystemModel(
            [Component("node", rate, profile, multiplicity=nodes)]
        )
        exact = first_principles_mttf(system).mttf_seconds
        plain = avf_sofr_mttf(system).mttf_seconds
        hybrid = hybrid_system_mttf(system)
        plain_err = (plain - exact) / exact
        hybrid_err = (hybrid.mttf_seconds - exact) / exact
        print(
            f"{nodes:>8d} {errors_per_day:>13.1e} "
            f"{hybrid_regime(system).value:>12s} "
            f"{hybrid.method:>26s} {plain_err:>+13.2%} "
            f"{hybrid_err:>+11.4%}"
        )
    print()
    print(
        "The hybrid estimator stays within a fraction of a percent of "
        "first principles everywhere, paying the exact-computation cost "
        "only where the AVF+SOFR assumptions actually fail — the "
        "'best combination of methodologies' the paper calls for."
    )


if __name__ == "__main__":
    main()
