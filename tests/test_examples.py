"""Smoke tests: every example script must run and print its conclusion.

Examples are run in-process (imported as modules with a controlled
``sys.argv``) so coverage tools see them and failures produce real
tracebacks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [str(path), *argv]
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", [], capsys)
        assert "AVF+SOFR" in out
        assert "first principles" in out
        assert "unreliable" in out  # the accelerated case gets flagged

    def test_spec_uniprocessor(self, capsys):
        out = run_example("spec_uniprocessor", ["gzip", "6000"], capsys)
        assert "register_file" in out
        assert "All methods agree" in out

    def test_datacenter_cluster(self, capsys):
        out = run_example("datacenter_cluster", [], capsys)
        assert "SOFR error" in out
        assert "central warning" in out

    def test_avionics(self, capsys):
        out = run_example("avionics_accelerated_test", [], capsys)
        assert "accelerated_test" in out
        assert "SoftArch tracks the exact MTTF" in out

    def test_combined_workload(self, capsys):
        out = run_example("combined_workload", [], capsys)
        assert "combined workload" in out
        assert "underestimates" in out

    def test_hybrid_methodology(self, capsys):
        out = run_example("hybrid_methodology", [], capsys)
        assert "hybrid" in out
        assert "best combination" in out


class TestReadmeSnippet:
    def test_quickstart_code_runs(self, capsys):
        # The README's quickstart block, verbatim.
        import repro

        profile = repro.busy_idle_profile(
            busy_time=repro.days(0.5), period=repro.days(1)
        )
        system = repro.SystemModel(
            [
                repro.Component(
                    "server", rate_per_second=3.2e-8, profile=profile
                )
            ]
        )
        print(repro.avf_sofr_mttf(system))
        print(repro.first_principles_mttf(system))
        print(
            repro.monte_carlo_mttf(
                system, repro.MonteCarloConfig(trials=5_000)
            )
        )
        print(repro.softarch_mttf(system))
        print(repro.validity_report(system).summary())
        out = capsys.readouterr().out
        assert "avf+sofr" in out
        assert "AVF step" in out
