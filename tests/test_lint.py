"""repro-lint: rule fixtures, CLI contract, wire form, self-audit.

Each rule family gets three fixtures — a seeded violation the rule must
catch, the same violation under an audited ``# repro: allow[...]``, and
clean code it must not flag. The CLI exit-code contract (0 clean /
1 findings / 2 usage) and the ``repro.lint-report/v1`` JSON round trip
are pinned here too, and the suite closes with the gate the CI job
enforces: the real tree lints clean with every suppression reasoned.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    Finding,
    available_rules,
    run_lint,
    select_rules,
)
from repro.lint.cli import main
from repro.lint.engine import REPORT_SCHEMA
from repro.lint.model import FINDING_SCHEMA, is_engine_path

ROOT = Path(__file__).resolve().parent.parent


def write(root: Path, rel: str, code: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


def make_docs(
    root: Path, readme: str = "", design: str = "", scheduler: str = ""
) -> None:
    """Minimal documentation set so full runs pass R100."""
    write(root, "README.md", readme)
    write(root, "DESIGN.md", design)
    write(root, "docs/SCHEDULER.md", scheduler)


def lint(path, rules, root=None):
    return run_lint([path], rules=rules, root=root)


def rule_ids(report) -> list[str]:
    return [f.rule_id for f in report.findings]


class TestRegistryAndScope:
    def test_all_families_registered(self):
        families = {rule_id[:2] for rule_id in available_rules()}
        assert families == {"D1", "R1", "C1", "L1"}

    def test_family_selector_expands(self):
        assert [r.rule_id for r in select_rules(["D1"])] == [
            "D101", "D102", "D103", "D104", "D105",
        ]

    def test_unknown_selector_is_loud(self):
        with pytest.raises(ConfigurationError, match="Z9"):
            select_rules(["Z9"])

    def test_scope_classification(self):
        assert is_engine_path("repro/core/montecarlo.py")
        assert is_engine_path("repro/methods/cache.py")
        assert not is_engine_path("repro/harness/runner.py")


class TestDeterminismRules:
    def test_d101_wall_clock_caught(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            import time

            def stamp():
                return time.time()
            """)
        report = lint(path, ["D101"])
        assert rule_ids(report) == ["D101"]
        assert report.findings[0].line == 4

    def test_d101_suppressed_with_reason(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            import time

            def stamp():
                return time.time()  # repro: allow[D101] display only
            """)
        report = lint(path, ["D101"])
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["D101"]
        assert report.suppressed[0].reason == "display only"

    def test_d101_clean(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            def stamp(clock):
                return clock()
            """)
        assert lint(path, ["D101"]).clean

    def test_d102_entropy_caught(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            import os
            import random

            def salt():
                return os.urandom(8), random.random()
            """)
        assert rule_ids(lint(path, ["D102"])) == ["D102", "D102"]

    def test_d103_legacy_numpy_random_caught(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            import numpy as np

            def seed_it():
                np.random.seed(0)
                return np.random.RandomState(1)
            """)
        assert rule_ids(lint(path, ["D103"])) == ["D103", "D103"]

    def test_d103_unseeded_rng_caught_seeded_clean(self, tmp_path):
        bad = write(tmp_path, "repro/core/bad.py", """\
            from numpy.random import default_rng

            def rng():
                return default_rng()
            """)
        good = write(tmp_path, "repro/core/good.py", """\
            from numpy.random import SeedSequence, default_rng

            def rng(seed):
                return default_rng(SeedSequence(seed))
            """)
        assert rule_ids(lint(bad, ["D103"])) == ["D103"]
        assert lint(good, ["D103"]).clean

    def test_d104_id_keying_engine_only(self, tmp_path):
        engine = write(tmp_path, "repro/core/keys.py", """\
            def key(obj):
                return {id(obj): obj}
            """)
        harness = write(tmp_path, "repro/harness/keys.py", """\
            def key(obj):
                return {id(obj): obj}
            """)
        assert rule_ids(lint(engine, ["D104"])) == ["D104"]
        assert lint(harness, ["D104"]).clean

    def test_d105_set_iteration_caught_sorted_clean(self, tmp_path):
        bad = write(tmp_path, "repro/core/fold.py", """\
            def fold(items):
                total = 0.0
                for item in {1, 2, 3}:
                    total += item
                return total
            """)
        good = write(tmp_path, "repro/core/fold2.py", """\
            def fold(items):
                total = 0.0
                for item in sorted(set(items)):
                    total += item
                return total
            """)
        assert rule_ids(lint(bad, ["D105"])) == ["D105"]
        assert lint(good, ["D105"]).clean


class TestRegistryDocsRules:
    def test_r100_missing_docs(self, tmp_path):
        path = write(tmp_path, "repro/core/mod.py", "X = 1\n")
        report = lint(path, ["R100"], root=tmp_path)
        assert rule_ids(report) == ["R100", "R100", "R100"]

    def test_r101_undocumented_method_caught(self, tmp_path):
        make_docs(tmp_path, readme="`goodm`", design="`goodm`")
        path = write(tmp_path, "repro/methods/adapters.py", """\
            @register_method("goodm")
            def build_good():
                pass

            @register_method("mystery")
            def build_mystery():
                pass
            """)
        report = lint(path, ["R101"], root=tmp_path)
        assert rule_ids(report) == ["R101", "R101"]
        assert all("mystery" in f.message for f in report.findings)

    def test_r106_schema_tag_documented_or_caught(self, tmp_path):
        make_docs(tmp_path, design="speaks repro.known/v1 frames")
        path = write(tmp_path, "repro/core/wire.py", """\
            KNOWN_SCHEMA = "repro.known/v1"
            GHOST_SCHEMA = "repro.ghost/v2"
            """)
        report = lint(path, ["R106"], root=tmp_path)
        assert rule_ids(report) == ["R106"]
        assert "repro.ghost/v2" in report.findings[0].message


class TestCacheTokenRules:
    def test_c102_uncovered_field_caught(self, tmp_path):
        write(tmp_path, "repro/core/montecarlo.py", """\
            class MonteCarloConfig:
                trials: int = 1000
                secret_knob: float = 1.0
            """)
        write(tmp_path, "repro/methods/cache.py", """\
            def mc_token(config):
                return "trials=%d" % config.trials
            """)
        report = run_lint(
            [tmp_path / "repro"], rules=["C102"], root=tmp_path
        )
        assert rule_ids(report) == ["C102"]
        assert "secret_knob" in report.findings[0].message
        assert report.findings[0].line == 3

    def test_c102_identity_proof_annotation_suppresses(self, tmp_path):
        write(tmp_path, "repro/core/montecarlo.py", """\
            class MonteCarloConfig:
                trials: int = 1000
                # repro: allow[C102] bit-identity proof: property-tested
                secret_knob: float = 1.0
            """)
        write(tmp_path, "repro/methods/cache.py", """\
            def mc_token(config):
                return "trials=%d" % config.trials
            """)
        report = run_lint(
            [tmp_path / "repro"], rules=["C102"], root=tmp_path
        )
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["C102"]


class TestSuppressionAudit:
    def test_l100_unparsable_file(self, tmp_path):
        path = write(tmp_path, "repro/core/broken.py", "def f(:\n")
        report = lint(path, ["D101"])
        assert rule_ids(report) == ["L100"]

    def test_l101_reasonless_allow_gates(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            import time

            def stamp():
                return time.time()  # repro: allow[D101]
            """)
        report = lint(path, ["D101"])
        assert rule_ids(report) == ["L101"]
        # The suppression still applied — D101 is audited, not gating.
        assert [f.rule_id for f in report.suppressed] == ["D101"]

    def test_l102_stale_allow_on_full_run(self, tmp_path):
        make_docs(tmp_path)
        path = write(tmp_path, "repro/core/est.py", """\
            # repro: allow[D101] nothing here needs this
            def stamp(clock):
                return clock()
            """)
        report = lint(path, rules=None, root=tmp_path)
        assert rule_ids(report) == ["L102"]

    def test_l102_not_emitted_on_partial_run(self, tmp_path):
        path = write(tmp_path, "repro/core/est.py", """\
            # repro: allow[C102] covered by a family this run skips
            def stamp(clock):
                return clock()
            """)
        assert lint(path, ["D101"]).clean


class TestCli:
    def test_exit_0_on_clean_tree(self, tmp_path, capsys):
        make_docs(tmp_path)
        write(tmp_path, "repro/core/est.py", "X = 1\n")
        code = main([str(tmp_path / "repro"), "--root", str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_1_on_findings(self, tmp_path, capsys):
        make_docs(tmp_path)
        write(tmp_path, "repro/core/est.py", """\
            import time

            def stamp():
                return time.time()
            """)
        code = main([str(tmp_path / "repro"), "--root", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "D101" in out and "est.py:4" in out

    def test_exit_2_on_usage_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        write(tmp_path, "x.py", "X = 1\n")
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path), "--rules", "Z9"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main([str(tmp_path / "missing")])
        assert err.value.code == 2
        capsys.readouterr()

    def test_github_format(self, tmp_path, capsys):
        make_docs(tmp_path)
        write(tmp_path, "repro/core/est.py", """\
            import time
            T = time.time()
            """)
        code = main([
            str(tmp_path / "repro"), "--root", str(tmp_path),
            "--format", "github",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=D101" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        make_docs(tmp_path)
        write(tmp_path, "repro/core/est.py", """\
            import time

            def stamp():
                return time.time()

            def later():
                return time.time()  # repro: allow[D101] display only
            """)
        code = main([
            str(tmp_path / "repro"), "--root", str(tmp_path),
            "--format", "json",
        ])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == REPORT_SCHEMA
        assert data["files_scanned"] == 1
        findings = [Finding.from_dict(f) for f in data["findings"]]
        suppressed = [Finding.from_dict(f) for f in data["suppressed"]]
        assert [f.rule_id for f in findings] == ["D101"]
        assert [f.rule_id for f in suppressed] == ["D101"]
        assert suppressed[0].suppressed and suppressed[0].reason
        for finding in findings + suppressed:
            assert finding.to_dict()["schema"] == FINDING_SCHEMA
            assert Finding.from_dict(finding.to_dict()) == finding

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="lint-finding"):
            Finding.from_dict({"schema": "repro.other/v1"})

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in available_rules():
            assert rule_id in out


class TestRealTree:
    """The gate the lint-gate CI job enforces, in-process."""

    def test_src_lints_clean(self):
        report = run_lint([ROOT / "src"], root=ROOT)
        assert report.clean, "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}"
            for f in report.findings
        )
        assert report.files_scanned > 50

    def test_every_suppression_has_a_reason(self):
        report = run_lint([ROOT / "src"], root=ROOT)
        assert report.suppressed, "expected audited suppressions"
        for finding in report.suppressed:
            assert finding.reason, (
                f"{finding.path}:{finding.line} suppresses "
                f"{finding.rule_id} without a reason"
            )

    def test_self_check_passes(self, capsys):
        assert main(["--self-check", "--root", str(ROOT)]) == 0
        assert "agree" in capsys.readouterr().out
