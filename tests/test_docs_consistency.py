"""Documentation consistency guards.

Keeps README/DESIGN/EXPERIMENTS honest: every experiment the docs cite
exists in the registry, every example the README lists is on disk, and
the recorded environment knobs are the ones the code reads.
"""

import importlib
import re
import tomllib
from pathlib import Path

import pytest

from repro.harness import all_experiments

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def design() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def experiments_doc() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


class TestReadme:
    def test_examples_listed_exist(self, readme):
        listed = re.findall(r"`([a-z_]+\.py)`", readme)
        example_files = {
            p.name for p in (ROOT / "examples").glob("*.py")
        }
        for name in listed:
            if name.endswith(".py") and not name.startswith(("bench_",)):
                assert name in example_files, f"README lists missing {name}"

    def test_all_examples_are_listed(self, readme):
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} missing from README"

    def test_env_knobs_documented(self, readme):
        assert "REPRO_MC_TRIALS" in readme
        assert "REPRO_SPEC_INSTRUCTIONS" in readme

    def test_cli_names_match_entry_points(self, readme):
        # Every console script must resolve to a callable and be named
        # in the README, so a stale entry cannot outlive its module.
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts
        for tool, target in scripts.items():
            module, _, function = target.partition(":")
            assert callable(
                getattr(importlib.import_module(module), function)
            ), target
            assert tool in readme, f"{tool} missing from README"

    def test_cache_dir_env_documented(self, readme):
        from repro.methods.cache import CACHE_DIR_ENV

        assert CACHE_DIR_ENV in readme


class TestDesign:
    def test_identity_check_recorded(self, design):
        assert "matches the target paper" in design

    def test_every_paper_artifact_indexed(self, design):
        for artifact in (
            "table1", "table2", "fig3", "fig4", "fig5", "fig6a", "fig6b",
            "sec5.1", "sec5.2", "sec5.4",
        ):
            assert artifact in design, f"{artifact} missing from DESIGN.md"

    def test_substitutions_table_present(self, design):
        assert "Turandot" in design
        assert "SoftArch" in design
        assert "SPEC CPU2000" in design


class TestProgressEventVocabulary:
    """Every progress-event kind the engine can emit is documented.

    The vocabulary cross-checks themselves (progress kinds against
    DESIGN.md and the module docstrings, stale constants against the
    batch engine) migrated onto ``repro-lint``'s
    R1 rule family — one source of truth, shared by this suite, the
    CLI, and the ``lint-gate`` CI job.
    """

    @pytest.fixture(scope="class")
    def scheduler_doc(self) -> str:
        return (ROOT / "docs" / "SCHEDULER.md").read_text(
            encoding="utf-8"
        )

    def test_registry_docs_rules_clean(self):
        # R101-R106: methods/progress kinds/schema tags documented,
        # no stale progress constants.
        from repro.lint import run_lint

        report = run_lint([ROOT / "src"], rules=["R1"], root=ROOT)
        assert report.clean, "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}"
            for f in report.findings
        )

    def test_lint_cli_entry_agrees(self, capsys):
        # The same check through the CLI surface the gate job runs.
        from repro.lint.cli import main

        code = main(
            [str(ROOT / "src"), "--rules", "R1", "--root", str(ROOT)]
        )
        assert code == 0, capsys.readouterr().out

    def test_scheduler_doc_exists_and_is_linked(
        self, scheduler_doc, readme, design
    ):
        assert "who runs each layer" in scheduler_doc.lower()
        assert "docs/SCHEDULER.md" in readme
        assert "docs/SCHEDULER.md" in design


class TestProgressEventWire:
    """The SSE wire schema stays in lockstep with the documented event.

    ``ProgressEvent.to_dict()`` is the analysis service's SSE payload;
    these guards pin its key set to the dataclass field set and to the
    documented attribute vocabulary, so adding (or renaming) an event
    field without updating the wire form, its inverse, and the docs is
    a test failure rather than silent schema drift.
    """

    @pytest.fixture(scope="class")
    def field_names(self) -> set[str]:
        import dataclasses

        from repro.methods.progress import ProgressEvent

        return {f.name for f in dataclasses.fields(ProgressEvent)}

    @pytest.fixture(scope="class")
    def full_event(self):
        # Every field set away from its default, so to_dict() must
        # emit the complete key set.
        from repro.methods.progress import ProgressEvent

        return ProgressEvent(
            label="C=8",
            kind="chunk",
            merged_chunks=3,
            total_chunks=8,
            trials=12_000,
            rel_stderr=0.031,
            stopped_early=True,
            cached=True,
            method="sofr_only",
            granted_trials=4_000,
            granted_chunks=2,
            warmed_entries=17,
        )

    def test_wire_keys_equal_dataclass_fields(
        self, field_names, full_event
    ):
        assert set(full_event.to_dict()) == field_names, (
            "ProgressEvent.to_dict() key set drifted from the "
            "dataclass field set — update to_dict/from_dict and the "
            "documented vocabulary together"
        )

    def test_round_trip_is_lossless(self, full_event):
        from repro.methods.progress import ProgressEvent

        assert ProgressEvent.from_dict(full_event.to_dict()) == full_event
        # Compact defaults-elided form round-trips too.
        sparse = ProgressEvent("run", "prewarm", warmed_entries=5)
        assert set(sparse.to_dict()) == {"label", "kind", "warmed_entries"}
        assert ProgressEvent.from_dict(sparse.to_dict()) == sparse

    def test_unknown_wire_fields_rejected(self, full_event):
        from repro.methods.progress import ProgressEvent

        data = full_event.to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ProgressEvent.from_dict(data)

    def test_every_field_documented(self, field_names):
        from repro.methods.progress import ProgressEvent

        doc = ProgressEvent.__doc__ or ""
        for name in field_names:
            assert name in doc, (
                f"ProgressEvent field {name!r} missing from the class "
                "docstring's attribute vocabulary"
            )


class TestServiceDoc:
    """docs/SERVICE.md matches the service the code actually serves."""

    @pytest.fixture(scope="class")
    def service_doc(self) -> str:
        return (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")

    def test_linked_from_readme_and_design(self, readme, design):
        assert "docs/SERVICE.md" in readme
        assert "docs/SERVICE.md" in design

    def test_every_endpoint_documented(self, service_doc):
        for route in (
            "POST /v1/jobs",
            "GET /v1/jobs/",
            "/events",
            "GET /v1/fleet",
            "GET /v1/health",
        ):
            assert route in service_doc, f"{route} missing from SERVICE.md"

    def test_wire_schemas_documented(self, service_doc):
        from repro.core.system import SYSTEM_SCHEMA
        from repro.service import JOB_SCHEMA

        assert JOB_SCHEMA in service_doc
        assert SYSTEM_SCHEMA in service_doc
        assert "repro.resultset/v1" in service_doc

    def test_sse_vocabulary_documented(self, service_doc):
        from repro.methods import progress

        kinds = {
            value
            for name, value in vars(progress).items()
            if name.isupper() and isinstance(value, str)
        }
        for kind in kinds:
            assert f"`{kind}`" in service_doc, (
                f"SSE event kind {kind!r} missing from SERVICE.md"
            )

    def test_semantics_sections_present(self, service_doc):
        for needle in (
            "dedup", "quota", "bit-identical", "tenant",
            "repro-serve", "--cache-dir", "429",
        ):
            assert needle in service_doc, (
                f"SERVICE.md must discuss {needle!r}"
            )

    def test_service_recipe_in_experiments_doc(self, experiments_doc):
        assert "repro-serve" in experiments_doc
        assert "analysis_server.py" in experiments_doc


class TestExperimentsDoc:
    def test_every_registered_paper_artifact_discussed(
        self, experiments_doc
    ):
        for artifact in all_experiments():
            if artifact.startswith("ablation."):
                continue
            # Section headings use long names; check the short id or its
            # expanded form appears.
            token = artifact.replace("sec", "Section ").replace(
                "fig", "Figure "
            )
            assert (
                artifact in experiments_doc or token in experiments_doc
            ), f"{artifact} missing from EXPERIMENTS.md"

    def test_methodology_notes_present(self, experiments_doc):
        assert "Methodology notes" in experiments_doc
        assert "dilation" in experiments_doc
        assert "phase" in experiments_doc
