"""Documentation consistency guards.

Keeps README/DESIGN/EXPERIMENTS honest: every experiment the docs cite
exists in the registry, every example the README lists is on disk, and
the recorded environment knobs are the ones the code reads.
"""

import ast
import importlib
import re
import tomllib
from pathlib import Path

import pytest

from repro.harness import all_experiments
from repro.methods import available

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


class TestRegistryVocabulary:
    """Every registered method and wire-schema tag is documented.

    Method names are CLI and API vocabulary, and a versioned schema tag
    is a compatibility promise to whoever implements the other end;
    both must be findable in the docs, not only in the code.
    """

    @pytest.fixture(scope="class")
    def scheduler_doc(self) -> str:
        return (ROOT / "docs" / "SCHEDULER.md").read_text(
            encoding="utf-8"
        )

    def test_every_registered_method_documented(self, readme, design):
        # As a whole word: ``avf`` inside ``avf_sofr`` does not count.
        missing = [
            f"{name} in {doc}"
            for doc, text in (("README.md", readme), ("DESIGN.md", design))
            for name in available()
            if not re.search(
                rf"(?<![\w-]){re.escape(name)}(?![\w-])", text
            )
        ]
        assert missing == []

    def test_every_schema_tag_documented(
        self, readme, design, scheduler_doc
    ):
        tags = {
            node.value
            for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(
                ast.parse(path.read_text(encoding="utf-8"))
            )
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"repro\.[a-z0-9-]+/v\d+", node.value)
        }
        assert tags
        docs = (readme, design, scheduler_doc)
        assert sorted(
            tag for tag in tags if not any(tag in doc for doc in docs)
        ) == []

    def test_scheduler_doc_exists_and_is_linked(
        self, scheduler_doc, readme, design
    ):
        assert "who runs each layer" in scheduler_doc.lower()
        assert "docs/SCHEDULER.md" in readme
        assert "docs/SCHEDULER.md" in design


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
