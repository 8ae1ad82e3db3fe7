"""Tests for the EXPERIMENTS.md generator and the table registry."""

import hashlib
import json
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.report import PAPER_TARGETS, generate

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestGenerate:
    def test_embeds_available_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig7.txt").write_text("TABLE CONTENT\n")
        out = tmp_path / "EXPERIMENTS.md"
        text = generate(results_dir=results, out_path=out)
        assert out.exists()
        assert "TABLE CONTENT" in text
        assert "paper vs measured" in text

    def test_marks_missing_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        out = tmp_path / "EXPERIMENTS.md"
        text = generate(results_dir=results, out_path=out)
        assert "no result yet" in text
        assert "repro experiment fig8" in text

    def test_every_target_has_section(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        text = generate(
            results_dir=results, out_path=tmp_path / "EXPERIMENTS.md"
        )
        for title, _ in PAPER_TARGETS.values():
            assert title in text

    def test_targets_cover_all_paper_items(self):
        # Every evaluation item of the paper is represented.
        for required in (
            "fig1",
            "fig2",
            "fig5",
            "fig7",
            "table2",
            "fig8",
            "fig9",
            "fig10a",
            "fig10b",
            "overhead",
        ):
            assert required in PAPER_TARGETS


class TestRegistry:
    def test_registry_targets_and_results_agree(self):
        """One name per table: the registry, the document and the
        committed results files list the same names, both ways."""
        committed = {p.stem for p in RESULTS.glob("*.txt")}
        assert list(PAPER_TARGETS) == list(EXPERIMENTS)
        assert committed == set(EXPERIMENTS)

    def test_every_table_has_a_matching_manifest(self):
        for name in EXPERIMENTS:
            text = (RESULTS / f"{name}.txt").read_text()
            manifest = json.loads(
                (RESULTS / f"{name}.manifest.json").read_text()
            )
            digest = hashlib.sha256(
                text.removesuffix("\n").encode("utf-8")
            ).hexdigest()
            assert manifest["result_summary"]["table_sha256"] == digest, name
