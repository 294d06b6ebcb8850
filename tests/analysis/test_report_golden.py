"""Golden-file pins for the report pipeline.

Every rendered byte of the report — markdown, LaTeX, ``report.json``,
the ``--paper-tables`` text and the ``--diff`` summary — is pinned
against committed golden files generated from the canned run fixtures
in ``tests/data/runs/`` (see ``regen_fixtures.py`` there).

When an intentional change moves the output, regenerate with::

    PYTHONPATH=src python -m pytest tests/analysis/test_report_golden.py --regen-golden

and commit the updated files under ``tests/data/golden/`` after
reviewing the diff — the review IS the point of the pin.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.report import (
    build_report,
    diff_reports,
    load_report_doc,
    paper_tables_text,
    render_latex,
    render_markdown,
    report_json,
)

def main(argv: list[str]) -> int:
    """``python -m repro report`` with ``argv``."""
    return cli_main(["report", *argv])


DATA = Path(__file__).resolve().parents[1] / "data"
RUNS = DATA / "runs"
GOLDEN = DATA / "golden"

CLEAN = RUNS / "clean"
DEGRADED = RUNS / "degraded"
REGRESSED = RUNS / "regressed"


def check_golden(name: str, text: str, regen: bool) -> None:
    """Compare ``text`` against the committed golden (or rewrite it)."""
    path = GOLDEN / name
    if regen:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden file {path.name}; generate it with "
        "pytest --regen-golden"
    )
    assert text == path.read_text(), (
        f"report output diverged from golden {path.name}; if the change "
        "is intentional, rerun with --regen-golden and commit the diff"
    )


@pytest.fixture(scope="module")
def clean_report():
    return build_report([CLEAN])


@pytest.fixture(scope="module")
def degraded_report():
    return build_report([DEGRADED])


class TestCleanGoldens:
    def test_markdown(self, clean_report, regen_golden):
        check_golden("clean_report.md", render_markdown(clean_report), regen_golden)

    def test_latex(self, clean_report, regen_golden):
        check_golden("clean_report.tex", render_latex(clean_report), regen_golden)

    def test_json(self, clean_report, regen_golden):
        check_golden("clean_report.json", report_json(clean_report), regen_golden)

    def test_paper_tables(self, clean_report, regen_golden):
        check_golden(
            "clean_paper_tables.txt", paper_tables_text(clean_report), regen_golden
        )

    def test_every_section_ok(self, clean_report):
        assert [s.status for s in clean_report.sections] == ["ok"] * 9

    def test_paper_tables_match_live_renderers(self, clean_report):
        """The report's paper-table text is built from the same cells
        and titles the live ``python -m repro tables`` CLI prints —
        the ``=== Table N ... ===`` framing must round-trip exactly."""
        text = paper_tables_text(clean_report)
        for num in ("1", "2", "3", "4"):
            section = clean_report.section(f"table{num}")
            assert f"=== {section.title} ===\n{section.plain}\n\n" in text


class TestDegradedGoldens:
    def test_markdown(self, degraded_report, regen_golden):
        check_golden(
            "degraded_report.md", render_markdown(degraded_report), regen_golden
        )

    def test_latex(self, degraded_report, regen_golden):
        check_golden(
            "degraded_report.tex", render_latex(degraded_report), regen_golden
        )

    def test_failed_cells_have_a_latex_rendering(self, degraded_report):
        """FailedCell / marker rows must typeset as \\textsc, never leak
        a bare underscore into LaTeX (TIMED_OUT would be a TeX error)."""
        tex = render_latex(degraded_report)
        assert r"\textsc{failed}" in tex
        assert r"\textsc{timed out}" in tex
        assert "TIMED_OUT" not in tex
        md = render_markdown(degraded_report)
        assert "FAILED" in md  # markdown keeps the plain marker

    def test_skips_are_reported_not_fatal(self, degraded_report):
        names = {s["name"] for s in degraded_report.inputs["skipped"]}
        assert "degraded/corrupt/journal.jsonl" in names
        assert "degraded/junk.json" in names
        assert "degraded/broken.json" in names
        # The torn journal is usable (crash signature), not skipped.
        assert "degraded/sweep/journal.jsonl" in degraded_report.inputs["journals"]

    def test_shed_unit_is_accounted(self, degraded_report):
        acc = degraded_report.section("accounting")
        rows = {r[0]: r for r in acc.data["rows"]}
        sweep = rows["degraded/sweep/journal.jsonl"]
        submitted, completed, failed, shed = sweep[2:6]
        assert shed == 1  # the unit lost to the simulated crash
        assert completed + failed + shed == submitted


class TestDiffGoldens:
    def test_diff_summary(self, regen_golden):
        a = load_report_doc(CLEAN)
        b = load_report_doc(REGRESSED)
        result = diff_reports(a, b)
        check_golden(
            "diff_clean_regressed.txt", result.summary() + "\n", regen_golden
        )
        assert not result.clean
        # Every doctored regression is caught and named by table.
        text = result.summary()
        assert "Table 1" in text and "IIR Filter" in text
        assert "max oracle gap grew" in text
        assert "total failed grew" in text
        assert "vm.instructions grew 3.00x" in text

    def test_self_diff_is_empty(self):
        doc = load_report_doc(CLEAN)
        assert diff_reports(doc, doc).clean

    def test_cli_exit_codes(self, capsys):
        assert main(["--diff", str(CLEAN), str(CLEAN)]) == 0
        assert main(["--diff", str(CLEAN), str(REGRESSED)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out


class TestLiveByteIdentity:
    def test_report_reproduces_live_tables_output(self, tmp_path, capsys):
        """The acceptance pin: a journaled ``tables`` run replayed
        through ``report --paper-tables`` is byte-identical to what the
        live ``python -m repro tables`` CLI printed."""
        run_dir = tmp_path / "tables-run"
        rc = cli_main(
            ["tables", "--journal", str(run_dir),
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert rc == 0
        live = capsys.readouterr().out
        assert main([str(run_dir), "--paper-tables"]) == 0
        assert capsys.readouterr().out == live


class TestCliSurface:
    def test_out_dir_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main([str(CLEAN), "-o", str(out)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "paper_tables.txt",
            "report.json",
            "report.md",
            "report.tex",
        ]

    def test_no_usable_inputs_is_exit_2(self, tmp_path, capsys):
        junk = tmp_path / "nothing"
        junk.mkdir()
        (junk / "noise.txt").write_text("hello")
        assert main([str(junk)]) == 2
        assert "no usable inputs" in capsys.readouterr().err

    def test_missing_args_is_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_alias(self, capsys):
        """``python -m repro.analysis report ...`` delegates here."""
        from repro.analysis.__main__ import main as analysis_main

        assert analysis_main(["report", "--diff", str(CLEAN), str(CLEAN)]) == 0
        capsys.readouterr()
