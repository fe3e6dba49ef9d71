"""Experiment runners: structure, knobs, and paper-shape summaries.

Runs at deliberately tiny scale (the benchmark harness covers realistic
scales); these tests pin the runners' interfaces and invariants.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    format_table,
    run_fig3,
    run_fig4,
    run_fig5a,
    run_fig5b,
    run_fig6a,
    run_fig6b,
    run_table1,
)
from repro.experiments.common import (
    adapter_model_from_env,
    geomean,
    scale_from_env,
)
from repro.report.claims import PAPER_CLAIMS, claim_verdicts

TINY = 12_000
THREE = ("pwtk", "G3_circuit", "msc01440")


class TestKnobs:
    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE_NNZ", raising=False)
        assert scale_from_env() == 60_000

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_NNZ", "123456")
        assert scale_from_env() == 123456

    def test_scale_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_NNZ", "lots")
        with pytest.raises(ExperimentError):
            scale_from_env()

    def test_scale_rejects_tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_NNZ", "10")
        with pytest.raises(ExperimentError):
            scale_from_env()

    def test_model_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTER_MODEL", "cycle")
        assert adapter_model_from_env() == "cycle"

    def test_model_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTER_MODEL", "rtl")
        with pytest.raises(ExperimentError):
            adapter_model_from_env()


class TestHelpers:
    def test_format_table_alignment(self):
        table = format_table([{"a": 1, "bb": 2.5}, {"a": 333, "bb": 4.25}])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0


class TestRunners:
    def test_fig3_grid_shape_and_columns(self):
        result = run_fig3(
            matrices=THREE, variants=("MLPnc", "MLP64"), max_nnz=TINY
        )
        assert len(result["rows"]) == len(THREE) * 2  # two formats
        for row in result["rows"]:
            assert {"matrix", "format", "MLPnc", "MLP64"} <= set(row)
            assert row["MLP64"] >= row["MLPnc"] * 0.9

    def test_fig3_summary_keys(self):
        result = run_fig3(matrices=THREE, max_nnz=TINY)
        assert "sell_mlp256_boost" in result["summary"]
        assert "csr_mlp256_boost" in result["summary"]

    def test_fig4_bandwidth_identity(self):
        result = run_fig4(matrices=("pwtk",), max_nnz=TINY)
        for row in result["rows"]:
            total = row["elem_gbps"] + row["index_gbps"] + row["loss_gbps"]
            assert total == pytest.approx(32.0, abs=0.05)

    def test_fig5a_base_row_normalised(self):
        result = run_fig5a(matrices=("pwtk",), max_nnz=TINY)
        base_rows = [r for r in result["rows"] if r["system"] == "base"]
        assert base_rows[0]["speedup_vs_base"] == 1.0
        assert base_rows[0]["norm_runtime"] == 1.0

    def test_fig5a_summary_speedups_positive(self):
        result = run_fig5a(matrices=("pwtk", "G3_circuit"), max_nnz=TINY)
        assert result["summary"]["pack256_speedup_geomean"] > 1.0

    def test_fig5b_rows_have_both_metrics(self):
        result = run_fig5b(matrices=("G3_circuit",), max_nnz=TINY)
        for row in result["rows"]:
            assert 0 <= row["bw_utilization_pct"] <= 100
            assert row["traffic_vs_ideal"] > 0.9

    def test_fig6a_rows(self):
        result = run_fig6a()
        assert [r["adapter"] for r in result["rows"]] == ["AP64", "AP128", "AP256"]

    def test_fig6b_has_our_system(self):
        result = run_fig6b(matrices=("msc01440",), max_nnz=TINY)
        assert any(r["machine"] == "This Work" for r in result["rows"])

    def test_table1_values(self):
        result = run_table1()
        assert result["summary"]["dram_peak_gbps"] == 32.0
        assert len(result["rows"]) == 5


class TestReport:
    def test_every_claim_has_a_runner(self):
        experiments = {claim[0] for claim in PAPER_CLAIMS}
        assert experiments <= {
            "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "table1"
        }

    def test_paper_comparison_rows(self):
        fake = {"fig6a": {"summary": {"coal_kge_w64": 307.0}}}
        rows = claim_verdicts(fake)
        row = next(r for r in rows if r["metric"] == "coal_kge_w64")
        assert row["paper"] == 307
        assert row["measured"] == 307.0
        missing = next(r for r in rows if r["experiment"] == "fig3")
        assert missing["measured"] == "n/a"
