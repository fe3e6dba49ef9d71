"""Result store: round-trips, claim verdicts, renderer, drift checks.

The fast tests restrict ``run_report`` to the paramless experiments
(``table1``/``fig6a``) so no matrix is ever synthesised; the committed
quick-scale store is validated render-only (no recompute), and CI's
docs-drift job covers the full quick re-run.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.report import (
    PAPER_CLAIMS,
    STORE_SCHEMA_VERSION,
    ResultStore,
    check_report,
    claim_tolerances,
    claim_verdicts,
    format_cell,
    manifest_identity,
    parse_cell,
    render_document,
    render_report,
    run_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Paramless experiments: no matrix grid, so these run in milliseconds.
FAST_EXPERIMENTS = ("table1", "fig6a")


def fast_run(tmp_path, sub="a", **kwargs):
    store_dir = tmp_path / sub / "store"
    doc = tmp_path / sub / "EXPERIMENTS.md"
    kwargs.setdefault("experiments", FAST_EXPERIMENTS)
    with open(tmp_path / f"{sub}.log", "w") as log:
        manifest = run_report(store_dir, doc, stream=log, **kwargs)
    return store_dir, doc, manifest


class TestCells:
    @pytest.mark.parametrize(
        "value", [0, 42, -7, 3.43, 27.0, 0.125, 1e-4, "MLP256", "n/a", ""]
    )
    def test_round_trip(self, value):
        text = format_cell(value)
        assert format_cell(parse_cell(text)) == text
        if isinstance(value, (int, float)):
            assert parse_cell(text) == value

    def test_floats_keep_shortest_repr(self):
        assert format_cell(3.43) == "3.43"
        assert format_cell(27.0) == "27.0"

    def test_strings_stay_strings(self):
        assert parse_cell("exdata_1") == "exdata_1"
        assert isinstance(parse_cell("27.0"), float)

    @pytest.mark.parametrize("text", ["1_000", "  12", "1e3", "007", "+5"])
    def test_numeric_lookalikes_stay_strings(self, text):
        # Python's int()/float() would accept these but reformat them,
        # breaking write → read → write byte-stability.
        assert parse_cell(text) == text


class TestStoreRoundTrip:
    ROWS = [
        {"matrix": "pwtk", "gbps": 3.43, "txns": 12},
        {"matrix": "hood", "gbps": 27.0, "txns": 7},
    ]

    def test_write_read_write_is_byte_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.write_table("t", self.ROWS)
        first = path.read_bytes()
        store.write_table("t", store.read_table("t"))
        assert path.read_bytes() == first

    def test_read_restores_types(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_table("t", self.ROWS)
        rows = store.read_table("t")
        assert rows == self.ROWS
        assert isinstance(rows[0]["gbps"], float)
        assert isinstance(rows[0]["txns"], int)

    def test_heterogeneous_rows_union_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_table("t", [{"a": 1}, {"a": 2, "b": 3}])
        assert store.read_table("t") == [{"a": 1, "b": ""}, {"a": 2, "b": 3}]

    def test_empty_table_is_refused(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultStore(tmp_path).write_table("t", [])

    def test_missing_table_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultStore(tmp_path).read_table("nope")

    def test_manifest_schema_is_enforced(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ExperimentError):
            store.read_manifest()  # missing
        store.write_manifest({"scale_nnz": 12000})
        assert store.read_manifest()["schema_version"] == STORE_SCHEMA_VERSION
        bad = json.loads(store.manifest_path.read_text())
        bad["schema_version"] = STORE_SCHEMA_VERSION + 1
        store.manifest_path.write_text(json.dumps(bad))
        with pytest.raises(ExperimentError):
            store.read_manifest()


class TestClaims:
    def test_verdict_states(self):
        results = {
            "fig6a": {"summary": {"coal_kge_w64": 307.0, "area_mm2_w64": 0.5}}
        }
        rows = {
            (r["experiment"], r["metric"]): r for r in claim_verdicts(results)
        }
        assert rows[("fig6a", "coal_kge_w64")]["verdict"] == "pass"
        assert rows[("fig6a", "area_mm2_w64")]["verdict"] == "fail"
        assert rows[("fig3", "sell_mlp256_boost")]["verdict"] == "missing"
        assert rows[("fig3", "sell_mlp256_boost")]["measured"] == "n/a"

    def test_one_row_per_claim(self):
        assert len(claim_verdicts({})) == len(PAPER_CLAIMS)

    def test_tolerances_cover_every_claim(self):
        tolerances = claim_tolerances()
        assert len(tolerances) == len(PAPER_CLAIMS)
        for claim in PAPER_CLAIMS:
            assert tolerances[f"{claim.experiment}.{claim.metric}"] == claim.rel_tol

    def test_claims_still_unpack_as_triples(self):
        experiment, metric, paper = PAPER_CLAIMS[0][:3]
        assert experiment == "fig3"
        assert isinstance(paper, float)


class TestRunAndRender:
    def test_two_runs_are_byte_identical(self, tmp_path):
        store_a, doc_a, _ = fast_run(tmp_path, "a")
        store_b, doc_b, _ = fast_run(tmp_path, "b")
        for path in sorted(store_a.iterdir()):
            assert path.read_bytes() == (store_b / path.name).read_bytes()
        assert doc_a.read_bytes() == doc_b.read_bytes()

    def test_manifest_captures_knobs(self, tmp_path):
        _, _, manifest = fast_run(
            tmp_path, max_nnz=24_000, model="cycle", workers=3
        )
        assert manifest["schema_version"] == STORE_SCHEMA_VERSION
        assert manifest["scale_nnz"] == 24_000
        assert manifest["adapter_model"] == "cycle"
        assert manifest["workers"] == 3
        assert manifest["seed"] == 2024
        assert manifest["tolerances"] == claim_tolerances()
        assert set(manifest["experiments"]) == set(FAST_EXPERIMENTS)
        assert manifest["experiments"]["fig6a"]["rows"] == 3

    def test_workers_are_volatile_in_identity(self, tmp_path):
        _, _, one = fast_run(tmp_path, "a", workers=1)
        _, _, two = fast_run(tmp_path, "b", workers=2)
        assert one != two
        assert manifest_identity(one) == manifest_identity(two)

    def test_manifest_records_backends_and_cache(self, tmp_path):
        _, _, manifest = fast_run(tmp_path, "a", workers=2)
        # the executor plans its own split; no shard setting is recorded
        assert "shards" not in manifest
        assert set(manifest["cache"]) == {"hits", "misses", "evictions"}
        # paramless experiments never touch the engine
        assert manifest["experiments"]["fig6a"]["backends"] == []
        assert manifest["experiments"]["table1"]["backends"] == []

    def test_cache_is_volatile_in_identity(self, tmp_path):
        _, _, one = fast_run(tmp_path, "a")
        two = dict(one, cache={"hits": 7, "misses": 3, "evictions": 1})
        assert one["cache"] != two["cache"]
        assert manifest_identity(one) == manifest_identity(two)
        # a configuration key is never volatile
        reseeded = dict(one, seed=one["seed"] + 1)
        assert manifest_identity(reseeded) != manifest_identity(one)

    def test_render_report_reproduces_document(self, tmp_path):
        store_dir, doc, _ = fast_run(tmp_path)
        original = doc.read_bytes()
        doc.unlink()
        with open(tmp_path / "r.log", "w") as log:
            render_report(store_dir, doc, stream=log)
        assert doc.read_bytes() == original

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            run_report(
                tmp_path / "s", tmp_path / "d.md", experiments=("nope",)
            )


class TestCheck:
    def test_clean_check(self, tmp_path):
        store_dir, doc, _ = fast_run(tmp_path)
        with open(tmp_path / "check.log", "w") as log:
            assert check_report(store_dir, doc, stream=log) == []

    def test_mutated_table_is_drift(self, tmp_path):
        store_dir, doc, _ = fast_run(tmp_path)
        table = store_dir / "fig6a.csv"
        table.write_text(table.read_text().replace("AP64", "AP65"))
        with open(tmp_path / "check.log", "w") as log:
            drift = check_report(store_dir, doc, stream=log)
        assert any("fig6a" in message for message in drift)

    def test_stale_document_is_drift(self, tmp_path):
        store_dir, doc, _ = fast_run(tmp_path)
        doc.write_text(doc.read_text() + "hand edit\n")
        with open(tmp_path / "check.log", "w") as log:
            drift = check_report(store_dir, doc, stream=log)
        assert any("stale" in message for message in drift)

    def test_missing_store_is_reported(self, tmp_path):
        with open(tmp_path / "check.log", "w") as log:
            drift = check_report(tmp_path / "void", tmp_path / "d.md", stream=log)
        assert drift and "manifest" in drift[0]

    def test_config_mismatch_is_drift(self, tmp_path):
        store_dir, doc, _ = fast_run(tmp_path, max_nnz=12_000)
        with open(tmp_path / "check.log", "w") as log:
            drift = check_report(store_dir, doc, max_nnz=24_000, stream=log)
        assert any("scale_nnz" in message for message in drift)


class TestCommittedStore:
    """The committed quick-scale reference under results/store/."""

    STORE = ResultStore(REPO_ROOT / "results" / "store")
    DOC = REPO_ROOT / "EXPERIMENTS.md"

    def test_document_renders_byte_identically_from_store(self):
        assert self.DOC.read_text() == render_document(self.STORE)

    def test_manifest_is_current_schema_and_quick_scale(self):
        manifest = self.STORE.read_manifest()
        assert manifest["schema_version"] == STORE_SCHEMA_VERSION
        assert manifest["scale_nnz"] == 12_000
        assert set(manifest["experiments"]) == {
            "table1", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b"
        }

    def test_claims_table_matches_claim_list(self):
        rows = self.STORE.read_table("claims")
        assert len(rows) == len(PAPER_CLAIMS)
        tracked = {(c.experiment, c.metric) for c in PAPER_CLAIMS}
        assert {(r["experiment"], r["metric"]) for r in rows} == tracked
