"""Self-tests of the benchmark (not part of the repository's tier-1 run).

::

    python3 -m pytest perfbench -q

Each workload runs once at ``--scale smoke`` in both modes and must
emit every metric ``BENCHMARK.json`` declares, with a valid name and
its declared unit; the reference check must reject a perturbed table;
and the runs must leave the git working tree as they found it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
import servemix  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that may read 0 on every smoke workload: failure,
#: eviction and coalescing counters, and the bulk-transfer bins of
#: components that have no bulk mode (only the DRAM channel and the
#: coalescers override ``Component.bulk_tick``).
MAY_BE_ZERO = {
    "engine.cache_evictions", "corpus.groups_failed", "serve.errors",
    "serve.coalesced",
    *(
        f"sim.{component}.bulk_cycles" for component in bench.COMPONENTS
        if component not in ("coal", "dram")
    ),
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _git_status() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


@pytest.fixture(scope="module")
def smoke_runs():
    before = _git_status()
    runs = {
        (workload, trace): _run(workload, trace)
        for workload in bench.WORKLOADS
        for trace in (0, 1)
    }
    return runs, before, _git_status()


def test_declared_names_and_units_are_valid():
    groups = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [metric["name"] for metric in groups]
    assert len(names) == len(set(names))
    for metric in groups:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_every_metric(smoke_runs, workload, trace):
    runs, _, _ = smoke_runs
    record, result = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert record["provenance"]["nproc"] >= 1
    assert record["why"]


def test_every_wrapper_fires_in_some_workload(smoke_runs):
    runs, _, _ = smoke_runs
    fired = set()
    for workload in bench.WORKLOADS:
        calls = runs[(workload, 1)][0]["layer_calls"]
        fired |= {key for key, count in calls.items() if count > 0}
    wrapped = {key for key, _, _ in layers.TARGETS}
    wrapped |= {f"sim.{component}" for component in bench.COMPONENTS}
    assert not wrapped - fired, sorted(wrapped - fired)


def test_every_layer_metric_is_nonzero_in_some_workload(smoke_runs):
    runs, _, _ = smoke_runs
    silent = [
        metric["name"] for metric in DECLARED["per_layer"]
        if metric["name"] not in MAY_BE_ZERO
        and not any(
            runs[(workload, 1)][1]["metrics"][metric["name"]]["value"]
            for workload in bench.WORKLOADS
        )
    ]
    assert not silent, silent


def test_traced_cycles_match_reference_rows(smoke_runs):
    runs, _, _ = smoke_runs
    reference = bench.load_reference()["workloads"]
    for workload in bench.CYCLE_WORKLOADS:
        record, result = runs[(workload, 1)]
        metrics = result["metrics"]
        assert metrics["sim.cycles"]["value"] == reference[workload]["smoke"]["cycles"]
        assert metrics["sim.batched_vs_step"]["value"] > 0
        assert set(record["components"]) <= set(bench.COMPONENTS)


def test_smoke_runs_leave_the_tree_unchanged(smoke_runs):
    _, before, after = smoke_runs
    assert before == after


def test_reference_check_rejects_a_perturbed_table(tmp_path):
    committed = {
        name: bench.sha256(bench.CYCLE_TIER / name) for name in bench.CYCLE_TIER_FILES
    }
    store = tmp_path / "store"
    store.mkdir()
    for name in bench.CYCLE_TIER_FILES:
        shutil.copy(bench.CYCLE_TIER / name, store / name)
    produced = bench.produced_digests("cycle-corpus", tmp_path, "")
    assert bench.mismatches(produced, committed) == []

    table = store / "corpus_adapter.csv"
    table.write_text(table.read_text().replace(",cycle,", ",cycle,1", 1))
    produced = bench.produced_digests("cycle-corpus", tmp_path, "")
    assert bench.mismatches(produced, committed) == ["corpus_adapter.csv"]


def test_report_check_ignores_volatile_manifest_keys(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    committed = ROOT / "results" / "store"
    for name in ("manifest.json", "fig3.csv"):
        shutil.copy(committed / name, store / name)
    expected = bench.produced_digests("report-full", tmp_path, "")

    manifest_path = store / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["cache"] = {"evictions": 3, "hits": 1, "misses": 999}
    manifest["workers"] = 7
    manifest_path.write_text(json.dumps(manifest, indent=4))
    assert bench.mismatches(bench.produced_digests("report-full", tmp_path, ""), expected) == []

    manifest["seed"] += 1
    manifest_path.write_text(json.dumps(manifest))
    produced = bench.produced_digests("report-full", tmp_path, "")
    assert bench.mismatches(produced, expected) == ["manifest.json"]


def test_serve_mix_is_seeded():
    first = servemix.build_mix(3, servemix.FULL)
    assert first == servemix.build_mix(3, servemix.FULL)
    assert first != servemix.build_mix(4, servemix.FULL)
    touches = [item["touch"] for item in first]
    assert touches.count("first") == len(servemix.FULL["matrices"])
