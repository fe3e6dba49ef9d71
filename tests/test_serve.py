"""The sweep service: protocol, single-flight, caching, front ends.

Canonicalization is property-tested (field order and spelled-out
defaults never split a job key), single-flight dedup is pinned under
real concurrent identical requests, and both front ends (stdio JSON
lines, HTTP NDJSON) are driven end-to-end.  The headline regression:
rows served through the warm path are byte-identical to a serial
``SweepExecutor`` run.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SweepExecutor, grid_points
from repro.engine.backends import AdapterBackend
from repro.errors import ExperimentError, ServeError
from repro.experiments.common import QUICK_MATRICES, QUICK_NNZ
from repro.report.store import ResultStore
from repro.serve import JobManager, canonicalize
from repro.serve.client import ServeClient
from repro.serve.server import MAX_BODY_BYTES, ReproServer, serve_stdio
from repro.sparse.suite import DEFAULT_MAX_NNZ

TINY = 12_000
SWEEP_REQ = {
    "cmd": "sweep",
    "matrices": ["msc01440"],
    "variants": ["MLPnc", "MLP64"],
    "max_nnz": TINY,
}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
FIELDS_BY_CMD = {
    "sweep": ("kind", "matrices", "variants", "formats", "max_nnz", "model", "quick"),
    "experiment": ("name", "matrices", "max_nnz", "model", "quick"),
    "corpus": ("corpus", "kind", "variants", "fmt", "max_nnz", "model", "quick"),
}
PLAUSIBLE_VALUES = st.sampled_from([
    "sweep", "experiment", "corpus", "fig3", "fig6a", "quick", "adapter",
    "system", "sell", "csr", "pwtk", "MLP64", "fast", "cycle", "pwtk,hood",
    1000, QUICK_NNZ, True, False, ["pwtk"], ["MLP64"], ["sell"], [],
])


@st.composite
def request_objects(draw) -> dict:
    """A JSON object over one command's real field names, each value
    plausible or arbitrary JSON."""
    cmd = draw(st.sampled_from(sorted(FIELDS_BY_CMD)))
    fields = draw(st.sets(st.sampled_from(FIELDS_BY_CMD[cmd] + ("cmd",))))
    payload = {field: draw(PLAUSIBLE_VALUES | JSON_VALUES) for field in fields}
    return {**payload, "cmd": cmd} if draw(st.booleans()) else payload


def serial_manager() -> JobManager:
    return JobManager(executor=SweepExecutor(workers=1))


class TestCanonicalize:
    def test_defaults_fill_in(self):
        req = canonicalize({"matrices": ["pwtk"], "variants": ["MLP64"]})
        assert req.kind == "adapter"
        assert req.formats == ("sell",)
        assert req.max_nnz == DEFAULT_MAX_NNZ
        assert req.model == "fast"

    def test_comma_strings_match_lists(self):
        a = canonicalize({"matrices": "pwtk,hood", "variants": "MLP64,MLP256"})
        b = canonicalize({"matrices": ["pwtk", "hood"], "variants": ["MLP64", "MLP256"]})
        assert a.job_key == b.job_key

    def test_quick_resolves_scale_but_explicit_nnz_wins(self):
        quick = canonicalize({"matrices": ["pwtk"], "variants": ["MLP64"], "quick": True})
        assert quick.max_nnz == QUICK_NNZ
        explicit = canonicalize(
            {"matrices": ["pwtk"], "variants": ["MLP64"], "quick": True, "max_nnz": 24_000}
        )
        assert explicit.max_nnz == 24_000

    # The satellite property: two requests that differ only in field
    # order or in spelling out defaulted knobs map to the same job key.
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        spell_out=st.sets(
            st.sampled_from(["cmd", "kind", "formats", "model", "max_nnz", "quick"])
        ),
    )
    def test_field_order_and_defaults_never_split_keys(self, data, spell_out):
        base = {"matrices": ["pwtk", "hood"], "variants": ["MLPnc", "MLP256"]}
        defaults = {
            "cmd": "sweep",
            "kind": "adapter",
            "formats": ["sell"],
            "model": "fast",
            "max_nnz": DEFAULT_MAX_NNZ,
            "quick": False,
        }
        payload = dict(base)
        for field in spell_out:
            payload[field] = defaults[field]
        shuffled_keys = data.draw(st.permutations(list(payload)))
        shuffled = {key: payload[key] for key in shuffled_keys}
        assert canonicalize(shuffled).job_key == canonicalize(base).job_key

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"matrices": ["pwtk"]}, "matrices and variants"),
            ({"matrices": ["pwtk"], "variants": ["MLP64"], "bogus": 1}, "unknown request fields"),
            ({"cmd": "frobnicate"}, "unknown cmd"),
            ({"matrices": ["pwtk"], "variants": ["x"], "kind": "nope"}, "unknown sweep backend"),
            ({"matrices": ["pwtk"], "variants": ["x"], "model": "rtl"}, "unknown adapter model"),
            ({"matrices": ["pwtk"], "variants": ["x"], "max_nnz": 10}, ">= 1000"),
            ({"matrices": ["pwtk"], "variants": ["x"], "max_nnz": True}, ">= 1000"),
            ({"matrices": ["pwtk"], "variants": ["x"], "quick": "yes"}, "boolean"),
            ({"matrices": [], "variants": ["x"]}, "non-empty list"),
            ({"kind": "system", "matrices": ["pwtk"], "variants": ["base"], "formats": ["sell"]},
             "does not apply"),
            ({"cmd": "experiment", "name": "fig99"}, "unknown experiment"),
            ({"cmd": "experiment", "name": "fig6a", "quick": True}, "no matrix grid"),
            ("not a dict", "JSON object"),
            ({"cmd": "experiment", "name": ["fig3"]}, "unknown experiment"),
            ({"cmd": "experiment", "name": {}}, "unknown experiment"),
            ({"matrices": ["pwtk"], "variants": ["x"], "formats": ["bogus"]}, "unknown formats"),
            # Names resolve through the kind's backend before `accepted`.
            ({"matrices": ["nope"], "variants": ["MLP64"]}, "unknown suite matrix"),
            ({"matrices": ["pwtk"], "variants": ["BOGUS"]}, "unknown adapter variant"),
            ({"kind": "scatter", "matrices": ["pwtk"], "variants": ["MLPnc"]},
             "requires a coalescer"),
            ({"kind": "multichannel", "matrices": ["pwtk"], "variants": ["ch0"]},
             "channel count"),
            ({"kind": "strided", "matrices": ["linear"], "variants": ["x8"]},
             "'s<bytes>' labels"),
            ({"cmd": "experiment", "name": "fig3", "matrices": ["nope"]},
             "unknown suite matrix"),
            ({"matrices": ["pwtk"], "variants": ["MLP" + "9" * 5000]},
             "invalid adapter variant"),
            ({"kind": "strided", "matrices": ["linear"], "variants": ["s8"],
              "formats": ["sell"]}, "does not apply"),
            # Label numbers past int64 would overflow only once computed.
            ({"kind": "strided", "matrices": ["linear"],
              "variants": ["s99999999999999999999999"]}, "int64"),
            ({"kind": "multichannel", "matrices": ["pwtk"],
              "variants": ["ch99999999999999999999"]}, "int64"),
        ],
    )
    def test_malformed_requests_are_rejected(self, payload, fragment):
        with pytest.raises(ServeError, match=fragment):
            canonicalize(payload)

    # Totality: any JSON value — including objects built from the real
    # field names with plausible or arbitrary values — canonicalizes or
    # raises ServeError, never another exception (which would end the
    # stdio loop or drop an HTTP connection without a response).
    @settings(max_examples=300, deadline=None)
    @given(payload=JSON_VALUES | request_objects())
    def test_canonicalize_is_total_over_json(self, payload):
        try:
            request = canonicalize(payload)
        except ServeError:
            return
        assert isinstance(request.job_key, tuple)

    def test_experiment_quick_matches_committed_identity(self):
        req = canonicalize({"cmd": "experiment", "name": "fig3", "quick": True})
        assert req.scale_nnz == QUICK_NNZ
        assert req.matrices == QUICK_MATRICES

    def test_paramless_experiment_key_ignores_scale_slots(self):
        assert canonicalize({"cmd": "experiment", "name": "fig6a"}).job_key == (
            "experiment", "fig6a",
        )

    def test_corpus_defaults_and_digest_in_key(self):
        from repro.corpus import DEFAULT_VARIANTS
        from repro.sparse.corpus import get_corpus

        req = canonicalize({"cmd": "corpus"})
        assert req.corpus == "quick"
        assert req.kind == "adapter"
        assert req.variants == DEFAULT_VARIANTS
        assert req.digest == get_corpus("quick").digest
        assert req.job_key[0] == "corpus"
        assert req.digest in req.job_key

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"cmd": "corpus", "corpus": "nope"}, "unknown corpus"),
            ({"cmd": "corpus", "kind": "system"}, "support kinds"),
            ({"cmd": "corpus", "fmt": ""}, "format name"),
            ({"cmd": "corpus", "max_nnz": 10}, ">= 1000"),
            ({"cmd": "corpus", "offline": False}, "unknown request fields"),
            ({"cmd": "corpus", "fmt": "bogus"}, "format name"),
            ({"cmd": "corpus", "corpus": "x" * 300 + ".json"}, "too long"),
            ({"cmd": "corpus", "variants": ["BOGUS"]}, "unknown adapter variant"),
            ({"cmd": "corpus", "kind": "strided"}, "support kinds"),
        ],
    )
    def test_malformed_corpus_requests(self, payload, fragment):
        with pytest.raises(ServeError, match=fragment):
            canonicalize(payload)


class TestServedCorpus:
    def test_corpus_job_computes_then_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_CACHE", str(tmp_path))
        manager = serial_manager()
        try:
            req = {"cmd": "corpus", "corpus": "quick", "quick": True}
            first = manager.submit(req)
            assert first["source"] == "computed"
            # 7 quick entries x 4 default variants, entry-named rows
            assert len(first["rows"]) == 28
            assert {r["matrix"] for r in first["rows"]} >= {
                "pwtk", "tiny_general", "tiny_banded",
            }
            assert {r["source"] for r in first["rows"]} == {
                "synthetic", "local",
            }
            again = manager.submit(req)
            assert again["source"] == "cache"
            assert again["rows"] == first["rows"]
            stats = manager.executor.stats
            assert stats["corpus_groups"] == 7
            assert stats["corpus_computed"] == 7
        finally:
            manager.close()


class TestServedRowsByteIdentical:
    def test_served_equals_serial_and_pooled(self):
        """Satellite regression: serial == pooled == served, byte-identical."""
        points = grid_points(
            "adapter", ("msc01440", "pwtk"), ("MLPnc", "MLP64"), max_nnz=TINY
        )
        serial = SweepExecutor(workers=1).run(points)
        with SweepExecutor(workers=2) as pooled_exec:
            pooled = pooled_exec.run(points)
            assert pooled_exec.stats["pool_spawns"] == 1
        served = serial_manager().submit(
            {"cmd": "sweep", "matrices": ["msc01440", "pwtk"],
             "variants": ["MLPnc", "MLP64"], "max_nnz": TINY}
        )
        # Served chunks arrive per matrix group; reassemble in point order.
        by_key = {(row["matrix"], row["variant"]): row for row in served["rows"]}
        reassembled = [by_key[(p.matrix, p.variant)] for p in points]
        assert reassembled == serial == pooled

    def test_streamed_chunks_cover_rows_exactly_once(self):
        manager = serial_manager()
        events = list(manager.stream(SWEEP_REQ))
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "done"
        chunks = [e for e in events if e["event"] == "rows"]
        rows = [row for chunk in chunks for row in chunk["rows"]]
        assert events[-1]["row_count"] == len(rows) == 2


class TestResponseCache:
    def test_repeat_request_hits_cache(self):
        manager = serial_manager()
        first = manager.submit(SWEEP_REQ)
        second = manager.submit(SWEEP_REQ)
        assert first["source"] == "computed"
        assert second["source"] == "cache"
        assert first["rows"] == second["rows"]
        assert manager.stats["computed"] == 1
        assert manager.stats["response_hits"] == 1

    def test_returned_rows_are_copies(self):
        manager = serial_manager()
        manager.submit(SWEEP_REQ)["rows"][0]["cycles"] = -1
        assert manager.submit(SWEEP_REQ)["rows"][0]["cycles"] != -1

    def test_cache_is_bounded_lru(self, monkeypatch):
        manager = JobManager(executor=SweepExecutor(workers=1), cache_size=2)
        monkeypatch.setattr(
            JobManager, "_compute_chunks", lambda self, request: iter([[{"ok": 1}]])
        )
        for variant in ("MLP8", "MLP16", "MLP32"):
            manager.submit({"matrices": ["pwtk"], "variants": [variant]})
        assert manager.stats["response_evictions"] == 1
        # Oldest key recomputes, newest two still hit.
        assert manager.submit({"matrices": ["pwtk"], "variants": ["MLP8"]})["source"] == "computed"
        assert manager.submit({"matrices": ["pwtk"], "variants": ["MLP32"]})["source"] == "cache"

    def test_rejects_zero_cache(self):
        with pytest.raises(ExperimentError):
            JobManager(executor=SweepExecutor(workers=1), cache_size=0)


class TestEngineRowMemo:
    """Distinct job keys still share rows one layer down: the
    executor's row memo answers the points two sweeps both name."""

    def test_overlapping_sweeps_reuse_engine_rows(self):
        manager = serial_manager()
        manager.submit({**SWEEP_REQ, "variants": ["MLPnc", "MLP64"]})
        second = manager.submit({**SWEEP_REQ, "variants": ["MLP64", "MLP256"]})
        assert second["source"] == "computed"
        stats = manager.executor.last_stats
        assert (stats["tasks"], stats["row_hits"]) == (1, 1)
        points = grid_points("adapter", ("msc01440",), ("MLP64", "MLP256"), max_nnz=TINY)
        assert second["rows"] == SweepExecutor(workers=1).run(points)

    def test_concurrent_overlapping_sweeps_evaluate_each_point_once(self):
        """The memo has no lock of its own; the engine lock serialises
        every stream, so racing sweeps never evaluate a point twice."""
        variants = ("MLPnc", "MLP16", "MLP64", "MLP256")
        pairs = list(itertools.combinations(variants, 2))
        manager = serial_manager()
        results: dict[tuple, dict] = {}

        def worker(pair: tuple) -> None:
            results[pair] = manager.submit({**SWEEP_REQ, "variants": list(pair)})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(p,)) for p in pairs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(pairs)
        requested = sum(len(pair) for pair in pairs)
        assert manager.executor.stats["row_hits"] == requested - len(variants)
        serial = SweepExecutor(workers=1).run(
            grid_points("adapter", ("msc01440",), variants, max_nnz=TINY)
        )
        by_variant = {row["variant"]: row for row in serial}
        for pair, result in results.items():
            assert result["rows"] == [by_variant[v] for v in pair]


class TestSingleFlight:
    def _race(self, manager: JobManager, payload: dict, threads: int):
        results: list[dict] = [None] * threads  # type: ignore[list-item]
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                results[slot] = manager.submit(payload)
            except BaseException as exc:  # noqa: BLE001 - collected for asserts
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        return results, errors

    @staticmethod
    def _release_once_coalesced(manager: JobManager, release: threading.Event, count: int):
        """Unblock the leader only after `count` followers have piled on,
        so no thread can arrive late and hit the response cache instead."""

        def waiter() -> None:
            deadline = time.monotonic() + 10
            while manager.stats["coalesced"] < count and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()

        threading.Thread(target=waiter, daemon=True).start()

    def test_concurrent_identical_requests_compute_once(self, monkeypatch):
        manager = serial_manager()
        release = threading.Event()
        calls = []

        def slow_compute(self, request):
            calls.append(request.job_key)
            release.wait(timeout=10)
            yield [{"matrix": "pwtk", "variant": "MLP64", "cycles": 7}]

        monkeypatch.setattr(JobManager, "_compute_chunks", slow_compute)
        self._release_once_coalesced(manager, release, count=5)
        results, errors = self._race(
            manager, {"matrices": ["pwtk"], "variants": ["MLP64"]}, threads=6
        )
        assert not errors
        assert len(calls) == 1, "duplicate in-flight requests recomputed"
        assert {tuple(sorted(r["rows"][0].items())) for r in results} == {
            (("cycles", 7), ("matrix", "pwtk"), ("variant", "MLP64"))
        }
        sources = sorted(r["source"] for r in results)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == 5
        assert manager.stats["coalesced"] == 5
        assert not manager._inflight

    def test_leader_failure_propagates_to_followers(self, monkeypatch):
        manager = serial_manager()
        release = threading.Event()

        def failing_compute(self, request):
            release.wait(timeout=10)
            raise ExperimentError("synthetic failure")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(JobManager, "_compute_chunks", failing_compute)
        self._release_once_coalesced(manager, release, count=2)
        results, errors = self._race(
            manager, {"matrices": ["pwtk"], "variants": ["MLP64"]}, threads=3
        )
        assert all(r is None for r in results)
        assert len(errors) == 3
        assert all(isinstance(e, ExperimentError) for e in errors)
        assert not manager._inflight  # failed key fully retired
        # The key is not poisoned: a later request computes fresh.
        monkeypatch.setattr(
            JobManager, "_compute_chunks", lambda self, request: iter([[{"ok": 1}]])
        )
        assert manager.submit({"matrices": ["pwtk"], "variants": ["MLP64"]})[
            "source"
        ] == "computed"


    def test_unknown_name_fails_before_accepted(self, caplog):
        """A bad name is a request error, not a leader failure: no
        ``accepted`` event, no single-flight warning, one error."""
        manager = serial_manager()
        events = []
        with caplog.at_level(logging.WARNING, logger="repro.serve.jobs"):
            with pytest.raises(ServeError, match="unknown suite matrix"):
                events.extend(
                    manager.stream({"matrices": ["nope"], "variants": ["MLP64"]})
                )
        assert events == []
        assert not caplog.records
        assert manager.stats["errors"] == 1
        assert manager.stats["requests"] == 0


class TestStoreBacked:
    """The committed results/store/ acts as the experiment response
    cache: a request matching the manifest is a disk read."""

    def test_quick_experiment_serves_from_committed_store(self):
        manager = serial_manager()
        result = manager.submit({"cmd": "experiment", "name": "fig3", "quick": True})
        assert result["source"] == "store"
        assert result["rows"] == ResultStore("results/store").read_table("fig3")
        assert manager.submit({"cmd": "experiment", "name": "fig3", "quick": True})[
            "source"
        ] == "cache"

    def test_paramless_experiment_serves_from_store(self):
        result = serial_manager().submit({"cmd": "experiment", "name": "fig6a"})
        assert result["source"] == "store"
        assert len(result["rows"]) == 3

    def test_mismatched_identity_skips_the_store(self):
        manager = serial_manager()
        for payload in (
            {"cmd": "experiment", "name": "fig3", "quick": True, "model": "cycle"},
            {"cmd": "experiment", "name": "fig3", "quick": True, "max_nnz": 24_000},
            {"cmd": "experiment", "name": "fig3"},  # full scale
        ):
            assert manager._store_lookup(canonicalize(payload)) is None

    def test_missing_store_is_not_an_error(self, tmp_path):
        manager = JobManager(
            executor=SweepExecutor(workers=1), store_dir=tmp_path / "nope"
        )
        req = canonicalize({"cmd": "experiment", "name": "fig6a"})
        assert manager._store_lookup(req) is None


def fail_pwtk_groups(monkeypatch) -> None:
    """Make the adapter backend raise an exception outside the
    ``ReproError`` taxonomy on every pwtk group."""
    run_group = AdapterBackend.run_group

    def failing(self, group_key, variants, cache):
        if group_key[1] == "pwtk":
            raise RuntimeError("synthetic backend fault")
        return run_group(self, group_key, variants, cache)

    monkeypatch.setattr(AdapterBackend, "run_group", failing)


class TestStdioFrontEnd:
    def run_lines(self, manager: JobManager, *lines: str):
        out = io.StringIO()
        serve_stdio(manager, io.StringIO("\n".join(lines) + "\n"), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_request_bad_json_and_shutdown(self):
        events = self.run_lines(
            serial_manager(),
            # json.loads raises RecursionError, not JSONDecodeError, here
            "[" * 100_000 + "]" * 100_000,
            json.dumps(SWEEP_REQ),
            "{this is not json",
            '{"max_nnz": ' + "9" * 5000 + "}",  # a plain ValueError
            json.dumps({"matrices": ["pwtk"]}),  # missing variants
            # int() would reject this label's digit count with a bare
            # ValueError; it must stay a request error, not end the loop
            json.dumps({**SWEEP_REQ, "variants": ["MLP" + "9" * 5000]}),
            json.dumps({"cmd": "shutdown"}),
        )
        kinds = [event["event"] for event in events]
        assert kinds[:2] == ["error", "accepted"] and "rows" in kinds
        done = next(e for e in events if e["event"] == "done")
        assert done["source"] == "computed" and done["row_count"] == 2
        error_events = [e for e in events if e["event"] == "error"]
        assert len(error_events) == 5  # three bad JSON, two bad requests
        assert all("bad JSON" in e["error"] for e in error_events[:3])
        assert "invalid adapter variant" in error_events[4]["error"]
        assert events[-1] == {"event": "bye", "served": 1}

    def test_unexpected_exception_ends_only_its_request(self, monkeypatch, caplog):
        fail_pwtk_groups(monkeypatch)
        manager = serial_manager()
        with caplog.at_level(logging.WARNING, logger="repro.serve.jobs"):
            events = self.run_lines(
                manager,
                json.dumps({**SWEEP_REQ, "matrices": ["pwtk"]}),
                json.dumps(SWEEP_REQ),
            )
        kinds = [event["event"] for event in events]
        assert kinds[:2] == ["accepted", "error"]
        assert events[1]["error"] == "internal error: RuntimeError"
        assert kinds[-1] == "done" and events[-1]["source"] == "computed"
        assert manager.stats["errors"] == 1
        assert manager.stats["computed"] == 1
        logged = [
            r for r in caplog.records if r.getMessage().startswith("request failed")
        ]
        assert len(logged) == 1 and logged[0].exc_info[0] is RuntimeError


class TestHttpFrontEnd:
    @pytest.fixture()
    def server(self):
        manager = serial_manager()
        server = ReproServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        manager.close()

    def _post(self, server, path: str, payload: dict) -> list[dict]:
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in response.read().decode().splitlines()]

    def _get(self, server, path: str):
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return json.loads(response.read().decode())

    def test_sweep_round_trip_second_is_cache_hit(self, server):
        first = self._post(server, "/sweep", SWEEP_REQ)
        second = self._post(server, "/sweep", SWEEP_REQ)
        assert first[-1]["event"] == "done" and first[-1]["source"] == "computed"
        assert second[-1]["source"] == "cache"
        rows = [row for e in first if e["event"] == "rows" for row in e["rows"]]
        cached = [row for e in second if e["event"] == "rows" for row in e["rows"]]
        assert rows == cached  # JSON round trip preserves every cell

    def test_path_supplies_the_cmd(self, server):
        events = self._post(server, "/experiment", {"name": "fig6a"})
        assert events[-1]["source"] in ("store", "computed")

    @staticmethod
    def _error_status(call, *args) -> int:
        """The HTTP status of a call that must fail; closes its response."""
        with pytest.raises(urllib.error.HTTPError) as failed:
            call(*args)
        with failed.value:
            return failed.value.code

    def test_probes_and_errors(self, server):
        assert self._get(server, "/healthz") == {"ok": True}
        stats = self._get(server, "/stats")
        assert {"jobs", "engine", "workers"} <= set(stats)
        assert self._error_status(self._post, server, "/sweep", {"matrices": ["pwtk"]}) == 400
        assert self._error_status(self._post, server, "/nope", {}) == 404
        assert self._get(server, "/stats")["jobs"]["errors"] >= 1
        nested = urllib.request.Request(
            f"http://127.0.0.1:{server.server_address[1]}/sweep",
            data=b"[" * 100_000 + b"]" * 100_000,
        )
        assert self._error_status(urllib.request.urlopen, nested) == 400
        assert self._get(server, "/healthz") == {"ok": True}

    def _raw_post(self, server, content_length: str) -> bytes:
        """Send only the headers of a POST; return the whole reply."""
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                f"POST /sweep HTTP/1.0\r\nContent-Length: {content_length}"
                "\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        return reply

    @pytest.mark.parametrize("length", ["-1", "12x"])
    def test_bad_body_length_is_rejected_before_reading(self, server, length):
        reply = self._raw_post(server, length)
        assert reply.startswith(b"HTTP/1.0 400")
        assert b"Content-Length must be an integer >= 0" in reply

    def test_oversized_body_is_rejected_before_reading(self, server):
        reply = self._raw_post(server, str(100_000_000_000))
        assert reply.startswith(b"HTTP/1.0 413")
        assert f"over {MAX_BODY_BYTES} bytes".encode() in reply

    def test_unexpected_exception_ends_only_its_request(self, server, monkeypatch):
        fail_pwtk_groups(monkeypatch)
        # After the headers: the error is the stream's last event.
        failed = self._post(server, "/sweep", {**SWEEP_REQ, "matrices": ["pwtk"]})
        assert [event["event"] for event in failed] == ["accepted", "error"]
        assert failed[-1]["error"] == "internal error: RuntimeError"
        good = self._post(server, "/sweep", SWEEP_REQ)
        assert good[-1]["event"] == "done" and good[-1]["source"] == "computed"
        assert self._get(server, "/stats")["jobs"]["errors"] == 1

        # Before the headers: a 500 naming the class.
        def failing_lookup(self, request):
            raise RuntimeError("synthetic store fault")

        monkeypatch.setattr(JobManager, "_store_lookup", failing_lookup)
        with pytest.raises(urllib.error.HTTPError) as early:
            self._post(server, "/experiment", {"name": "fig6a"})
        assert early.value.code == 500
        assert json.loads(early.value.read()) == {
            "event": "error", "error": "internal error: RuntimeError",
        }
        assert self._get(server, "/stats")["jobs"]["errors"] == 2
        assert self._get(server, "/healthz") == {"ok": True}


class TestServeClient:
    """The shipped HTTP client: streamed events, local job-key reuse."""

    @pytest.fixture()
    def served(self):
        manager = serial_manager()
        server = ReproServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        yield client, manager
        server.shutdown()
        server.server_close()
        manager.close()

    def test_stream_yields_protocol_events(self, served):
        client, _manager = served
        events = list(client.stream(SWEEP_REQ))
        assert events[0]["event"] == "accepted"
        assert events[-1] == {"event": "done", "source": "computed", "row_count": 2}
        rows = [r for e in events if e["event"] == "rows" for r in e["rows"]]
        assert len(rows) == 2

    def test_submit_reuses_job_key_without_round_trip(self, served):
        client, manager = served
        first = client.submit(SWEEP_REQ)
        assert first["source"] == "computed"
        # The client's key is the locally canonicalized one — identical
        # to what the server computed and streamed back.
        assert first["key"] == canonicalize(SWEEP_REQ).job_key
        requests_before = manager.stats["requests"]
        # Same job, defaults spelled out and fields reordered: the memo
        # still answers it, and no request reaches the server.
        spelled = {"max_nnz": TINY, "variants": ["MLPnc", "MLP64"],
                   "matrices": ["msc01440"], "kind": "adapter", "model": "fast"}
        memoized = client.submit(spelled)
        assert memoized["source"] == "client"
        assert memoized["rows"] == first["rows"]
        assert manager.stats["requests"] == requests_before
        # Forcing the wire lands in the server's response cache.
        wired = client.submit(SWEEP_REQ, reuse=False)
        assert wired["source"] == "cache"
        assert wired["rows"] == first["rows"]
        client.forget()
        assert client.submit(SWEEP_REQ)["source"] == "cache"

    def test_returned_rows_are_copies(self, served):
        client, _manager = served
        client.submit(SWEEP_REQ)["rows"][0]["cycles"] = -1
        assert client.submit(SWEEP_REQ)["rows"][0]["cycles"] != -1

    def test_malformed_request_raises_client_side(self, served):
        client, manager = served
        requests_before = manager.stats["requests"]
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="matrices and variants"):
            client.submit({"matrices": ["pwtk"]})
        # Rejected before any bytes hit the wire.
        assert manager.stats["requests"] == requests_before
        # stream() has no local canonicalization; the server's 400
        # surfaces as the same error type.
        with pytest.raises(ServeError, match="matrices and variants"):
            list(client.stream({"matrices": ["pwtk"]}))

    def test_probes(self, served):
        client, _manager = served
        assert client.healthy()
        assert {"jobs", "engine", "workers"} <= set(client.stats())
        assert not ServeClient("http://127.0.0.1:9").healthy()


class TestServeCli:
    def test_cli_import_skips_the_http_stack(self):
        # The CLI imports repro.serve for canonicalize on every start;
        # the package must not drag in the HTTP server or client.
        code = (
            "import sys, repro.__main__; print(sorted(set(sys.modules) & {"
            "'repro.serve.client', 'repro.serve.server', 'urllib.request', "
            "'ssl', 'http.server'}))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "[]"

    def test_serve_flag_validation(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--port", "nope"]) == 1
        assert "port number" in capsys.readouterr().err
        assert main(["serve", "--workers", "0"]) == 1
        assert "at least one worker" in capsys.readouterr().err
        assert main(["serve", "--frobnicate"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_stdio_end_to_end(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps(SWEEP_REQ) + "\n" + '{"cmd": "shutdown"}\n'),
        )
        assert main(["serve", "--stdio", "--workers", "1"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["event"] == "accepted"
        assert lines[-1]["event"] == "bye"
