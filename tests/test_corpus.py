"""Corpus subsystem: manifests, cache, and the resumable runner.

The heart of this file is the crash/resume contract: a run killed by
the fault-injection hook after N computed groups must, on resume, skip
exactly those N groups and still produce a result tier byte-identical
to an uninterrupted run — across serial, pooled, and sharded
executors.  Everything runs on a four-entry corpus (two synthetic
recipes, two committed MatrixMarket fixtures) at tiny scale.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import (
    CORPUS_MANIFEST_NAME,
    CorpusRunner,
    InjectedFault,
    check_corpus,
    fault_hook_from_env,
)
from repro.engine import SweepExecutor
from repro.errors import CorpusError
from repro.sparse.corpus import (
    Corpus,
    CorpusEntry,
    MatrixCache,
    corpus_names,
    fixture_entries,
    get_corpus,
    load_corpus_name,
    load_fastload,
    matrix_name,
    save_fastload,
    synthetic_entries,
)

from helpers import small_csr

TINY = 4_000
VARIANTS = ("MLPnc", "MLP64")
TIER_FILES = ("corpus_adapter.csv", "corpus_rollup.csv", CORPUS_MANIFEST_NAME)


def tiny_corpus() -> Corpus:
    return Corpus(
        "tiny",
        synthetic_entries(("msc01440", "pwtk")) + fixture_entries()[:2],
    )


def run_tier(store_dir, cache_dir, fault_hook=None, **kwargs) -> CorpusRunner:
    runner = CorpusRunner(
        tiny_corpus(),
        store_dir=store_dir,
        cache=MatrixCache(cache_dir),
        variants=VARIANTS,
        max_nnz=TINY,
        fault_hook=fault_hook,
        **kwargs,
    )
    runner.run()
    return runner


def tier_bytes(store_dir) -> dict[str, bytes]:
    return {name: (store_dir / name).read_bytes() for name in TIER_FILES}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted serial run: the byte-identity yardstick."""
    root = tmp_path_factory.mktemp("corpus-ref")
    run_tier(root / "store", root / "cache")
    return tier_bytes(root / "store")


class TestManifests:
    def test_registered_corpora(self):
        assert set(corpus_names()) == {
            "quick", "builtin", "full", "suitesparse-demo",
        }
        quick = get_corpus("quick")
        assert {e.source for e in quick.entries} == {"synthetic", "local"}
        assert len(get_corpus("full").entries) == len(
            get_corpus("builtin").entries
        ) + len(fixture_entries())

    def test_unknown_corpus_rejected(self):
        with pytest.raises(CorpusError, match="unknown corpus"):
            get_corpus("nope")

    def test_digest_tracks_entry_identity(self):
        base = tiny_corpus()
        renamed = Corpus("tiny2", base.entries)
        assert base.digest == renamed.digest  # corpus name is not identity
        fewer = Corpus("tiny", base.entries[:-1])
        assert base.digest != fewer.digest

    def test_duplicate_entries_rejected(self):
        entry = CorpusEntry(name="pwtk", family="stiffness")
        with pytest.raises(CorpusError, match="repeats"):
            Corpus("dup", (entry, entry))

    def test_entry_validation(self):
        with pytest.raises(CorpusError, match="unknown source"):
            CorpusEntry(name="x", family="f", source="carrier-pigeon")
        with pytest.raises(CorpusError, match="needs a path"):
            CorpusEntry(name="x", family="f", source="local")
        with pytest.raises(CorpusError, match="needs a url"):
            CorpusEntry(name="x", family="f", source="suitesparse")
        with pytest.raises(CorpusError):
            CorpusEntry(name="not-a-suite-matrix", family="f")

    def test_json_manifest_round_trip(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({
            "name": "mine",
            "entries": [
                {"name": "pwtk", "family": "stiffness"},
                {"name": "tiny_general", "family": "fixture",
                 "source": "local", "path": "tests/data/corpus/tiny_general.mtx"},
            ],
        }))
        corpus = get_corpus(str(path))
        assert corpus.name == "mine"
        assert [e.name for e in corpus.entries] == ["pwtk", "tiny_general"]

    def test_json_manifest_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "entries": [{"name": "pwtk", "family": "s", "surprise": 1}],
        }))
        with pytest.raises(CorpusError, match="unknown entry fields"):
            get_corpus(str(path))


class TestFastload:
    def test_round_trip(self, tmp_path):
        m = small_csr()
        path = save_fastload(m, tmp_path / "m.npz", source_digest="abc")
        back = load_fastload(path)
        assert back.shape == m.shape
        assert np.array_equal(back.to_dense(), m.to_dense())

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="no fast-load artifact"):
            load_fastload(tmp_path / "absent.npz")

    def test_truncated_artifact(self, tmp_path):
        path = save_fastload(small_csr(), tmp_path / "m.npz")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CorpusError, match="unreadable"):
            load_fastload(path)

    def test_checksum_detects_flipped_bits(self, tmp_path):
        path = save_fastload(small_csr(), tmp_path / "m.npz")
        with np.load(path) as data:
            arrays = dict(data)
        arrays["val"] = arrays["val"] + 1.0  # meta checksum now stale
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CorpusError, match="checksum"):
            load_fastload(path)

    def test_version_gate(self, tmp_path):
        path = save_fastload(small_csr(), tmp_path / "m.npz")
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 99
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CorpusError, match="format v99"):
            load_fastload(path)

    def test_engine_name_scheme(self, tmp_path):
        path = save_fastload(small_csr(), tmp_path / "m.npz")
        name = matrix_name(path)
        assert name.startswith("corpus:")
        assert load_corpus_name(name).nnz == small_csr().nnz
        with pytest.raises(CorpusError, match="not a corpus matrix name"):
            load_corpus_name("pwtk")


class TestMatrixCache:
    def local_entry(self) -> CorpusEntry:
        return fixture_entries()[0]

    def test_local_ingest_offline(self, tmp_path):
        cache = MatrixCache(tmp_path)
        path, digest = cache.ensure(self.local_entry(), offline=True)
        assert path.is_file() and len(digest) == 64
        first = path.read_bytes()
        again, _ = cache.ensure(self.local_entry(), offline=True)
        assert again == path and path.read_bytes() == first

    def test_corrupt_local_artifact_reingested_offline(self, tmp_path):
        cache = MatrixCache(tmp_path)
        path, _ = cache.ensure(self.local_entry(), offline=True)
        path.write_bytes(b"garbage")
        again, _ = cache.ensure(self.local_entry(), offline=True)
        assert load_fastload(again).nnz > 0

    def test_suitesparse_offline_requires_cache(self, tmp_path):
        entry = CorpusEntry(
            name="bcsstk14", family="hb", source="suitesparse",
            url="https://example.invalid/bcsstk14.tar.gz",
        )
        cache = MatrixCache(tmp_path)
        with pytest.raises(CorpusError, match="offline mode forbids fetching"):
            cache.ensure(entry, offline=True)

    def test_suitesparse_fetch_then_offline_reuse(self, tmp_path):
        import io
        import tarfile

        mtx = (tmp_path / "src.mtx")
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.5\n2 2 -2.5\n"
        )
        blob = io.BytesIO()
        with tarfile.open(fileobj=blob, mode="w:gz") as archive:
            archive.add(mtx, arcname="HB/fake/fake.mtx")
        calls = []

        def fetcher(url: str) -> bytes:
            calls.append(url)
            return blob.getvalue()

        entry = CorpusEntry(
            name="fake", family="hb", source="suitesparse",
            url="https://example.invalid/fake.tar.gz",
        )
        cache = MatrixCache(tmp_path / "cache", fetcher=fetcher)
        path, _ = cache.ensure(entry, offline=False)
        assert calls == [entry.url]
        assert load_fastload(path).nnz == 2
        # cached artifact now serves offline, without the fetcher
        again, _ = cache.ensure(entry, offline=True)
        assert again == path and calls == [entry.url]
        # a corrupt cache offline is a clear refusal, not a refetch
        path.write_bytes(b"garbage")
        with pytest.raises(CorpusError, match="corrupt"):
            cache.ensure(entry, offline=True)

    def test_pinned_sha256_mismatch(self, tmp_path):
        entry = CorpusEntry(
            name="fake", family="hb", source="suitesparse",
            url="https://example.invalid/fake.mtx", sha256="0" * 64,
        )
        cache = MatrixCache(tmp_path, fetcher=lambda url: b"payload")
        with pytest.raises(CorpusError, match="hashes to"):
            cache.ensure(entry, offline=False)

    def test_synthetic_entries_are_never_cached(self, tmp_path):
        with pytest.raises(CorpusError, match="generated, not cached"):
            MatrixCache(tmp_path).source_digest(CorpusEntry("pwtk", "s"))


class TestCrashResume:
    """The tentpole contract: interrupted + resumed == uninterrupted."""

    @pytest.mark.parametrize("fault_after", [1, 2, 3])
    def test_resume_skips_completed_and_is_byte_identical(
        self, tmp_path, reference, fault_after
    ):
        store, cache = tmp_path / "store", tmp_path / "cache"

        def fault(computed: int) -> None:
            if computed >= fault_after:
                raise InjectedFault(f"boom after {computed}")

        with pytest.raises(InjectedFault):
            run_tier(store, cache, fault_hook=fault)
        # the interrupted run journaled exactly the computed groups and
        # left the tier marked incomplete
        manifest = json.loads((store / CORPUS_MANIFEST_NAME).read_text())
        assert manifest["complete"] is False
        assert len(manifest["completed"]) == fault_after

        resumed = run_tier(store, cache)
        assert resumed.counts["corpus_skipped"] == fault_after
        assert resumed.counts["corpus_computed"] == 4 - fault_after
        assert tier_bytes(store) == reference

    def test_rerun_of_a_complete_tier_skips_everything(self, tmp_path, reference):
        store, cache = tmp_path / "store", tmp_path / "cache"
        run_tier(store, cache)
        rerun = run_tier(store, cache)
        assert rerun.counts["corpus_skipped"] == 4
        assert rerun.counts["corpus_computed"] == 0
        assert tier_bytes(store) == reference

    def test_source_digest_is_read_once_per_local_entry(
        self, tmp_path, monkeypatch
    ):
        # A local entry's source file is read and hashed once per run,
        # computed or resumed: its job key's slug travels from the
        # entry to the tier manifest.
        calls: list[str] = []
        digest = MatrixCache.source_digest

        def counting(cache, entry):
            calls.append(entry.name)
            return digest(cache, entry)

        monkeypatch.setattr(MatrixCache, "source_digest", counting)
        corpus = get_corpus("quick")
        local = sorted(e.name for e in corpus.entries if e.source == "local")
        assert len(local) == 4
        for status in ("corpus_computed", "corpus_skipped"):
            calls.clear()
            runner = CorpusRunner(
                corpus, store_dir=tmp_path / "store",
                cache=MatrixCache(tmp_path / "cache"), max_nnz=TINY,
            )
            runner.run()
            assert runner.counts[status] == len(corpus.entries)
            assert sorted(calls) == local, status

    def test_pooled_and_sharded_match_serial(self, tmp_path):
        # A corpus run is one group per entry, so only a cycle-model
        # tier splits its entries' variants over the pool.
        serial = tmp_path / "serial"
        run_tier(serial, tmp_path / "cache", model="cycle")
        store = tmp_path / "store"
        with SweepExecutor(workers=2) as executor:
            run_tier(store, tmp_path / "cache", executor=executor, model="cycle")
            assert executor.stats["tasks"] == 2 * 4
            assert executor.stats["pool_spawns"] == 1
        assert tier_bytes(store) == tier_bytes(serial)

    def test_identity_change_invalidates_the_journal(self, tmp_path):
        store, cache = tmp_path / "store", tmp_path / "cache"
        run_tier(store, cache)
        rerun = CorpusRunner(
            tiny_corpus(), store_dir=store, cache=MatrixCache(cache),
            variants=VARIANTS, max_nnz=TINY * 2,  # different scale
        )
        rerun.run()
        assert rerun.counts["corpus_computed"] == 4
        assert rerun.counts["corpus_skipped"] == 0

    def test_edited_fixture_recomputes_its_group(self, tmp_path):
        fixture = tmp_path / "edit.mtx"
        shutil.copy("tests/data/corpus/tiny_general.mtx", fixture)
        corpus = Corpus(
            "edit",
            (CorpusEntry(name="edit", family="fixture", source="local",
                         path=str(fixture)),),
        )

        def run() -> CorpusRunner:
            runner = CorpusRunner(
                corpus, store_dir=tmp_path / "store",
                cache=MatrixCache(tmp_path / "cache"),
                variants=VARIANTS, max_nnz=TINY,
            )
            runner.run()
            return runner

        assert run().counts["corpus_computed"] == 1
        assert run().counts["corpus_skipped"] == 1
        fixture.write_text(fixture.read_text().replace("1.0", "7.0", 1))
        assert run().counts["corpus_computed"] == 1  # digest moved

    def test_corrupt_journal_recomputes_instead_of_replaying(
        self, tmp_path, reference
    ):
        store, cache = tmp_path / "store", tmp_path / "cache"
        run_tier(store, cache)
        for journal in (store / "corpus").glob("*.json"):
            journal.write_text("{not json")
        rerun = run_tier(store, cache)
        assert rerun.counts["corpus_computed"] == 4
        assert tier_bytes(store) == reference


class TestRunnerErrors:
    def broken_corpus(self) -> Corpus:
        return Corpus(
            "broken",
            synthetic_entries(("msc01440",)) + (
                CorpusEntry(name="ghost", family="fixture", source="local",
                            path="nowhere/ghost.mtx"),
            ),
        )

    def test_failures_raise_by_default(self, tmp_path):
        runner = CorpusRunner(
            self.broken_corpus(), cache=MatrixCache(tmp_path),
            variants=VARIANTS, max_nnz=TINY,
        )
        with pytest.raises(CorpusError, match="no file at"):
            runner.run()

    def test_keep_going_counts_failures(self, tmp_path):
        runner = CorpusRunner(
            self.broken_corpus(), cache=MatrixCache(tmp_path),
            variants=VARIANTS, max_nnz=TINY, keep_going=True,
        )
        result = runner.run()
        assert runner.counts["corpus_failed"] == 1
        assert {row["matrix"] for row in result["rows"]} == {"msc01440"}

    def test_all_failed_is_an_error_even_with_keep_going(self, tmp_path):
        corpus = Corpus("ghosts", (self.broken_corpus().entries[1],))
        runner = CorpusRunner(
            corpus, cache=MatrixCache(tmp_path),
            variants=VARIANTS, max_nnz=TINY, keep_going=True,
        )
        with pytest.raises(CorpusError, match="produced no rows"):
            runner.run()

    def test_bad_kind_and_empty_variants(self):
        with pytest.raises(CorpusError, match="support kinds"):
            CorpusRunner(tiny_corpus(), kind="system")
        with pytest.raises(CorpusError, match="at least one variant"):
            CorpusRunner(tiny_corpus(), variants=())

    def test_fault_hook_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORPUS_FAULT_AFTER", raising=False)
        assert fault_hook_from_env() is None
        monkeypatch.setenv("REPRO_CORPUS_FAULT_AFTER", "two")
        with pytest.raises(CorpusError, match="not an integer"):
            fault_hook_from_env()
        monkeypatch.setenv("REPRO_CORPUS_FAULT_AFTER", "2")
        hook = fault_hook_from_env()
        hook(1)
        with pytest.raises(InjectedFault):
            hook(2)


class TestCheckCorpus:
    def test_clean_tier_then_tampered_tier(self, tmp_path):
        # check_corpus resolves the corpus by its recorded name, so the
        # tier under test must use a registered corpus.
        store, cache = tmp_path / "store", MatrixCache(tmp_path / "cache")
        CorpusRunner(
            get_corpus("quick"), store_dir=store, cache=cache,
            variants=VARIANTS, max_nnz=TINY, claims=True,
        ).run()
        assert check_corpus(store, cache=cache) == []
        table = store / "corpus_rollup.csv"
        table.write_text(table.read_text() + "tampered\n")
        drift = check_corpus(store, cache=cache)
        assert drift == ["corpus_rollup: table differs from a fresh run"]

    def test_incomplete_tier_is_refused(self, tmp_path):
        store = tmp_path / "store"

        def fault(computed: int) -> None:
            raise InjectedFault("immediately")

        with pytest.raises(InjectedFault):
            run_tier(store, tmp_path / "cache", fault_hook=fault)
        with pytest.raises(CorpusError, match="incomplete"):
            check_corpus(store, cache=MatrixCache(tmp_path / "cache"))

    def test_ad_hoc_tier_checkable_without_manifest_path(self, tmp_path):
        # A tier built from `--corpus path.json` embeds its definition
        # in corpus_manifest.json; check_corpus must rebuild the corpus
        # from that even after the original JSON manifest is deleted.
        manifest_path = tmp_path / "mine.json"
        manifest_path.write_text(json.dumps({
            "name": "mine",
            "entries": [
                {"name": "pwtk", "family": "stiffness"},
                {"name": "msc01440", "family": "dense_block"},
            ],
        }))
        store, cache = tmp_path / "store", MatrixCache(tmp_path / "cache")
        CorpusRunner(
            get_corpus(str(manifest_path)), store_dir=store, cache=cache,
            variants=VARIANTS, max_nnz=TINY,
        ).run()
        tier_manifest = json.loads(
            (store / CORPUS_MANIFEST_NAME).read_text()
        )
        assert tier_manifest["corpus_definition"]["name"] == "mine"
        manifest_path.unlink()
        assert check_corpus(store, cache=cache) == []

    def test_registered_tier_manifest_stays_lean(self, tmp_path):
        # Registered corpora resolve by name; their tiers must not
        # embed a definition (keeps the committed manifests byte-stable
        # across code revisions).
        store, cache = tmp_path / "store", tmp_path / "cache"
        run_tier(store, cache)  # "tiny" is unregistered -> embedded
        assert "corpus_definition" in json.loads(
            (store / CORPUS_MANIFEST_NAME).read_text()
        )
        registered = tmp_path / "registered"
        CorpusRunner(
            get_corpus("quick"), store_dir=registered,
            cache=MatrixCache(cache), variants=VARIANTS, max_nnz=TINY,
        ).run()
        assert "corpus_definition" not in json.loads(
            (registered / CORPUS_MANIFEST_NAME).read_text()
        )


class TestCommittedCycleTier:
    def test_manifest_is_complete_and_cycle_model(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        manifest = json.loads(
            (root / "results" / "cycle" / CORPUS_MANIFEST_NAME).read_text()
        )
        assert manifest["complete"] is True
        assert manifest["model"] == "cycle"
        assert manifest["kind"] == "adapter"
        assert manifest["corpus"] == "quick"
        assert len(manifest["completed"]) == len(manifest["entries"]) == 7


class TestKeyProperties:
    @given(st.integers(min_value=1000, max_value=10**7),
           st.sampled_from(["fast", "cycle"]))
    @settings(max_examples=30, deadline=None)
    def test_group_key_survives_json_round_trip(self, nnz, model):
        runner = CorpusRunner(
            tiny_corpus(), variants=VARIANTS, max_nnz=nnz, model=model,
        )
        entry = tiny_corpus().entries[0]
        key = runner.group_key(entry, "digest")
        assert json.loads(json.dumps(key)) == key
        assert CorpusRunner._slug(key) == CorpusRunner._slug(
            json.loads(json.dumps(key))
        )

    def test_key_separates_configs_and_sources(self):
        runner = CorpusRunner(tiny_corpus(), variants=VARIANTS, max_nnz=TINY)
        other = CorpusRunner(tiny_corpus(), variants=VARIANTS, max_nnz=TINY * 2)
        entry = tiny_corpus().entries[0]
        assert runner.group_key(entry, "d") != other.group_key(entry, "d")
        assert runner.group_key(entry, "d1") != runner.group_key(entry, "d2")
