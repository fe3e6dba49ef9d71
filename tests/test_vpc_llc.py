"""LRU cache model and the baseline's LLC trace replay."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.axipack.reference import baseline_llc_reference
from repro.config import BaselineConfig
from repro.errors import ConfigError
from repro.sparse.csr import CsrMatrix
from repro.sparse.suite import get_matrix, get_spec, list_matrices
from repro.vpc import BaselineSystem
from repro.vpc.baseline import scaled_llc_bytes
from repro.vpc.llc import LruCache


def test_cold_miss_then_hit():
    cache = LruCache(4096, ways=4)
    assert not cache.access(0)
    assert cache.access(0)
    assert cache.access(63)  # same line
    assert not cache.access(64)  # next line


def test_lru_eviction_order():
    cache = LruCache(4 * 64, ways=4)  # one set, 4 ways
    for i in range(4):
        cache.access(i * 64 * 1)  # hmm: one set -> all map to set 0
    # Re-touch line 0 so line 1 is LRU.
    cache.access(0)
    cache.access(4 * 64)  # evicts line 1
    assert cache.access(0)
    assert not cache.access(1 * 64)


def test_set_mapping_isolates_sets():
    cache = LruCache(2 * 64 * 2, ways=2)  # 2 sets
    # Lines 0, 2, 4 map to set 0; lines 1, 3 to set 1.
    cache.access(0 * 64)
    cache.access(1 * 64)
    cache.access(2 * 64)
    cache.access(4 * 64)  # evicts line 0 in set 0
    assert cache.access(1 * 64)  # set 1 untouched
    assert not cache.access(0)


def test_hit_rate_and_reset():
    cache = LruCache(4096)
    cache.access(0)
    cache.access(0)
    assert cache.hit_rate == pytest.approx(0.5)
    cache.reset()
    assert cache.hit_rate == 0.0
    assert not cache.access(0)


def test_working_set_behaviour():
    """A working set within capacity hits; beyond capacity it thrashes."""
    cache = LruCache(64 * 64, ways=8)  # 64 lines
    lines_fit = list(range(32))
    for _ in range(3):
        for line in lines_fit:
            cache.access(line * 64)
    assert cache.hit_rate > 0.6

    cache.reset()
    lines_large = list(range(256))
    for _ in range(3):
        for line in lines_large:
            cache.access(line * 64)
    assert cache.hit_rate < 0.05


def test_from_config():
    cache = LruCache.from_config(BaselineConfig())
    assert cache.size_bytes == 1 << 20
    assert cache.num_sets == 2048


def test_geometry_validation():
    with pytest.raises(ConfigError):
        LruCache(1000, ways=3)


def _textbook_lru(num_sets, ways, lines):
    """Hit flags of a per-set most-recent-first list, written apart
    from :class:`LruCache`."""
    sets = [[] for _ in range(num_sets)]
    flags = []
    for line in lines:
        resident = sets[line % num_sets]
        flags.append(line in resident)
        if line in resident:
            resident.remove(line)
        resident.insert(0, line)
        del resident[ways:]
    return flags


@given(
    st.sampled_from([1, 2, 8]),
    st.sampled_from([1, 2, 4]),
    st.lists(st.integers(0, 40), max_size=200),
    st.integers(0, 200),
)
@settings(max_examples=150, deadline=None)
def test_access_lines_matches_per_access_replay(num_sets, ways, trace, split):
    one_pass = LruCache(num_sets * ways * 64, ways=ways)
    # Two calls, so the set state must carry across them.
    hit = np.concatenate(
        [one_pass.access_lines(trace[:split]), one_pass.access_lines(trace[split:])]
    )
    per_access = LruCache(num_sets * ways * 64, ways=ways)
    flags = [per_access.access(line * 64) for line in trace]
    assert hit.dtype == bool
    assert hit.tolist() == flags == _textbook_lru(num_sets, ways, trace)
    assert one_pass.stats.as_dict() == per_access.stats.as_dict()


@given(
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2, 4]),
    st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
    st.lists(st.lists(st.integers(0, 3), max_size=30), min_size=1, max_size=5),
)
# A set whose first access in the second call is its LRU line.
@example(num_sets=2, ways=2, alphabet=[0, 2, 1], first=[0, 1, 2], more=[[0]])
@settings(max_examples=150, deadline=None)
def test_access_lines_skips_mru_retouches_exactly(
    num_sets, ways, alphabet, first, more
):
    """Traces over a 1-4-line alphabet are mostly re-touches of a set's
    MRU line.  The trace is replayed in 2-6 calls, and each call after
    the first opens on the previous call's last line, the MRU line of
    its set; other sets may open on a resident line that is not their
    MRU.  Flags, stats and set contents must match after every call."""
    calls = [[alphabet[i % len(alphabet)] for i in first]]
    for picks in more:
        calls.append([calls[-1][-1], *(alphabet[i % len(alphabet)] for i in picks)])
    one_pass = LruCache(num_sets * ways * 64, ways=ways)
    per_access = LruCache(num_sets * ways * 64, ways=ways)
    hits = []
    for call in calls:
        hit = one_pass.access_lines(call)
        assert hit.dtype == bool
        assert hit.tolist() == [per_access.access(line * 64) for line in call]
        assert one_pass.stats.as_dict() == per_access.stats.as_dict()
        assert one_pass._sets == per_access._sets
        hits += hit.tolist()
    assert hits == _textbook_lru(num_sets, ways, [x for call in calls for x in call])


@pytest.mark.parametrize("name", list_matrices() + ["no-nonzeros"])
def test_baseline_trace_matches_reference_loop(name):
    """The one-pass replay gives the per-nonzero loop's vector hits and
    misses, LLC stats and final set contents."""
    if name == "no-nonzeros":
        csr, scale = CsrMatrix(40, 40, np.zeros(41), np.empty(0), np.empty(0)), 1.0
    else:
        # The scaled LLC the system backend runs the baseline with.
        csr = get_matrix(name, max_nnz=12_000)
        scale = csr.nrows / get_spec(name).n
    base = BaselineConfig()
    line = base.line_bytes
    llc_bytes = scaled_llc_bytes(base, scale)
    replayed = LruCache(llc_bytes, base.llc_ways, line)
    looped = LruCache(llc_bytes, base.llc_ways, line)
    got = BaselineSystem(base)._simulate_cache(csr, replayed, line)
    assert got == baseline_llc_reference(csr, looped, line)
    assert all(type(count) is int for count in got)
    assert replayed.stats.as_dict() == looped.stats.as_dict()
    assert replayed._sets == looped._sets
