"""Set-associative LRU cache model (the baseline's 1 MiB LLC)."""

from __future__ import annotations

import numpy as np

from ..config import BaselineConfig
from ..errors import ConfigError
from ..sim.stats import StatSet
from ..units import is_power_of_two


class LruCache:
    """A classic set-associative LRU cache over 64 B lines.

    The model tracks hits and misses only (no timing); the baseline
    system converts miss counts into DRAM time and off-chip traffic.
    """

    def __init__(self, size_bytes: int, ways: int = 8, line_bytes: int = 64) -> None:
        if size_bytes % (ways * line_bytes):
            raise ConfigError("cache size must divide into ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigError("set count must be a power of two")
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = StatSet("llc")

    @classmethod
    def from_config(cls, config: BaselineConfig) -> "LruCache":
        return cls(config.llc_bytes, config.llc_ways, config.line_bytes)

    def access(self, addr: int) -> bool:
        """Touch one address; returns True on hit."""
        line = addr // self.line_bytes
        resident = self._sets[line & (self.num_sets - 1)]
        if line in resident:
            resident.remove(line)
            resident.append(line)
            self.stats.add("hits")
            return True
        resident.append(line)
        self.stats.add("misses")
        if len(resident) > self.ways:
            del resident[0]
            self.stats.add("evictions")
        return False

    def access_lines(self, lines: np.ndarray | list[int]) -> np.ndarray:
        """Replay a trace of line ids in order; returns one hit flag
        per access.  LRU update on hit, LRU eviction on miss.

        An access whose set's previous access — in this trace, or the
        set's most recent line before it — was the same line re-touches
        the set's MRU line: a hit that changes no LRU state.  NumPy
        marks those (one stable sort by set), and the per-access loop
        replays only the rest, in trace order.
        """
        lines = np.asarray(lines, dtype=np.int64)
        sets = self._sets
        set_mask = self.num_sets - 1
        ways = self.ways
        set_ids = lines & set_mask
        # NumPy's stable sort is a radix sort on 16-bit keys.
        keys = set_ids.astype(np.uint16) if set_mask < 1 << 16 else set_ids
        order = np.argsort(keys, kind="stable")
        by_set = lines[order]
        # Equal lines share a set, so equal neighbours in set order are
        # one set's consecutive accesses to one line.
        retouch = np.zeros(len(lines), dtype=bool)
        retouch[order[1:]] = by_set[1:] == by_set[:-1]
        # Each set's first access here follows the set's MRU line.
        starts = np.flatnonzero(np.diff(set_ids[order], prepend=-1))
        for start, line in zip(order[starts].tolist(), by_set[starts].tolist()):
            resident = sets[line & set_mask]
            if resident and resident[-1] == line:
                retouch[start] = True
        rest = np.flatnonzero(~retouch)
        flags = bytearray(len(rest))
        evictions = 0
        for i, line in enumerate(lines[rest].tolist()):
            resident = sets[line & set_mask]
            if line in resident:
                resident.remove(line)
                resident.append(line)
                flags[i] = 1
            else:
                resident.append(line)
                if len(resident) > ways:
                    del resident[0]
                    evictions += 1
        hit = retouch
        hit[rest] = np.frombuffer(flags, dtype=bool)
        hits = int(np.count_nonzero(hit))
        # A StatSet key appears on its first add, so add only counts
        # that happened, as one access at a time would.
        for key, amount in (
            ("hits", hits),
            ("misses", len(hit) - hits),
            ("evictions", evictions),
        ):
            if amount:
                self.stats.add(key, amount)
        return hit

    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.reset()
