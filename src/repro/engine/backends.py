"""Sweep backend protocol and registry.

A *backend* owns one :attr:`SweepPoint.kind`: it declares which
matrix and variant names it accepts (the base class builds every
kind's grid from them, :func:`grid_points`), how to evaluate every
variant of one matrix group, how to **split** a group into shard tasks
that fan out across the process pool, and how to **merge** shard
results back into the exact rows a serial run would produce.  The executor
(:mod:`repro.engine.executor`) is kind-agnostic — it buckets points,
asks the registered backend to split each bucket, schedules the shard
tasks, and hands the results back to the backend to merge.

Built-in backends:

========================  ==================================================
kind                      evaluates
========================  ==================================================
``adapter``               one adapter variant over a matrix index stream
                          (fast or cycle model)
``system``                one end-to-end SpMV system over a matrix
``multichannel``          the MLP256 adapter against an N-channel
                          block-interleaved HBM (fast or cycle model)
``scatter``               the indirect *write* path of one coalescer
                          variant over a matrix index stream
``strided``               an AXI-Pack strided burst at one stride
========================  ==================================================

Sharding contract: for any registered backend, any shard count, and any
worker count, ``merge(split(...))`` must reproduce the serial result
table **byte-for-byte** (``tests/test_engine_backends.py`` property-
tests this for every registered kind).  Two sharding axes exist:

* *variant sharding* (every backend, via the base class): a group's
  variant list splits into contiguous chunks, one shard task each;
* *stream sharding* (``adapter`` and ``multichannel``, fast model): a
  single variant's index stream splits at window-aligned boundaries;
  each shard extracts its chunk's window-local warp candidates
  (:func:`repro.axipack.fastmodel.window_candidates`) and the merge
  resolves the carry chain over the concatenated candidates
  (:func:`~repro.axipack.fastmodel.resolve_window_carry`) — exactly
  the computation the serial path performs, so the merged metrics are
  bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..axipack import fast_indirect_stream, run_indirect_stream
from ..axipack.fastmodel import (
    fast_metrics_from_tags,
    resolve_window_carry,
    window_candidates,
)
from ..axipack.metrics import AdapterMetrics
from ..config import AdapterConfig, DramConfig, variant_config
from ..errors import ConfigError, ExperimentError
from ..sparse.corpus import is_corpus_name
from ..sparse.suite import DEFAULT_MAX_NNZ, get_spec
from ..units import ceil_div
from .cache import AnalysisCache
from .points import (
    ADAPTER_KIND,
    MULTICHANNEL_KIND,
    SCATTER_KIND,
    STRIDED_KIND,
    SYSTEM_KIND,
    SweepPoint,
)


@dataclass(frozen=True)
class ShardTask:
    """One schedulable unit of a sweep group.

    ``chunk is None`` → evaluate ``variants`` over the whole matrix
    (variant sharding); ``chunk == (i, k)`` → evaluate the single
    variant in ``variants`` over stream chunk ``i`` of ``k`` (stream
    sharding), returning a mergeable partial payload instead of rows.
    """

    group_key: tuple
    variants: tuple[str, ...]
    chunk: tuple[int, int] | None = None


class SweepBackend:
    """Protocol base for sweep backends (one per ``SweepPoint.kind``).

    Subclasses set :attr:`kind`, implement :meth:`run_group` and
    :meth:`check_variant`, and may override :meth:`split` /
    :meth:`run_shard` / :meth:`merge` to shard below variant
    granularity.  The base implementation shards the variant list into
    contiguous chunks and merges by reassembling rows per variant —
    correct for any backend whose rows are independent across variants
    (all of the built-ins).
    """

    kind: str = ""

    #: whether the kind's points read a matrix's index stream: only
    #: those take a traversal-format axis and ``corpus:`` matrices
    #: (:func:`index_stream_kinds`); the others get ``fmt=""``.
    index_stream: bool = True

    #: column projection for ad-hoc CLI sweeps (``None`` = all row
    #: keys); lives here so the display schema stays next to the row
    #: builder that defines it.
    display_columns: tuple[str, ...] | None = None

    # -- grid construction ------------------------------------------------

    def build_points(
        self,
        matrices: tuple[str, ...],
        variants: tuple[str, ...],
        formats: tuple[str, ...] | None = None,
        max_nnz: int = DEFAULT_MAX_NNZ,
        model: str = "fast",
    ) -> list[SweepPoint]:
        """Grid points for this kind in figure order (fmt → matrix →
        variant), once :meth:`check_names` accepts every name.
        ``formats`` defaults to ``("sell",)``; a kind without an index
        stream takes none and emits ``fmt=""``."""
        if not self.index_stream:
            if formats:
                raise ExperimentError(
                    f"kind {self.kind!r} has no traversal-format axis, "
                    f"got formats {formats!r}"
                )
            formats = ("",)
        self.check_names(matrices, variants)
        return [
            SweepPoint(matrix, variant, fmt, max_nnz, model, self.kind)
            for fmt in (formats or ("sell",))
            for matrix in matrices
            for variant in variants
        ]

    def check_names(
        self, matrices: tuple[str, ...], variants: tuple[str, ...]
    ) -> None:
        """Raise a :class:`~repro.errors.ReproError` on a name this
        kind cannot evaluate: matrices must be suite (or, for
        index-stream kinds, ``corpus:``) names, and variants must pass
        :meth:`check_variant`."""
        for matrix in matrices:
            if not (self.index_stream and is_corpus_name(matrix)):
                get_spec(matrix)
        for variant in variants:
            try:
                self.check_variant(variant)
            except ValueError as exc:  # e.g. int() of an over-long digit run
                raise ExperimentError(
                    f"invalid {self.kind} variant {variant[:40]!r}: {exc}"
                ) from exc

    def check_variant(self, variant: str) -> None:
        """Parse ``variant`` the way :meth:`run_group` will, raising on
        a label it cannot evaluate."""
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------

    def run_group(
        self, group_key: tuple, variants: tuple[str, ...], cache: AnalysisCache
    ) -> list[dict]:
        """Evaluate every variant of one group; one row dict each."""
        raise NotImplementedError

    # -- sharding ----------------------------------------------------------

    def split(
        self, group_key: tuple, variants: tuple[str, ...], shards: int
    ) -> list[ShardTask]:
        """Split one group into at most ``shards`` shard tasks."""
        pieces = max(1, min(shards, len(variants)))
        if pieces == 1:
            return [ShardTask(group_key, tuple(variants))]
        bounds = np.linspace(0, len(variants), pieces + 1).astype(int)
        return [
            ShardTask(group_key, tuple(variants[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]

    def run_shard(self, task: ShardTask, cache: AnalysisCache):
        """Evaluate one shard task (in a worker process)."""
        if task.chunk is not None:
            raise ExperimentError(
                f"backend {self.kind!r} does not support stream chunking"
            )
        return self.run_group(task.group_key, task.variants, cache)

    def merge(
        self,
        group_key: tuple,
        variants: tuple[str, ...],
        tasks: list[ShardTask],
        payloads: list,
    ) -> list[dict]:
        """Reassemble shard payloads into rows, one per ``variants``
        entry in order.  Must reproduce :meth:`run_group` byte-for-
        byte for every shard configuration."""
        by_variant: dict[str, dict] = {}
        for task, rows in zip(tasks, payloads):
            if task.chunk is not None:
                raise ExperimentError(
                    f"backend {self.kind!r} cannot merge chunked payloads"
                )
            for variant, row in zip(task.variants, rows):
                by_variant[variant] = row
        return [by_variant[variant] for variant in variants]


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, SweepBackend] = {}


def register_backend(backend: SweepBackend, replace: bool = False) -> SweepBackend:
    """Register ``backend`` under its :attr:`~SweepBackend.kind`.

    Duplicate registration is rejected (``replace=True`` swaps an
    existing backend deliberately, e.g. to instrument one in a test).
    """
    kind = backend.kind
    if not kind:
        raise ExperimentError(
            f"backend {type(backend).__name__} declares no kind"
        )
    if kind in _REGISTRY and not replace:
        raise ExperimentError(
            f"sweep backend kind {kind!r} is already registered "
            f"({type(_REGISTRY[kind]).__name__}); pass replace=True to swap it"
        )
    _REGISTRY[kind] = backend
    return backend


def registered_kinds() -> tuple[str, ...]:
    """Registered backend kinds, registration order."""
    return tuple(_REGISTRY)


def get_backend(kind: str) -> SweepBackend:
    """The registered backend for ``kind``; raises with the registered
    names on an unknown kind."""
    if kind not in _REGISTRY:
        raise ExperimentError(
            f"unknown sweep backend kind {kind!r}; registered kinds: "
            f"{', '.join(registered_kinds())}"
        )
    return _REGISTRY[kind]


def grid_points(kind: str, *args, **kwargs) -> list[SweepPoint]:
    """Build grid points through the registry:
    ``grid_points("adapter", matrices, variants, ...)`` — the single
    way to build a grid (see :meth:`SweepBackend.build_points`)."""
    return get_backend(kind).build_points(*args, **kwargs)


def index_stream_kinds() -> tuple[str, ...]:
    """Registered kinds that read a matrix index stream: the kinds with
    a traversal-format axis, and the ones a corpus can sweep."""
    return tuple(kind for kind, backend in _REGISTRY.items() if backend.index_stream)


# -- adapter (and multichannel) backends ------------------------------------


class AdapterBackend(SweepBackend):
    """Fast-/cycle-model adapter sweeps with two-axis sharding.

    Variant sharding always applies; when the shard budget exceeds the
    variant count and the model is ``fast``, each variant's stream
    additionally splits into window-aligned chunks whose warp
    candidates are merged exactly (see the module docstring).
    """

    kind = ADAPTER_KIND
    display_columns = (
        "matrix", "variant", "indir_gbps", "coal_rate", "elem_txns", "cycles",
    )

    # hooks the multichannel backend overrides -----------------------------

    def variant_setup(self, variant: str) -> tuple[AdapterConfig, int]:
        """(adapter config, memory channel count) for one variant."""
        return variant_config(variant), 1

    def row(
        self, group_key: tuple, variant: str, metrics: AdapterMetrics,
        dram: DramConfig,
    ) -> dict:
        kind, matrix, fmt, max_nnz, model = group_key
        return {
            "kind": kind,
            "matrix": matrix,
            "format": fmt,
            "variant": variant,
            "model": model,
            "max_nnz": max_nnz,
            "count": metrics.count,
            "cycles": metrics.cycles,
            "idx_txns": metrics.idx_txns,
            "elem_txns": metrics.elem_txns,
            "indir_gbps": metrics.indirect_bw_gbps,
            "elem_gbps": metrics.elem_bw_gbps,
            "index_gbps": metrics.idx_bw_gbps,
            "loss_gbps": metrics.loss_gbps(dram),
            "coal_rate": metrics.coalesce_rate,
        }

    # ----------------------------------------------------------------------

    def check_variant(self, variant: str) -> None:
        self.variant_setup(variant)

    def run_group(
        self, group_key: tuple, variants: tuple[str, ...], cache: AnalysisCache
    ) -> list[dict]:
        kind, matrix, fmt, max_nnz, model = group_key
        dram = DramConfig()
        indices = cache.stream(matrix, fmt, max_nnz)
        rows = []
        for variant in variants:
            config, channels = self.variant_setup(variant)
            if model == "cycle":
                metrics = run_indirect_stream(
                    indices, config, dram, variant=variant, channels=channels
                )
            else:
                analysis = cache.analysis(
                    matrix, fmt, max_nnz, dram.access_bytes // config.element_bytes
                )
                metrics = fast_indirect_stream(
                    indices, config, dram, variant=variant, analysis=analysis,
                    channels=channels,
                )
            rows.append(self.row(group_key, variant, metrics, dram))
        return rows

    def split(
        self, group_key: tuple, variants: tuple[str, ...], shards: int
    ) -> list[ShardTask]:
        model = group_key[4]
        chunks = shards // max(1, len(variants))
        if model != "fast" or chunks < 2:
            return super().split(group_key, variants, shards)
        # Shard budget exceeds the variant count: one task per
        # (variant, stream chunk).  Chunk bounds are resolved in the
        # worker (they depend on the variant's window and the stream
        # length); the merge re-runs the exact serial carry resolution.
        return [
            ShardTask(group_key, (variant,), chunk=(index, chunks))
            for variant in variants
            for index in range(chunks)
        ]

    def _chunk_bounds(
        self, count: int, window: int | None, chunk: tuple[int, int]
    ) -> tuple[int, int]:
        """Element bounds of stream chunk ``i`` of ``k``: equal window
        spans for coalescing variants (alignment is what makes the
        candidate extraction chunk-local), equal element spans for the
        coalescer-less ``MLPnc``."""
        index, pieces = chunk
        if window:
            num_win = (count - 1) // window + 1
            span = ceil_div(num_win, pieces) * window
        else:
            span = ceil_div(count, pieces)
        return min(index * span, count), min((index + 1) * span, count)

    def run_shard(self, task: ShardTask, cache: AnalysisCache):
        if task.chunk is None:
            return self.run_group(task.group_key, task.variants, cache)
        kind, matrix, fmt, max_nnz, model = task.group_key
        (variant,) = task.variants
        dram = DramConfig()
        config, _ = self.variant_setup(variant)
        window = config.coalescer.window if config.has_coalescer else None
        count = int(cache.stream(matrix, fmt, max_nnz).size)
        start, stop = self._chunk_bounds(count, window, task.chunk)
        if start >= stop:
            empty = np.empty(0, dtype=np.int64)
            return {"count": 0, "cand": empty, "cand_win": empty}
        analysis = cache.analysis(
            matrix, fmt, max_nnz,
            dram.access_bytes // config.element_bytes, chunk=(start, stop),
        )
        if window is None:  # MLPnc: every request is its own wide access
            return {"count": stop - start, "tags": analysis.blocks}
        cand, cand_win = window_candidates(
            analysis.blocks, window, analysis.prev, base_window=start // window
        )
        return {"count": stop - start, "cand": cand, "cand_win": cand_win}

    def merge(
        self,
        group_key: tuple,
        variants: tuple[str, ...],
        tasks: list[ShardTask],
        payloads: list,
    ) -> list[dict]:
        dram = DramConfig()
        by_variant: dict[str, dict] = {}
        chunked: dict[str, list[tuple[int, dict]]] = {}
        for task, payload in zip(tasks, payloads):
            if task.chunk is None:
                for variant, row in zip(task.variants, payload):
                    by_variant[variant] = row
            else:
                chunked.setdefault(task.variants[0], []).append(
                    (task.chunk[0], payload)
                )
        for variant, parts in chunked.items():
            parts.sort(key=lambda item: item[0])
            pieces = [payload for _, payload in parts]
            config, channels = self.variant_setup(variant)
            count = sum(p["count"] for p in pieces)
            if config.has_coalescer:
                assert config.coalescer is not None
                window = config.coalescer.window
                cand = np.concatenate([p["cand"] for p in pieces])
                cand_win = np.concatenate([p["cand_win"] for p in pieces])
                elem_txns, tags = resolve_window_carry(
                    cand, cand_win, (count - 1) // window + 1
                )
            else:
                tags = np.concatenate([p["tags"] for p in pieces if p["count"]])
                elem_txns = count
            metrics = fast_metrics_from_tags(
                count, elem_txns, tags, config, dram, variant, channels
            )
            by_variant[variant] = self.row(group_key, variant, metrics, dram)
        return [by_variant[variant] for variant in variants]


class MultiChannelBackend(AdapterBackend):
    """Multi-channel DRAM sweeps: the MLP256 adapter in front of an
    N-channel block-interleaved HBM (``variant`` = ``"ch<N>"``).

    The adapter backend, sharding included, run at the variant's
    channel count: ``model="fast"`` prices one bank-state timeline per
    channel, ``model="cycle"`` wires the cycle adapter to a
    :class:`~repro.mem.multichannel.MultiChannelMemory`.  Only the
    variant interpretation and the row schema differ.
    """

    kind = MULTICHANNEL_KIND
    display_columns = (
        "matrix", "variant", "channels", "indir_gbps", "peak_gbps",
        "bw_utilization", "cycles",
    )

    def variant_setup(self, variant: str) -> tuple[AdapterConfig, int]:
        if not (variant.startswith("ch") and variant[2:].isdigit()):
            raise ExperimentError(
                f"multichannel variants are 'ch<N>' labels, got {variant!r}"
            )
        channels = int(variant[2:])
        if channels < 1:
            raise ExperimentError("channel count must be >= 1")
        return variant_config("MLP256"), channels

    def row(self, group_key, variant, metrics, dram) -> dict:
        kind, matrix, fmt, max_nnz, model = group_key
        channels = int(metrics.extras.get("channels", 1.0))
        peak = channels * dram.peak_bandwidth_gbps
        return {
            "kind": kind,
            "matrix": matrix,
            "format": fmt,
            "variant": variant,
            "model": model,
            "max_nnz": max_nnz,
            "channels": channels,
            "count": metrics.count,
            "cycles": metrics.cycles,
            "idx_txns": metrics.idx_txns,
            "elem_txns": metrics.elem_txns,
            "indir_gbps": metrics.indirect_bw_gbps,
            "peak_gbps": peak,
            "bw_utilization": min(
                1.0, (metrics.elem_bw_gbps + metrics.idx_bw_gbps) / peak
            ),
        }


# -- system backend ---------------------------------------------------------


class SystemBackend(SweepBackend):
    """End-to-end SpMV systems (Figs. 5a/5b/6b); variant sharding only
    (each system run is a monolithic simulation)."""

    kind = SYSTEM_KIND
    index_stream = False
    display_columns = (
        "matrix", "system", "runtime_cycles", "gflops", "traffic_vs_ideal",
        "bw_utilization",
    )

    def check_variant(self, variant: str) -> None:
        from ..vpc import PACK_SYSTEMS

        if variant != "base":
            try:
                variant_config(PACK_SYSTEMS.get(variant, variant))
            except ConfigError:
                raise ExperimentError(
                    f"unknown system {variant!r}; expected base, "
                    f"{', '.join(PACK_SYSTEMS)} or an adapter variant"
                ) from None

    def run_group(
        self, group_key: tuple, variants: tuple[str, ...], cache: AnalysisCache
    ) -> list[dict]:
        # Imported here so adapter-only sweeps never pay for the vpc stack.
        from ..vpc import BaselineSystem, PACK_SYSTEMS, PackSystem

        kind, matrix, fmt, max_nnz, model = group_key
        spec = get_spec(matrix)
        csr = cache.matrix(matrix, max_nnz)
        rows = []
        for system in variants:
            if system == "base":
                result = BaselineSystem().run(
                    csr, matrix, llc_scale=csr.nrows / spec.n
                )
            else:
                variant = PACK_SYSTEMS.get(system, system)
                result = PackSystem(variant, adapter_model=model, name=system).run(
                    csr, matrix
                )
            rows.append(
                {
                    "kind": kind,
                    "matrix": matrix,
                    "system": system,
                    "model": model,
                    "max_nnz": max_nnz,
                    "runtime_cycles": result.runtime_cycles,
                    "indirect_fraction": result.indirect_fraction,
                    "gflops": result.gflops,
                    "traffic_vs_ideal": result.traffic_vs_ideal,
                    "bw_utilization": result.bandwidth_utilization(),
                }
            )
        return rows


# -- scatter backend --------------------------------------------------------


class ScatterBackend(SweepBackend):
    """Indirect write (scatter) sweeps through the write coalescer."""

    kind = SCATTER_KIND
    display_columns = (
        "matrix", "variant", "scatter_gbps", "coal_rate", "wide_writes",
        "cycles",
    )

    def check_variant(self, variant: str) -> None:
        if not variant_config(variant).has_coalescer:
            raise ExperimentError(
                f"the scatter path requires a coalescer; {variant!r} has none"
            )

    def run_group(
        self, group_key: tuple, variants: tuple[str, ...], cache: AnalysisCache
    ) -> list[dict]:
        from ..axipack.scatter import fast_indirect_scatter, run_indirect_scatter

        kind, matrix, fmt, max_nnz, model = group_key
        dram = DramConfig()
        indices = cache.stream(matrix, fmt, max_nnz)
        rows = []
        for variant in variants:
            config = variant_config(variant)
            if model == "cycle":
                values = np.arange(indices.size, dtype=np.float64)
                metrics = run_indirect_scatter(indices, values, config, dram)
            else:
                analysis = cache.analysis(
                    matrix, fmt, max_nnz, dram.access_bytes // config.element_bytes
                )
                metrics = fast_indirect_scatter(
                    indices, config, dram, analysis=analysis
                )
            rows.append(
                {
                    "kind": kind,
                    "matrix": matrix,
                    "format": fmt,
                    "variant": variant,
                    "model": model,
                    "max_nnz": max_nnz,
                    "count": metrics.count,
                    "cycles": metrics.cycles,
                    "idx_txns": metrics.idx_txns,
                    "wide_writes": metrics.elem_txns,
                    "scatter_gbps": metrics.indirect_bw_gbps,
                    "coal_rate": metrics.coalesce_rate,
                }
            )
        return rows


# -- strided backend --------------------------------------------------------


class StridedBackend(SweepBackend):
    """AXI-Pack strided bursts (no index stream; ``variant`` =
    ``"s<stride bytes>"``, the point's ``max_nnz`` is the element
    count, ``matrix`` a free-form workload label)."""

    kind = STRIDED_KIND
    index_stream = False
    display_columns = (
        "matrix", "variant", "stride_bytes", "stream_gbps", "coal_rate",
        "elem_txns", "cycles",
    )

    def check_names(self, matrices, variants) -> None:
        super().check_names((), variants)  # matrix is a free-form label

    def check_variant(self, variant: str) -> None:
        from ..axipack.strided import StridedBurst

        StridedBurst(base=0, count=1, stride_bytes=self.stride_bytes(variant))

    @staticmethod
    def stride_bytes(variant: str) -> int:
        if not (variant.startswith("s") and variant[1:].isdigit()):
            raise ExperimentError(
                f"strided variants are 's<bytes>' labels, got {variant!r}"
            )
        return int(variant[1:])

    def run_group(
        self, group_key: tuple, variants: tuple[str, ...], cache: AnalysisCache
    ) -> list[dict]:
        from ..axipack.strided import (
            StridedBurst,
            fast_strided_stream,
            run_strided_stream,
        )

        kind, matrix, fmt, count, model = group_key
        dram = DramConfig()
        config = AdapterConfig()
        rows = []
        for variant in variants:
            burst = StridedBurst(
                base=0, count=count, stride_bytes=self.stride_bytes(variant)
            )
            if model == "cycle":
                metrics = run_strided_stream(burst, config, dram)
            else:
                metrics = fast_strided_stream(burst, config, dram)
            rows.append(
                {
                    "kind": kind,
                    "matrix": matrix,
                    "variant": variant,
                    "model": model,
                    "count": count,
                    "stride_bytes": burst.stride_bytes,
                    "cycles": metrics.cycles,
                    "elem_txns": metrics.elem_txns,
                    "stream_gbps": metrics.indirect_bw_gbps,
                    "coal_rate": metrics.coalesce_rate,
                }
            )
        return rows


# The built-in registrations.  Externally developed backends call
# register_backend() themselves (duplicate kinds are rejected).
register_backend(AdapterBackend())
register_backend(SystemBackend())
register_backend(MultiChannelBackend())
register_backend(ScatterBackend())
register_backend(StridedBackend())
