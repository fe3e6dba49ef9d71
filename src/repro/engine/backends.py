"""Sweep backend protocol and registry.

A *backend* owns one :attr:`SweepPoint.kind`: it declares which
matrix and variant names it accepts (the base class builds every
kind's grid from them, :func:`grid_points`) and how to evaluate every
variant of one matrix group (:meth:`SweepBackend.run_group`).  The
executor (:mod:`repro.engine.executor`) is kind-agnostic — it buckets
points, has the base class split each bucket's variants into shard
tasks, schedules them, and hands the results back to the base class to
merge.

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

Sharding contract: a shard task is a contiguous chunk of one group's
variants, never a piece of a variant's stream, so every row is computed
whole by :meth:`SweepBackend.run_group`.  For any registered backend,
any shard count and any worker count, ``merge(split(...))`` reproduces
the serial result table **byte-for-byte**
(``tests/test_engine_backends.py`` property-tests this for every
registered kind).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..axipack.fastmodel import fast_indirect_stream
from ..axipack.metrics import AdapterMetrics
from ..config import AdapterConfig, DramConfig, variant_config
from ..errors import ConfigError, ExperimentError
from ..sparse.suite import DEFAULT_MAX_NNZ, get_spec, is_corpus_name
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
    """One schedulable unit of a sweep group: evaluate ``variants`` (a
    contiguous chunk of the group's variants) over the whole matrix."""

    group_key: tuple
    variants: tuple[str, ...]


class SweepBackend:
    """Protocol base for sweep backends (one per ``SweepPoint.kind``).

    Subclasses set :attr:`kind` and implement :meth:`run_group` and
    :meth:`check_variant`.  The base class splits a group's variant
    list into contiguous chunks (:meth:`split`) and merges by
    reassembling rows per variant (:meth:`merge`) — correct because a
    row depends only on its own variant.
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
        """Split one group's variants into at most ``shards`` contiguous
        chunks, one shard task each (one per variant when ``shards``
        exceeds the variant count)."""
        pieces = max(1, min(shards, len(variants)))
        if pieces == 1:
            return [ShardTask(group_key, tuple(variants))]
        bounds = np.linspace(0, len(variants), pieces + 1).astype(int)
        return [
            ShardTask(group_key, tuple(variants[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]

    def merge(
        self,
        group_key: tuple,
        variants: tuple[str, ...],
        tasks: list[ShardTask],
        payloads: list[list[dict]],
    ) -> list[dict]:
        """Reassemble the shard tasks' :meth:`run_group` rows, one per
        ``variants`` entry in order — the rows a serial run produces."""
        by_variant: dict[str, dict] = {}
        for task, rows in zip(tasks, payloads):
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


# -- adapter (multichannel, scatter) backends --------------------------------


class AdapterBackend(SweepBackend):
    """Fast-/cycle-model adapter sweeps: one variant's whole index
    stream per row, every variant of a group sharing the cached stream
    and its analysis."""

    kind = ADAPTER_KIND
    display_columns = (
        "matrix", "variant", "indir_gbps", "coal_rate", "elem_txns", "cycles",
    )

    # hooks the multichannel and scatter backends override ------------------

    def variant_setup(self, variant: str) -> tuple[AdapterConfig, int]:
        """(adapter config, memory channel count) for one variant."""
        return variant_config(variant), 1

    def run_cycle(
        self, indices: np.ndarray, config: AdapterConfig, dram: DramConfig,
        variant: str, channels: int,
    ) -> AdapterMetrics:
        """One variant's row metrics on the cycle model."""
        # The cycle model loads only for a cycle-model group.
        from ..axipack.adapter import run_indirect_stream

        return run_indirect_stream(
            indices, config, dram, variant=variant, channels=channels
        )

    def row(
        self, group_key: tuple, variant: str, metrics: AdapterMetrics,
        dram: DramConfig,
    ) -> dict:
        return {
            **self.point_columns(group_key, variant),
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

    @staticmethod
    def point_columns(group_key: tuple, variant: str) -> dict:
        """The columns naming a row's design point, first in every row
        of this backend and its subclasses."""
        kind, matrix, fmt, max_nnz, model = group_key
        return {
            "kind": kind, "matrix": matrix, "format": fmt, "variant": variant,
            "model": model, "max_nnz": max_nnz,
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
                metrics = self.run_cycle(indices, config, dram, variant, channels)
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


class MultiChannelBackend(AdapterBackend):
    """Multi-channel DRAM sweeps: the MLP256 adapter in front of an
    N-channel block-interleaved HBM (``variant`` = ``"ch<N>"``).

    The adapter backend run at the variant's channel count:
    ``model="fast"`` prices one bank-state timeline per channel,
    ``model="cycle"`` wires the cycle adapter to a
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
        if channels > np.iinfo(np.int64).max:
            raise ExperimentError(
                f"channel count of {variant[:40]!r} does not fit in int64"
            )
        return variant_config("MLP256"), channels

    def row(self, group_key, variant, metrics, dram) -> dict:
        channels = self.variant_setup(variant)[1]
        peak = channels * dram.peak_bandwidth_gbps
        return {
            **self.point_columns(group_key, variant),
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
    """End-to-end SpMV systems (Figs. 5a/5b/6b)."""

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
        sell = None  # built once, for the group's first pack system
        rows = []
        for system in variants:
            if system == "base":
                result = BaselineSystem().run(
                    csr, matrix, llc_scale=csr.nrows / spec.n
                )
            else:
                variant = PACK_SYSTEMS.get(system, system)
                pack = PackSystem(variant, adapter_model=model, name=system)
                if sell is None:
                    sell = csr.to_sell(32)
                analysis = None
                if model == "fast":
                    # Fig. 3's SELL stream: its memory terms are shared.
                    # A cold cache takes the stream from this SELL, so
                    # the group builds SELL-32 once.
                    analysis = cache.analysis(
                        matrix, "sell", max_nnz,
                        pack.dram.access_bytes // pack.adapter_config.element_bytes,
                        known=sell.index_stream(),
                    )
                result = pack.run(sell, matrix, analysis=analysis)
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


class ScatterBackend(AdapterBackend):
    """Indirect write (scatter) sweeps through the write coalescer.

    The adapter backend with the write path on the cycle model
    (:func:`~repro.axipack.scatter.run_indirect_scatter`); the fast
    model prices a scatter as the gather over the same stream, so the
    fast path and the cached analysis are the adapter backend's.  Only
    the coalescer requirement and the row schema differ.
    """

    kind = SCATTER_KIND
    display_columns = (
        "matrix", "variant", "scatter_gbps", "coal_rate", "wide_writes",
        "cycles",
    )

    def variant_setup(self, variant: str) -> tuple[AdapterConfig, int]:
        config = variant_config(variant)
        if not config.has_coalescer:
            raise ExperimentError(
                f"the scatter path requires a coalescer; {variant!r} has none"
            )
        return config, 1

    def run_cycle(self, indices, config, dram, variant, channels) -> AdapterMetrics:
        from ..axipack.scatter import run_indirect_scatter

        values = np.arange(indices.size, dtype=np.float64)
        return run_indirect_scatter(indices, values, config, dram)

    def row(self, group_key, variant, metrics, dram) -> dict:
        return {
            **self.point_columns(group_key, variant),
            "count": metrics.count,
            "cycles": metrics.cycles,
            "idx_txns": metrics.idx_txns,
            "wide_writes": metrics.elem_txns,
            "scatter_gbps": metrics.indirect_bw_gbps,
            "coal_rate": metrics.coalesce_rate,
        }


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
