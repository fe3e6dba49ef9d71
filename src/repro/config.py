"""Model configuration dataclasses (paper Table I).

Every simulated subsystem takes its parameters from one of these
dataclasses.  The defaults reproduce Table I of the paper:

===========================  ==================================================
Model                        Parameter
===========================  ==================================================
AXI-Pack adapter             queue depth = 256 (index), 2 (up/downsizer),
                             128 (hitmap), 2048/W (offsets);
                             on-chip storage = 27 KB (W = 256)
Vector processor system      16 lanes, 1 GHz, 384 KB L2
DRAM and controller          one HBM2 channel, 1 GHz, 32 GB/s (ideal);
                             schedule policy: open adaptive, FR-FCFS
===========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .units import KIB, MIB, is_power_of_two


@dataclass(frozen=True)
class DramConfig:
    """One HBM2 pseudo-channel and its controller.

    The channel moves ``bus_bytes_per_cycle`` bytes per controller cycle
    at peak (32 B/cycle at 1 GHz = 32 GB/s) and serves requests at a
    granularity of ``access_bytes`` (512 b = 64 B).
    """

    access_bytes: int = 64
    bus_bytes_per_cycle: int = 32
    freq_hz: float = 1.0e9
    num_banks: int = 16
    row_bytes: int = 1024
    #: activate-to-read delay (tRCD) in controller cycles.
    t_rcd: int = 14
    #: precharge delay (tRP) in controller cycles.
    t_rp: int = 14
    #: read CAS latency (tCL) in controller cycles.
    t_cl: int = 14
    #: data burst occupancy of one access on the bus, in cycles.
    t_burst: int = 2
    #: minimum activate-to-activate spacing for one bank (tRC).
    t_rc: int = 45
    #: controller request queue capacity.
    queue_depth: int = 32
    #: idle cycles after which the open-adaptive policy closes a row.
    close_idle_cycles: int = 64
    #: refresh interval (tREFI) in controller cycles; 0 disables refresh.
    t_refi: int = 3900
    #: refresh duration (tRFC) in controller cycles; closes all rows.
    t_rfc: int = 350

    def __post_init__(self) -> None:
        if self.access_bytes % self.bus_bytes_per_cycle:
            raise ConfigError("access granularity must be a multiple of the bus width")
        if not is_power_of_two(self.num_banks):
            raise ConfigError("bank count must be a power of two")
        if self.row_bytes % self.access_bytes:
            raise ConfigError("row size must be a multiple of the access granularity")
        if self.t_burst != self.access_bytes // self.bus_bytes_per_cycle:
            raise ConfigError("t_burst must equal access_bytes / bus_bytes_per_cycle")

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Ideal channel bandwidth in GB/s."""
        return self.bus_bytes_per_cycle * self.freq_hz / 1e9

    @property
    def blocks_per_row(self) -> int:
        return self.row_bytes // self.access_bytes


@dataclass(frozen=True)
class CoalescerConfig:
    """Request coalescer parameters (paper Sec. II-B).

    ``window`` is W, the number of narrow requests the regulator presents
    to the request watcher at once.  ``parallel`` selects the parallel
    watcher (all window entries matched against the CSHR per cycle); the
    sequential variant inspects one entry per cycle and accepts input on
    a single port, reproducing the paper's SEQx configuration.
    """

    window: int = 256
    parallel: bool = True
    #: upsizer / downsizer per-queue depth (Table I: 2).
    sizer_queue_depth: int = 2
    #: hitmap metadata queue depth (Table I: 128).
    hitmap_queue_depth: int = 128
    #: total offset-FIFO entries, split as 2048/W per queue (Table I).
    offsets_total_entries: int = 2048
    #: cycles the regulator waits before forwarding an incomplete
    #: window; 0 selects the default of 2*W (long enough that a window
    #: always fills mid-stream even when index fetching is
    #: bandwidth-limited, so partial windows only occur at stream tails).
    regulator_timeout: int = 0
    #: cycles the watchdog waits before force-issuing the open CSHR;
    #: 0 selects the default of 2*W.
    watchdog_timeout: int = 0

    def __post_init__(self) -> None:
        if not is_power_of_two(self.window):
            raise ConfigError("coalescer window W must be a power of two")
        if self.offsets_total_entries % self.window:
            raise ConfigError("offsets_total_entries must be divisible by W")
        if self.regulator_timeout == 0:
            object.__setattr__(self, "regulator_timeout", 2 * self.window)
        if self.watchdog_timeout == 0:
            object.__setattr__(self, "watchdog_timeout", 2 * self.window)

    @property
    def offsets_queue_depth(self) -> int:
        """Depth of each of the W shallow offset FIFOs (2048/W)."""
        return max(1, self.offsets_total_entries // self.window)


@dataclass(frozen=True)
class AdapterConfig:
    """AXI-Pack adapter (indirect stream unit) parameters.

    ``lanes`` is N, the number of parallel index lanes / narrow element
    request ports.  The upstream AXI-Pack bus is ``bus_bytes`` wide
    (512 b), so with 64 b elements the packer emits up to
    ``bus_bytes / element_bytes`` elements per beat.
    """

    lanes: int = 8
    bus_bytes: int = 64
    index_bytes: int = 4
    element_bytes: int = 8
    #: per-lane index queue depth (Table I: 256).
    index_queue_depth: int = 256
    #: maximum outstanding wide index-fetch requests.
    index_fetch_inflight: int = 8
    coalescer: CoalescerConfig | None = field(default_factory=CoalescerConfig)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.lanes):
            raise ConfigError("lane count N must be a power of two")
        if self.coalescer is not None and self.coalescer.window < self.lanes:
            raise ConfigError("coalescer window W must be >= lane count N")
        if self.bus_bytes % self.element_bytes:
            raise ConfigError("bus width must be a multiple of the element size")
        if self.index_bytes not in (2, 4, 8):
            raise ConfigError("index size must be 2, 4 or 8 bytes")

    @property
    def indices_per_block(self) -> int:
        """Indices contained in one wide DRAM block."""
        return self.bus_bytes // self.index_bytes

    @property
    def elements_per_beat(self) -> int:
        """Packed elements per upstream AXI-Pack beat."""
        return self.bus_bytes // self.element_bytes

    @property
    def has_coalescer(self) -> bool:
        return self.coalescer is not None


@dataclass(frozen=True)
class VpcConfig:
    """CVA6 + Ara vector processor system parameters (paper Sec. II-C)."""

    lanes: int = 16
    freq_hz: float = 1.0e9
    l2_spm_bytes: int = 384 * KIB
    #: number of equally sized arrays allocated in the L2 SPM
    #: (slice pointers, results, 2x nonzeros, 2x indexed vector).
    l2_num_arrays: int = 6
    #: outstanding prefetch requests supported by the L2 prefetcher.
    prefetch_inflight: int = 2
    #: issued vector-instruction startup overhead in cycles.
    vector_issue_overhead: int = 6
    #: per-slice bookkeeping overhead (pointer handling, vsetvl).
    slice_overhead_cycles: int = 10
    #: per-tile synchronisation: the VPC interrupts execution when the
    #: slice-pointer array depletes or the result array fills, then
    #: signals the prefetcher to refresh the L2 SPM (Sec. II-C).
    tile_sync_cycles: int = 600

    @property
    def l2_array_bytes(self) -> int:
        """Capacity of each of the six SPM arrays."""
        return self.l2_spm_bytes // self.l2_num_arrays


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline system: 1 MiB LLC, naive coupled CSR SpMV (Sec. III)."""

    llc_bytes: int = 1 * MIB
    llc_ways: int = 8
    line_bytes: int = 64
    #: average DRAM miss latency seen by the core, in cycles.
    miss_latency: int = 100
    #: outstanding misses the coupled gather pipeline sustains.
    gather_mlp: int = 6
    #: cycles per gather element when it hits on chip.  The baseline
    #: VPC has no vector data cache: every gather element is an AXI
    #: round trip from the VLSU to the LLC with limited overlap, which
    #: Ara sustains at roughly one element per five cycles.
    gather_hit_cpi: float = 5.0

    def __post_init__(self) -> None:
        if self.llc_bytes % (self.llc_ways * self.line_bytes):
            raise ConfigError("LLC size must divide evenly into ways * lines")

    @property
    def num_sets(self) -> int:
        return self.llc_bytes // (self.llc_ways * self.line_bytes)


def mlp_config(window: int, lanes: int = 8) -> AdapterConfig:
    """Adapter with an x-window *parallel* coalescer (paper ``MLPx``)."""
    return AdapterConfig(
        lanes=lanes, coalescer=CoalescerConfig(window=window, parallel=True)
    )


def seq_config(window: int, lanes: int = 8) -> AdapterConfig:
    """Adapter with an x-window *sequential* coalescer (paper ``SEQx``)."""
    return AdapterConfig(
        lanes=lanes, coalescer=CoalescerConfig(window=window, parallel=False)
    )


def nocoalescer_config(lanes: int = 8) -> AdapterConfig:
    """Adapter without a coalescer (paper ``MLPnc``)."""
    return AdapterConfig(lanes=lanes, coalescer=None)


#: Named adapter variants used throughout the paper's evaluation.
PAPER_ADAPTER_VARIANTS: dict[str, AdapterConfig] = {
    "MLPnc": nocoalescer_config(),
    "MLP8": mlp_config(8),
    "MLP16": mlp_config(16),
    "MLP32": mlp_config(32),
    "MLP64": mlp_config(64),
    "MLP128": mlp_config(128),
    "MLP256": mlp_config(256),
    "SEQ256": seq_config(256),
}


def variant_config(name: str) -> AdapterConfig:
    """Look up a paper adapter variant by its label (e.g. ``"MLP64"``).

    Accepts any ``MLPx`` / ``SEQx`` label with a power-of-two window,
    not just the ones used in the paper's figures.
    """
    if name in PAPER_ADAPTER_VARIANTS:
        return PAPER_ADAPTER_VARIANTS[name]
    if name.startswith("MLP") and name[3:].isdigit():
        return mlp_config(int(name[3:]))
    if name.startswith("SEQ") and name[3:].isdigit():
        return seq_config(int(name[3:]))
    raise ConfigError(f"unknown adapter variant {name!r}")


def variant_label(config: AdapterConfig) -> str:
    """The ``MLPx`` / ``SEQx`` / ``MLPnc`` label of ``config`` (the
    inverse of :func:`variant_config`)."""
    if config.coalescer is None:
        return "MLPnc"
    prefix = "MLP" if config.coalescer.parallel else "SEQ"
    return f"{prefix}{config.coalescer.window}"


def with_window(config: AdapterConfig, window: int) -> AdapterConfig:
    """Return a copy of ``config`` with a different coalescer window."""
    if config.coalescer is None:
        raise ConfigError("cannot set a window on a coalescer-less adapter")
    return replace(config, coalescer=replace(config.coalescer, window=window))
