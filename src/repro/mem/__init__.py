"""Memory substrate: backing store, ideal memory, the HBM2 channel
model that replaces the paper's DRAMSys co-simulation, and the
bank-state service timeline the fast models price DRAM with.

Only the timeline loads with the package; the cycle-level models load
on first use of one of their names."""

from ..lazy import lazy_exports
from .timeline import TimelineResult, service_timeline

__getattr__ = lazy_exports(__name__, {
    "BackingStore": ".backing_store",
    "DramChannel": ".dram",
    "IdealMemory": ".ideal",
    "MultiChannelMemory": ".multichannel",
    "ReorderBuffer": ".reorder",
    "MemRequest": ".request",
    "MemResponse": ".request",
})

__all__ = [
    "BackingStore",
    "DramChannel",
    "IdealMemory",
    "MultiChannelMemory",
    "ReorderBuffer",
    "MemRequest",
    "MemResponse",
    "TimelineResult",
    "service_timeline",
]
