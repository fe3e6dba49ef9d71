"""Memory substrate: backing store, ideal memory, the HBM2 channel
model that replaces the paper's DRAMSys co-simulation, and the
bank-state service timeline the fast models price DRAM with."""

from .backing_store import BackingStore
from .dram import DramChannel
from .ideal import IdealMemory
from .multichannel import MultiChannelMemory
from .reorder import ReorderBuffer
from .request import MemRequest, MemResponse
from .timeline import TimelineResult, service_timeline

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
