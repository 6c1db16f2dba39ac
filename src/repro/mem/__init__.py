"""Memory substrate: address map, PCM timing, the NVM device, on-chip
caches, the write pending queue, and the memory-access trace format."""

from repro.mem.address import AddressMap, CACHE_LINE_SIZE, Region
from repro.mem.cache import CacheStats, SetAssociativeCache, TagCache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.nvm import NVMDevice
from repro.mem.timing import PCMTiming, TimingModel
from repro.mem.trace import AccessType, MemoryAccess, TraceStats
from repro.mem.wpq import WritePendingQueue

__all__ = [
    "AddressMap",
    "CACHE_LINE_SIZE",
    "Region",
    "SetAssociativeCache",
    "TagCache",
    "CacheStats",
    "CacheHierarchy",
    "NVMDevice",
    "PCMTiming",
    "TimingModel",
    "AccessType",
    "MemoryAccess",
    "TraceStats",
    "WritePendingQueue",
]
