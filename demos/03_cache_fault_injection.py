"""Watch the cache corrupt data: stuck-at bits, transients, write-backs.

A 16-set, 2-way, 64 B-line cache is bound to a fault map; every request
that touches a faulty line gets the active faults applied to the stored
bytes, and dirty evictions carry the corruption into the backing store.
"""

from voltfi.cachesim import CacheGeometry, CacheModel, MainMemory, map_fault_to_cache
from voltfi.faultmap import BitLocation, CorruptionKind, FaultMap, FaultSpec, FaultTiming, SramGeometry

sram = SramGeometry()
geo = CacheGeometry()
mem = MainMemory(1 << 16)
cache = CacheModel(geo, mem)


def read_byte(c, addr):
    buf, off = c.load(addr, 1)
    return buf[off]


# a permanent stuck-at-0 on SRAM bit 3 lands on set 0, way 0, line bit 3
fault = FaultSpec(BitLocation(0, 3), FaultTiming.permanent(), CorruptionKind.STUCK_AT_0)
print("SRAM bit 3 ->", map_fault_to_cache(3, geo))
cache.install_fault_map(FaultMap("demo", 540, sram, (fault,)))

cache.store(0, b"\xff")
print(f"wrote 0xFF, read back 0x{read_byte(cache, 0):02X}  (bit 3 forced to 0)")

print(f"backing store before eviction: 0x{mem.buf[0]:02X}")
cache.load(1024, 1)   # same set, fills way 1
cache.load(2048, 1)   # evicts the dirty line
print(f"backing store after eviction:  0x{mem.buf[0]:02X}  (corruption escaped)")

# a transient bit flip fires once and disappears
cache2 = CacheModel(geo, MainMemory(1 << 16))
flip = FaultSpec(BitLocation(0, 0), FaultTiming.transient(3), CorruptionKind.BIT_FLIP)
cache2.install_fault_map(FaultMap("demo", 540, sram, (flip,)))
cache2.store(0, b"\x00")        # tick 1
print("\ntick 2 read:", hex(read_byte(cache2, 0)), "(before fire tick)")
print("tick 3 read:", hex(read_byte(cache2, 0)), "(flip fires)")
cache2.store(0, b"\x55")        # tick 4 rewrite
print("tick 5 read:", hex(read_byte(cache2, 0)), "(fault gone)")
print("bindings left:", cache2.fault_binding_count())
