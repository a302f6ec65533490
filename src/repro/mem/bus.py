"""The system bus: routes physical accesses to RAM regions and devices."""

from __future__ import annotations

from repro.errors import BusError
from repro.mem.memory import PhysicalMemory


class MemoryBus:
    """Physical address space composed of RAM regions and MMIO devices.

    Lookup order is registration order; regions must not overlap (checked
    at attach time).  The bus also fans out ``tick()`` and interrupt-line
    polling to attached devices.
    """

    def __init__(self):
        self.regions = []   # list of (region, is_device)
        self.devices = []   # devices only, for tick/irq fan-out
        # Fast path: most accesses hit the first RAM region.
        self._ram0 = None
        # Write-notification fan-out (translation-cache invalidation).
        self._write_watchers = []

    # -- configuration ------------------------------------------------------
    def attach_ram(self, base: int, size: int) -> PhysicalMemory:
        """Create and attach a RAM region; returns it."""
        ram = PhysicalMemory(size, base=base)
        self._attach(ram, is_device=False)
        if self._ram0 is None:
            self._ram0 = ram
        if self._write_watchers:
            ram.write_hook = self._region_hook()
        return ram

    def watch_writes(self, fn) -> None:
        """Register ``fn(addr, length)`` to observe every RAM mutation.

        Covers guest stores, host pokes and device DMA alike (they all
        land in a :class:`PhysicalMemory` region).  Used by the
        translation cache to evict blocks over modified code pages; RAM
        regions pay a single attribute test per write until the first
        watcher registers.
        """
        if fn not in self._write_watchers:
            self._write_watchers.append(fn)
        hook = self._region_hook()
        for region, is_device in self.regions:
            if not is_device:
                region.write_hook = hook

    def _region_hook(self):
        # Single watcher (the common case) is wired in directly so a
        # guest store pays one call, not a fan-out loop.
        watchers = self._write_watchers
        return watchers[0] if len(watchers) == 1 else self._notify_write

    def _notify_write(self, addr: int, length: int) -> None:
        for fn in self._write_watchers:
            fn(addr, length)

    def attach_device(self, device) -> None:
        """Attach an MMIO device (anything with the MmioDevice interface)."""
        self._attach(device, is_device=True)
        self.devices.append(device)

    def _attach(self, region, is_device: bool) -> None:
        new_lo = region.base
        new_hi = region.base + region.size
        for existing, _ in self.regions:
            lo, hi = existing.base, existing.base + existing.size
            if new_lo < hi and lo < new_hi:
                raise BusError(
                    new_lo,
                    f"overlaps existing region at [{lo:#x}, {hi:#x})",
                )
        self.regions.append((region, is_device))

    # -- routing --------------------------------------------------------------
    def _route(self, addr: int):
        ram0 = self._ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return ram0
        for region, _ in self.regions:
            if region.contains(addr):
                return region
        raise BusError(addr)

    def is_device(self, addr: int) -> bool:
        """True if *addr* routes to an MMIO device (timing differs)."""
        ram0 = self._ram0
        if ram0 is not None and ram0.base <= addr < ram0.base + ram0.size:
            return False
        for region, is_dev in self.regions:
            if region.contains(addr):
                return is_dev
        return False

    # -- access methods ---------------------------------------------------------
    def read_u8(self, addr: int) -> int:
        return self._route(addr).read_u8(addr)

    def read_u16(self, addr: int) -> int:
        return self._route(addr).read_u16(addr)

    def read_u32(self, addr: int) -> int:
        return self._route(addr).read_u32(addr)

    def write_u8(self, addr: int, value: int) -> None:
        self._route(addr).write_u8(addr, value)

    def write_u16(self, addr: int, value: int) -> None:
        self._route(addr).write_u16(addr, value)

    def write_u32(self, addr: int, value: int) -> None:
        self._route(addr).write_u32(addr, value)

    def read_bytes(self, addr: int, length: int) -> bytes:
        region = self._route(addr)
        if not hasattr(region, "read_bytes"):
            raise BusError(addr, "bulk access to device")
        return region.read_bytes(addr, length)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        region = self._route(addr)
        if not hasattr(region, "write_bytes"):
            raise BusError(addr, "bulk access to device")
        region.write_bytes(addr, payload)

    # -- device fan-out ------------------------------------------------------------
    def tick(self, cycles: int) -> None:
        """Advance all attached devices by *cycles*."""
        for device in self.devices:
            device.tick(cycles)
