"""Fully-associative software-managed TLB.

The TLB is the only translation structure in the machine (see the package
docstring).  It supports:

* ASIDs — entries from several address spaces coexist; ``current_asid``
  selects which non-global entries match (§2.3).
* Page keys — a 4-bit key per entry indexes the page-key rights register
  (``pkr``), allowing batch permission changes without touching entries.
* A user bit (PERM_U) — the CPU passes ``user=True`` when translating on
  behalf of software running at a Metal-defined user privilege level, and
  supervisor-only pages then fault.  The *meaning* of privilege levels is
  defined entirely by mroutines (§3.1); the TLB only stores the bit.

Replacement is round-robin, which is what simple hardware TLBs do.
"""

from __future__ import annotations

from repro.isa.metal_ops import (
    PAGE_SHIFT,
    PERM_U,
    pkr_rights,
)
from repro.mmu.types import AccessType, FaultKind, TlbEntry, TranslationFault


class Tlb:
    """A fully-associative TLB with *entries* slots."""

    def __init__(self, entries: int = 32):
        self.capacity = entries
        self.entries = []        # list[TlbEntry]
        self._replace_ptr = 0
        self.current_asid = 0
        self.pkr = 0             # page-key rights register
        self.enabled = False     # paging off at reset
        # statistics
        self.hits = 0
        self.misses = 0
        self.protection_faults = 0
        self.key_faults = 0

    # ------------------------------------------------------------------
    # configuration (driven by Metal instructions)
    # ------------------------------------------------------------------
    def insert(self, entry: TlbEntry) -> None:
        """Insert *entry*, evicting round-robin when full.

        An existing entry for the same (vpn, asid/global) is replaced in
        place so stale duplicates can never shadow a refill.
        """
        for i, existing in enumerate(self.entries):
            if existing.vpn == entry.vpn and (
                existing.global_ or entry.global_ or existing.asid == entry.asid
            ):
                self.entries[i] = entry
                return
        if len(self.entries) < self.capacity:
            self.entries.append(entry)
            return
        self.entries[self._replace_ptr] = entry
        self._replace_ptr = (self._replace_ptr + 1) % self.capacity

    def invalidate(self, vpn: int, asid: int) -> bool:
        """Drop the entry matching (vpn, asid); returns True if one existed."""
        for i, entry in enumerate(self.entries):
            if entry.matches(vpn, asid):
                del self.entries[i]
                if self._replace_ptr > len(self.entries):
                    self._replace_ptr = 0
                return True
        return False

    def flush(self, asid: int = None) -> int:
        """Drop all entries (or only those of *asid*); returns count dropped."""
        if asid is None:
            dropped = len(self.entries)
            self.entries = []
        else:
            keep = [e for e in self.entries if e.global_ or e.asid != asid]
            dropped = len(self.entries) - len(keep)
            self.entries = keep
        self._replace_ptr = 0
        return dropped

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def lookup(self, vpn: int):
        """Return the matching entry for *vpn* under the current ASID."""
        for entry in self.entries:
            if entry.matches(vpn, self.current_asid):
                return entry
        return None

    def translate(self, va: int, access: AccessType, user: bool = False) -> int:
        """Translate *va*; returns the physical address.

        Raises :class:`TranslationFault` on miss, permission violation or
        page-key denial.  When paging is disabled, translation is identity.
        """
        if not self.enabled:
            return va & 0xFFFFFFFF
        vpn = (va & 0xFFFFFFFF) >> PAGE_SHIFT
        entry = self.lookup(vpn)
        if entry is None:
            self.misses += 1
            raise TranslationFault(va, access, FaultKind.MISS)
        if not entry.perms & access.required_perm:
            self.protection_faults += 1
            raise TranslationFault(va, access, FaultKind.PROTECTION)
        if user and not entry.perms & PERM_U:
            self.protection_faults += 1
            raise TranslationFault(va, access, FaultKind.PROTECTION)
        if entry.key:
            access_disabled, write_disabled = pkr_rights(self.pkr, entry.key)
            if access_disabled or (write_disabled and access is AccessType.STORE):
                self.key_faults += 1
                raise TranslationFault(va, access, FaultKind.KEY)
        self.hits += 1
        return (entry.ppn << PAGE_SHIFT) | (va & ((1 << PAGE_SHIFT) - 1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"<Tlb paging={state} asid={self.current_asid} "
            f"{len(self.entries)}/{self.capacity} entries>"
        )
