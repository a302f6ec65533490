"""Predecoded translation cache (tcache) for the execution engines.

The seed interpreter pays a full Python round-trip per guest instruction:
``core.fetch()`` (translate + cache model + bus read), a dict-probe
``decode()``, an interception probe, and ``execute()`` dispatch — even
though guest code is overwhelmingly straight-line loops re-executing the
same words.  The tcache amortises everything *before* ``execute()`` by
predecoding guest code into **basic blocks**: arrays of
``(instr, pc, flags)`` tuples ending at control flow,
``menter``/``mexit``, CSR/SYSTEM instructions, or any
architectural-feature instruction that could change an invariant blocks
are compiled under.  Every entry runs through
:func:`repro.cpu.executor.execute` — semantics stay single-sourced; only
the fetch/decode/probe work is cached.

Each block is run by MJIT-compiled code (:mod:`repro.cpu.jit`), built
at the block's first dispatch through the engine's batched fast loop,
or by the engine's guarded per-entry loop over the entry list.  Blocks
chain into **superblocks**: after a block exits through a pure
control-flow terminator (branch/jal/jalr, or the fall-through of a
length-limited block) the engine probes the namespace's block map at
the observed ``next_pc`` and runs the successor directly, never
returning to the dispatch loop; only a miss goes through
:meth:`TranslationCache.mem_block`/:meth:`~TranslationCache.mram_block`,
which compiles it.  The block map holds only valid blocks, so a chain
can never reach evicted code.  Only branch/jal/jalr terminators are
chainable: every other terminator (CSR, SYSTEM, Metal transitions,
architectural-feature instructions) can move an invariant the chain
was built under (interrupt enables, translation, interception,
halt/wfi), so those always return to the dispatcher.

Two block namespaces, one per fetch source, share one compiler and one
MJIT entry point; each block records its namespace in
``Block.ns``:

* ``mem`` — normal-mode code fetched from main memory.  Blocks are valid
  only while fetch translation is identity (paging off) and the
  interception table is empty; the engine checks both at dispatch time.
  Stores into pages holding compiled blocks (self-modifying code, program
  loads, DMA) evict those blocks via the write-notification hook on
  :class:`repro.mem.bus.MemoryBus` / :class:`repro.mem.memory.PhysicalMemory`.
* ``mram`` — Metal-mode code fetched from MRAM.  The whole namespace is
  invalidated when the MRAM code segment changes (mroutine load/unload;
  :class:`repro.metal.mram.Mram` bumps ``code_version``).

Invalidation protocol summary (see docs/PERF.md):

========================  =============================================
event                     effect
========================  =============================================
store / DMA to code page  evict every mem block registered on the page
mroutine load / unload    flush the mram namespace (lazy, via version)
intercept empty↔non-empty flush the mem namespace (and dispatch checks
                          ``intercept.empty`` every block, so stale
                          fast-path blocks can never run)
paging enabled            mem blocks bypassed at dispatch (no eviction
                          needed: block content is translation-free)
snapshot restore          full flush (RAM bytes replaced wholesale)
========================  =============================================

Superblock chains participate implicitly: every eviction path above
removes the victim blocks from their namespace's block map (marking
them ``valid = False`` for any executor still running one), and chains
only ever reach blocks through that map.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import BusError, DecodeError, MramError
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass

#: Entry flag bits (``flags`` element of a block entry tuple).
F_SYNC = 1    #: sync devices before executing (loads/stores may hit MMIO)
F_TERM = 2    #: terminator — the block ends after this entry
F_CSR = 4     #: latch ``core._timer_cycles`` before executing (CSR reads)
F_STORE = 8   #: may invalidate blocks — re-check validity afterwards

#: Invalidation granularity for the mem namespace (matches the MMU page).
PAGE_SHIFT = 12

#: Instruction classes that can never redirect control flow, trap into
#: Metal mode, or change a compile-time invariant; blocks flow through
#: them.  Everything else terminates the block.
_PLAIN_CLASSES = frozenset((
    InstrClass.ALU_IMM,
    InstrClass.ALU_REG,
    InstrClass.MULDIV,
    InstrClass.LUI,
    InstrClass.AUIPC,
    InstrClass.FENCE,
))

#: METAL-class mnemonics that are straight-line inside an mroutine:
#: register moves and MRAM *data*-segment accesses (which can never touch
#: devices or modify code, so they need neither sync nor validity checks).
_PLAIN_METAL_MNEMONICS = frozenset(("rmr", "wmr", "mld", "mst"))

#: Terminator classes a superblock chain may continue *through*: pure
#: control flow that cannot change interrupt enables, privilege,
#: translation, interception, or halt/wfi state.
_CHAIN_CLASSES = frozenset((
    InstrClass.BRANCH,
    InstrClass.JAL,
    InstrClass.JALR,
))


class Block:
    """One predecoded basic block."""

    __slots__ = ("ns", "start", "end", "entries", "valid", "chainable",
                 "jit_fn")

    def __init__(self, ns: str, start: int, end: int, entries,
                 chainable: bool = False):
        self.ns = ns              # fetch namespace: "mem" or "mram"
        self.start = start
        self.end = end            # byte address just past the last entry
        self.entries = entries    # list of (instr, pc, flags)
        self.valid = True
        #: MJIT-compiled function for this block, or None until its
        #: first dispatch through the batched fast loop.  Every eviction
        #: path that clears ``valid`` also drops this.
        self.jit_fn = None
        #: Whether the block's exit is eligible for chaining (branch/jal/
        #: jalr terminator, or the fall-through of a length-limited block).
        self.chainable = chainable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block {self.ns} [{self.start:#x}, {self.end:#x}) "
            f"{len(self.entries)} instrs valid={self.valid}>"
        )


def _classify(instr, mram: bool):
    """Return ``(flags, terminates)`` for one decoded instruction."""
    cls = instr.spec.cls
    if cls in _PLAIN_CLASSES:
        return 0, False
    if cls is InstrClass.LOAD:
        return F_SYNC, False
    if cls is InstrClass.STORE:
        return F_SYNC | F_STORE, False
    if mram and cls is InstrClass.METAL \
            and instr.mnemonic in _PLAIN_METAL_MNEMONICS:
        return 0, False
    flags = F_TERM
    if cls is InstrClass.CSR:
        flags |= F_CSR
    return flags, True


#: Micro-op IR kinds (first element of a :func:`uop_ir` tuple).  The
#: MJIT codegen (:mod:`repro.cpu.jit`) and the MVTV reference
#: (:mod:`repro.verify.uopsem`) both consume this IR, so which entries
#: are "plain", and with what operands and baked constants, is decided
#: exactly once.
IR_NOP = 0   #: (IR_NOP, 0, 0, 0, None) — fence, or a dead rd==x0 write
IR_IMM = 1   #: (IR_IMM, rd, rs1, imm, mnemonic) — reg-imm ALU op
IR_REG = 2   #: (IR_REG, rd, rs1, rs2, mnemonic) — reg-reg ALU op
IR_SET = 3   #: (IR_SET, rd, value, 0, None) — lui/auipc constant, folded


def uop_ir(instr, pc: int):
    """Shared micro-op IR for a *plain* unit-cost entry, or ``None``.

    MJIT renders it as Python source (``repro.cpu.jit``) and the MVTV
    reference reads it back (``repro.verify.uopsem``), so the compiler
    and its validator cannot drift on which entries are inlinable or
    what operands/constants they use.  Only entries that can never
    trap, never touch memory/devices, never redirect control and always
    cost the base fetch cycle qualify.
    """
    cls = instr.spec.cls
    rd = instr.rd
    if cls is InstrClass.ALU_IMM:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_IMM, rd, instr.rs1, instr.imm, instr.mnemonic)
    if cls is InstrClass.ALU_REG:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_REG, rd, instr.rs1, instr.rs2, instr.mnemonic)
    if cls is InstrClass.LUI:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_SET, rd, instr.imm & 0xFFFFFFFF, 0, None)
    if cls is InstrClass.AUIPC:
        if not rd:
            return (IR_NOP, 0, 0, 0, None)
        return (IR_SET, rd, (pc + instr.imm) & 0xFFFFFFFF, 0, None)
    if cls is InstrClass.FENCE:
        return (IR_NOP, 0, 0, 0, None)
    return None


class TranslationCache:
    """Per-engine cache of predecoded basic blocks, in two namespaces."""

    #: Longest block, in instructions.  Bounds compile latency and the
    #: interrupt-sampling work lost when a block aborts early.
    MAX_BLOCK_LEN = 64

    def __init__(self, stats):
        self.stats = stats
        #: Optional profiling sink (repro.profile.sink.TraceEventSink).
        #: When attached, compile/jit_compile/invalidate/flush events are
        #: reported for the exported timeline; ``None`` costs nothing on
        #: the hot paths (checked only on the cold branches).
        self.sink = None
        #: MJIT toggle (host-side, guest-invisible).  On, every block
        #: is compiled to specialized Python (repro.cpu.jit) at its first
        #: dispatch through the engine's batched fast loop; off, the
        #: engine runs every block through its guarded per-entry loop.
        self.jit = True
        self._mem = {}          # start pc -> Block
        self._mem_pages = {}    # page number -> set of start pcs
        self._mram = {}         # start offset -> Block
        self._mram_version = None
        #: Callable returning the proven in-bounds mld/mst site pcs of
        #: the loaded image (see MetalImage.proven_data_pcs), or None.
        self._mram_proven = None
        self._proven_pcs = frozenset()

    # ------------------------------------------------------------------
    # dispatch and compilation
    # ------------------------------------------------------------------
    def mem_block(self, pc: int, bus):
        """Cached (or freshly compiled) block starting at *pc*, or None."""
        block = self._mem.get(pc)
        if block is not None:
            self.stats.hits += 1
            return block
        self.stats.misses += 1
        if pc % 4:
            return None

        def fetch(p):
            # Never compile through a device region: device reads have
            # side effects, and instruction fetch from MMIO takes the
            # slow path anyway.
            if bus.is_device(p):
                raise BusError(p, "instruction fetch from device")
            return bus.read_u32(p)
        block = self._compile("mem", pc, fetch)
        if block is not None:
            pages = self._mem_pages
            for page in range(pc >> PAGE_SHIFT,
                              ((block.end - 1) >> PAGE_SHIFT) + 1):
                pages.setdefault(page, set()).add(pc)
        return block

    def set_mram_facts(self, proven) -> None:
        """Install the analysis-facts provider for the mram namespace.

        *proven* is a zero-argument callable returning the code pcs of
        ``mld``/``mst`` sites the MAS interval pass proved in-bounds,
        which licenses MJIT's per-site guard elision.  It is re-invoked
        whenever the MRAM code version changes, so ``reload_mroutines``
        naturally refreshes the facts along with the blocks they
        describe.
        """
        self._mram_proven = proven
        self._proven_pcs = frozenset(proven())

    def mram_block(self, pc: int, mram):
        """Cached (or freshly compiled) MRAM block at offset *pc*, or None."""
        version = mram.code_version
        if version != self._mram_version:
            # Lazy namespace invalidation: mroutine load/unload bumped the
            # code version since we last compiled.
            self._drop_all("mram", self._mram)
            self._mram_version = version
            # The new image has new routines — and new analysis facts.
            if self._mram_proven is not None:
                self._proven_pcs = frozenset(self._mram_proven())
        block = self._mram.get(pc)
        if block is not None:
            self.stats.hits += 1
            return block
        self.stats.misses += 1
        if pc % 4:
            return None
        return self._compile("mram", pc, mram.fetch)

    def _compile(self, ns: str, pc: int, fetch):
        """Predecode the block at *pc*, reading words through *fetch*
        (which raises BusError/MramError past the fetchable code)."""
        mram = ns == "mram"
        entries = []
        p = pc
        terminated = False
        while len(entries) < self.MAX_BLOCK_LEN:
            try:
                instr = decode(fetch(p))
            except (BusError, MramError, DecodeError):
                break
            flags, term = _classify(instr, mram)
            entries.append((instr, p, flags))
            p += 4
            if term:
                terminated = True
                break
        if not entries:
            return None
        # A length-limited (or decode/bus-bounded) block's only exit is
        # the fall-through, which is always chainable.
        chainable = not terminated or instr.spec.cls in _CHAIN_CLASSES
        block = Block(ns, pc, p, entries, chainable)
        (self._mram if mram else self._mem)[pc] = block
        self.stats.blocks_compiled += 1
        if self.sink is not None:
            self.sink.tcache_event("compile", ns, pc, len(entries))
        return block

    # ------------------------------------------------------------------
    # MJIT (repro.cpu.jit)
    # ------------------------------------------------------------------
    def jit_compile(self, block):
        """Compile *block* with MJIT and return the compiled function
        (also cached on ``block.jit_fn``).

        Called by the engine's fast loop at the block's first dispatch.
        An mram block is compiled with the interval pass's proven
        in-bounds site pcs, so the codegen elides the runtime bounds
        guard at exactly the accesses MAS licensed.
        """
        from repro.cpu import jit as mjit
        t0 = perf_counter()
        fn, memo_hit = mjit.compile_block(
            block, self._proven_pcs if block.ns == "mram" else frozenset())
        stats = self.stats
        stats.jit_compile_ms += (perf_counter() - t0) * 1e3
        stats.jit_blocks += 1
        stats.jit_memo_hits += memo_hit
        block.jit_fn = fn
        if self.sink is not None:
            self.sink.tcache_event("jit_compile", block.ns, block.start,
                                   len(block.entries))
        return fn

    def iter_jit_blocks(self):
        """Yield ``(ns, block)`` for every live compiled block.

        The MVTV translation validator (``repro.verify``) harvests the
        corpus through this: every block MJIT has compiled and not since
        invalidated, with the namespace label (``"mem"``/``"mram"``)
        the validator needs to pick the fetch latency and the
        proven-access facts (:attr:`proven_pcs`) that licensed it.
        """
        for table in (self._mem, self._mram):
            for block in table.values():
                if block.valid and block.jit_fn is not None:
                    yield block.ns, block

    @property
    def proven_pcs(self) -> frozenset:
        """The MAS-proven in-bounds mld/mst site pcs currently licensing
        MJIT guard elision in the mram namespace."""
        return self._proven_pcs

    def block_map(self, ns: str) -> dict:
        """Namespace *ns*'s block map (start pc -> Block).  It holds
        only valid blocks and keeps its identity for the cache's
        lifetime, so the engine binds it once per dispatch to chain."""
        return self._mram if ns == "mram" else self._mem

    def tier_of(self, ns: str, pc: int):
        """Execution tier of the cached block headed at *pc*: ``"jit"``
        once MJIT has compiled it, ``"guarded"`` while only the guarded
        per-entry loop has run it, or ``None`` when nothing is cached
        there.  Used by the MPROF hot-trace report to label traces with
        the tier that executed them."""
        block = self.block_map(ns).get(pc)
        if block is None or not block.valid:
            return None
        return "jit" if block.jit_fn is not None else "guarded"

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def on_ram_write(self, addr: int, length: int) -> None:
        """Write-notification hook: evict mem blocks on touched pages.

        Registered with :meth:`repro.mem.bus.MemoryBus.watch_writes`;
        fires for guest stores, host pokes, program loads and DMA alike.
        """
        pages = self._mem_pages
        if not pages:
            return
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            starts = pages.pop(page, None)
            if starts is None:
                continue
            blocks = self._mem
            sink = self.sink
            for start in starts:
                block = blocks.pop(start, None)
                if block is not None and block.valid:
                    block.valid = False
                    block.jit_fn = None
                    self.stats.invalidations += 1
                    if sink is not None:
                        sink.tcache_event("invalidate", "mem", start)

    def on_intercept_transition(self, active: bool) -> None:
        """Intercept table went empty↔non-empty: flush normal-mode blocks.

        Blocks are compiled under a "no interception" assumption; they
        must not survive the transition (the engine also re-checks
        ``intercept.empty`` at every block dispatch, so this flush is
        defence in depth rather than the only line).
        """
        self.flush_mem()

    def _drop_all(self, ns: str, table: dict) -> None:
        """Invalidate and forget every block of namespace *ns*.

        Blocks are marked invalid (not just unreachable) so an executor
        still running one escapes before its next stale entry.
        """
        if not table:
            return
        for block in table.values():
            block.valid = False
            block.jit_fn = None
        self.stats.invalidations += len(table)
        if self.sink is not None:
            self.sink.tcache_event("flush", ns, 0, len(table))
        table.clear()

    def flush_mem(self) -> None:
        self._drop_all("mem", self._mem)
        self._mem_pages.clear()
        self.stats.flushes += 1

    def flush_all(self) -> None:
        """Drop everything (snapshot restore, tests)."""
        self.flush_mem()
        self._drop_all("mram", self._mram)
        self._mram_version = None

    # ------------------------------------------------------------------
    @property
    def cached_blocks(self) -> int:
        return len(self._mem) + len(self._mram)
