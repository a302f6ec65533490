"""Host-side performance counters for the execution engines.

These counters measure the *simulator*, not the simulated machine: how
well the translation cache (:mod:`repro.cpu.tcache`) is doing, and how
many guest instructions the host retires per second of wall-clock time.
They are architecture-invisible — enabling or disabling the tcache never
changes guest-observable state, only these numbers.

Surfaced as ``FunctionalSimulator.perf`` / ``Machine.perf`` and printed
by ``benchmarks/common.perf_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Why instructions were kept out of the engine's batched fast loop, in
#: the order the engine tests them.  The first seven are the block
#: executor's eligibility rule (the guarded per-entry loop ran;
#: ``jit_off`` means the block was eligible but MJIT is switched off);
#: the last four are ``_fast_step``'s fall-backs to one-at-a-time
#: ``step()``.
DENIAL_REASONS = ("icache", "irq_poll", "stop_pc", "trace_hook",
                  "pipeline_timer", "budget", "jit_off", "tlb",
                  "intercept", "waiting", "no_block")
GUARDED_REASONS = DENIAL_REASONS[:7]

@dataclass
class TcacheStats:
    """Translation-cache counters (see :mod:`repro.cpu.tcache`)."""

    #: Basic blocks predecoded (both namespaces).
    blocks_compiled: int = 0
    #: Dispatches that found a cached block.
    hits: int = 0
    #: Dispatches that had to compile (or failed to compile) a block.
    misses: int = 0
    #: Blocks evicted by write notifications / MRAM reloads.
    invalidations: int = 0
    #: Whole-namespace flushes (intercept transitions, snapshot restore).
    flushes: int = 0
    #: Guest instructions retired through the block fast path.
    fast_instructions: int = 0
    #: Block transitions made inside one dispatch that found their
    #: successor already cached (including MJIT's internalised
    #: self-loop iterations); a successor that had to be compiled
    #: counts as a miss instead.
    chain_hits: int = 0
    #: Longest run of chained block transitions inside one dispatch.
    chain_longest: int = 0
    #: Blocks compiled by MJIT (repro.cpu.jit).
    jit_blocks: int = 0
    #: MJIT compiles whose code object came from the process-wide memo
    #: (only codegen and ``exec`` paid, no ``compile()``).
    jit_memo_hits: int = 0
    #: Guest instructions retired through MJIT-compiled code.
    jit_instructions: int = 0
    #: Host milliseconds spent inside the MJIT compiler (codegen,
    #: ``compile()`` on a memo miss, and ``exec``).
    jit_compile_ms: float = 0.0
    #: Instructions denied the batched fast loop, keyed by the first
    #: failing reason (:data:`DENIAL_REASONS`).
    denied: dict = field(
        default_factory=lambda: dict.fromkeys(DENIAL_REASONS, 0))

    @property
    def dispatches(self) -> int:
        """Block dispatches, including chained transitions (which reach
        their cached successor without returning to the run loop — the
        strongest form of hit)."""
        return self.hits + self.misses + self.chain_hits

    @property
    def hit_rate(self) -> float:
        total = self.dispatches
        return (self.hits + self.chain_hits) / total if total else 0.0

    def reset(self) -> None:
        fresh = TcacheStats()
        for f in fields(self):
            setattr(self, f.name, getattr(fresh, f.name))

    @property
    def fast_loop_instructions(self) -> int:
        """Instructions retired through the batched fast loop: the block
        path's total minus what its guarded loop retired."""
        return self.fast_instructions - sum(
            self.denied[reason] for reason in GUARDED_REASONS)

    @property
    def jit_dispatch_share(self) -> float:
        """Fraction of block-path instructions retired through MJIT."""
        total = self.fast_instructions
        return self.jit_instructions / total if total else 0.0


@dataclass
class PerfCounters:
    """Per-engine host-performance counters."""

    tcache: TcacheStats = field(default_factory=TcacheStats)
    #: Wall-clock seconds spent inside :meth:`FunctionalSimulator.run`.
    host_seconds: float = 0.0
    #: Guest instructions retired across all ``run`` calls.
    guest_instructions: int = 0

    @property
    def host_mips(self) -> float:
        """Guest instructions retired per host second, in millions."""
        if self.host_seconds <= 0.0:
            return 0.0
        return self.guest_instructions / self.host_seconds / 1e6

    @property
    def slow_instructions(self) -> int:
        """Instructions retired through the one-at-a-time path."""
        return max(0, self.guest_instructions - self.tcache.fast_instructions)

    def reset(self) -> None:
        self.tcache.reset()
        self.host_seconds = 0.0
        self.guest_instructions = 0

    def summary(self) -> str:
        """Human-readable multi-line counter dump."""
        tc = self.tcache
        return "\n".join([
            f"guest instructions : {self.guest_instructions}",
            f"host seconds       : {self.host_seconds:.3f}",
            f"host MIPS          : {self.host_mips:.3f}",
            f"tcache blocks      : {tc.blocks_compiled} compiled",
            f"tcache dispatches  : {tc.hits} hits / {tc.misses} misses "
            f"(hit rate {tc.hit_rate:.1%})",
            f"tcache invalidated : {tc.invalidations} blocks, "
            f"{tc.flushes} flushes",
            f"tcache chains      : {tc.chain_hits} chained transitions "
            f"(longest {tc.chain_longest})",
            f"tcache jit (MJIT)  : {tc.jit_blocks} blocks compiled "
            f"({tc.jit_memo_hits} memo hits, {tc.jit_compile_ms:.2f} ms), "
            f"{tc.jit_instructions} instrs compiled "
            f"({tc.jit_dispatch_share:.1%} of block path)",
            f"fast-path instrs   : {tc.fast_instructions} "
            f"({self.slow_instructions} slow)",
            "fast-loop denials  : " + (", ".join(
                f"{reason} {count}" for reason, count in tc.denied.items()
                if count) or "none"),
        ])
