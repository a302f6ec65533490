"""The functional execution engine.

Instruction-at-a-time interpretation with an analytic cycle model
(:class:`SimpleTimer`).  This is the reference engine: the pipeline engine
reuses the same executor and differs only in how cycles are accounted.

The engine owns the *inter-instruction* architecture: interrupt sampling
(never inside Metal mode, paper §2.1), instruction interception (paper
§2.3), trap dispatch (to mroutines on a Metal machine, to ``mtvec`` on the
baseline), and WFI sleep.

With the translation cache on, guest code and mroutines run through one
block executor, :meth:`FunctionalSimulator._exec_block`, which differs
between the two fetch namespaces only in fetch latency (paper §2.2).
It has two loops: the batched fast loop, which runs each block as its
MJIT-compiled function (:mod:`repro.cpu.jit`) and chains across
blocks, and the guarded per-entry loop.  One eligibility rule picks
between them from observable facts: no trace hook, a
:class:`SimpleTimer`, a budget covering the block and, for
guest-memory blocks only, no I-cache, no pollable interrupt and no
``stop_pc``; with MJIT switched off every block takes the guarded
loop.  Instructions kept out of the fast loop are counted per reason
in ``perf.tcache.denied``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.errors import (
    DecodeError,
    ExecutionLimitExceeded,
    GuestPanic,
    HaltedError,
)
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.executor import StepInfo, execute
from repro.cpu.stats import PerfCounters
from repro.cpu.tcache import F_CSR, F_STORE, F_SYNC, F_TERM, TranslationCache
from repro.cpu.timing import CONTROL_PENALTY, MULDIV_EXTRA, TimingModel
from repro.isa.decoder import decode
from repro.isa.instruction import InstrClass
from repro.profile.sink import StepHub

_MULDIV = InstrClass.MULDIV

#: Effectively-unbounded chain quantum used when no profiler is attached.
_CHAIN_UNLIMITED = 1 << 62


class SimpleTimer:
    """Analytic per-instruction cycle model.

    Approximates a 5-stage pipeline: one cycle per instruction, plus fetch
    latency beyond one cycle, plus data-memory latency beyond the one
    cycle the MEM stage hides, plus class/control penalties.
    """

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.cycles = 0

    def cost(self, step: StepInfo) -> int:
        """Cycles one retired instruction costs.

        The model's only statement of its formula: :meth:`note` and
        MJIT's generic entries both charge through it.
        """
        timing = self.timing
        fetch = step.fetch_latency
        cost = fetch if fetch > 1 else 1
        if step.mem_latency > 1:
            cost += step.mem_latency - 1
        if step.cls is _MULDIV:
            cost += getattr(timing, MULDIV_EXTRA[step.mnemonic])
        if step.control is not None:
            cost += getattr(timing, CONTROL_PENALTY[step.control])
        return cost

    def note(self, step: StepInfo) -> None:
        self.cycles += self.cost(step)

    def note_event(self, cycles: int) -> None:
        """Charge raw cycles (trap dispatch, redirects, idle waits)."""
        self.cycles += cycles

    def note_trap(self, metal: bool) -> None:
        if metal:
            self.note_event(self.timing.delivery_redirect)
        else:
            self.note_event(self.timing.trap_flush)

    def note_intercept(self) -> None:
        self.note_event(self.timing.intercept_redirect)


@dataclass
class RunResult:
    """Summary of one :meth:`FunctionalSimulator.run` call."""

    instructions: int
    cycles: int
    halted: bool
    stop_reason: str

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class FunctionalSimulator:
    """Reference engine: functional semantics + analytic timing.

    With the translation cache enabled (the default) the engine runs
    predecoded basic blocks of either namespace between interrupt /
    intercept sample points, chaining blocks into superblocks across
    pure control flow so hot traces never return to the dispatch loop;
    :meth:`step` remains the one-instruction-at-a-time reference path
    and both paths produce bit-identical architectural state,
    instruction counts and cycle counts (see docs/PERF.md).
    """

    #: Safety valve for WFI with no event source.
    MAX_WFI_CYCLES = 50_000_000

    #: Chained block transitions one dispatch may make while a profiler
    #: is attached.  Bounding the quantum keeps retired-trace records
    #: meaningful (a hot loop shows up as many records headed at its
    #: loop body instead of one run-length record headed at ``_start``)
    #: while amortising the per-record cost over dozens of blocks.
    PROFILE_CHAIN_QUANTUM = 64

    def __init__(self, core, timer=None, tcache: bool = True):
        self.core = core
        self.timer = timer or SimpleTimer(core.timing)
        self._ticked = 0
        #: Optional per-step hook: fn(StepInfo) (tracing/debugging).
        #: Prefer :meth:`add_step_hook`, which multiplexes this slot.
        self.trace_fn = None
        self._step_hub = None
        self._hub_dispatch = None
        #: Host-side performance counters (see repro.cpu.stats).
        self.perf = PerfCounters()
        self._tcache = TranslationCache(self.perf.tcache)
        #: Optional trace-profiling sink (repro.profile.sink); attach via
        #: :meth:`set_profile_sink`.  None keeps the run loops at one
        #: pointer test per retired trace.
        self._profile_sink = None
        self._profile_chain_limit = _CHAIN_UNLIMITED
        self._hooks_installed = False
        self._tcache_enabled = False
        if tcache:
            self.tcache_enabled = True

    # ------------------------------------------------------------------
    @property
    def tcache_enabled(self) -> bool:
        """Whether ``run`` uses the predecoded-block fast path."""
        return self._tcache_enabled

    @tcache_enabled.setter
    def tcache_enabled(self, value: bool) -> None:
        value = bool(value)
        if value and not self._hooks_installed:
            self._install_tcache_hooks()
        self._tcache_enabled = value

    @property
    def tcache(self) -> TranslationCache:
        return self._tcache

    def flush_tcache(self) -> None:
        """Drop every compiled block (snapshot restore, tests)."""
        self._tcache.flush_all()

    # ------------------------------------------------------------------
    # profiling / per-step hooks (see repro.profile)
    # ------------------------------------------------------------------
    @property
    def profile_sink(self):
        """The attached trace-event sink, or None (profiling off)."""
        return self._profile_sink

    def set_profile_sink(self, sink) -> None:
        """Attach (or with ``None`` detach) a trace-event sink.

        Guest-invisible: the sink only observes retirements and tcache
        events.  While attached, chained dispatches are bounded at
        :attr:`PROFILE_CHAIN_QUANTUM` block transitions per trace record
        — the same place a budget exhaustion would break the chain, so
        architectural state, instruction counts and cycle counts are
        bit-identical with profiling on or off.
        """
        self._profile_sink = sink
        self._tcache.sink = sink
        if sink is not None:
            timer = self.timer
            sink.clock = lambda: timer.cycles
            self._profile_chain_limit = self.PROFILE_CHAIN_QUANTUM
        else:
            self._profile_chain_limit = _CHAIN_UNLIMITED

    def add_step_hook(self, fn) -> None:
        """Subscribe *fn(StepInfo)* to the per-step event stream.

        Multiplexes the single ``trace_fn`` slot through a
        :class:`repro.profile.sink.StepHub` so tracers, debuggers and
        profilers can coexist; a raw ``trace_fn`` someone installed by
        hand is absorbed into the hub and keeps firing.
        """
        hub = self._step_hub
        if hub is None:
            hub = self._step_hub = StepHub()
            # Bind once: ``hub.dispatch`` makes a fresh bound method per
            # access, which would defeat the identity tests below.
            self._hub_dispatch = hub.dispatch
        if self.trace_fn is not self._hub_dispatch:
            if self.trace_fn is not None:
                hub.fns.append(self.trace_fn)
            self.trace_fn = self._hub_dispatch
        hub.fns.append(fn)

    def remove_step_hook(self, fn) -> None:
        """Unsubscribe *fn*; clears ``trace_fn`` when no hooks remain."""
        hub = self._step_hub
        if hub is None:
            return
        try:
            hub.fns.remove(fn)
        except ValueError:
            return
        if not hub.fns and self.trace_fn is self._hub_dispatch:
            self.trace_fn = None

    def _install_tcache_hooks(self) -> None:
        core = self.core
        tcache = self._tcache
        core.bus.watch_writes(tcache.on_ram_write)
        metal = core.metal
        if metal is not None:
            # The layered (nested-Metal) intercept view exposes no
            # observer API; its dispatch-time ``empty`` check is the
            # guard there.
            watch = getattr(metal.intercept, "watch_transitions", None)
            if watch is not None:
                watch(tcache.on_intercept_transition)
            # MAS-proven mld/mst sites license MJIT's guard elision.
            # Read through ``metal.image`` at call time so
            # reload_mroutines (which replaces the image object) is
            # picked up along with the code-version bump that re-invokes
            # the provider.
            def proven_pcs(metal=metal):
                image = getattr(metal, "image", None)
                getter = getattr(image, "proven_data_pcs", None)
                return getter() if getter is not None else ()
            tcache.set_mram_facts(proven_pcs)
        self._hooks_installed = True

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.timer.cycles

    def _sync_devices(self) -> None:
        delta = self.timer.cycles - self._ticked
        if delta > 0:
            self.core.bus.tick(delta)
            self._ticked = self.timer.cycles

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or take one interrupt/trap)."""
        core = self.core
        if core.halted:
            raise HaltedError("machine is halted")
        # expose cycle counter for rdcycle-style CSR reads
        core._timer_cycles = self.timer.cycles

        if core.waiting:
            self._wait_for_interrupt()
            if core.halted:
                return

        if self._maybe_take_interrupt():
            self._sync_devices()
            return

        pc = core.pc
        try:
            word, fetch_latency = core.fetch(pc)
        except TrapException as trap:
            self._dispatch_trap(trap, pc)
            self._sync_devices()
            return

        # Instruction interception (normal mode only, paper §2.3).
        metal = core.metal
        if metal is not None and not metal.in_metal and not metal.intercept.empty:
            metal.note_fetch(pc)
            entry = metal.intercept.match(word)
            if entry is not None:
                self.timer.note_event(fetch_latency)
                self.timer.note_intercept()
                # The decode stage had already read the instruction's
                # operands; hardware latches them for the handler.
                rs1_val = core.regs[(word >> 15) & 31]
                rs2_val = core.regs[(word >> 20) & 31]
                core.pc = metal.deliver(
                    Cause.INTERCEPT, pc, word, entry=entry,
                    operands=(rs1_val, rs2_val),
                )
                self._sync_devices()
                return

        try:
            instr = decode(word)
        except DecodeError:
            self._dispatch_trap(TrapException(Cause.ILLEGAL_INSTRUCTION, word), pc)
            self._sync_devices()
            return

        try:
            step = execute(core, instr, pc, fetch_latency=fetch_latency)
        except TrapException as trap:
            self._dispatch_trap(trap, pc)
            self._sync_devices()
            return

        core.pc = step.next_pc
        core.instret += 1
        self.timer.note(step)
        if self.trace_fn is not None:
            self.trace_fn(step)
        self._sync_devices()

    # ------------------------------------------------------------------
    def _dispatch_trap(self, trap: TrapException, pc: int) -> None:
        core = self.core
        metal = core.metal
        if metal is not None:
            if metal.in_metal:
                routine = metal.current_routine(pc)
                name = routine.name if routine else "?"
                raise GuestPanic(
                    f"double fault in mroutine {name!r} at MRAM+{pc:#x}: "
                    f"cause={trap.cause} info={trap.info:#x}"
                ) from trap
            # For illegal instructions, decode had already read the operand
            # registers; latch them (m25/m24) like an intercept so emulation
            # handlers (e.g. §3.5 trap-and-emulate virtualization) can see
            # the values without racing their own GPR spills.
            operands = None
            if trap.cause == Cause.ILLEGAL_INSTRUCTION:
                word = trap.info
                operands = (
                    core.regs[(word >> 15) & 31],
                    core.regs[(word >> 20) & 31],
                )
            core.pc = metal.deliver(trap.cause, epc=pc, info=trap.info,
                                    operands=operands)
            self.timer.note_trap(metal=True)
            return
        handler = core.csrs.trap_enter(pc, trap.cause, trap.info, core.user_mode)
        if handler == 0:
            raise GuestPanic(
                f"trap with mtvec unset: cause={trap.cause} "
                f"info={trap.info:#x} pc={pc:#010x}"
            ) from trap
        core.user_mode = False
        core.pc = handler
        self.timer.note_trap(metal=False)

    def _maybe_take_interrupt(self) -> bool:
        core = self.core
        irq = core.irq
        if irq is None:
            return False
        metal = core.metal
        if metal is not None:
            if metal.in_metal or not metal.delivery.interrupts_enabled:
                return False
            line = irq.highest_pending()
            if line is None:
                return False
            cause = Cause.interrupt(line)
            if metal.delivery.handler_for(cause) is None:
                return False  # unrouted lines stay pending (level-triggered)
            core.pc = metal.deliver(cause, epc=core.pc, info=line)
            self.timer.note_trap(metal=True)
            return True
        if not core.csrs.interrupts_enabled:
            return False
        line = irq.highest_pending()
        if line is None:
            return False
        trap = TrapException(Cause.interrupt(line), line)
        handler = core.csrs.trap_enter(core.pc, trap.cause, line, core.user_mode)
        if handler == 0:
            raise GuestPanic("interrupt with mtvec unset")
        core.user_mode = False
        core.pc = handler
        self.timer.note_trap(metal=False)
        return True

    def _wait_for_interrupt(self) -> None:
        core = self.core
        irq = core.irq
        if irq is None:
            raise GuestPanic("wfi with no interrupt controller")
        stride = core.timing.wfi_stride
        waited = 0
        while True:
            if irq.pending_bitmap():
                core.waiting = False
                return
            self.timer.note_event(stride)
            self._sync_devices()
            waited += stride
            if waited > self.MAX_WFI_CYCLES:
                raise GuestPanic("wfi never woke (no pending event source)")

    # ------------------------------------------------------------------
    # translation-cache fast path
    # ------------------------------------------------------------------
    def _fast_step(self, budget: int, stop_pc: Optional[int]) -> None:
        """Advance by one predecoded block, or fall back to :meth:`step`.

        Preserves the exact inter-instruction architecture of the
        one-at-a-time path: interrupts are sampled before every
        instruction whenever they are deliverable, device state is synced
        before any observation point, and the instruction budget is never
        overshot.  Instructions a fall-back :meth:`step` retires are
        counted in ``perf.tcache.denied`` under the reason no block ran.
        """
        core = self.core
        metal = core.metal
        block = None
        if core.waiting:
            reason = "waiting"
        elif metal is not None and metal.in_metal:
            block = self._tcache.mram_block(core.pc, metal.mram)
            reason = "no_block"
        # Normal mode: blocks assume identity fetch translation and an
        # empty interception table; anything else takes the slow path.
        elif core.tlb.enabled:
            reason = "tlb"
        elif metal is not None and not metal.intercept.empty:
            reason = "intercept"
        else:
            block = self._tcache.mem_block(core.pc, core.bus)
            reason = "no_block"
            # Same ordering as step(): sample interrupts before the
            # first fetch of the block.
            if block is not None and self._maybe_take_interrupt():
                self._sync_devices()
                return
        if block is None:
            instret = core.instret
            self.step()
            self.perf.tcache.denied[reason] += core.instret - instret
            return
        self._exec_block(block, budget, stop_pc)

    def _exec_block(self, block, budget: int, stop_pc: Optional[int]) -> None:
        """Run *block* and the superblock chain it continues into.

        One executor serves both fetch namespaces; an mram block differs
        only in answering every fetch in ``mram_fetch`` cycles (paper
        §2.2).  One eligibility test picks the loop.  The batched fast
        loop needs no trace hook, the analytic :class:`SimpleTimer` and
        a budget covering the block.  A mem block also needs no I-cache,
        no pollable interrupt and no *stop_pc*, since each of those
        observes every fetch; Metal mode samples no interrupts (§2.1),
        fetches past the I-cache and ignores *stop_pc*.  Otherwise, or
        with MJIT off (``jit_off``), the guarded per-entry loop runs, and
        its instructions are counted in ``perf.tcache.denied`` under the
        first failing reason.
        """
        core = self.core
        timer = self.timer
        tcache = self._tcache
        stats = self.perf.tcache
        sink = self._profile_sink
        chain_limit = self._profile_chain_limit
        ns = block.ns
        head = block.start
        cycles0 = timer.cycles if sink is not None else 0
        sync = self._sync_devices
        irq = core.irq
        # Chaining probes the namespace's block map inline; only a miss
        # pays the lookup call, which compiles the successor.
        probe = tcache.block_map(ns).get
        if ns == "mram":
            src = core.metal.mram
            lookup = tcache.mram_block
            latency = core.timing.mram_fetch
            icache = None
            poll = False
            stop_pc = None
        else:
            src = core.bus
            lookup = tcache.mem_block
            latency = core.timing.mem_latency
            icache = core.icache
            # Interrupt deliverability is constant inside a block — and
            # along a superblock chain: only terminator instructions (CSR
            # writes, Metal transitions) or trap entries can change it;
            # traps exit the loop and only branch/jal/jalr terminators
            # are chainable.
            if irq is None:
                poll = False
            elif core.metal is not None:
                poll = core.metal.delivery.interrupts_enabled
            else:
                poll = core.csrs.interrupts_enabled
        if icache is not None:
            reason = "icache"
        elif poll:
            reason = "irq_poll"
        elif stop_pc is not None:
            reason = "stop_pc"
        elif self.trace_fn is not None:
            reason = "trace_hook"
        elif type(timer) is not SimpleTimer:
            reason = "pipeline_timer"
        elif budget < len(block.entries):
            reason = "budget"
        elif not tcache.jit:
            reason = "jit_off"
        else:
            reason = None
        retired = 0
        chained = 0
        trap = None

        if reason is None:
            # Batched fast loop: each block runs as its MJIT-compiled
            # function (repro.cpu.jit), compiled at the block's first
            # dispatch here.  The compiled code publishes registers and
            # ``timer.cycles`` itself at its sample points (CSR reads,
            # syncs, traps, exit); ``core.pc`` and ``core.instret`` are
            # published here.  Chainable exits (branch/jal/jalr,
            # length-limit fall-through) continue into the successor
            # block without bouncing back to ``run()``.
            instret0 = core.instret
            while True:
                jfn = block.jit_fn
                if jfn is None:
                    jfn = tcache.jit_compile(block)
                status, next_pc, jret, jloops, jtrap = jfn(
                    core, block, timer, sync, budget - retired,
                    instret0 + retired, chain_limit - chained)
                retired += jret
                if jloops:
                    # Internalised self-loop iterations are chain
                    # transitions this loop would have made.
                    chained += jloops
                    stats.chain_hits += jloops
                if status == 2:  # trap: regs spilled, cycles flushed
                    trap = jtrap
                core.pc = next_pc
                if status or not block.chainable or chained >= chain_limit:
                    break  # status 1: invalidated mid-trace
                nxt = probe(next_pc)
                if nxt is None:
                    nxt = lookup(next_pc, src)
                    if nxt is None:
                        break
                else:
                    stats.chain_hits += 1
                if budget - retired < len(nxt.entries):
                    break
                chained += 1
                block = nxt
            core.instret = instret0 + retired
            stats.jit_instructions += retired
        else:
            # Guarded per-entry loop: publishes pc, instret and cycles
            # after every instruction and re-checks the budget, stop_pc
            # and pending interrupts before each one.
            icache_access = icache.access if icache is not None else None
            take_irq = self._maybe_take_interrupt
            note = timer.note
            op_fn = execute
            trace = self.trace_fn
            f_sync, f_csr, f_term = F_SYNC, F_CSR, F_TERM
            f_break = F_TERM | F_STORE
            while True:
                stop = False
                for instr, pc, flags in block.entries:
                    if retired:
                        if retired >= budget or pc == stop_pc:
                            stop = True
                            break
                        if poll:
                            sync()
                            # A DMA rewrite of this page leaves core.pc
                            # == pc; pending_bitmap() is side-effect-free,
                            # so the precheck equals always calling
                            # take_irq().
                            if not block.valid or (irq.pending_bitmap()
                                                   and take_irq()):
                                stop = True
                                break
                    if flags:
                        if flags & f_sync:
                            sync()
                            if not block.valid:
                                stop = True
                                break  # DMA rewrote this page; core.pc == pc
                        if flags & f_csr:
                            core._timer_cycles = timer.cycles
                    fetch = (icache_access(pc) if icache_access is not None
                             else latency)
                    try:
                        step = op_fn(core, instr, pc, fetch_latency=fetch)
                    except TrapException as exc:
                        trap = exc
                        stop = True
                        break
                    core.pc = step.next_pc
                    core.instret += 1
                    retired += 1
                    note(step)
                    if trace is not None:
                        trace(step)
                    if flags & f_break:
                        if flags & f_term:
                            break
                        if not block.valid:
                            # The store we just executed evicted this
                            # block (self-modifying code): re-dispatch.
                            stop = True
                            break
                if stop or not block.chainable or chained >= chain_limit:
                    break
                nxt = probe(core.pc)
                if nxt is None:
                    nxt = lookup(core.pc, src)
                    if nxt is None:
                        break
                else:
                    stats.chain_hits += 1
                chained += 1
                block = nxt
            stats.denied[reason] += retired
        stats.fast_instructions += retired
        if chained > stats.chain_longest:
            stats.chain_longest = chained
        if sink is not None:
            sink.note_trace(ns, head, chained, retired,
                            timer.cycles, timer.cycles - cycles0)
        if trap is not None:
            self._dispatch_trap(trap, core.pc)
        sync()

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 5_000_000,
            stop_pc: Optional[int] = None,
            raise_on_limit: bool = True) -> RunResult:
        """Run until halt, *stop_pc* (normal mode), or the budget."""
        core = self.core
        start_instret = core.instret
        start_cycles = self.timer.cycles
        perf = self.perf
        fast = self._tcache_enabled
        reason = "limit"
        host_start = perf_counter()
        try:
            while core.instret - start_instret < max_instructions:
                if core.halted:
                    reason = "halt"
                    break
                if (
                    stop_pc is not None
                    and core.pc == stop_pc
                    and not core.in_metal
                ):
                    reason = "stop_pc"
                    break
                if fast:
                    self._fast_step(
                        max_instructions - (core.instret - start_instret),
                        stop_pc,
                    )
                else:
                    self.step()
            else:
                if raise_on_limit:
                    raise ExecutionLimitExceeded(max_instructions)
        finally:
            perf.host_seconds += perf_counter() - host_start
            perf.guest_instructions += core.instret - start_instret
        if core.halted:
            reason = "halt"
        return RunResult(
            instructions=core.instret - start_instret,
            cycles=self.timer.cycles - start_cycles,
            halted=core.halted,
            stop_reason=reason,
        )
