"""Cycle-level 5-stage pipeline engine.

The pipeline engine shares the functional executor (one implementation of
semantics — no engine divergence) and replaces the analytic timer with a
*scoreboard* that schedules every retired instruction through the five
stages IF/ID/EX/MEM/WB, enforcing:

* in-order single-issue stage occupancy (one instruction per stage/cycle);
* full forwarding: ALU results are available to EX one cycle later
  (modelled by stage occupancy), load results only after MEM — giving the
  classic one-cycle load-use interlock;
* predict-not-taken control flow: taken branches and ``jalr`` redirect the
  fetch stream after EX (two bubbles), ``jal`` after ID (one bubble);
* I-fetch and D-memory latencies occupying IF/MEM for their full duration;
* the paper's §2.2 decode-stage replacement: ``menter``/``mexit`` insert
  **zero** bubbles (the target instruction replaces them in the decode
  slot) when ``timing.decode_replacement`` is on, and pay an ordinary
  redirect when it is off — this flag is the E1 ablation;
* trap entry flushes the pipeline (``timing.trap_flush``), Metal delivery
  pays only ``timing.delivery_redirect``.

For this microarchitecture (in-order, no side effects on the wrong path)
executing instructions in retirement order while scheduling their timing
is equivalent to simulating the stage latches directly; wrong-path fetches
only perturb I-cache state, which we deliberately exclude (the baseline
thereby gets the *benefit* of the doubt in every Metal-vs-trap
comparison).
"""

from __future__ import annotations

from repro.cpu.core import CpuCore
from repro.cpu.executor import StepInfo
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.timing import MULDIV_EXTRA, TimingModel
from repro.isa.instruction import InstrClass


class PipelineTimer:
    """Scoreboard scheduler for a classic 5-stage in-order pipeline."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        # Completion cycle of the previous instruction in each stage.
        self._if_end = 0
        self._id_end = 0
        self._ex_end = 0
        self._mem_end = 0
        self._wb_end = 0
        # Earliest cycle the next fetch may start (control redirects).
        self._redirect = 1
        # reg -> cycle at which its value can feed EX (via forwarding).
        self._ready = [0] * 32
        self.cycles = 0
        # Stall accounting (benchmark introspection).
        self.stall_load_use = 0
        self.stall_control = 0
        self.stall_fetch = 0

    # ------------------------------------------------------------------
    def note(self, step: StepInfo) -> None:
        timing = self.timing

        if_start = max(self._if_end + 1, self._redirect)
        self.stall_control += max(0, self._redirect - (self._if_end + 1))
        if_end = if_start + max(1, step.fetch_latency) - 1
        self.stall_fetch += max(1, step.fetch_latency) - 1

        id_end = max(if_end + 1, self._id_end + 1)

        # Operand readiness (forwarding into EX).
        operand_ready = 0
        for reg in step.reads:
            if reg:
                operand_ready = max(operand_ready, self._ready[reg])
        ex_start = max(id_end + 1, self._ex_end + 1, operand_ready)
        self.stall_load_use += max(0, operand_ready - max(id_end + 1, self._ex_end + 1))

        ex_extra = 0
        if step.cls is InstrClass.MULDIV:
            ex_extra = getattr(timing, MULDIV_EXTRA[step.mnemonic])
        ex_end = ex_start + ex_extra

        mem_start = max(ex_end + 1, self._mem_end + 1)
        mem_end = mem_start + max(1, step.mem_latency) - 1

        wb_end = max(mem_end + 1, self._wb_end + 1)

        # Register readiness for consumers.
        if step.rd:
            self._ready[step.rd] = (mem_end + 1) if step.is_load else (ex_end + 1)

        # Control redirects.
        control = step.control
        if control in ("branch", "jalr"):
            self._redirect = ex_end + 1
        elif control == "jal":
            self._redirect = id_end + 1
        elif control == "mret":
            self._redirect = ex_end + timing.mret_penalty
        elif control in ("menter", "mexit"):
            if timing.decode_replacement:
                # §2.2: the target instruction replaces menter/mexit in the
                # decode slot — the fetch stream continues with no bubble.
                self._redirect = max(self._redirect, id_end)
            else:
                self._redirect = id_end + timing.transition_redirect
        elif control == "mraise":
            self._redirect = id_end + 1

        self._if_end = if_end
        self._id_end = id_end
        self._ex_end = ex_end
        self._mem_end = mem_end
        self._wb_end = wb_end
        self.cycles = max(self.cycles, wb_end)

    # ------------------------------------------------------------------
    def note_event(self, cycles: int) -> None:
        self.cycles += cycles
        self._bump(cycles)

    def note_trap(self, metal: bool) -> None:
        penalty = (
            self.timing.delivery_redirect if metal else self.timing.trap_flush
        )
        # A trap drains the pipeline, then the handler fetch begins.
        self._redirect = self._wb_end + penalty
        self.cycles = max(self.cycles, self._redirect)

    def note_intercept(self) -> None:
        self._redirect = self._id_end + 1 + self.timing.intercept_redirect
        self.cycles = max(self.cycles, self._redirect)

    def _bump(self, cycles: int) -> None:
        """Shift the whole scoreboard forward (idle periods, WFI)."""
        self._if_end += cycles
        self._id_end += cycles
        self._ex_end += cycles
        self._mem_end += cycles
        self._wb_end += cycles
        self._redirect += cycles


class PipelineSimulator(FunctionalSimulator):
    """5-stage pipeline engine = functional semantics + scoreboard timing."""

    def __init__(self, core: CpuCore, tcache: bool = True):
        super().__init__(core, timer=PipelineTimer(core.timing), tcache=tcache)

    @property
    def stalls(self):
        """(load_use, control, fetch) stall cycle totals."""
        timer = self.timer
        return timer.stall_load_use, timer.stall_control, timer.stall_fetch
