"""The machine's latency parameters.

All cycle numbers in benchmarks trace back to this one dataclass, which is
therefore the place to read when judging fidelity (see DESIGN.md §6).  The
defaults model a small in-order 5-stage core:

* MRAM (collocated with fetch, paper §2.2) always responds in
  ``mram_fetch`` cycles — 1, i.e. exactly an I-cache hit.  This is the
  microcode-level-overhead property everything else leans on.
* Main memory costs ``mem_latency`` cycles; caches, when present, hide it
  behind their hit latencies.
* ``menter``/``mexit`` cost ``menter_extra``/``mexit_extra`` — 0 by
  default, modelling the decode-stage replacement of §2.2.  Setting
  ``decode_replacement = False`` makes them cost a pipeline redirect
  instead, the ablation for that optimization.
* A trap (baseline machine) flushes the pipeline (``trap_flush``) and then
  fetches the handler from memory through the normal I-path.
* ``palcode_call_overhead`` configures the PALcode-style machine: a fixed
  entry microsequence charged on every routine call, calibrated so a no-op
  call lands near the ~18 cycles the paper quotes for Alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Extra cycles each ``StepInfo.control`` kind costs under the analytic
#: model, named by the :class:`TimingModel` attribute that holds them.
CONTROL_PENALTY = {
    "branch": "branch_taken_penalty",
    "jal": "jump_penalty",
    "jalr": "branch_taken_penalty",
    "mret": "mret_penalty",
    "menter": "menter_cost",
    "mexit": "mexit_cost",
    "mraise": "jump_penalty",
}


@dataclass
class TimingModel:
    """Latency parameters (cycles)."""

    # Fetch path
    mram_fetch: int = 1
    mem_latency: int = 20          # uncached main-memory access
    mmio_latency: int = 3

    # Execute
    mul_extra: int = 2             # beyond the base cycle
    div_extra: int = 15
    csr_extra: int = 0
    metal_arch_extra: int = 0      # mtlbw/mpld/... are single-cycle ops

    # Control flow (predict-not-taken 5-stage)
    jump_penalty: int = 1          # jal/jalr target known in ID
    branch_taken_penalty: int = 2  # resolved in EX

    # Metal transitions (paper §2.2)
    decode_replacement: bool = True
    menter_extra: int = 0          # when decode_replacement
    mexit_extra: int = 0
    transition_redirect: int = 2   # when decode_replacement is disabled
    intercept_redirect: int = 1    # decode-detected redirect into MRAM
    delivery_redirect: int = 2     # exception/interrupt entry into MRAM

    # Trap architecture (baseline machine)
    trap_flush: int = 4            # drain a 5-stage pipeline
    mret_penalty: int = 2

    # PALcode-style machine: fixed entry/exit microsequence.
    palcode_entry: int = 8
    palcode_exit: int = 6

    # WFI polling granularity (simulation detail, not architectural).
    wfi_stride: int = 8

    def with_overrides(self, **kwargs) -> "TimingModel":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def menter_cost(self) -> int:
        """Extra cycles charged for one ``menter``."""
        if self.decode_replacement:
            return self.menter_extra
        return self.transition_redirect

    @property
    def mexit_cost(self) -> int:
        """Extra cycles charged for one ``mexit``."""
        if self.decode_replacement:
            return self.mexit_extra
        return self.transition_redirect
