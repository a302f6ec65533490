"""MRoutine: one mcode routine plus its static resource declaration.

Paper §2.1: "Metal mroutine programming resembles embedded system
development.  To avoid allocation failures, developers must statically
allocate resources including Metal registers used across invocations or
the MRAM data segment."

A routine therefore declares, up front:

* ``entry`` — its entry number (0..63), the operand of ``menter``;
* ``data_words`` — how many words of MRAM data segment it needs;
* ``mregs`` — which persistent Metal registers it owns (the loader checks
  that no two routines claim the same persistent register, except via an
  explicit ``shared_mregs`` grant);
* whether it intentionally performs dynamic jumps (``jalr``), which the
  verifier otherwise rejects.

The assembly source is written against symbolic names the loader provides:
``MR_<NAME>`` for every routine's entry number and ``<NAME>_DATA`` for the
byte offset of its data allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MroutineLoadError
from repro.isa.metal_ops import MAX_MROUTINES


@dataclass
class MRoutine:
    """Declaration + source of one mroutine."""

    name: str
    entry: int
    source: str
    data_words: int = 0
    mregs: tuple = ()
    shared_mregs: tuple = ()
    allow_dynamic_jumps: bool = False
    #: Names of other mroutines whose data allocations this routine may
    #: access (e.g. the STM routines share one log area).
    shared_data: tuple = ()
    #: Initial contents of the routine's data allocation (words).
    data_init: tuple = ()
    #: Filled by the loader.
    code_offset: int = field(default=None, compare=False)
    code_words: list = field(default=None, compare=False, repr=False)
    data_offset: int = field(default=None, compare=False)
    #: Analysis facts (repro.analysis.facts.RoutineFacts), attached by the
    #: loader after verification.
    facts: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.entry < MAX_MROUTINES:
            raise MroutineLoadError(
                f"{self.name}: entry {self.entry} outside 0..{MAX_MROUTINES - 1}"
            )
        if not self.name.isidentifier():
            raise MroutineLoadError(f"mroutine name must be an identifier: {self.name!r}")
        for m in tuple(self.mregs) + tuple(self.shared_mregs):
            if not 0 <= m < 32:
                raise MroutineLoadError(f"{self.name}: bad MReg {m}")
        if len(self.data_init) > self.data_words:
            raise MroutineLoadError(
                f"{self.name}: data_init longer than declared data_words"
            )
