"""Named profiling workloads: the guest programs + machine shapes the
profile CLI (``python -m repro profile <name>``) and the host-throughput
benchmark share.

Each workload is a (program source, Metal image, boot setup) triple with
a documented shape — tcache best case, Metal-transition stress, chain
stress, and so on — so a profile of one is comparable across PRs and
across the CLI/benchmark boundary.  ``poly_branch`` is the chainer's
polymorphic case: its hot block exits through a conditional branch
whose target alternates every iteration, and both successors are
found in the block map, so the loop never returns to the run loop.

This module is intentionally *not* imported from
``repro.profile.__init__`` — it builds machines, and the machine
builder imports the engines, which import the profile sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.exceptions import Cause
from repro.machine.builder import build_metal_machine
from repro.metal.mroutine import MRoutine

#: mroutine for loop-only machines (never invoked; keeps the machine
#: shape identical to the Metal-exercising workloads).
NOOP = MRoutine(name="noop", entry=0, source="mexit\n")

#: ECALL handler: skip the ecall (delivery resumes at epc) and return.
SYS = MRoutine(name="sys", entry=0, source="""
    wmr  m13, t0
    rmr  t0, m31
    addi t0, t0, 4
    wmr  m31, t0
    rmr  t0, m13
    mexit
""", shared_mregs=(13,))

#: Boot mroutine installing the ``lw`` intercept rule (a0=spec, a1=entry).
SETUP = MRoutine(name="setup", entry=0, source="""
    micept a0, a1
    mexit
""")

#: Emulating ``lw`` handler (same shape as bench_interception's).
EMUL = MRoutine(name="emul", entry=1, source="""
    wmr  m13, t0
    wmr  m14, t1
    rmr  t0, m29
    srai t1, t0, 20
    rmr  t0, m25
    add  t0, t0, t1
    lw   t1, 0(t0)
    wmr  m27, t1
    rmr  t0, m29
    srli t0, t0, 7
    andi t0, t0, 31
    wmr  m26, t0
    rmr  t1, m14
    rmr  t0, m13
    mexitm
""", shared_mregs=(13, 14))

#: Pure spin mroutine for the mcode_heavy workload: MAS proves it free
#: of RAM access, so its self-loop runs entirely in the MRAM fast loop.
SPIN = MRoutine(name="spin", entry=0, source="""
    li   t0, 24
spin_loop:
    addi t1, t1, 3
    xor  t2, t1, t0
    addi t0, t0, -1
    bnez t0, spin_loop
    mexit
""")


def _tight_loop(iters: int) -> str:
    return f"""
_start:
    li t0, {iters}
loop:
    addi t1, t1, 1
    addi t2, t2, 2
    xor  t3, t1, t2
    slli t4, t1, 3
    add  t5, t3, t4
    srli t6, t5, 1
    or   s2, t5, t6
    and  s3, s2, t3
    sub  s4, s3, t1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _hash_mix(iters: int) -> str:
    """A pure-ALU hash/mix loop (xorshift-style avalanche) — the MSYNTH
    fusion showcase alongside ``tight_loop``: every body instruction is
    plain, the loop is counted, and nothing else branches into it, so
    the whole loop fuses into one mroutine."""
    return f"""
_start:
    li t0, {iters}
    li t1, 0x9e37
loop:
    xor  t2, t2, t1
    slli t3, t2, 5
    srli t4, t2, 3
    add  t2, t3, t4
    and  t5, t2, t1
    or   t6, t2, t5
    add  s2, s2, t6
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _syscall_loop(iters: int) -> str:
    return f"""
_start:
    li t0, {iters}
loop:
    ecall
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _chain_trampoline(iters: int) -> str:
    """Straight-line ALU work spread over three blocks joined by
    unconditional jumps plus the loop's backward branch — every block
    transition is chainable."""
    return f"""
_start:
    li t0, {iters}
loop:
    addi t1, t1, 1
    xor  t3, t1, t2
    slli t4, t1, 3
    j    hop1
hop1:
    add  t5, t3, t4
    srli t6, t5, 1
    or   s2, t5, t6
    j    hop2
hop2:
    and  s3, s2, t3
    sub  s4, s3, t1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _poly_branch(iters: int) -> str:
    """A data-dependent branch whose target flips every iteration.

    The ``loop`` head block exits through ``beqz`` toward ``even`` on
    half the iterations and falls through to ``odd`` on the other half.
    The chainer probes the block map at whichever target was taken, so
    every flip stays inside one dispatch (observable as tcache ``hits +
    misses`` staying within a few of ``blocks_compiled``)."""
    return f"""
_start:
    li t0, {iters}
loop:
    andi t1, t0, 1
    beqz t1, even
odd:
    addi t2, t2, 3
    xor  t3, t2, t0
    slli t4, t2, 2
    j    next
even:
    addi t5, t5, 5
    slli t6, t5, 1
    or   s2, t6, t0
next:
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _mcode_loop(iters: int) -> str:
    return f"""
_start:
    li s0, {iters}
loop:
    menter MR_SPIN
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _intercept_loop(iters: int) -> str:
    return f"""
_start:
    li   a0, 0x503           # match: opcode LOAD, funct3 2 (lw only)
    li   a1, MR_EMUL
    menter MR_SETUP
    li   s2, 0x3000
    li   t0, {iters}
loop:
    lw   t2, 0(s2)
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def _route_ecall(machine) -> None:
    machine.route_cause(Cause.ECALL, "sys")


@dataclass(frozen=True)
class Workload:
    """One named profiling workload."""

    name: str
    description: str
    program: object           # iters -> assembly source
    routines: tuple = (NOOP,)
    setup: Optional[object] = None   # machine -> None, post-build boot config
    default_iters: int = 10_000


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tight_loop",
            "straight-line ALU work in a hot loop (tcache best case)",
            _tight_loop, default_iters=20_000),
        Workload(
            "hash_mix",
            "pure ALU hash/mix loop (MSYNTH fusion showcase)",
            _hash_mix, default_iters=20_000),
        Workload(
            "chain_trampoline",
            "blocks glued by unconditional jumps (chainer best case)",
            _chain_trampoline, default_iters=10_000),
        Workload(
            "poly_branch",
            "branch target flips every iteration (polymorphic chaining)",
            _poly_branch, default_iters=10_000),
        Workload(
            "syscall_heavy",
            "an ECALL mroutine delivery per iteration (Metal transitions)",
            _syscall_loop, routines=(SYS,), setup=_route_ecall,
            default_iters=2_000),
        Workload(
            "intercept_heavy",
            "every lw intercepted and emulated (tcache worst case)",
            _intercept_loop, routines=(SETUP, EMUL), default_iters=1_500),
        Workload(
            "mcode_heavy",
            "menter into a pure spin mroutine (MRAM fast loop)",
            _mcode_loop, routines=(SPIN,), default_iters=2_000),
    )
}


def build_workload(name: str, engine: str = "functional"):
    """Build the machine for workload *name* (tcache on, no cache models
    — the same shape the host-throughput benchmark measures)."""
    w = WORKLOADS[name]
    machine = build_metal_machine(list(w.routines), engine=engine,
                                  with_caches=False)
    if w.setup is not None:
        w.setup(machine)
    return machine


def workload_source(name: str, iters: Optional[int] = None) -> str:
    """The guest program for workload *name* at *iters* iterations."""
    w = WORKLOADS[name]
    return w.program(iters if iters is not None else w.default_iters)
