"""MRAM blocks that touch guest RAM, on every execution tier.

The §3 applications run mroutines whose blocks read and write guest
memory: the page-table walker loads PTEs, the STM intercept handlers
load and store the transaction's data, and kenter/kexit index the
kernel's syscall table.  Each app runs on three functional machines —
the interpreter, the translation cache with MJIT off (the guarded
loop only), and MJIT compiling every block on first dispatch — both cache-less and with the default caches, and
the three must agree on registers, pc, instret, cycles and every byte
of RAM.  Every block MJIT compiled is translation-validated, and at
least one of them is an MRAM block with a LOAD or STORE entry, so
MJIT really compiles mroutine code that touches guest RAM.
"""

from __future__ import annotations

import pytest

from repro.isa.instruction import InstrClass
from repro.machine.builder import MachineConfig, build_metal_machine
from repro.mcode.pagetable import (
    PTE_G, PTE_R, PTE_W, PTE_X, PageTableBuilder, make_pagetable_routines,
)
from repro.mcode.privilege import make_kernel_user_routines
from repro.mcode.stm import make_stm_routines
from repro.serve.api import architectural_digest
from repro.verify.translate import validate_block

FAULT_ENTRY = 0x1040
MAILBOX = 0x2F00
SYSCALL_TABLE = 0x2E00
PT_POOL = 0x100000
HEAP_VA = 0x400000
HEAP_PA = 0x200000
HEAP_PAGES = 40                  # more pages than TLB slots: refills
STM_CLOCK = 0x20000
STM_LOCKS = 0x21000
ACCOUNTS = 0x30000

PAGETABLE = f"""
_start:
    j    boot
.org {FAULT_ENTRY:#x}
kfault:
    li   s10, 1
    halt
boot:
    li   a0, {PT_POOL:#x}
    li   a1, 0
    menter MR_PTROOT_SET
    li   a0, 1
    menter MR_PAGING_CTL
    li   s4, 3                  # rounds over the heap
round:
    li   s3, {HEAP_VA:#x}
    li   s5, {HEAP_PAGES}
touch:
    lw   t1, 0(s3)
    add  t1, t1, s5
    sw   t1, 0(s3)
    li   t2, 4100
    add  s3, s3, t2
    addi s5, s5, -1
    bnez s5, touch
    addi s4, s4, -1
    bnez s4, round
    halt
"""

STM = f"""
_start:
    li   s4, 12
tx:
    andi s5, s4, 7
    slli s5, s5, 2
    li   t0, {ACCOUNTS:#x}
    add  s5, s5, t0
    addi s6, s5, 32
retry:
    li   a0, onabort
    menter MR_TSTART          # interception on: lw/sw below are intercepted
    lw   t1, 0(s5)
    lw   t2, 0(s6)
    sub  t1, t1, s4
    add  t2, t2, s4
    sw   t1, 0(s5)
    sw   t2, 0(s6)
    menter MR_TCOMMIT
    beqz a0, retry
    addi s4, s4, -1
    bnez s4, tx
    halt
onabort:
    j    retry
"""

SYSCALL = f"""
_start:
    j    kinit
.org {FAULT_ENTRY:#x}
kfault:
    li   s10, 1
    halt
kinit:
    li   t0, {SYSCALL_TABLE:#x}
    li   t1, sys_add
    sw   t1, 0(t0)
    li   t1, sys_exit
    sw   t1, 4(t0)
    li   ra, user
    menter MR_KEXIT           # drop to user level
user:
    li   s4, 30
uloop:
    li   a0, 0
    mv   a1, s4
    menter MR_KENTER          # system call through the kenter mroutine
    addi s4, s4, -1
    bnez s4, uloop
    li   a0, 1
    menter MR_KENTER
sys_add:
    add  s5, s5, a1
    menter MR_KEXIT
sys_exit:
    halt
"""


def _pagetable_setup(machine) -> None:
    machine.route_page_faults()
    pt = PageTableBuilder(machine.bus, pool_base=PT_POOL)
    pt.map_range(0x0, 0x0, 0x40000, flags=PTE_R | PTE_W | PTE_X | PTE_G)
    for i in range(HEAP_PAGES + 1):
        pt.map(HEAP_VA + i * 4096, HEAP_PA + i * 4096,
               flags=PTE_R | PTE_W | PTE_G)


def _stm_setup(machine) -> None:
    machine.bus.write_bytes(ACCOUNTS, b"".join(
        (1000 * (i + 1)).to_bytes(4, "little") for i in range(16)))


#: app -> (routine factory, machine setup, guest program)
APPS = {
    "pagetable": (lambda: make_pagetable_routines(MAILBOX, FAULT_ENTRY),
                  _pagetable_setup, PAGETABLE),
    "stm": (lambda: make_stm_routines(STM_CLOCK, STM_LOCKS),
            _stm_setup, STM),
    "syscall": (lambda: make_kernel_user_routines(SYSCALL_TABLE,
                                                  FAULT_ENTRY),
                None, SYSCALL),
}

TIERS = ("interp", "tcache", "jit")


def run_app(app: str, tier: str, with_caches: bool):
    make_routines, setup, source = APPS[app]
    config = MachineConfig(with_caches=with_caches,
                           tcache=(tier != "interp"),
                           jit=(tier == "jit"))  # "tcache": guarded loop
    machine = build_metal_machine(make_routines(), config=config)
    if setup is not None:
        setup(machine)
    program = machine.assemble(source)
    machine.load(program)
    machine.core.pc = program.symbols["_start"]
    machine.run(max_instructions=500_000)
    assert machine.core.halted, f"{app}/{tier} did not halt"
    assert machine.reg("s10") == 0, f"{app}/{tier} faulted to the OS"
    return machine


def _state(machine) -> tuple:
    return (tuple(machine.core.regs), machine.cycles,
            architectural_digest(machine))


def _touches_guest_ram(block) -> bool:
    return any(instr.spec.cls in (InstrClass.LOAD, InstrClass.STORE)
               for instr, _pc, _flags in block.entries)


@pytest.mark.parametrize("with_caches", (False, True),
                         ids=("cacheless", "cached"))
def test_mram_guest_ram_apps_agree_across_tiers(with_caches):
    mram_ram_blocks = 0
    for app in APPS:
        states = {tier: _state(run_app(app, tier, with_caches))
                  for tier in TIERS[:2]}
        jit = run_app(app, "jit", with_caches)
        states["jit"] = _state(jit)
        assert states["tcache"] == states["interp"], f"{app}: tcache"
        assert states["jit"] == states["interp"], f"{app}: jit"

        tcache = jit.sim.tcache
        for ns, block in tcache.iter_jit_blocks():
            proven = tcache.proven_pcs if ns == "mram" else frozenset()
            assert validate_block(ns, block, proven) == [], (
                f"{app}: {ns} block {block.start:#x}")
            if ns == "mram" and _touches_guest_ram(block):
                mram_ram_blocks += 1
    assert mram_ram_blocks > 0, (
        "no compiled MRAM block loads or stores guest RAM")


def test_mram_blocks_denied_only_for_mram_reasons():
    """With a trace hook on a cache-less machine, every guarded
    retirement is the hook's; Metal mode adds no reason of its own."""
    machine = run_app("stm", "tcache", with_caches=False)
    traced = build_metal_machine(
        make_stm_routines(STM_CLOCK, STM_LOCKS),
        config=MachineConfig(with_caches=False))
    _stm_setup(traced)
    traced.sim.add_step_hook(lambda step: None)
    traced.load_and_run(STM)
    assert _state(traced) == _state(machine)
    denied = traced.perf.tcache.denied
    guarded = {r: n for r, n in denied.items()
               if n and r not in ("tlb", "intercept", "waiting", "no_block")}
    assert set(guarded) == {"trace_hook"}
    assert traced.perf.tcache.fast_loop_instructions == 0
