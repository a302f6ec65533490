"""Seeded job lists for the single-machine workloads.

A job is plain data (:class:`Job`); :func:`prepare` turns it into a
booted machine with its program loaded, and the same function builds
the reference machine (tcache off), so the timed run and the check run
the same inputs.

Each workload's pass is *stratified*: every seed gets the same number of
jobs of each kind and the same total iteration budget per kind, and the
seed only chooses how that budget splits across jobs, which jobs run on
the pipeline engine, the generated program text and the data.  Totals
such as simulated cycles therefore stay close across seeds, while every
seed still runs different inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.workloads import page_touch_sequence, poisson_arrivals
from repro.cpu.exceptions import CAUSE_SYMBOLS
from repro.machine.builder import DEVICE_SYMBOLS, MachineConfig, build_metal_machine
from repro.mcode.pagetable import (
    PTE_G, PTE_R, PTE_SYMBOLS, PTE_W, PTE_X, PageTableBuilder,
    make_pagetable_routines,
)
from repro.mcode.privilege import make_kernel_user_routines
from repro.mcode.runtime import PRIV_SYMBOLS
from repro.mcode.stm import make_stm_routines
from repro.mcode.uli import make_uli_routines
from repro.profile.workloads import WORKLOADS, workload_source

#: Instruction cap per job; every generated job halts well before it.
MAX_INSTRUCTIONS = 5_000_000

# Guest physical layout used by the generated §3 programs.
FAULT_ENTRY = 0x1040
KIRQ_ENTRY = 0x1080
MAILBOX = 0x2F00
SYSCALL_TABLE = 0x2E00
PT_POOL = 0x100000
HEAP_VA = 0x400000
HEAP_PA = 0x200000
STM_CLOCK = 0x20000
STM_LOCKS = 0x21000
STM_ACCOUNTS = 0x30000
STM_ACCOUNT_COUNT = 16
LARGE_DATA = 0x80000
NIC_BUFFER = 0x6000


@dataclass(frozen=True)
class Job:
    """One job: a program kind, its engine and its seeded parameters.

    ``params`` is a tuple of ``(name, value)`` pairs so jobs hash and
    compare by content; the reference cache is keyed on the job itself.
    """

    kind: str
    engine: str
    params: tuple

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.engine}"


def _split(rng: random.Random, total: int, parts: int, spread: float = 0.05):
    """Split *total* into *parts* positive integers within +-spread of the
    mean, summing exactly to *total*."""
    weights = [1.0 + rng.uniform(-spread, spread) for _ in range(parts)]
    scale = total / sum(weights)
    values = [max(1, int(w * scale)) for w in weights]
    values[-1] += total - sum(values)
    return values


# ---------------------------------------------------------------------------
# alu_cached
# ---------------------------------------------------------------------------

#: (registered workload, jobs per pass, total iterations per pass).
ALU_REGISTERED = (
    ("tight_loop", 3, 6000),
    ("hash_mix", 3, 7200),
    ("chain_trampoline", 2, 3600),
    ("poly_branch", 2, 5200),
    ("mcode_heavy", 2, 400),
)
#: Generated large-footprint jobs per pass and their total loop passes.
ALU_LARGE = (3, 12)
#: Jobs per pass that run on the pipeline engine, and the registered
#: kinds they are drawn from besides one large-footprint job.
ALU_PIPELINE_JOBS = 3
ALU_PIPELINE_KINDS = ("tight_loop", "hash_mix", "chain_trampoline",
                      "poly_branch")
#: Unrolled chunks in a large-footprint body: ~7 instructions each, so
#: the code (~22 KiB) exceeds the 16 KiB I-cache, and the chunks walk
#: 64 bytes of data each (~50 KiB), more than the 16 KiB D-cache.
LARGE_CHUNKS = 800

_ALU_OPS = ("add", "sub", "xor", "or", "and")
_ALU_REGS = ("t1", "t2", "t3", "t4", "t5", "t6", "s2", "s3", "s4", "s5")


def large_footprint_source(seed: int, loops: int) -> str:
    """An unrolled ALU + load/store loop bigger than both L1 caches."""
    rng = random.Random(seed)
    lines = ["_start:", f"    li   t0, {loops}", "outer:",
             f"    li   s0, {LARGE_DATA:#x}"]
    for _ in range(LARGE_CHUNKS):
        a, b, c, d = (rng.choice(_ALU_REGS) for _ in range(4))
        off = 4 * rng.randrange(16)
        lines += [
            f"    lw   {a}, {off}(s0)",
            f"    {rng.choice(_ALU_OPS)} {b}, {a}, {c}",
            f"    slli {d}, {b}, {rng.randrange(1, 8)}",
            f"    {rng.choice(_ALU_OPS)} {c}, {d}, {a}",
            f"    sw   {c}, {32 + off % 32}(s0)",
            f"    addi s0, s0, 64",
        ]
        if rng.random() < 0.3:
            lines.append(f"    xori {a}, {a}, {rng.randrange(2048)}")
    # A conditional branch cannot reach back over the body; jal can.
    lines += ["    addi t0, t0, -1", "    beqz t0, done", "    j    outer",
              "done:", "    halt", ""]
    return "\n".join(lines)


def alu_cached_jobs(seed: int) -> list:
    """One pass of the ``alu_cached`` workload (default MachineConfig)."""
    rng = random.Random(f"alu_cached:{seed}")
    jobs = []
    for name, count, total in ALU_REGISTERED:
        for iters in _split(rng, total, count):
            jobs.append(("registered", (("name", name), ("iters", iters))))
    count, total = ALU_LARGE
    for loops in _split(rng, total, count, spread=0.0):
        jobs.append(("large", (("seed", rng.randrange(1 << 30)),
                               ("loops", loops))))
    rng.shuffle(jobs)
    # One large job and two loop jobs on the pipeline engine: the
    # engine's cost differs by kind, so the mix is fixed and the seed
    # picks the instances.
    large = [i for i, (kind, _) in enumerate(jobs) if kind == "large"]
    loops = [i for i, (kind, params) in enumerate(jobs)
             if kind == "registered" and dict(params)["name"] in ALU_PIPELINE_KINDS]
    pipeline = {rng.choice(large), *rng.sample(loops, ALU_PIPELINE_JOBS - 1)}
    return [Job(kind, "pipeline" if i in pipeline else "functional", params)
            for i, (kind, params) in enumerate(jobs)]


# ---------------------------------------------------------------------------
# paper_apps
# ---------------------------------------------------------------------------

# A pass: 5 page-table jobs (2 below, 3 above the TLB), 3 STM, 3
# kenter/kexit, 3 ULI (one idles in wfi), 2 syscall_heavy and 2
# intercept_heavy.  The budgets below size most jobs at 80-150 ms on a
# 2 vCPU host, so the median lands inside one dense cluster; the three
# large-footprint page-table jobs are the slowest sixth, so p90 falls
# inside their cluster rather than on its edge.

#: Page footprints of the page-table jobs, drawn below and above the
#: 32-entry TLB.
PT_SMALL_PAGES = (24, 28)
PT_LARGE_PAGES = (78, 82)
PT_FOOTPRINTS = (PT_SMALL_PAGES, PT_SMALL_PAGES,
                 PT_LARGE_PAGES, PT_LARGE_PAGES, PT_LARGE_PAGES)
PT_TOUCHES = 1200
STM_TRANSFERS = 225
SYSCALL_CALLS = 1800
ULI_PACKETS = 20
#: Arrival span of one ULI job's packets, in cycles: the seeded Poisson
#: gaps are rescaled to this span so every job sees the same load.
ULI_SPAN = 30_000
SYSCALL_HEAVY_ITERS = 3400
INTERCEPT_HEAVY_ITERS = 2000


def paper_apps_jobs(seed: int) -> list:
    """One pass of the ``paper_apps`` workload (default MachineConfig)."""
    rng = random.Random(f"paper_apps:{seed}")
    jobs = []
    for lo, hi in PT_FOOTPRINTS:
        jobs.append(("pagetable", (("pages", rng.randint(lo, hi)),
                                   ("touches", PT_TOUCHES),
                                   ("seed", rng.randrange(1, 1 << 30)))))
    for transfers in _split(rng, STM_TRANSFERS, 3):
        jobs.append(("stm", (("transfers", transfers),
                             ("seed", rng.randrange(1 << 30)))))
    for calls in _split(rng, SYSCALL_CALLS, 3):
        jobs.append(("syscall", (("calls", calls),
                                 ("seed", rng.randrange(1 << 30)))))
    wfi_job = rng.randrange(3)
    for i in range(3):
        jobs.append(("uli", (("packets", ULI_PACKETS),
                             ("wfi", i == wfi_job),
                             ("seed", rng.randrange(1, 1 << 30)))))
    for name, total in (("syscall_heavy", SYSCALL_HEAVY_ITERS),
                        ("intercept_heavy", INTERCEPT_HEAVY_ITERS)):
        for iters in _split(rng, total, 2):
            jobs.append(("registered", (("name", name), ("iters", iters))))
    rng.shuffle(jobs)
    return [Job(kind, "functional", params) for kind, params in jobs]


def _words(values) -> str:
    return "\n".join(f"    .word {v:#x}" for v in values)


def _pagetable(job: Job, machine, tracer) -> str:
    p = job.p
    with tracer.span("machine.boot"):
        machine.route_page_faults()
        pt = PageTableBuilder(machine.bus, pool_base=PT_POOL)
        pt.map_range(0x0, 0x0, 0x40000, flags=PTE_R | PTE_W | PTE_X | PTE_G)
        for i in range(p["pages"]):
            pt.map(HEAP_VA + i * 4096, HEAP_PA + i * 4096,
                   flags=PTE_R | PTE_W | PTE_G)
    touches = page_touch_sequence(p["pages"], p["touches"], "random",
                                  base_va=HEAP_VA, seed=p["seed"])
    rng = random.Random(p["seed"])
    touches = [va + 4 * rng.randrange(1024) for va in touches]
    source = f"""
_start:
    j    boot
.org {FAULT_ENTRY:#x}
kfault:
    li   s10, 1                 # an unmapped touch reached the OS
    halt
boot:
    li   a0, {PT_POOL:#x}
    li   a1, 0
    menter MR_PTROOT_SET
    li   a0, 1
    menter MR_PAGING_CTL
    li   s3, touches
    li   s4, {len(touches)}
touch:
    lw   t0, 0(s3)
    lw   t1, 0(t0)
    add  t1, t1, s4
    sw   t1, 0(t0)
    addi s3, s3, 4
    addi s4, s4, -1
    bnez s4, touch
    halt
touches:
{_words(touches)}
"""
    return source


def stm_balances(seed: int) -> list:
    """Initial account balances of an STM job."""
    rng = random.Random(f"balances:{seed}")
    return [rng.randrange(1000, 100_000) for _ in range(STM_ACCOUNT_COUNT)]


def _stm(job: Job, machine, tracer) -> str:
    p = job.p
    with tracer.span("mem.write_bytes"):
        machine.bus.write_bytes(STM_ACCOUNTS, b"".join(
            b.to_bytes(4, "little") for b in stm_balances(p["seed"])))
    rng = random.Random(p["seed"])
    table = []
    for _ in range(p["transfers"]):
        src, dst = rng.sample(range(STM_ACCOUNT_COUNT), 2)
        table += [STM_ACCOUNTS + 4 * src, STM_ACCOUNTS + 4 * dst,
                  rng.randrange(1, 500)]
    source = f"""
_start:
    li   s3, transfers
    li   s4, {p["transfers"]}
tx:
    lw   s5, 0(s3)
    lw   s6, 4(s3)
    lw   s7, 8(s3)
retry:
    li   a0, onabort
    menter MR_TSTART          # interception on: lw/sw below are intercepted
    lw   t1, 0(s5)
    lw   t2, 0(s6)
    sub  t1, t1, s7
    add  t2, t2, s7
    sw   t1, 0(s5)
    sw   t2, 0(s6)
    menter MR_TCOMMIT
    beqz a0, retry
    addi s3, s3, 12
    addi s4, s4, -1
    bnez s4, tx
    halt
onabort:
    j    retry
transfers:
{_words(table)}
"""
    return source


def _syscall(job: Job, machine, tracer) -> str:
    p = job.p
    rng = random.Random(p["seed"])
    numbers = [rng.randrange(3) for _ in range(p["calls"])]
    source = f"""
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
    li   t1, sys_mix
    sw   t1, 4(t0)
    li   t1, sys_count
    sw   t1, 8(t0)
    li   t1, sys_exit
    sw   t1, 12(t0)
    li   ra, user
    menter MR_KEXIT           # drop to user level
user:
    li   s3, numbers
    li   s4, {p["calls"]}
uloop:
    lw   a0, 0(s3)
    mv   a1, s4
    menter MR_KENTER          # system call through the kenter mroutine
    addi s3, s3, 4
    addi s4, s4, -1
    bnez s4, uloop
    li   a0, 3
    menter MR_KENTER
sys_add:
    add  s5, s5, a1
    menter MR_KEXIT
sys_mix:
    xor  s6, s6, a1
    slli s6, s6, 1
    menter MR_KEXIT
sys_count:
    addi s7, s7, 1
    menter MR_KEXIT
sys_exit:
    halt
numbers:
{_words(numbers)}
"""
    return source


def uli_arrivals(packets: int, seed: int) -> list:
    """Seeded Poisson arrivals, rescaled to span exactly ``ULI_SPAN``."""
    start = 2000
    times = poisson_arrivals(packets, 1000.0, start=start, seed=seed)
    last = times[-1] - start
    return [start + (t - start) * ULI_SPAN // last for t in times]


def _uli(job: Job, machine, tracer) -> str:
    p = job.p
    with tracer.span("machine.boot"):
        for t in uli_arrivals(p["packets"], p["seed"]):
            machine.nic.schedule_packet(t, bytes([t & 0xFF]) * 64)
        machine.nic.irq_enabled = True
    idle = "    wfi                      # sleep until the next packet\n" \
        if p["wfi"] else ""
    source = f"""
_start:
    li   a0, handler
    li   a1, 1                # user level may take the NIC interrupt
    li   a2, IRQ_LINE_NIC
    menter MR_ULI_REGISTER
    li   ra, user
    menter MR_KEXIT
user:
    li   s0, 0
    li   s1, 0
work:
{idle}    addi s1, s1, 1
    li   t2, {p["packets"]}
    bltu s0, t2, work
    halt
handler:
    li   t0, NIC_DMA_ADDR
    li   t1, {NIC_BUFFER:#x}
    sw   t1, 0(t0)
    li   t0, NIC_RX_POP
    li   t1, 1
    sw   t1, 0(t0)
    addi s0, s0, 1
    menter MR_ULI_RET
"""
    return source


def _registered(job: Job, machine, tracer) -> str:
    p = job.p
    setup = WORKLOADS[p["name"]].setup
    if setup is not None:
        with tracer.span("machine.boot"):
            setup(machine)
    return workload_source(p["name"], p["iters"])


def _large(job: Job, machine, tracer) -> str:
    p = job.p
    rng = random.Random(p["seed"])
    with tracer.span("mem.write_bytes"):
        machine.bus.write_bytes(LARGE_DATA, rng.randbytes(64 * LARGE_CHUNKS + 64))
    return large_footprint_source(p["seed"], p["loops"])


_BOOT = {
    "registered": _registered,
    "large": _large,
    "pagetable": _pagetable,
    "stm": _stm,
    "syscall": _syscall,
    "uli": _uli,
}


def routines_of(job: Job) -> list:
    """The mroutine set *job* boots with."""
    if job.kind == "pagetable":
        return make_pagetable_routines(MAILBOX, FAULT_ENTRY)
    if job.kind == "stm":
        return make_stm_routines(STM_CLOCK, STM_LOCKS)
    if job.kind == "syscall":
        return make_kernel_user_routines(SYSCALL_TABLE, FAULT_ENTRY)
    if job.kind == "uli":
        return (make_kernel_user_routines(SYSCALL_TABLE, FAULT_ENTRY)
                + make_uli_routines(KIRQ_ENTRY))
    name = job.p["name"] if job.kind == "registered" else "tight_loop"
    return list(WORKLOADS[name].routines)


def prepare(job: Job, tracer, **config_overrides):
    """Build, boot and load *job*; returns the machine ready to run.

    *config_overrides* adjust the default :class:`MachineConfig` (the
    reference uses ``tcache=False``; the labelled comparison rows use
    ``with_caches=False`` and ``jit=True``).
    """
    config = MachineConfig(engine=job.engine, **config_overrides)
    with tracer.span("mcode.make_routines"):
        routines = routines_of(job)
    with tracer.span("machine.build"):
        machine = build_metal_machine(routines, config=config)
    source = _BOOT[job.kind](job, machine, tracer)
    with tracer.span("asm.assemble"):
        program = machine.assemble(source)
    with tracer.span("machine.load"):
        machine.load(program)
        machine.core.pc = program.symbols.get("_start", program.base)
    return machine


def mcode_symbols() -> dict:
    """The symbol environment ``build_metal_machine`` loads mroutines in."""
    env = {}
    for table in (CAUSE_SYMBOLS, DEVICE_SYMBOLS, PTE_SYMBOLS, PRIV_SYMBOLS):
        env.update(table)
    return env
