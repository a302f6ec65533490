"""Translation-cache correctness: invalidation, exactness, counters.

The tcache (:mod:`repro.cpu.tcache`) is a host-side fast path and must be
architecture-invisible.  Every test here runs with the cache on and off,
on both engines, and expects bit-identical guest behaviour: self-modifying
code, mroutine reloads, interception enabled mid-run, and interrupt-heavy
workloads.
"""

from __future__ import annotations

import pytest

from repro import MRoutine, assemble, build_metal_machine, build_trap_machine
from repro.cpu.exceptions import Cause
from repro.profile.workloads import WORKLOADS

ENGINES = ("functional", "pipeline")
TCACHE = (True, False)


def _word_of(source: str) -> int:
    """Encode a single instruction and return its 32-bit word."""
    program = assemble(source, base=0)
    return int.from_bytes(program.data[:4], "little")


def _machines(**kwargs):
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    yield build_metal_machine([noop], with_caches=False, **kwargs)
    yield build_trap_machine(with_caches=False, **kwargs)


# ---------------------------------------------------------------------------
# self-modifying code
# ---------------------------------------------------------------------------

SMC_PROGRAM = f"""
_start:
    li   s1, patch
    li   s3, {{new_word:#x}}
again:
patch:
    addi a0, a0, 1           # first pass; becomes "addi a0, a0, 100"
    bnez s0, done
    sw   s3, 0(s1)           # overwrite the instruction we just ran
    li   s0, 1
    j    again
done:
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_self_modifying_code(engine, tcache):
    """A store over an already-executed instruction must take effect the
    next time that address is reached (store-hook eviction)."""
    new_word = _word_of("addi a0, a0, 100")
    source = SMC_PROGRAM.format(new_word=new_word)
    for machine in _machines(engine=engine, tcache=tcache):
        machine.load_and_run(source, max_instructions=10_000)
        assert machine.reg("a0") == 101, (
            f"{machine.name}: stale translation executed after SMC store"
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_host_poke_invalidates(engine):
    """Host-side Machine.write_word into code must also evict blocks."""
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], engine=engine, with_caches=False)
    program = machine.assemble("""
_start:
    addi a0, a0, 1
    halt
""", base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    machine.run(max_instructions=10)
    assert machine.reg("a0") == 1
    # Rewrite the first instruction from the host, then re-run it.
    machine.write_word(0x1000, _word_of("addi a0, a0, 50"))
    machine.core.halted = False
    machine.core.pc = 0x1000
    machine.run(max_instructions=10)
    assert machine.reg("a0") == 51


# ---------------------------------------------------------------------------
# mroutine reload
# ---------------------------------------------------------------------------

def _probe_routine(value: int) -> MRoutine:
    return MRoutine(name="probe", entry=0, source=f"""
        wmr  m13, t0
        li   t0, {value}
        wmr  m14, t0
        rmr  t0, m13
        mexit
    """, shared_mregs=(13, 14))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_mroutine_reload_invalidates(engine, tcache):
    """After reload_mroutines, menter must run the *new* mcode, not a
    cached translation of the old MRAM contents."""
    machine = build_metal_machine([_probe_routine(111)], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    menter MR_PROBE
    halt
""", max_instructions=1_000)
    assert machine.mreg(14) == 111

    machine.reload_mroutines([_probe_routine(222)])
    machine.core.halted = False
    machine.core.pc = 0x1000
    machine.run(max_instructions=1_000)
    assert machine.mreg(14) == 222, (
        "stale MRAM translation survived reload_mroutines"
    )


# ---------------------------------------------------------------------------
# interception enabled mid-run
# ---------------------------------------------------------------------------

SETUP = MRoutine(name="setup", entry=0, source="""
    micept a0, a1
    mexit
""")

# lw handler that emulates the load and adds 1000 to the result.
EMUL_PLUS = MRoutine(name="emul", entry=1, source="""
    wmr  m13, t0
    wmr  m14, t1
    rmr  t0, m29
    srai t1, t0, 20
    rmr  t0, m25
    add  t0, t0, t1
    lw   t1, 0(t0)
    addi t1, t1, 1000
    wmr  m27, t1
    rmr  t0, m29
    srli t0, t0, 7
    andi t0, t0, 31
    wmr  m26, t0
    rmr  t1, m14
    rmr  t0, m13
    mexitm
""", shared_mregs=(13, 14))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_intercept_enable_mid_run(engine, tcache):
    """Blocks compiled while the intercept table was empty must not keep
    running once a rule is installed mid-run."""
    machine = build_metal_machine([SETUP, EMUL_PLUS], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    li   s2, 0x3000
    li   t2, 7
    sw   t2, 0(s2)
    li   s0, 50
warm:
    lw   a0, 0(s2)           # plain loads: translations get hot
    addi s0, s0, -1
    bnez s0, warm
    li   a0, 0x503           # opcode LOAD, funct3 2: lw only
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)           # must now be intercepted and emulated
    halt
""", max_instructions=10_000)
    assert machine.core.metal.intercept.hits == 1
    assert machine.reg("a2") == 1007, (
        "load after micept was not intercepted (stale fast-path block)"
    )


# ---------------------------------------------------------------------------
# tcache on/off differential (cycle exactness)
# ---------------------------------------------------------------------------

def _timer_interrupt_machine(engine, tcache):
    handler = MRoutine(name="tick", entry=0, source="""
        wmr  m10, t0
        wmr  m11, t1
        li   t0, 0x3F00
        mpld t1, 0(t0)
        addi t1, t1, 1
        mpst t1, 0(t0)
        li   t0, TIMER_CTRL
        mpst zero, 0(t0)
        rmr  t1, m11
        rmr  t0, m10
        mexit
    """, mregs=(10, 11))
    enable = MRoutine(name="irq_on", entry=1, source="""
        li   t0, CAUSE_INTERRUPT_TIMER
        li   t1, MR_TICK
        mivec t0, t1
        li   t0, 1
        mintc t0
        mexit
    """)
    machine = build_metal_machine([handler, enable], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.timer.compare = 500
    machine.timer.irq_enabled = True
    return machine


TIMER_WORKLOAD = """
_start:
    menter MR_IRQ_ON
spin:
    li   t2, 0x3F00
    lw   t3, 0(t2)
    addi t4, t4, 1
    beqz t3, spin
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_timer_interrupt_workload_identical(engine):
    """Interrupt mid-loop: instructions, cycles, registers and memory all
    identical with the tcache on and off."""
    outcomes = {}
    for tcache in TCACHE:
        machine = _timer_interrupt_machine(engine, tcache)
        result = machine.load_and_run(TIMER_WORKLOAD, max_instructions=100_000)
        outcomes[tcache] = (
            result.instructions,
            result.cycles,
            tuple(machine.core.regs),
            machine.read_word(0x3F00),
        )
        assert machine.read_word(0x3F00) == 1
    assert outcomes[True] == outcomes[False], (
        f"tcache changed guest-visible state: {outcomes}"
    )


FIB_WORKLOAD = """
_start:
    li   s0, 24
    li   a0, 0
    li   a1, 1
    li   s2, 0x3800
fib:
    add  a2, a0, a1
    mv   a0, a1
    mv   a1, a2
    sw   a2, 0(s2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, fib
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_plain_workload_identical(engine):
    outcomes = {}
    for tcache in TCACHE:
        for machine in _machines(engine=engine, tcache=tcache):
            result = machine.load_and_run(FIB_WORKLOAD,
                                          max_instructions=10_000)
            key = (machine.name, tcache)
            outcomes[key] = (result.instructions, result.cycles,
                             tuple(machine.core.regs))
    for name in ("metal", "trap"):
        assert outcomes[(name, True)] == outcomes[(name, False)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_identical_across_modes(workload_run, name):
    """Every profile workload retires the same instructions and cycles
    with the tcache off, with MJIT off and with MJIT on (the default)."""
    ref, _ = workload_run(name, "tcache_off")
    for mode in ("tcache_nojit", "tcache"):
        result, _ = workload_run(name, mode)
        assert (result.instructions, result.cycles) == (
            ref.instructions, ref.cycles), f"{name}/{mode}"


def test_tight_loop_hit_rate(workload_run):
    """At least 90% of the tight loop's block dispatches hit."""
    _, stats = workload_run("tight_loop")
    assert stats.hit_rate >= 0.90, f"hit rate {stats.hit_rate:.1%}"


@pytest.mark.parametrize("engine", ENGINES)
def test_set_tcache_mid_machine(engine):
    """The flag is switchable on a live machine; both halves of the run
    retire the same architecture."""
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], engine=engine, with_caches=False)
    program = machine.assemble(FIB_WORKLOAD, base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    machine.run(max_instructions=20, raise_on_limit=False)  # fast path
    machine.set_tcache(False)
    machine.run(max_instructions=10_000)       # seed path finishes the run
    assert machine.core.halted

    reference = build_metal_machine([noop], engine=engine,
                                    with_caches=False, tcache=False)
    reference.load_and_run(FIB_WORKLOAD, max_instructions=10_000)
    assert machine.cycles == reference.cycles
    assert machine.core.regs == reference.core.regs


# ---------------------------------------------------------------------------
# counters and snapshot interaction
# ---------------------------------------------------------------------------

def test_perf_counters_surface():
    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    machine.load_and_run(FIB_WORKLOAD, max_instructions=10_000)
    perf = machine.perf
    stats = perf.tcache
    assert perf.guest_instructions > 0
    assert perf.host_seconds > 0
    assert perf.host_mips > 0
    assert stats.blocks_compiled > 0
    # The fib loop's back edge runs inside its compiled block, so it
    # shows up as chain hits rather than block-map hits.
    assert stats.chain_hits > 0
    assert stats.hit_rate > 0.5
    assert stats.fast_instructions > 0
    assert stats.fast_instructions <= perf.guest_instructions
    summary = perf.summary()
    assert "host MIPS" in summary and "hit rate" in summary


def test_snapshot_restore_flushes():
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    program = machine.assemble(SMC_PROGRAM.format(
        new_word=_word_of("addi a0, a0, 100")), base=0x1000)
    machine.load(program)
    machine.core.pc = 0x1000
    snap = take_snapshot(machine)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 101
    # Restore rewrites RAM wholesale (bypassing write hooks); cached
    # translations of the patched code must not survive.
    restore_snapshot(machine, snap)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 101


# ---------------------------------------------------------------------------
# superblock chaining
# ---------------------------------------------------------------------------

def _hop_program(machine, new_word):
    """A loop at 0x1000 chained through a one-instruction stub on a
    *different* page at 0x2000; the guest patches the stub mid-run while
    the predecessor's chain link is warm.

    Iterations 1..97 add 1, iterations 98..100 add 100: a0 ends at 397.
    """
    main = machine.assemble(f"""
_start:
    li   s1, hop
    li   s2, {new_word:#x}
    li   s0, 100
loop:
    j    hop
back:
    addi s0, s0, -1
    li   t1, 3
    bne  s0, t1, cont
    sw   s2, 0(s1)           # evict hop's block while loop chains to it
cont:
    bnez s0, loop
    halt
""", base=0x1000, extra_symbols={"hop": 0x2000})
    stub = machine.assemble("""
hop:
    addi a0, a0, 1           # becomes "addi a0, a0, 100" when s0 == 3
    j    back
""", base=0x2000, extra_symbols={"back": main.symbols["back"]})
    machine.load(main)
    machine.load(stub)
    machine.core.pc = 0x1000


@pytest.mark.parametrize("engine", ENGINES)
def test_chained_successor_evicted_mid_run(engine):
    """Evicting the *successor* of a chained pair mid-run must take it
    out of the block map: the predecessor's next transition has to
    compile the patched code, with identical results to the tcache-off
    run."""
    new_word = _word_of("addi a0, a0, 100")
    outcomes = {}
    for tcache in TCACHE:
        noop = MRoutine(name="noop", entry=0, source="mexit\n")
        machine = build_metal_machine([noop], engine=engine,
                                      with_caches=False, tcache=tcache)
        _hop_program(machine, new_word)
        result = machine.run(max_instructions=10_000)
        assert machine.reg("a0") == 397, (
            f"tcache={tcache}: stale chained successor executed after "
            f"cross-page SMC store"
        )
        outcomes[tcache] = (result.instructions, result.cycles,
                            tuple(machine.core.regs))
        if tcache and engine == "functional":
            stats = machine.perf.tcache
            assert stats.chain_hits > 0
            assert stats.invalidations >= 1, (
                "the cross-page SMC store must evict the chained successor"
            )
            # The block now cached at hop was compiled after the
            # eviction: it holds the patched instruction.
            hop = machine.sim.tcache.block_map("mem")[0x2000]
            assert hop.entries[0][0].imm == 100, (
                "evicted successor was not compiled again"
            )
    assert outcomes[True] == outcomes[False]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tcache", TCACHE)
def test_intercept_edge_severs_warm_chain(engine, tcache):
    """Installing the first intercept rule while a chained trampoline
    loop is hot must flush the whole mem namespace — including blocks
    only reachable through chain links."""
    machine = build_metal_machine([SETUP, EMUL_PLUS], engine=engine,
                                  with_caches=False, tcache=tcache)
    machine.load_and_run("""
_start:
    li   s2, 0x3000
    li   t2, 7
    sw   t2, 0(s2)
    li   s0, 60
warm:
    lw   a0, 0(s2)
    j    mid                 # unconditional hop: warms a chain link
mid:
    addi s0, s0, -1
    bnez s0, warm
    li   a0, 0x503           # opcode LOAD, funct3 2: lw only
    li   a1, MR_EMUL
    menter MR_SETUP
    lw   a2, 0(s2)           # must be intercepted, not run from a chain
    halt
""", max_instructions=10_000)
    assert machine.core.metal.intercept.hits == 1
    assert machine.reg("a2") == 1007, (
        "load after micept escaped interception through a warm chain"
    )
    if tcache and engine == "functional":
        assert machine.perf.tcache.chain_hits > 0, (
            "trampoline loop should have followed chain links"
        )


def test_snapshot_restore_severs_chains():
    """flush_all on snapshot restore must also kill chained successors:
    a link into a dropped block may never execute stale code."""
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    noop = MRoutine(name="noop", entry=0, source="mexit\n")
    machine = build_metal_machine([noop], with_caches=False)
    new_word = _word_of("addi a0, a0, 100")
    _hop_program(machine, new_word)
    snap = take_snapshot(machine)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 397
    restore_snapshot(machine, snap)
    machine.run(max_instructions=10_000)
    assert machine.reg("a0") == 397, (
        "chain link survived snapshot restore and replayed patched code"
    )


# ---------------------------------------------------------------------------
# fast-path denial counters
# ---------------------------------------------------------------------------

def test_cached_tight_loop_denied_for_icache():
    """With the default I-cache every guest block is guarded, and the
    counters attribute every retirement to the cache."""
    from repro.profile.registry import MetricsRegistry
    from repro.profile.workloads import workload_source

    machine = build_metal_machine([])
    result = machine.load_and_run(workload_source("tight_loop", 300))
    tc = machine.perf.tcache
    assert tc.denied["icache"] == result.instructions
    assert sum(tc.denied.values()) == result.instructions
    assert tc.fast_loop_instructions == 0
    assert f"icache {result.instructions}" in machine.perf.summary()
    counters = MetricsRegistry(machine).snapshot().counters
    assert counters["denied.icache"] == result.instructions
    assert counters["denied.tlb"] == 0
    tc.reset()
    assert not any(tc.denied.values())


def test_tlb_on_pagetable_app_denied_for_tlb():
    """Normal-mode code under the TLB falls back to step(); every such
    retirement is attributed, and nothing else leaves the fast loop."""
    from tests.test_mram_guest_ram import run_app

    machine = run_app("pagetable", "jit", with_caches=False)
    perf = machine.perf
    denied = perf.tcache.denied
    assert denied["tlb"] > 0
    fallbacks = sum(denied[r] for r in ("tlb", "intercept", "waiting",
                                        "no_block"))
    assert fallbacks == perf.slow_instructions
    assert perf.tcache.fast_loop_instructions == (
        perf.guest_instructions - sum(denied.values()))
    assert perf.tcache.fast_loop_instructions > 0   # boot, MRAM walker


def test_pipeline_engine_denied_for_pipeline_timer():
    from repro.profile.workloads import workload_source

    machine = build_metal_machine([], engine="pipeline", with_caches=False)
    result = machine.load_and_run(workload_source("tight_loop", 100))
    denied = machine.perf.tcache.denied
    assert denied["pipeline_timer"] == result.instructions
