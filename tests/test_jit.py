"""MJIT compiler tests (:mod:`repro.cpu.jit`).

The guarded loop and chaining are covered by the differential fuzzer
and the tcache tests; this file pins the *compiler*: the exact Python
source generated for a known block (golden snapshot), guard elision
engaging only at MAS-proven access sites, every block compiling
(including ones with no inlinable entry), the process-wide code memo,
every eviction path dropping compiled code, and the
toggle/config wiring.  Bit-identity of compiled execution
against the interpreter is fuzzed in
``tests/test_superblock_differential.py`` (the fourth lockstep machine).
"""

from __future__ import annotations

import textwrap

from repro import MRoutine, build_metal_machine, build_trap_machine
from repro.cpu import jit as mjit
from repro.machine.builder import MachineConfig
from repro.profile.workloads import WORKLOADS, workload_source
from repro.verify.translate import validate_block

CODE_BASE = 0x1000

LOOP = """
_start:
    li t0, 50
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Constant-offset MRAM accesses: the interval pass proves both sites
#: in-bounds, licensing MJIT's guard elision.
ACC = MRoutine(name="acc", entry=1, data_words=4, source="""
    mld x5, ACC_DATA+0(x0)
    addi x5, x5, 1
    mst x5, ACC_DATA+0(x0)
    wmr m27, x5
    mexitm
""")

#: MReg-indexed MRAM access: in range at runtime (m20 stays 0) but the
#: interval pass cannot bound an ``rmr`` result, so the site is
#: unproven and must keep the guarded ``execute()`` dispatch.
IDX = MRoutine(name="idx", entry=1, data_words=4, mregs=(20,), source="""
    rmr x6, m20
    mld x7, IDX_DATA(x6)
    addi x7, x7, 1
    mst x7, IDX_DATA(x6)
    mexitm
""")

MENTER_LOOP = """
_start:
    li s0, 10
loop:
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _machine(routines=(), jit=True, **cfg):
    return build_metal_machine(
        list(routines),
        config=MachineConfig(with_caches=False, jit=jit, **cfg))


def _jit_sources(machine, ns="mram"):
    table = machine.sim.tcache._mram if ns == "mram" else machine.sim.tcache._mem
    return {pc: b.jit_fn.__jit_source__
            for pc, b in table.items() if b.jit_fn is not None}


# ---------------------------------------------------------------------------
# codegen golden snapshot
# ---------------------------------------------------------------------------
GOLDEN_LOOP_BLOCK = textwrap.dedent("""\
    def _jit(core, block, timer, sync, budget, instret_base, limit):
        regs = core.regs
        timing = timer.timing
        _ml = timing.mem_latency
        bc = _ml if _ml > 1 else 1
        _bt = timing.branch_taken_penalty
        r5 = regs[5]
        r6 = regs[6]
        retired = 0
        loops = 0
        cyc = 0
        while True:
            r6 = (r6 + 1) & 4294967295
            r5 = (r5 + -1) & 4294967295
            retired += 2
            cyc += 2 * bc
            retired += 1
            if r5 != 0:
                cyc += bc + _bt
                if loops < limit and budget - retired >= 3:
                    loops += 1
                    continue
                next_pc = 4104
                break
            else:
                cyc += bc
                next_pc = 4116
                break
        regs[5] = r5
        regs[6] = r6
        timer.cycles += cyc
        return (0, next_pc, retired, loops, None)""")


def test_golden_source_self_loop():
    """The hot self-loop block compiles to exactly the expected source:
    registers as locals, the backward branch internalized as ``while
    True``/``continue``, unit costs batched, state spilled only at the
    exits.  An intentional codegen change means updating this snapshot —
    an unintentional one means a bug."""
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.reg("t1") == 50
    block = m.sim.tcache._mem[CODE_BASE + 8]
    assert block.jit_fn is not None, "hot loop block was not MJIT-compiled"
    assert block.jit_fn.__jit_source__.rstrip() == GOLDEN_LOOP_BLOCK


def test_tier_of_reports_jit():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    assert m.sim.tcache.tier_of("mem", CODE_BASE + 8) == "jit"
    assert m.sim.tcache.tier_of("mem", 0xDEAD) is None


# ---------------------------------------------------------------------------
# MAS-licensed guard elision
# ---------------------------------------------------------------------------
def test_guard_elision_with_proven_facts():
    """Constant-offset ``mld``/``mst`` sites the interval pass proved
    in-bounds compile to direct byte-array access (``_upk``/``_pk``)
    with only the alignment guard kept."""
    m = _machine([ACC])
    image = m.metal_image
    assert image.analysis["acc"].facts.proven_access_words, (
        "interval pass failed to prove the constant-offset accesses")
    assert m.sim.tcache._proven_pcs, "proven pcs never reached the tcache"
    r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    assert r.instructions > 0
    sources = _jit_sources(m)
    assert sources, "no mram block was MJIT-compiled"
    body = "\n".join(sources.values())
    assert "_upk(data" in body and "_pk(data" in body, (
        "proven accesses were not elided to direct array access")
    assert "CAUSE_BUS_ERROR, _o" in body   # alignment guard stays


def test_guard_elision_requires_facts():
    """An access the interval pass cannot bound (mreg-indexed) keeps the
    guarded ``execute()`` dispatch — elision only ever follows a proof."""
    m = _machine([IDX])
    assert not m.metal_image.analysis["idx"].facts.proven_access_words
    m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    sources = _jit_sources(m)
    assert sources, "no mram block was MJIT-compiled"
    body = "\n".join(sources.values())
    assert "_upk(data" not in body and "_pk(data" not in body
    assert "execute(core" in body


def test_elision_parity_with_interpreter():
    """The elided routine is bit-identical to the interpreter run."""
    results = {}
    for jit in (False, True):
        m = _machine([ACC], jit=jit)
        r = m.load_and_run(MENTER_LOOP, base=CODE_BASE)
        results[jit] = (r.instructions, r.cycles, list(m.core.regs),
                        bytes(m.core.metal.mram.data))
    assert results[False] == results[True]


# ---------------------------------------------------------------------------
# eviction drops compiled code
# ---------------------------------------------------------------------------
def test_ram_write_eviction_drops_compiled_code():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    block = m.sim.tcache._mem[CODE_BASE + 8]
    assert block.jit_fn is not None
    m.sim.tcache.on_ram_write(CODE_BASE + 8, 4)
    assert not block.valid and block.jit_fn is None


def test_reload_mroutines_drops_compiled_code():
    m = _machine([ACC])
    m.load_and_run(MENTER_LOOP, base=CODE_BASE)
    blocks = [b for b in m.sim.tcache._mram.values() if b.jit_fn is not None]
    assert blocks
    m.reload_mroutines([IDX])
    # The flush happens on the next mram dispatch (version check).
    m.sim.tcache.mram_block(0, m.core.metal.mram)
    assert all(b.jit_fn is None for b in blocks)


def test_toggle_off_drops_compiled_code():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    blocks = [b for b in m.sim.tcache._mem.values() if b.jit_fn is not None]
    assert blocks
    m.set_tcache_jit(False)
    assert not m.sim.tcache.jit
    assert m.sim.tcache.cached_blocks == 0
    assert all(b.jit_fn is None for b in blocks)


# ---------------------------------------------------------------------------
# wiring: config, counters
# ---------------------------------------------------------------------------
def test_machineconfig_and_toggle_wiring():
    assert build_metal_machine([]).sim.tcache.jit is True
    m = build_metal_machine([], config=MachineConfig(jit=False))
    assert m.sim.tcache.jit is False
    m.set_tcache_jit(True)
    assert m.sim.tcache.jit is True


def test_jit_counters_in_perf_summary():
    m = _machine()
    m.load_and_run(LOOP, base=CODE_BASE)
    tc = m.perf.tcache
    assert tc.jit_blocks > 0
    assert tc.jit_instructions > 0
    assert tc.jit_compile_ms > 0.0
    assert 0.0 < tc.jit_dispatch_share <= 1.0
    assert "tcache jit (MJIT)" in m.perf.summary()


MIXED = """
_start:
    li s1, 0x3000
    li s0, 200
loop:
    addi t1, t1, 1
    sw   t1, 0(s1)
    lw   t2, 0(s1)
    menter 1
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: Pure mroutine with a self-loop, entered 80 times: 97-instruction
#: chunks cut its chains mid-trace.
SPIN = MRoutine(name="spin", entry=0, source="""
    li   t0, 12
spin_loop:
    addi t1, t1, 3
    xor  t2, t1, t0
    addi t0, t0, -1
    bnez t0, spin_loop
    mexit
""")

MCODE = """
_start:
    li   s0, 80
loop:
    menter MR_SPIN
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def _lockstep_state(m):
    core = m.core
    return (list(core.regs), core.pc, core.instret, m.cycles, core.halted,
            bytes(core.metal.mram.data))


def _assert_chunked_lockstep(routines, source):
    """Run ``source`` in lockstep on the interpreter (tcache off), the
    guarded loop (jit off) and MJIT, in 97-instruction chunks that cut
    chains mid-trace: guest state is identical after every chunk, and
    MJIT actually engaged."""
    machines = (_machine(routines, tcache=False),
                _machine(routines, jit=False), _machine(routines))
    for m in machines:
        m.load(m.assemble(source, base=CODE_BASE))
        m.core.pc = CODE_BASE
    for step in range(200):
        for m in machines:
            m.run(max_instructions=97, raise_on_limit=False)
        ref, guarded, jit = map(_lockstep_state, machines)
        assert guarded == ref, f"step {step}: jit-off machine diverged"
        assert jit == ref, f"step {step}: MJIT machine diverged"
        if ref[4]:
            break
    assert machines[0].core.halted
    assert machines[2].perf.tcache.jit_instructions > 0


def test_toggle_parity_mixed_workload():
    """An ALU loop with menter and RAM loads/stores stays bit-identical
    across tcache off, jit off and MJIT in chunked lockstep."""
    _assert_chunked_lockstep([ACC], MIXED)


def test_chunked_lockstep_pure_mroutine_loop():
    """A self-looping pure mroutine entered in a loop stays bit-identical
    across tcache off, jit off and MJIT in chunked lockstep, with chunk
    boundaries falling inside its chained loop."""
    _assert_chunked_lockstep([SPIN], MCODE)


# ---------------------------------------------------------------------------
# one compiled tier: every fast-loop block compiles
# ---------------------------------------------------------------------------
def test_default_machine_runs_fast_loop_only_as_compiled_code():
    """On the default machine (caches on) guest code is guarded by the
    I-cache, and every MRAM instruction of ``mcode_heavy``'s spin
    routine that takes the fast loop runs as MJIT code."""
    workload = WORKLOADS["mcode_heavy"]
    m = build_metal_machine(list(workload.routines))
    m.load_and_run(workload_source("mcode_heavy", 50))
    tc = m.perf.tcache
    assert tc.fast_loop_instructions > 0
    assert tc.jit_instructions == tc.fast_loop_instructions
    assert tc.denied["jit_off"] == 0


def test_benchmark_workloads_run_as_compiled_code(workload_run):
    """On the cache-less benchmark machine MJIT code runs at least 90%
    of the tight loop's block path, and every instruction of
    ``mcode_heavy``, its mroutine's included, retires through the fast
    loop."""
    _, tight = workload_run("tight_loop")
    assert tight.jit_dispatch_share >= 0.90, (
        f"tight-loop MJIT dispatch share {tight.jit_dispatch_share:.1%}")
    result, mcode = workload_run("mcode_heavy")
    assert mcode.fast_loop_instructions == result.instructions, (
        f"denied: {dict(mcode.denied)}")


def _run_state(machine, source):
    r = machine.load_and_run(source, base=CODE_BASE)
    mram = machine.core.metal.mram.data if machine.core.metal else b""
    return (r.instructions, r.cycles, list(machine.core.regs),
            bytes(machine.ram.data), bytes(mram))


CSR_LOOP = """
_start:
    li s0, 5
loop:
    csrrs t1, CSR_CYCLE, zero
    csrrs t2, CSR_INSTRET, zero
    addi s0, s0, -1
    bnez s0, loop
    halt
"""


def test_blocks_without_inlinable_entries_compile():
    """A block whose only entry is a generic ``execute()`` call — an
    MRAM block holding just ``mexit``, a guest block holding just a CSR
    read — compiles, runs bit-identically to the interpreter and passes
    translation validation."""
    noop = MRoutine(name="noop", entry=1, source="mexit\n")
    cases = (
        (build_metal_machine, [noop], MENTER_LOOP, ("mram", "mexit")),
        (build_trap_machine, None, CSR_LOOP, ("mem", "csrrs")),
    )
    for build, routines, source, single in cases:
        args = () if routines is None else (routines,)
        ref = build(*args, config=MachineConfig(with_caches=False,
                                                tcache=False))
        m = build(*args, config=MachineConfig(with_caches=False))
        assert _run_state(m, source) == _run_state(ref, source)
        blocks = [(ns, block) for ns, block in m.sim.tcache.iter_jit_blocks()
                  if (ns, block.entries[0][0].mnemonic) == single
                  and len(block.entries) == 1]
        assert blocks, f"no single-entry {single} block compiled"
        proven = m.sim.tcache.proven_pcs
        for ns, block in blocks:
            assert "execute(core" in block.jit_fn.__jit_source__
            assert validate_block(
                ns, block, proven if ns == "mram" else frozenset()) == []


def test_fresh_machine_compiles_from_memo():
    """A second fresh machine running the same program takes every
    block's code object from the memo and computes the same result."""
    mjit._MEMO.clear()
    first = _machine([ACC])
    state = _run_state(first, MENTER_LOOP)
    second = _machine([ACC])
    assert _run_state(second, MENTER_LOOP) == state
    tc = second.perf.tcache
    assert tc.jit_blocks > 0
    assert tc.jit_memo_hits == tc.jit_blocks
    assert "memo hits" in second.perf.summary()
    counters = second.metrics().snapshot().counters
    assert counters["jit_memo_hits"] == tc.jit_blocks


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(mjit, "_MEMO", {})
    monkeypatch.setattr(mjit, "_MEMO_LIMIT", 3)
    compiled = 0
    for source in (LOOP, CSR_LOOP, workload_source("hash_mix", 20)):
        m = build_trap_machine(with_caches=False)
        m.load_and_run(source, base=CODE_BASE)
        compiled += m.perf.tcache.jit_blocks - m.perf.tcache.jit_memo_hits
        assert 0 < len(mjit._MEMO) <= 3
    assert compiled > 3


def test_jit_off_blocks_counted_as_denied():
    m = _machine(jit=False)
    r = m.load_and_run(LOOP, base=CODE_BASE)
    tc = m.perf.tcache
    assert tc.denied["jit_off"] == r.instructions
    assert tc.fast_loop_instructions == 0 and tc.jit_blocks == 0
    assert f"jit_off {r.instructions}" in m.perf.summary()
    assert m.metrics().snapshot().counters["denied.jit_off"] == r.instructions
    assert m.sim.tcache.tier_of("mem", CODE_BASE + 8) == "guarded"
