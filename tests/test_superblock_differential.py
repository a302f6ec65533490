"""Differential fuzzing of superblock chaining.

Random guest programs (ALU ops, branches, jumps, loads/stores,
``menter``/``mexit`` round-trips into mroutines, and self-modifying
stores) run in lockstep on four functional machines — tcache off
entirely, tcache + superblock chaining with MJIT off (every block runs
the guarded per-entry loop), tcache + chaining + MJIT with the MPROF
trace sink attached (which bounds chained dispatches at the profiling
chain quantum), and tcache + chaining + MJIT (every dispatched block is
compiled to specialized Python on first execution, including blocks
whose code the program later rewrites in place) — and every
architecturally visible piece of state is compared after every chunk
of retired instructions.
Any divergence means the host fast path (the chainer, the profiler or
the JIT) leaked into guest-visible behaviour.

Seeds are deterministic and appear both in the test id and in every
assertion message, so a failure is reproducible with e.g.::

    PYTHONPATH=src python -m pytest "tests/test_superblock_differential.py::test_differential[seed17]"

The number of seeded cases defaults to 200 and can be lowered for smoke
runs with ``--seeds=25`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import random

from repro import build_metal_machine

# The program generator lives in repro.conformance.generator (shared
# with the MCONF campaign runner); with the default GenConfig it is
# seed-for-seed identical to the generator that used to live here —
# tests/test_conformance.py pins golden digests for seeds 0-4.
from repro.conformance.generator import (
    CHUNK, CODE_BASE, DATA_BASE, DATA_WORDS, RAM_BYTES, TOTAL_LIMIT,
    gen_program, routines,
)

_routines = routines
_gen_program = gen_program


def _build(tcache: bool, jit: bool = True):
    return build_metal_machine(
        _routines(), engine="functional", with_caches=False,
        ram_bytes=RAM_BYTES, tcache=tcache, jit=jit,
    )


def _state(machine) -> dict:
    core = machine.core
    return {
        "regs": list(core.regs),
        "pc": core.pc,
        "instret": core.instret,
        "cycles": machine.cycles,
        "halted": core.halted,
        "waiting": core.waiting,
        "in_metal": core.in_metal,
        "mregs": core.metal.mregs.snapshot(),
        "mram_data": bytes(core.metal.mram.data),
        "data": machine.read_bytes(DATA_BASE, 4 * DATA_WORDS),
    }


def _assert_same(seed, step, ref, got, code_len, m_ref, m_got,
                 label: str = "chained"):
    ref_code = m_ref.read_bytes(CODE_BASE, code_len)
    got_code = m_got.read_bytes(CODE_BASE, code_len)
    assert ref_code == got_code, (
        f"seed {seed} step {step}: code bytes diverge ({label})"
    )
    for key in ref:
        assert ref[key] == got[key], (
            f"seed {seed} step {step}: {key} diverges "
            f"(tcache-off={ref[key]!r}, {label}={got[key]!r})"
        )


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        n = metafunc.config.getoption("--seeds")
        metafunc.parametrize("seed", range(n), ids=[f"seed{i}" for i in range(n)])
    if "snap_seed" in metafunc.fixturenames:
        metafunc.parametrize("snap_seed", range(SNAPSHOT_SEEDS),
                             ids=[f"snap{i}" for i in range(SNAPSHOT_SEEDS)])


def test_differential(seed):
    rng = random.Random(0xC0DE + seed)
    source = _gen_program(rng)

    m_ref = _build(tcache=False)       # interpreter, no fast path at all
    m_got = _build(tcache=True, jit=False)  # chaining, guarded loop only
    m_prof = _build(tcache=True)       # chaining + MJIT + MPROF sink
    m_jit = _build(tcache=True)        # chaining + MJIT
    m_prof.set_profiling(True)

    programs = []
    for machine in (m_ref, m_got, m_prof, m_jit):
        program = machine.assemble(source, base=CODE_BASE)
        machine.load(program)
        machine.core.pc = CODE_BASE
        programs.append(program)
    code_len = 4 * len(programs[0].words())

    step = 0
    retired = 0
    while retired < TOTAL_LIMIT:
        m_ref.run(max_instructions=CHUNK, raise_on_limit=False)
        m_got.run(max_instructions=CHUNK, raise_on_limit=False)
        m_prof.run(max_instructions=CHUNK, raise_on_limit=False)
        m_jit.run(max_instructions=CHUNK, raise_on_limit=False)
        step += 1
        retired += CHUNK
        ref, got = _state(m_ref), _state(m_got)
        _assert_same(seed, step, ref, got, code_len, m_ref, m_got)
        _assert_same(seed, step, ref, _state(m_prof), code_len,
                     m_ref, m_prof, label="profiled")
        _assert_same(seed, step, ref, _state(m_jit), code_len,
                     m_ref, m_jit, label="jit")
        if ref["halted"]:
            break

    assert m_ref.core.halted, (
        f"seed {seed}: program failed to halt within {TOTAL_LIMIT} "
        f"instructions (generator bug)"
    )
    # The fast path must actually have been on the hook: the chained
    # machine should have dispatched through the tcache, and the
    # profiled machine's sink should have recorded its dispatches.
    stats = m_got.perf.tcache
    assert stats.dispatches > 0, f"seed {seed}: tcache never dispatched"
    assert m_prof.profiler.total_traces > 0, (
        f"seed {seed}: profiler recorded no traces"
    )
    assert m_jit.perf.tcache.dispatches > 0, (
        f"seed {seed}: jit machine never dispatched"
    )


SNAPSHOT_SEEDS = 8


def test_differential_snapshot_midrun(snap_seed):
    """Snapshot all four machines mid-run, continue to halt in
    lockstep, restore, and replay: the second continuation must retrace
    the first bit-for-bit.  This pins two properties at once — the
    snapshot captures *every* guest-visible bit (missing state shows up
    as a pass-1 vs pass-2 divergence), and the host fast paths carry no
    guest-visible residue across a restore (the tcache still holds
    pass-1 superblocks, the profiler keeps pass-1 traces, the JIT keeps
    pass-1 compiled functions; none may leak into the replayed
    architectural state)."""
    from repro.machine.snapshot import restore_snapshot, take_snapshot

    rng = random.Random(0x5AFE + snap_seed)
    source = _gen_program(rng)

    # Probe the program's total length on a throwaway interpreter so
    # the snapshot lands squarely mid-run, whatever the generator made.
    probe = _build(tcache=False)
    probe.load(probe.assemble(source, base=CODE_BASE))
    probe.core.pc = CODE_BASE
    probe.run(max_instructions=TOTAL_LIMIT, raise_on_limit=False)
    assert probe.core.halted, f"snap seed {snap_seed}: probe never halted"
    snapshot_mid = max(1, probe.core.instret // 2)

    machines = (_build(tcache=False), _build(tcache=True, jit=False),
                _build(tcache=True), _build(tcache=True))
    m_ref, m_got, m_prof, m_jit = machines
    m_prof.set_profiling(True)
    for machine in machines:
        program = machine.assemble(source, base=CODE_BASE)
        machine.load(program)
        machine.core.pc = CODE_BASE
    code_len = 4 * len(program.words())

    def check(step):
        ref = _state(m_ref)
        _assert_same(snap_seed, step, ref, _state(m_got), code_len,
                     m_ref, m_got)
        _assert_same(snap_seed, step, ref, _state(m_prof), code_len,
                     m_ref, m_prof, label="profiled")
        _assert_same(snap_seed, step, ref, _state(m_jit), code_len,
                     m_ref, m_jit, label="jit")
        return ref

    def continue_to_halt():
        retired = 0
        while retired < TOTAL_LIMIT:
            for machine in machines:
                machine.run(max_instructions=CHUNK, raise_on_limit=False)
            retired += CHUNK
            ref = check(f"+{retired}")
            if ref["halted"]:
                return ref
        raise AssertionError(
            f"snap seed {snap_seed}: program failed to halt")

    for machine in machines:
        machine.run(max_instructions=snapshot_mid, raise_on_limit=False)
    mid = check("mid")
    assert not mid["halted"], (
        f"snap seed {snap_seed}: halted before the snapshot point")
    snaps = [take_snapshot(machine) for machine in machines]

    first = continue_to_halt()

    for machine, snap in zip(machines, snaps):
        restore_snapshot(machine, snap)
    replay_mid = check("restored")
    assert not replay_mid["halted"]
    second = continue_to_halt()

    # The replay matches the first continuation on every architectural
    # field.  ``cycles`` is excluded by design: the cycle counter is
    # engine-owned timing state, not snapshot-restorable guest state
    # (instret *is* restored, and is compared).
    for key in first:
        if key == "cycles":
            continue
        assert first[key] == second[key], (
            f"snap seed {snap_seed}: replay diverges on {key} "
            f"(first={first[key]!r}, replay={second[key]!r})"
        )


def test_chaining_engages_on_loops():
    """Structural check: a loopy program actually chains (guards the
    fuzz harness against silently testing chaining-off) and never
    returns to ``run()`` while it loops: every tcache lookup is either
    a block's one compile or the single re-dispatch when the budget
    no longer covers the next block."""
    m = _build(tcache=True)
    program = m.assemble("""
_start:
    li   s0, 2000
loop:
    addi a0, a0, 1
    addi s0, s0, -1
    j    hop
hop:
    blt  zero, s0, loop
    halt
""", base=CODE_BASE)
    m.load(program)
    m.core.pc = CODE_BASE
    m.run(max_instructions=5000, raise_on_limit=False)
    stats = m.perf.tcache
    assert not m.core.halted
    assert m.reg("a0") > 1000
    assert stats.chain_hits > 1000
    assert stats.chain_longest > 100
    assert stats.hits + stats.misses <= stats.blocks_compiled + 1, (
        f"loop returned to run(): {stats.hits} hits + {stats.misses} "
        f"misses for {stats.blocks_compiled} compiled blocks")


def test_polymorphic_branch_stays_chained():
    """A branch whose target flips every iteration stays chained: both
    successors are found in the block map, so every flip is followed
    inside the dispatch and tcache lookups stay O(1), not one per
    iteration."""
    m = _build(tcache=True)
    m.load_and_run("""
_start:
    li   s0, 2000
loop:
    andi t1, s0, 1
    beqz t1, even
odd:
    addi a0, a0, 1
    j    next
even:
    addi a1, a1, 1
next:
    addi s0, s0, -1
    bnez s0, loop
    halt
""", base=CODE_BASE)
    assert m.reg("a0") == 1000        # odd iterations (s0 = 1999, 1997, ...)
    assert m.reg("a1") == 1000
    stats = m.perf.tcache
    assert stats.chain_hits > 1500, (
        f"alternating branch not chaining: {stats.chain_hits} chain hits"
    )
    assert stats.hits + stats.misses <= 8, (
        f"alternating branch returning to run(): {stats.hits} hits + "
        f"{stats.misses} misses"
    )


def test_polymorphic_jalr_three_targets():
    """An indirect jump rotating through three targets stays chained:
    every target is found in the block map inside the dispatch, so the
    only tcache lookups are the blocks' own compiles."""
    m = _build(tcache=True)
    m.load_and_run("""
_start:
    li   s0, 1500
loop:
    # t0 = s0 % 3 via repeated subtraction on the low bits (cheap mod):
    andi t1, s0, 3
    li   t0, arm0
    beqz t1, go
    li   t0, arm1
    addi t1, t1, -1
    beqz t1, go
    li   t0, arm2
go:
    jalr zero, 0(t0)
arm0:
    addi a0, a0, 1
    j    next
arm1:
    addi a1, a1, 1
    j    next
arm2:
    addi a2, a2, 1
next:
    addi s0, s0, -1
    bnez s0, loop
    halt
""", base=CODE_BASE)
    assert m.reg("a0") + m.reg("a1") + m.reg("a2") == 1500
    stats = m.perf.tcache
    assert stats.chain_hits > 1000, (
        f"three-target jalr not chaining: {stats.chain_hits} chain hits"
    )
    assert stats.hits + stats.misses <= stats.blocks_compiled, (
        f"three-target jalr returning to run(): {stats.hits} hits + "
        f"{stats.misses} misses for {stats.blocks_compiled} compiled blocks"
    )
