"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import MRoutine, build_metal_machine, build_trap_machine


def pytest_addoption(parser):
    parser.addoption(
        "--seeds", type=int, default=200,
        help="number of seeded cases for the superblock differential "
             "fuzz harness (tests/test_superblock_differential.py)",
    )


#: Engine modes the benchmark workloads run in: ``(tcache, jit)`` for
#: the interpreter, the guarded per-entry loop (MJIT off) and the
#: default machine.
WORKLOAD_MODES = {
    "tcache_off": (False, True),
    "tcache_nojit": (True, False),
    "tcache": (True, True),
}


@pytest.fixture(scope="session")
def workload_run():
    """``run(name, mode="tcache") -> (RunResult, perf.tcache)``.

    Runs profile workload *name* at its default iteration count on its
    cache-less benchmark machine in one of :data:`WORKLOAD_MODES`; the
    ``tcache`` mode leaves the machine's MJIT default alone.  Runs
    are deterministic, so each (name, mode) pair runs once per session
    and the tests that gate on the same run share it.
    """
    from repro.profile.workloads import build_workload, workload_source

    runs = {}

    def run(name, mode="tcache"):
        if (name, mode) not in runs:
            tcache, jit = WORKLOAD_MODES[mode]
            machine = build_workload(name)
            machine.set_tcache(tcache)
            if not jit:
                machine.set_tcache_jit(False)
            result = machine.load_and_run(workload_source(name),
                                          max_instructions=50_000_000)
            runs[name, mode] = (result, machine.perf.tcache)
        return runs[name, mode]

    return run


@pytest.fixture
def noop_routine():
    """An mroutine that immediately returns."""
    return MRoutine(name="noop", entry=0, source="mexit\n")


@pytest.fixture
def metal_machine(noop_routine):
    """A Metal machine with a single no-op mroutine, no caches."""
    return build_metal_machine([noop_routine], with_caches=False)


@pytest.fixture
def trap_machine():
    """A plain trap-baseline machine, no caches."""
    return build_trap_machine(with_caches=False)


def run_asm(machine, source, base=0x1000, max_instructions=1_000_000):
    """Assemble, load and run to halt; returns the machine."""
    machine.load_and_run(source, base=base, max_instructions=max_instructions)
    return machine
