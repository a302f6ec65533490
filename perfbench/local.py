"""The single-machine workloads: ``alu_cached`` and ``paper_apps``.

One client runs the seeded pass of jobs one after another, repeating
whole passes until the run's time is up.  Every job builds a fresh
machine on the default :class:`MachineConfig`, so the modelled caches
and the TLB start empty for each job and every pass repeats the same
simulated statistics.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

from repro.errors import ReproError
from repro.metal.loader import load_mroutines
from repro.serve.api import architectural_digest, digest_hex

from perfbench import jobs as jobs_mod
from perfbench.tracing import LAYERS, NO_TRACE


@dataclass
class JobResult:
    """One executed job: host timings, program counters and the check."""

    index: int
    setup_s: float
    wall_s: float
    sim: tuple                  # simulated statistics (must repeat exactly)
    perf: dict                  # host-side engine counters (Machine.perf)
    error: str = None


def sim_stats(machine, tracer=NO_TRACE) -> tuple:
    """Simulated statistics that must repeat exactly across runs: cycles,
    retired instructions, I-/D-cache hits and misses, TLB hits and
    misses, and Metal enters, deliveries and intercepts."""
    core = machine.core
    with tracer.span("mem.cache_stats"):
        caches = ()
        for cache in (core.icache, core.dcache):
            stats = cache.stats if cache is not None else None
            caches += (stats.hits, stats.misses) if stats else (0, 0)
    with tracer.span("mmu.tlb_stats"):
        tlb = (core.tlb.hits, core.tlb.misses)
    with tracer.span("metal.stats"):
        metal = core.metal.stats
        transitions = (metal.enters, sum(metal.deliveries.values()),
                       metal.intercepts)
    return (machine.cycles, core.instret) + caches + tlb + transitions


SIM_FIELDS = ("cycles", "instret", "icache_hits", "icache_misses",
              "dcache_hits", "dcache_misses", "tlb_hits", "tlb_misses",
              "metal_enters", "metal_deliveries", "metal_intercepts")


def perf_counters(machine) -> dict:
    perf = machine.perf
    tc = perf.tcache
    return {
        "host_seconds": perf.host_seconds,
        "guest_instructions": perf.guest_instructions,
        "fast_instructions": tc.fast_instructions,
        "blocks_compiled": tc.blocks_compiled,
        "hit_dispatches": tc.hits + tc.chain_hits,
        "dispatches": tc.dispatches,
        "jit_instructions": tc.jit_instructions,
        "jit_compile_s": tc.jit_compile_ms / 1000.0,
    }


def app_check(job, machine) -> str:
    """Workload-level output checks beyond digest parity."""
    p = job.p
    reg = machine.reg
    if job.kind in ("pagetable", "syscall") and reg("s10"):
        return "an access faulted to the OS"
    if job.kind == "syscall":
        return None if reg("s4") == 0 else "syscall loop did not finish"
    if job.kind == "uli" and reg("s0") != p["packets"]:
        return f"handled {reg('s0')} of {p['packets']} packets"
    if job.kind == "stm":
        base, n = jobs_mod.STM_ACCOUNTS, jobs_mod.STM_ACCOUNT_COUNT
        total = sum(machine.read_word(base + 4 * i)
                    for i in range(n)) & 0xFFFFFFFF
        expected = sum(jobs_mod.stm_balances(p["seed"])) & 0xFFFFFFFF
        if total != expected:
            return f"STM balances sum to {total}, expected {expected}"
    return None


class References:
    """Reference results from the interpreter (tcache off), computed
    outside every timed region and cached by job content."""

    def __init__(self):
        self._cache = {}

    def get(self, job):
        """``(digest hex, simulated statistics)``, or ``(None, None)``
        when the reference run itself fails."""
        if job not in self._cache:
            machine = jobs_mod.prepare(job, NO_TRACE, tcache=False)
            try:
                machine.run(max_instructions=jobs_mod.MAX_INSTRUCTIONS)
            except ReproError:
                self._cache[job] = (None, None)
            else:
                self._cache[job] = (digest_hex(architectural_digest(machine)),
                                    sim_stats(machine))
        return self._cache[job]


def run_job(index, job, tracer, overrides=None) -> tuple:
    """Run *job* once; returns ``(JobResult, digest hex)``."""
    tracer.set_job(index)
    error = None
    with tracer.span("job"):
        t0 = perf_counter()
        machine = jobs_mod.prepare(job, tracer, **(overrides or {}))
        t1 = perf_counter()
        try:
            with tracer.span("cpu.run"):
                machine.run(max_instructions=jobs_mod.MAX_INSTRUCTIONS)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        t2 = perf_counter()
        with tracer.span("cpu.perf"):
            perf = perf_counters(machine)
        sim = sim_stats(machine, tracer)
    digest = digest_hex(architectural_digest(machine))
    if error is None:
        error = app_check(job, machine)
    return JobResult(index, t1 - t0, t2 - t0, sim, perf, error), digest


def run_passes(pass_jobs, seconds, tracer, overrides=None, min_passes=1):
    """Repeat whole passes until *seconds* have elapsed and at least
    *min_passes* passes ran.

    Returns ``(results, digests, pass_walls)``."""
    results, digests, walls = [], [], []
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        for i, job in enumerate(pass_jobs):
            result, digest = run_job(i, job, tracer, overrides)
            results.append(result)
            digests.append(digest)
        # Machines hold reference cycles: collecting them after each
        # pass, outside the jobs' timing, bounds the peak RSS to one
        # pass's garbage whenever the collector would otherwise run.
        gc.collect()
        walls.append(perf_counter() - t0)
    return results, digests, walls


def check(pass_jobs, results, digests, refs) -> list:
    """Compare each executed job with its reference; returns failures."""
    failures = []
    for result, digest in zip(results, digests):
        job = pass_jobs[result.index]
        ref_digest, ref_sim = refs.get(job)
        if result.error is not None:
            failures.append(f"{job.label}: {result.error}")
        elif ref_digest is None:
            failures.append(f"{job.label}: the reference run failed")
        elif digest != ref_digest:
            failures.append(f"{job.label}: digest differs from the reference")
        elif result.sim != ref_sim:
            diff = {f: (a, b) for f, a, b in zip(SIM_FIELDS, result.sim, ref_sim)
                    if a != b}
            failures.append(f"{job.label}: simulated statistics differ "
                            f"from the reference {diff}")
    return failures


def end_to_end(results, pass_jobs) -> dict:
    """The end-to-end metrics of one untraced run."""
    ok = [r for r in results if r.error is None]
    # Throughput is over the jobs' own wall time: the checks between
    # jobs (digests, counter reads, garbage collection) are excluded.
    wall = sum(r.wall_s for r in results)
    times = sorted(r.wall_s for r in ok)
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0]
    return {
        "setup_s": statistics.median(r.setup_s for r in results),
        "job_p50_s": statistics.median(times),
        "job_p90_s": p90,
        "jobs_per_s": len(ok) / wall,
        "host_mips": sum(r.sim[1] for r in ok) / wall / 1e6,
        "sim_cycles": sum(r.sim[0] for r in results[:len(pass_jobs)]),
        "samples_beyond_p90": sum(1 for t in times if t > p90),
    }


def per_layer(pass_jobs, results, tracer, overhead, extra) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    one_pass = results[:len(pass_jobs)]
    total = [sum(r.sim[i] for r in one_pass) for i in range(len(SIM_FIELDS))]
    sim = dict(zip(SIM_FIELDS, total))
    perf = {k: sum(r.perf[k] for r in results) for k in results[0].perf}
    guest = perf["guest_instructions"]
    icache = sim["icache_hits"] + sim["icache_misses"]
    dcache = sim["dcache_hits"] + sim["dcache_misses"]
    tlb = sim["tlb_hits"] + sim["tlb_misses"]
    self_times = tracer.self_times()
    metrics = {
        "cpu.run_s": perf["host_seconds"] / len(results),
        "cpu.mips": guest / perf["host_seconds"] / 1e6,
        "cpu.fast_frac": perf["fast_instructions"] / guest,
        "cpu.blocks_compiled_per_kinstr": perf["blocks_compiled"] / (guest / 1e3),
        "cpu.tcache_hit_rate": (perf["hit_dispatches"] / perf["dispatches"]
                                if perf["dispatches"] else 0.0),
        "cpu.jit_frac": perf["jit_instructions"] / guest,
        "cpu.jit_compile_s": perf["jit_compile_s"] / len(results),
        "mem.icache_miss_rate": sim["icache_misses"] / icache if icache else 0.0,
        "mem.dcache_miss_rate": sim["dcache_misses"] / dcache if dcache else 0.0,
        "mem.icache_accesses": icache,
        "mmu.tlb_misses": sim["tlb_misses"],
        "mmu.tlb_miss_rate": sim["tlb_misses"] / tlb if tlb else 0.0,
        "metal.enters": sim["metal_enters"],
        "metal.deliveries": sim["metal_deliveries"],
        "metal.intercepts": sim["metal_intercepts"],
        "asm.assemble_s": statistics.median(tracer.durations("asm.assemble")),
        "machine.build_s": statistics.median(tracer.durations("machine.build")),
        "machine.load_s": statistics.median(tracer.durations("machine.load")),
        "trace.overhead_frac": overhead,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0) / len(results)
    metrics.update(extra)
    return metrics


def standalone_load_s(pass_jobs, tracer) -> float:
    """Median time of a standalone ``load_mroutines`` on each job's
    routine set (the loader runs inside ``build_metal_machine`` too)."""
    env = jobs_mod.mcode_symbols()
    for i, job in enumerate(pass_jobs):
        tracer.set_job(i)
        routines = jobs_mod.routines_of(job)
        with tracer.span("metal.load_mroutines"):
            load_mroutines(routines, extra_symbols=env)
    return statistics.median(tracer.durations("metal.load_mroutines"))


def replay_mips(pass_jobs, refs, **overrides) -> tuple:
    """Replay one pass with *overrides*; returns ``(MIPS inside run,
    failures)``.  Timing differs from the cached machine, so only the
    architectural digest is compared with the reference."""
    seconds = instructions = 0.0
    failures = []
    for i, job in enumerate(pass_jobs):
        result, digest = run_job(i, job, NO_TRACE, overrides)
        seconds += result.perf["host_seconds"]
        instructions += result.perf["guest_instructions"]
        if result.error is not None or digest != refs.get(job)[0]:
            failures.append(f"{job.label} {overrides}: digest differs")
    return instructions / seconds / 1e6, failures


def describe(pass_jobs) -> list:
    return [{"kind": j.kind, "engine": j.engine, **j.p} for j in pass_jobs]
