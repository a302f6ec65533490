"""The ``fleet_mix`` workload: ``POST /run`` against a live fleet.

The fleet is the one ``python -m repro serve`` starts: the default
:class:`FleetConfig` (two process shards, the default quantum) behind
the real asyncio front end, bound to an ephemeral loopback port.  One
client process keeps ``nproc`` connections busy in a closed loop: each
connection sends its next request when the previous reply arrives.

A pass is a seeded, shuffled list of request bodies:

* registered workloads: every one of them at a size well under one
  quantum (one dispatch, warm after the first request per shard), and
  the four loop workloads at several quanta (preemption, snapshot and
  migration);
* inline programs, distinct within the pass.  A pass holds more of them
  than the shards' warm pools keep, so nearly all of them boot cold,
  through the admission gate, every time;
* a minority that must be rejected: an assembly error, a lint rejection
  and a bad request.

Whole passes repeat until the run's time is up.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import pickle
import random
import resource
import statistics
from time import perf_counter

from repro.machine.builder import DEFAULT_RAM_BYTES, build_metal_machine
from repro.metal.loader import load_mroutines
from repro.profile.workloads import WORKLOADS, workload_source
from repro.serve.api import architectural_digest, digest_hex, parse_request
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.gate import admit_source
from repro.serve.http import start_server

from perfbench import jobs as jobs_mod
from perfbench.tracing import LAYERS, NO_TRACE

HOST = "127.0.0.1"
#: Fleet start-ups timed per run for ``setup_s`` (the last one serves).
SETUP_SAMPLES = 15
#: Distinct inline programs per pass: more than two shards' warm pools
#: (32 configurations each) hold, so repeats across passes boot cold.
INLINE_PER_PASS = 96
#: Instructions targeted by a short registered request (one quantum is
#: 50 000) and by a long one (several quanta).
SHORT_INSTRUCTIONS = 12_000
LONG_INSTRUCTIONS = 140_000
#: Requests per pass for each registered workload at the short size;
#: the loop workloads also run once per pass at the long size.
SHORT_REPEATS = 2
LOOP_WORKLOADS = ("tight_loop", "hash_mix", "chain_trampoline", "poly_branch")
#: Rejected bodies per pass of each kind.
REJECTS_PER_KIND = 2


#: Guest instructions per loop iteration of each registered workload.
_IPI = {"tight_loop": 11, "hash_mix": 9, "chain_trampoline": 12,
        "poly_branch": 7.5, "syscall_heavy": 8, "intercept_heavy": 22.7,
        "mcode_heavy": 102}


def _inline_source(rng: random.Random, index: int) -> str:
    iters = rng.randrange(200, 300)
    body = []
    for _ in range(rng.randrange(8, 11)):
        op = rng.choice(("add", "sub", "xor", "or", "and"))
        rd, rs1, rs2 = (rng.choice(("t1", "t2", "t3", "t4", "s2", "s3"))
                        for _ in range(3))
        body.append(f"    {op}  {rd}, {rs1}, {rs2}")
        if rng.random() < 0.25:
            body.append(f"    sw   {rd}, {4 * rng.randrange(64)}(s4)")
    return "\n".join([
        "_start:",
        f"    li   t0, {iters}",
        f"    li   t1, {rng.randrange(1, 2048)}",
        f"    li   s4, {0x8000 + 256 * (index % 64):#x}",
        "loop:", *body,
        "    addi t0, t0, -1",
        "    bnez t0, loop",
        "    li   t5, CONSOLE_TX",
        f"    li   t6, {ord('a') + index % 26}",
        "    sw   t6, 0(t5)",
        "    halt", ""])


def fleet_requests(seed: int) -> list:
    """One pass: ``[(kind, body, expected error kind or None)]``."""
    rng = random.Random(f"fleet_mix:{seed}")
    requests = []
    for name in sorted(WORKLOADS):
        target = SHORT_INSTRUCTIONS * rng.uniform(0.9, 1.1)
        iters = max(1, int(target / _IPI[name]))
        requests += [("workload", {"workload": name, "iters": iters}, None)
                     ] * SHORT_REPEATS
    for name in LOOP_WORKLOADS:
        requests.append(("workload", {
            "workload": name, "iters": int(LONG_INSTRUCTIONS / _IPI[name])},
            None))
    sources = set()
    while len(sources) < INLINE_PER_PASS:
        sources.add(_inline_source(rng, len(sources)))
    for i, source in enumerate(sorted(sources)):
        requests.append(("inline", {"source": source, "label": f"p{i}"}, None))
    for k in range(REJECTS_PER_KIND):
        tag = rng.randrange(1 << 20)
        requests += [
            ("reject", {"source": f"_start:\n    frob{tag} x1\n    halt\n"},
             "assembly_error"),
            ("reject", {"source": f"_start:\n    li t0, {tag}\n"
                                  "    addi t0, t0, 1\n"}, "lint_rejected"),
            ("reject", {"workload": "tight_loop", "iters": -tag},
             "bad_request"),
        ]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

async def http(port, method, path, body=None):
    """One request on its own connection; returns ``(status, payload)``."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      "Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(data)


async def start_fleet():
    """Start a fleet and its front end; returns ``(fleet, server, port,
    seconds from Fleet.start() to the first GET /healthz 200)``."""
    t0 = perf_counter()
    fleet = Fleet(FleetConfig()).start()
    server = await start_server(fleet, host=HOST, port=0)
    port = server.sockets[0].getsockname()[1]
    status, _ = await http(port, "GET", "/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return fleet, server, port, perf_counter() - t0


async def stop_fleet(fleet, server):
    server.close()
    await server.wait_closed()
    fleet.stop()
    for child in multiprocessing.active_children():
        child.join(5.0)


async def drive(port, requests, seconds, tracer, lanes):
    """Closed loop over whole passes of *requests* for *seconds*.

    Returns ``(outcomes, wall, passes)``; an outcome is
    ``(index in pass, status, payload, latency)``."""
    outcomes = []
    counter = itertools.count()
    state = {"stop": False}
    start = perf_counter()
    n = len(requests)

    async def client(lane):
        while not state["stop"]:
            i = next(counter)
            if i and i % n == 0 and perf_counter() - start >= seconds:
                state["stop"] = True
                return
            kind, body, _ = requests[i % n]
            t0 = perf_counter()
            try:
                status, payload = await http(port, "POST", "/run", body)
            except (OSError, ValueError) as exc:
                status, payload = 0, {"error": {"kind": type(exc).__name__}}
            t1 = perf_counter()
            tracer.record("serve.post_run", t0, t1, job=i, lane=lane)
            outcomes.append((i, status, payload, t1 - t0))

    await asyncio.gather(*(client(lane) for lane in range(lanes)))
    wall = perf_counter() - start
    outcomes.sort(key=lambda o: o[0])
    return outcomes, wall, len(outcomes) // n


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------

def _shard_machine(body, tracer, **overrides):
    """The cache-less machine a shard builds for *body*, loaded."""
    name = body.get("workload")
    routines = list(WORKLOADS[name].routines) if name else []
    with tracer.span("machine.build"):
        machine = build_metal_machine(routines, with_caches=False,
                                      **overrides)
    if name and WORKLOADS[name].setup is not None:
        with tracer.span("machine.boot"):
            WORKLOADS[name].setup(machine)
    source = workload_source(name, body["iters"]) if name else body["source"]
    with tracer.span("asm.assemble"):
        program = machine.assemble(source)
    with tracer.span("machine.load"):
        machine.load(program)
        machine.core.pc = program.symbols.get("_start", program.base)
    return machine


class References:
    """Digest and cycles of each admissible body on the reference
    interpreter (tcache off), cached by body content."""

    def __init__(self):
        self._cache = {}
        self.metal = {}

    def get(self, body):
        key = json.dumps(body, sort_keys=True)
        if key not in self._cache:
            machine = _shard_machine(body, NO_TRACE, tcache=False)
            # A failing reference raises: the run ends without a result.
            machine.run(max_instructions=jobs_mod.MAX_INSTRUCTIONS)
            stats = machine.core.metal.stats
            self.metal[key] = (stats.enters, sum(stats.deliveries.values()),
                               stats.intercepts)
            self._cache[key] = (digest_hex(architectural_digest(machine)),
                                machine.cycles, machine.instret)
        return self._cache[key]


def check(requests, outcomes, refs) -> list:
    failures = []
    for i, status, payload, _ in outcomes:
        kind, body, expected = requests[i % len(requests)]
        if expected is not None:
            got = (payload.get("error") or {}).get("kind")
            if status != 400 or got != expected:
                failures.append(f"{kind} #{i}: expected {expected}, got "
                                f"{status} {got}")
            continue
        if status != 200 or payload.get("status") != "ok":
            failures.append(f"{kind} #{i}: {status} {payload.get('error')}")
            continue
        digest, cycles, _ = refs.get(body)
        result = payload["result"]
        if result["digest_sha"] != digest:
            failures.append(f"{kind} #{i}: digest differs from the reference")
        elif result["cycles"] != cycles:
            failures.append(f"{kind} #{i}: {result['cycles']} cycles, "
                            f"reference {cycles}")
    return failures


def _vm_hwm_kib(pid) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child (the shards)."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        total += _vm_hwm_kib(child.pid)
    return total / 1024.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(requests, outcomes, wall, setups, refs) -> dict:
    admissible = [o for o in outcomes if requests[o[0] % len(requests)][2] is None]
    ok = [o for o in admissible if o[1] == 200]
    times = sorted(o[3] for o in admissible)
    p90 = statistics.quantiles(times, n=10)[-1]
    one_pass = [refs.get(body)[1] for _, body, expected in requests
                if expected is None]
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_p90_s": p90,
        "jobs_per_s": len(ok) / wall,
        "host_mips": sum(o[2]["instructions"] for o in ok) / wall / 1e6,
        "sim_cycles": sum(one_pass),
        "samples_beyond_p90": sum(1 for t in times if t > p90),
    }


def _tcache_totals(metrics) -> dict:
    snap = metrics["fleet_snapshot"]
    totals = {"host_seconds": snap["host_seconds"],
              "guest_instructions": snap["guest_instructions"]}
    for key, value in snap["counters"].items():
        name = key.split("/", 1)[1]
        totals[name] = totals.get(name, 0) + value
    return totals


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def serve_layer(requests, outcomes, before, after) -> dict:
    """``serve`` and ``cpu`` metrics from response fields and from the
    ``/metrics`` deltas across the traced window."""
    ok = [o[2] for o in outcomes
          if requests[o[0] % len(requests)][2] is None and o[1] == 200]
    tc = _delta(_tcache_totals(after), _tcache_totals(before))
    guest = tc["guest_instructions"]

    def busy_seconds(m):
        t = m["throughput"]
        return t["instructions"] / t["busy_mips"] / 1e6 if t["busy_mips"] else 0.0

    def mean_setup(kind):
        seconds = (after["setup"][f"{kind}_seconds_total"]
                   - before["setup"][f"{kind}_seconds_total"])
        key = "cold_boots" if kind == "cold" else "warm_starts"
        count = after["requests"][key] - before["requests"][key]
        return seconds / count if count else 0.0

    instructions = (after["throughput"]["instructions"]
                    - before["throughput"]["instructions"])
    busy = busy_seconds(after) - busy_seconds(before)
    dispatches = tc["hits"] + tc["misses"] + tc["chain_hits"]
    return {
        "cpu.run_s": tc["host_seconds"] / len(ok),
        "cpu.mips": guest / tc["host_seconds"] / 1e6,
        "cpu.fast_frac": tc["fast_instructions"] / guest,
        "cpu.blocks_compiled_per_kinstr": tc["blocks_compiled"] / (guest / 1e3),
        "cpu.tcache_hit_rate": (tc["hits"] + tc["chain_hits"]) / dispatches,
        "cpu.jit_frac": tc["jit_instructions"] / guest,
        "cpu.jit_compile_s": tc["jit_compile_ms"] / 1000.0 / len(ok),
        "serve.warm_frac": sum(1 for r in ok if r["warm"]) / len(ok),
        "serve.preemptions_per_job": sum(r["preemptions"] for r in ok) / len(ok),
        "serve.migrations_per_job": sum(r["migrations"] for r in ok) / len(ok),
        "serve.busy_mips": instructions / busy / 1e6,
        "serve.cold_setup_s": mean_setup("cold"),
        "serve.warm_setup_s": mean_setup("warm"),
    }


def standalone(requests, tracer, refs) -> tuple:
    """Layer timings from calls the benchmark makes itself, once per
    distinct body, outside the serving window: admission, mroutine
    loading, and a snapshot at the quantum boundary restored onto a
    second machine (which then runs to halt and must match the
    reference)."""
    quantum = FleetConfig().quantum
    env = jobs_mod.mcode_symbols()
    seen, failures, sizes = set(), [], []
    for i, (kind, body, expected) in enumerate(requests):
        key = json.dumps(body, sort_keys=True)
        if expected is not None or key in seen:
            continue
        seen.add(key)
        tracer.set_job(i)
        if kind == "inline":
            with tracer.span("serve.admit"):
                admit_source(parse_request(body, f"admit-{i}"), DEFAULT_RAM_BYTES)
        name = body.get("workload")
        with tracer.span("metal.load_mroutines"):
            load_mroutines(list(WORKLOADS[name].routines) if name else [],
                           extra_symbols=env)
        machine = _shard_machine(body, tracer)
        with tracer.span("cpu.run_quantum"):
            machine.run_quantum(quantum)
        with tracer.span("machine.snapshot"):
            blob = pickle.dumps(machine.take_snapshot())
        sizes.append(len(blob))
        second = _shard_machine(body, NO_TRACE)
        with tracer.span("machine.restore"):
            second.restore(pickle.loads(blob))
        second.run(max_instructions=jobs_mod.MAX_INSTRUCTIONS)
        # Console output is device state, outside snapshots: carry it
        # over host-side, as the fleet does.
        console = machine.output + second.output
        if digest_hex(architectural_digest(second, console)) != refs.get(body)[0]:
            failures.append(f"{kind} #{i}: restored run differs from the reference")
    med = statistics.median
    metrics = {
        "serve.admit_s": med(tracer.durations("serve.admit")),
        "metal.load_s": med(tracer.durations("metal.load_mroutines")),
        "asm.assemble_s": med(tracer.durations("asm.assemble")),
        "machine.build_s": med(tracer.durations("machine.build")),
        "machine.load_s": med(tracer.durations("machine.load")),
        "machine.snapshot_s": med(tracer.durations("machine.snapshot")),
        "machine.restore_s": med(tracer.durations("machine.restore")),
        "machine.snapshot_bytes": med(sizes),
    }
    return metrics, failures


def metal_counts(requests, refs) -> dict:
    """Per-pass Metal transitions, from the reference machines (they are
    architectural, so the shards' runs make the same ones)."""
    totals = [0, 0, 0]
    for _, body, expected in requests:
        if expected is None:
            refs.get(body)
            for k, v in enumerate(refs.metal[json.dumps(body, sort_keys=True)]):
                totals[k] += v
    return dict(zip(("metal.enters", "metal.deliveries", "metal.intercepts"),
                    totals))


async def run(seed: int, seconds: float, tracer) -> dict:
    """One run of ``fleet_mix``; returns the result fields for run.py."""
    requests = fleet_requests(seed)
    lanes = len(os.sched_getaffinity(0))
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        fleet, server, _, setup = await start_fleet()
        setups.append(setup)
        await stop_fleet(fleet, server)
    fleet, server, port, setup = await start_fleet()
    setups.append(setup)
    try:
        if not tracer.enabled:
            outcomes, wall, passes = await drive(port, requests, seconds,
                                                 NO_TRACE, lanes)
            rss = peak_rss_mb()
            traced = None
        else:
            # Untraced warm-up pass, then equal untraced and traced
            # windows: the ratio of their per-pass walls is the overhead.
            warmup, _, _ = await drive(port, requests, 0, NO_TRACE, lanes)
            outcomes, wall, passes = await drive(port, requests, seconds / 2,
                                                 NO_TRACE, lanes)
            _, before = await http(port, "GET", "/metrics")
            traced, t_wall, t_passes = await drive(port, requests, seconds / 2,
                                                   tracer, lanes)
            _, after = await http(port, "GET", "/metrics")
            rss = peak_rss_mb()
            overhead = (t_wall / t_passes) / (wall / passes) - 1.0
    finally:
        await stop_fleet(fleet, server)

    refs = References()
    failures = check(requests, outcomes, refs)
    result = {
        "attempted": len(outcomes),
        "failures": failures,
        "passes": passes,
        "setup_samples": setups,
        "sim_stats": [refs.get(body)[1:] for _, body, expected in requests
                      if expected is None],
        "pass_requests": len(requests),
        "lanes": lanes,
        "end_to_end": dict(end_to_end(requests, outcomes, wall, setups, refs),
                           peak_rss_mb=rss),
    }
    if traced is not None:
        failures += check(requests, warmup + traced, refs)
        layer, extra_failures = standalone(requests, tracer, refs)
        failures += extra_failures
        layer.update(serve_layer(requests, traced, before, after))
        layer.update(metal_counts(requests, refs))
        # Shards build cache-less machines with the TLB off, and the
        # labelled cache-less rows belong to alu_cached.
        layer.update({name: 0 for name in (
            "mem.icache_miss_rate", "mem.dcache_miss_rate",
            "mem.icache_accesses", "mmu.tlb_misses", "mmu.tlb_miss_rate",
            "cpu.cacheless_mips", "cpu.cacheless_jit_mips")})
        self_times = tracer.self_times()
        jobs = len(traced)
        layer.update({f"{l}.self_s": self_times.get(l, 0.0) / jobs
                      for l in LAYERS})
        layer["trace.overhead_frac"] = overhead
        result["per_layer"] = layer
        result["attempted"] += len(warmup) + len(traced)
    return result
