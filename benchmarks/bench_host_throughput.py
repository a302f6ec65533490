"""Host-throughput benchmark for the execution engines, on cache-less
machines.

Every row here comes from a machine built with ``with_caches=False``
(:func:`repro.profile.workloads.build_workload`), so these MIPS figures
are cache-less numbers, not the paper's machine.  The default machine
(16 KiB I- and D-caches) is measured by perfbench
(``python3 perfbench/run.py --workload alu_cached``), the repository's
one benchmark.

This file measures the *simulator*: guest instructions retired per
host second (host MIPS) with the predecoded translation cache
(:mod:`repro.cpu.tcache`) on and off, across six workload shapes:

* **tight_loop** — straight-line ALU work in a hot loop: the tcache's
  best case (one block per iteration, 100% hit rate after warmup);
* **syscall_heavy** — every iteration delivers an ECALL to an mroutine
  and returns: stresses the MRAM block namespace and Metal transitions;
* **intercept_heavy** — every iteration's ``lw`` is intercepted and
  emulated by an mroutine: the tcache's worst case (interception active
  disables normal-mode blocks entirely);
* **chain_trampoline** — straight-line work split across blocks glued by
  unconditional jumps: the superblock chainer's best case (one chained
  trace per iteration instead of three dispatches);
* **poly_branch** — a branch whose target flips every iteration: the
  chainer finds either successor in the block map, so every flip is
  followed without returning to the dispatch loop;
* **mcode_heavy** — every iteration ``menter``s an mroutine that spins
  in MRAM: its blocks run through the same batched fast loop as guest
  code, differing only in fetch latency.

The workload programs and machine shapes live in
:mod:`repro.profile.workloads`, shared with ``python -m repro profile``
so a profiled workload and a benchmarked one are the same program.

Each workload is measured in three modes: the interpreter
(``tcache_off``), the translation cache with superblock chaining but
MJIT off, so every block runs the engine's guarded per-entry loop
(``tcache_nojit``), and the default engine (``tcache``), whose batched
fast loop runs every block as MJIT-compiled Python (see
:mod:`repro.cpu.jit`).  The JSON records the default engine's win over
the interpreter (``speedup``), plus each mode's fast-loop instruction
count and fast-path denials by reason.  A ``trajectory`` list in the
JSON keeps the tight-loop functional numbers of every earlier run for
trend tracking.

Guest results (``RunResult.instructions`` / ``cycles``) must be
bit-identical across the three modes.  The run asserts the tight-loop
wall-clock gates of the functional engine: ≥2.6× over the interpreter
and ≥6.16 MIPS absolute (2× the PR-4 trajectory number).  The
behavioural gates (hit rate, MJIT dispatch share, chaining, the MRAM
fast loop, cross-mode identity) are deterministic counters and run in
the tier-1 tests.  Results land in ``BENCH_host_throughput.json`` at
the repo root.

Run with ``PYTHONPATH=src python benchmarks/bench_host_throughput.py``
(several minutes).
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from repro.profile.workloads import build_workload, workload_source

from common import perf_summary

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_host_throughput.json")
#: Label this revision's tight-loop numbers carry in the JSON trajectory.
TRAJECTORY_LABEL = "deterministic_gates"

#: Measurement modes: (tcache, jit).
_MODES = {
    "tcache_off": (False, True),
    "tcache_nojit": (True, False),
    "tcache": (True, True),
}

ITERS = {
    "tight_loop": 100_000,
    "chain_trampoline": 60_000,
    "poly_branch": 60_000,
    "syscall_heavy": 20_000,
    "intercept_heavy": 15_000,
    "mcode_heavy": 15_000,
}


def _measure(workload: str, engine: str, mode: str, iters: int,
             reps: int) -> dict:
    """Best-of-*reps* host MIPS for one configuration (fresh machine per
    rep; deterministic guest results are cross-checked across reps)."""
    tcache, jit = _MODES[mode]
    source = workload_source(workload, iters)
    best_mips = 0.0
    ref = None
    best_stats = None
    last_machine = None
    for _ in range(reps):
        machine = build_workload(workload, engine=engine)
        machine.set_tcache(tcache)
        if not jit:
            machine.set_tcache_jit(False)
        host0 = perf_counter()
        result = machine.load_and_run(source, max_instructions=50_000_000)
        host = perf_counter() - host0
        outcome = (result.instructions, result.cycles)
        if ref is None:
            ref = outcome
        elif outcome != ref:
            raise AssertionError(
                f"{workload}/{engine}: non-deterministic guest results "
                f"{outcome} vs {ref}"
            )
        mips = result.instructions / host / 1e6 if host > 0 else 0.0
        if mips >= best_mips or last_machine is None:
            best_mips = mips
            best_stats = machine.perf.tcache
            last_machine = machine
    perf_summary(last_machine, f"{workload}/{engine}/{mode}")
    row = {
        "mips": round(best_mips, 4),
        "instructions": ref[0],
        "cycles": ref[1],
        "hit_rate": round(best_stats.hit_rate, 4),
    }
    if tcache:
        row["blocks"] = {
            "compiled": best_stats.blocks_compiled,
            "hits": best_stats.hits,
            "misses": best_stats.misses,
        }
        row["chains"] = {
            "hits": best_stats.chain_hits,
            "longest": best_stats.chain_longest,
        }
        row["fast_loop"] = best_stats.fast_loop_instructions
        row["denied"] = {reason: n for reason, n in best_stats.denied.items()
                         if n}
    if tcache and jit:
        row["jit"] = {
            "blocks": best_stats.jit_blocks,
            "instructions": best_stats.jit_instructions,
            "dispatch_share": round(best_stats.jit_dispatch_share, 4),
            "memo_hits": best_stats.jit_memo_hits,
            "compile_ms": round(best_stats.jit_compile_ms, 3),
        }
    return row


def run_suite(iters: dict, reps: int, engines=("functional", "pipeline")):
    results = {}
    for workload, n in iters.items():
        results[workload] = {}
        for engine in engines:
            row = {"iterations": n}
            for mode in _MODES:
                row[mode] = _measure(workload, engine, mode, n, reps)
            off, on = row["tcache_off"], row["tcache"]
            row["speedup"] = round(
                on["mips"] / off["mips"] if off["mips"] else 0.0, 3)
            results[workload][engine] = row
            # The tcache (jit or not) is guest-invisible:
            # identical results in every mode.
            for mode in ("tcache_nojit", "tcache"):
                for key in ("instructions", "cycles"):
                    assert row[mode][key] == off[key], (
                        f"{workload}/{engine}/{mode}: tcache changed "
                        f"guest-visible {key}: {row[mode][key]} vs "
                        f"{off[key]}"
                    )
    return results


def _trajectory(results: dict, previous) -> list:
    """Per-revision history of the tight-loop functional numbers.

    Carries the previous file's trajectory forward; the current run
    replaces any earlier entry with the same label.
    """
    trajectory = list(previous.get("trajectory", [])) if previous else []
    tight = results["tight_loop"]["functional"]
    entry = {
        "label": TRAJECTORY_LABEL,
        "tight_loop_functional": {
            "tcache_off_mips": tight["tcache_off"]["mips"],
            "tcache_nojit_mips": tight["tcache_nojit"]["mips"],
            "tcache_mips": tight["tcache"]["mips"],
            "speedup": tight["speedup"],
        },
        "mcode_heavy_functional": {
            "tcache_mips": results["mcode_heavy"]["functional"]["tcache"]["mips"],
        },
    }
    trajectory = [e for e in trajectory if e.get("label") != entry["label"]]
    trajectory.append(entry)
    return trajectory


def _emit_json(results: dict) -> str:
    path = os.path.abspath(JSON_PATH)
    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = None
    payload = {
        "benchmark": "host_throughput",
        "machine": "cache-less (build_workload, with_caches=False)",
        "results": results,
        "trajectory": _trajectory(results, previous),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_table(results: dict) -> None:
    print()
    print("cache-less machines (with_caches=False)")
    print(f"{'workload':<18} {'engine':<11} {'off MIPS':>9} "
          f"{'nojit MIPS':>10} {'MIPS':>9} {'speedup':>8} {'hit rate':>9}")
    for workload, engines in results.items():
        for engine, row in engines.items():
            print(f"{workload:<18} {engine:<11} "
                  f"{row['tcache_off']['mips']:>9.3f} "
                  f"{row['tcache_nojit']['mips']:>10.3f} "
                  f"{row['tcache']['mips']:>9.3f} "
                  f"{row['speedup']:>7.2f}x "
                  f"{row['tcache']['hit_rate']:>8.1%}")
    print()


def run_full() -> dict:
    results = run_suite(ITERS, reps=3)
    _print_table(results)
    path = _emit_json(results)
    print(f"results written to {path}")
    tight = results["tight_loop"]["functional"]
    assert tight["speedup"] >= 2.6, (
        f"tight-loop functional speedup {tight['speedup']}x < 2.6x"
    )
    assert tight["tcache"]["mips"] >= 6.16, (
        f"tight-loop MIPS {tight['tcache']['mips']} < 6.16 "
        f"(2x the PR-4 trajectory number)"
    )
    return results


def main() -> int:
    try:
        run_full()
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
