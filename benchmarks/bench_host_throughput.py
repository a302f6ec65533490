"""Host-throughput benchmark for the execution engines.

Unlike the other benchmarks (which regenerate the paper's guest-visible
numbers), this one measures the *simulator*: guest instructions retired
per host second (host MIPS) with the predecoded translation cache
(:mod:`repro.cpu.tcache`) on and off, across three workload shapes:

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
(``tcache_nojit``), and the default machine (``tcache``), whose
batched fast loop runs every block as MJIT-compiled Python (see
:mod:`repro.cpu.jit`).  The JSON records the default machine's win
over the interpreter (``speedup``), plus each mode's fast-loop
instruction count and fast-path denials by reason.  A ``trajectory``
list in the JSON keeps the tight-loop functional numbers of every
earlier run for trend tracking.

Since PR 4 the JSON also records the MPROF ``profiler`` numbers:
tight-loop functional MIPS with the trace event sink detached vs
attached.  Detached must track the PR-3 trajectory entry (the sink
costs one pointer test per retired trace when off); attached overhead
is asserted ≤15% in the full run.

The tcache is architecture-invisible, so for every workload and engine
the guest results (``RunResult.instructions`` / ``cycles``) must be
bit-identical across all three modes — this file asserts that, plus the
headline wins for the functional engine on the tight loop in the
default ``tcache`` mode: ≥2.6× over the interpreter, an MJIT dispatch
share ≥90% and ≥6.16 MIPS absolute (2× the PR-4 trajectory number).
Both the full and the smoke run also assert that poly_branch follows
every target flip inside its dispatch: its tcache ``hits + misses``
stay within 8 of its ``blocks_compiled``.
Results land in ``BENCH_host_throughput.json`` at the repo root.

Run directly (``PYTHONPATH=src python benchmarks/bench_host_throughput.py``)
or via pytest.  ``--smoke`` runs a <30s subset for CI: it checks the
tight-loop hit rate (≥90%), three-way result equality, that chains
actually engage and that mcode_heavy's MRAM instructions retire through
the fast loop, but skips the wall-clock speedup assertions (too noisy
for shared runners); its results land in
``BENCH_host_throughput_smoke.json`` (uploaded as a CI artifact) so the
committed full-run JSON is never clobbered by a smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter
from typing import Optional

from repro.profile.workloads import build_workload, workload_source

from common import perf_summary

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_host_throughput.json")
SMOKE_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                               "BENCH_host_throughput_smoke.json")
#: Label this revision's tight-loop numbers carry in the JSON trajectory.
TRAJECTORY_LABEL = "block_map_chaining"


def _build(workload: str, engine: str):
    """Build the machine for *workload* (see repro.profile.workloads).
    Always built with the tcache enabled; measurements toggle it with
    ``Machine.set_tcache`` to show the flag is switchable inside one
    process."""
    return build_workload(workload, engine=engine)


#: Measurement modes: (tcache, jit).
_MODES = {
    "tcache_off": (False, True),
    "tcache_nojit": (True, False),
    "tcache": (True, True),
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
        machine = _build(workload, engine)
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


def measure_profiler_overhead(iters: int, reps: int,
                              engine: str = "functional") -> dict:
    """Tight-loop MIPS with the MPROF sink detached vs attached.

    Detached is the tax every user pays for the subsystem existing (one
    pointer test per retired trace, one comparison per chained
    transition); attached is the cost of actually recording.  Guest
    results must be bit-identical in both configurations.
    """
    source = workload_source("tight_loop", iters)

    def best(profiling: bool):
        best_mips, ref, traces = 0.0, None, 0
        for _ in range(reps):
            machine = _build("tight_loop", engine)
            if profiling:
                machine.set_profiling(True)
            host0 = perf_counter()
            result = machine.load_and_run(source,
                                          max_instructions=50_000_000)
            host = perf_counter() - host0
            outcome = (result.instructions, result.cycles)
            if ref is None:
                ref = outcome
            elif outcome != ref:
                raise AssertionError(
                    f"profiler run non-deterministic: {outcome} vs {ref}")
            best_mips = max(best_mips,
                            result.instructions / host / 1e6 if host else 0.0)
            if profiling:
                traces = machine.profiler.total_traces
        return best_mips, ref, traces

    off_mips, off_ref, _ = best(False)
    on_mips, on_ref, traces = best(True)
    assert on_ref == off_ref, (
        f"profiling changed guest-visible results: {on_ref} vs {off_ref}"
    )
    overhead = 1.0 - (on_mips / off_mips) if off_mips else 0.0
    return {
        "workload": "tight_loop",
        "engine": engine,
        "iterations": iters,
        "profiling_off_mips": round(off_mips, 4),
        "profiling_on_mips": round(on_mips, 4),
        "enabled_overhead": round(overhead, 4),
        "traces_recorded": traces,
    }


def _load_previous(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _trajectory(results: dict, previous,
                profiler: Optional[dict] = None) -> list:
    """Per-PR history of the tight-loop functional numbers.

    Carries the previous file's trajectory forward; a pre-trajectory file
    (PR 1) is bootstrapped from its recorded results.  The current run
    replaces any earlier entry with the same label.
    """
    trajectory = list(previous.get("trajectory", [])) if previous else []
    if not trajectory and previous:
        old = (previous.get("results", {})
               .get("tight_loop", {}).get("functional"))
        if old and "tcache_on" in old:
            trajectory.append({
                "label": "pr1_tcache",
                "tight_loop_functional": {
                    "tcache_off_mips": old["tcache_off"]["mips"],
                    "tcache_on_mips": old["tcache_on"]["mips"],
                    "speedup": old["speedup"],
                },
            })
    tight = results.get("tight_loop", {}).get("functional")
    if tight:
        entry = {
            "label": TRAJECTORY_LABEL,
            "tight_loop_functional": {
                "tcache_off_mips": tight["tcache_off"]["mips"],
                "tcache_nojit_mips": tight["tcache_nojit"]["mips"],
                "tcache_mips": tight["tcache"]["mips"],
                "speedup": tight["speedup"],
            },
        }
        mcode = results.get("mcode_heavy", {}).get("functional")
        if mcode:
            entry["mcode_heavy_functional"] = {
                "tcache_mips": mcode["tcache"]["mips"],
            }
        if profiler:
            entry["profiler"] = {
                "profiling_off_mips": profiler["profiling_off_mips"],
                "profiling_on_mips": profiler["profiling_on_mips"],
                "enabled_overhead": profiler["enabled_overhead"],
            }
        trajectory = [e for e in trajectory
                      if e.get("label") != entry["label"]]
        trajectory.append(entry)
    return trajectory


def _emit_json(results: dict, json_path: str = JSON_PATH,
               profiler: Optional[dict] = None) -> str:
    path = os.path.abspath(json_path)
    trajectory = _trajectory(results, _load_previous(path),
                             profiler=profiler)
    payload = {
        "benchmark": "host_throughput",
        "results": results,
        "trajectory": trajectory,
    }
    if profiler:
        payload["profiler"] = profiler
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_table(results: dict) -> None:
    print()
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


def _assert_mram_fast_loop(results: dict) -> None:
    """mcode_heavy retires every instruction, its mroutine's included,
    through the batched fast loop: MRAM blocks need no analysis facts
    to get there."""
    mcode = results["mcode_heavy"]["functional"]["tcache"]
    assert mcode["fast_loop"] == mcode["instructions"], (
        f"mcode_heavy: {mcode['instructions'] - mcode['fast_loop']} "
        f"instructions left the fast loop (denied: {mcode['denied']})"
    )


def _assert_poly_branch_chained(results: dict) -> None:
    """Every target flip of poly_branch is followed inside one dispatch:
    beyond each block's one compile, the run loop looks a block up at
    most 8 times."""
    blocks = results["poly_branch"]["functional"]["tcache"]["blocks"]
    assert blocks["hits"] + blocks["misses"] <= blocks["compiled"] + 8, (
        f"poly_branch returning to the dispatch loop: {blocks['hits']} "
        f"hits + {blocks['misses']} misses for {blocks['compiled']} "
        f"compiled blocks"
    )


def _assert_tight_loop_compiled(tight: dict) -> None:
    """The default machine retires the tight loop through MJIT code."""
    share = tight["tcache"]["jit"]["dispatch_share"]
    assert share >= 0.90, (
        f"tight-loop MJIT dispatch share {share:.1%} < 90%"
    )


def run_full() -> dict:
    iters = {
        "tight_loop": 100_000,
        "chain_trampoline": 60_000,
        "poly_branch": 60_000,
        "syscall_heavy": 20_000,
        "intercept_heavy": 15_000,
        "mcode_heavy": 15_000,
    }
    results = run_suite(iters, reps=3)
    _print_table(results)
    profiler = measure_profiler_overhead(iters["tight_loop"], reps=3)
    print(f"profiler overhead  : off {profiler['profiling_off_mips']:.3f} "
          f"MIPS, on {profiler['profiling_on_mips']:.3f} MIPS "
          f"({profiler['enabled_overhead']:.1%} enabled overhead)")
    path = _emit_json(results, profiler=profiler)
    print(f"results written to {path}")
    assert profiler["enabled_overhead"] <= 0.15, (
        f"profiling-enabled overhead {profiler['enabled_overhead']:.1%} "
        f"> 15% on the tight loop"
    )
    _assert_poly_branch_chained(results)
    tight = results["tight_loop"]["functional"]
    assert tight["speedup"] >= 2.6, (
        f"tight-loop functional speedup {tight['speedup']}x < 2.6x"
    )
    assert tight["tcache"]["hit_rate"] >= 0.90, (
        f"tight-loop hit rate {tight['tcache']['hit_rate']:.1%} < 90%"
    )
    tramp = results["chain_trampoline"]["functional"]
    assert tramp["tcache"]["chains"]["hits"] > 0, (
        "trampoline workload never chained"
    )
    _assert_mram_fast_loop(results)
    _assert_tight_loop_compiled(tight)
    assert tight["tcache"]["mips"] >= 6.16, (
        f"tight-loop MIPS {tight['tcache']['mips']} < 6.16 "
        f"(2x the PR-4 trajectory number)"
    )
    return results


def run_smoke() -> dict:
    """CI subset: functional engine, small iteration counts, one rep.

    Asserts the structural properties (hit rate, cross-mode equality,
    chains engaging, MJIT dispatch share) but not the wall-clock
    speedups, which are too noisy for shared runners.  Writes its
    numbers to a separate smoke JSON so the committed full-run results
    stay untouched.
    """
    iters = {
        "tight_loop": 20_000,
        "chain_trampoline": 10_000,
        "poly_branch": 10_000,
        "syscall_heavy": 2_000,
        "intercept_heavy": 1_500,
        "mcode_heavy": 2_000,
    }
    results = run_suite(iters, reps=1, engines=("functional",))
    _print_table(results)
    profiler = measure_profiler_overhead(iters["tight_loop"], reps=1)
    path = _emit_json(results, json_path=SMOKE_JSON_PATH, profiler=profiler)
    print(f"smoke results written to {path}")
    tight = results["tight_loop"]["functional"]
    assert tight["tcache"]["hit_rate"] >= 0.90, (
        f"tight-loop hit rate {tight['tcache']['hit_rate']:.1%} < 90%"
    )
    for workload in ("tight_loop", "chain_trampoline"):
        chains = results[workload]["functional"]["tcache"]["chains"]
        assert chains["hits"] > 0, (
            f"{workload}: chaining never engaged"
        )
    _assert_poly_branch_chained(results)
    _assert_mram_fast_loop(results)
    # Structural profiler check (no wall-clock asserts).
    assert profiler["traces_recorded"] > 0, "profiler recorded no traces"
    _assert_tight_loop_compiled(tight)
    return results


def test_host_throughput_smoke(benchmark):
    """Pytest entry point: the smoke subset under the benchmark fixture."""
    benchmark.pedantic(run_smoke, rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset (<30s, no speedup assertion)")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            run_smoke()
        else:
            run_full()
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
