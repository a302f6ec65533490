"""MCONF campaign runner: coverage-guided four-way lockstep at scale.

One campaign cell is one seed: the scheduler picks a generator config
from coverage-so-far, the generator emits a random guest program, the
program's words (and every loaded mroutine's words) are cross-checked
against the independent decode oracle, and then four machines execute
the program in lockstep, comparing every architecturally visible bit
after every chunk of retired instructions:

=========== ==========================================================
interp      interpreter, no fast path at all (the reference)
chained     predecoded superblocks + chaining, MJIT off:
            every block runs the guarded per-entry loop
profiled    chaining + MJIT + the MPROF trace sink attached
jit         chaining + MJIT, every block compiled at first dispatch
=========== ==========================================================

Outcome classification (bit-reproducible, detection-first):

====================  ================================================
decode_disagreement   primary decoder and oracle disagree on a word of
                      the program or an mroutine — structural bug
divergence            a fast-path machine's architectural state left
                      lockstep with the interpreter
hang                  the reference failed to halt within the budget
                      (generator-termination bug)
host_error            the simulator raised — must never happen
pass                  none of the above
====================  ================================================

Reports are bit-reproducible: cells are keyed and sorted by seed, the
scheduler is a pure function of (seed, coverage merged in seed order),
and no wall-clock values enter the report — the worker-pool path
produces byte-identical JSON to the inline path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro import build_metal_machine
from repro.parallel import deterministic_pool_map
from repro.conformance.coverage import CoverageMap, program_coverage
from repro.conformance.crosscheck import check_words, crosscheck_sweep
from repro.conformance.generator import (
    CHUNK, CODE_BASE, DATA_BASE, DATA_WORDS, RAM_BYTES, TOTAL_LIMIT,
    GenConfig, assemble_words, generate, routines,
)
from repro.conformance.scheduler import CoverageScheduler

#: rng base shared with the classic four-way fuzzer: unguided seed N
#: generates the exact program ``test_superblock_differential`` seed N.
PROGRAM_SEED_BASE = 0xC0DE

VARIANTS = ("interp", "chained", "profiled", "jit")

OUTCOMES = ("pass", "divergence", "decode_disagreement", "hang",
            "host_error")


@dataclass
class ConformanceConfig:
    """Knobs for one conformance sweep."""

    seeds: tuple = tuple(range(500))
    workers: int = 0            # 0/1 = inline, N = pool size
    guided: bool = True         # coverage-guided scheduling on/off
    round_size: int = 25        # seeds per scheduling round
    chunk: int = CHUNK
    total_limit: int = TOTAL_LIMIT
    oracle_random_words: int = 20_000

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds), "guided": self.guided,
            "round_size": self.round_size, "chunk": self.chunk,
            "total_limit": self.total_limit,
            "oracle_random_words": self.oracle_random_words,
        }


# ----------------------------------------------------------------------
# machines and lockstep state
# ----------------------------------------------------------------------

def build_variant(variant: str, config: GenConfig):
    """One of the four lockstep machines, with the config's mroutines."""
    machine = build_metal_machine(
        routines(config), engine="functional", with_caches=False,
        ram_bytes=RAM_BYTES, tcache=(variant != "interp"),
        jit=(variant != "chained"),
    )
    if variant == "profiled":
        machine.set_profiling(True)
    return machine


def machine_state(machine) -> dict:
    """Every architecturally visible bit the lockstep compares."""
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


def _first_divergence(ref, got, label, step):
    for key in ref:
        if ref[key] != got[key]:
            return (f"step {step}: {key} diverges on {label} "
                    f"(interp={ref[key]!r}, {label}={got[key]!r})")
    return None


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------

def run_cell(seed: int, config: GenConfig, chunk: int = CHUNK,
             total_limit: int = TOTAL_LIMIT) -> dict:
    """Generate, cross-check and lockstep-run one seed."""
    import random

    rng = random.Random(PROGRAM_SEED_BASE + seed)
    result = generate(rng, config)
    record = {
        "seed": seed,
        "config": config.to_dict(),
        "source_sha": result.digest,
        "outcome": "pass",
        "detail": "",
        "steps": 0,
        "instret": 0,
        "buckets": [],
    }
    try:
        words = assemble_words(result.source, config)
        buckets = set(result.gen_buckets) | program_coverage(words)

        machines = {v: build_variant(v, config) for v in VARIANTS}
        code_len = 4 * len(words)
        for machine in machines.values():
            program = machine.assemble(result.source, base=CODE_BASE)
            machine.load(program)
            machine.core.pc = CODE_BASE

        # Structural decode cross-check: the program and every loaded
        # mroutine, word by word, against the independent oracle.
        check = list(words)
        image = machines["interp"].metal_image
        for name in sorted(image.routines):
            routine = image.routines[name]
            routine_words = list(routine.code_words or ())
            check.extend(routine_words)
            buckets |= program_coverage(routine_words)
        record["buckets"] = sorted(buckets)
        disagreements = check_words(check)
        if disagreements:
            record["outcome"] = "decode_disagreement"
            record["detail"] = json.dumps(disagreements[:4], sort_keys=True)
            return record

        ref = machines["interp"]
        step = 0
        retired = 0
        while retired < total_limit:
            for machine in machines.values():
                machine.run(max_instructions=chunk, raise_on_limit=False)
            step += 1
            retired += chunk
            ref_state = machine_state(ref)
            for variant in VARIANTS[1:]:
                got_state = machine_state(machines[variant])
                bad = _first_divergence(ref_state, got_state, variant, step)
                if bad is not None:
                    record["outcome"] = "divergence"
                    record["detail"] = bad
                    record["steps"] = step
                    record["instret"] = ref_state["instret"]
                    return record
                ref_code = ref.read_bytes(CODE_BASE, code_len)
                got_code = machines[variant].read_bytes(CODE_BASE, code_len)
                if ref_code != got_code:
                    record["outcome"] = "divergence"
                    record["detail"] = (f"step {step}: code bytes diverge "
                                        f"on {variant}")
                    record["steps"] = step
                    record["instret"] = ref_state["instret"]
                    return record
            if ref_state["halted"]:
                break

        record["steps"] = step
        record["instret"] = ref.core.instret
        if not ref.core.halted:
            record["outcome"] = "hang"
            record["detail"] = (f"reference not halted within "
                                f"{total_limit} instructions")
    except Exception as exc:  # classified, never re-raised
        record["outcome"] = "host_error"
        record["detail"] = f"{type(exc).__name__}: {exc}"
    return record


def _pool_cell(item):
    """Top-level pool worker (must be picklable)."""
    seed, config_dict, chunk, total_limit = item
    return run_cell(seed, GenConfig.from_dict(config_dict),
                    chunk=chunk, total_limit=total_limit)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------

def run_conformance(config: ConformanceConfig) -> dict:
    """Run the full campaign; returns the (deterministic) report dict."""
    scheduler = CoverageScheduler(guided=config.guided)
    coverage = CoverageMap()
    runs = []
    seeds = list(config.seeds)
    for lo in range(0, len(seeds), config.round_size):
        round_seeds = seeds[lo:lo + config.round_size]
        # Configs derive from coverage merged through the previous
        # round only, so pool and inline runs see identical inputs.
        cells = [
            (seed, scheduler.next_config(seed, coverage).to_dict(),
             config.chunk, config.total_limit)
            for seed in round_seeds
        ]
        results = deterministic_pool_map(_pool_cell, cells, config.workers)
        results.sort(key=lambda r: r["seed"])
        for record in results:
            new = coverage.add(record["buckets"])
            record["new_buckets"] = sorted(new)
            runs.append(record)
    runs.sort(key=lambda r: r["seed"])
    return {
        "config": config.to_dict(),
        "oracle": crosscheck_sweep(n_random=config.oracle_random_words),
        "runs": runs,
        "coverage": {
            "counts": coverage.to_dict(),
            "summary": coverage.summary(),
        },
        "summary": summarize(runs),
    }


def measure_static_coverage(n_seeds: int, guided: bool,
                            round_size: int = 25) -> CoverageMap:
    """Coverage of generated programs alone — no machines are run.

    Used to quantify what coverage-guided scheduling buys: the same
    seeds, guided vs unguided, purely on generate+assemble+decode.
    """
    import random

    scheduler = CoverageScheduler(guided=guided)
    coverage = CoverageMap()
    seeds = list(range(n_seeds))
    for lo in range(0, n_seeds, round_size):
        round_buckets = []
        for seed in seeds[lo:lo + round_size]:
            gen_config = scheduler.next_config(seed, coverage)
            result = generate(random.Random(PROGRAM_SEED_BASE + seed),
                              gen_config)
            words = assemble_words(result.source, gen_config)
            round_buckets.append(result.gen_buckets
                                 | program_coverage(words))
        for buckets in round_buckets:
            coverage.add(buckets)
    return coverage


def summarize(runs) -> dict:
    """Outcome counts plus aggregate retirement (no wall-clock)."""
    outcomes = {o: 0 for o in OUTCOMES}
    instret = 0
    for run in runs:
        outcomes[run["outcome"]] += 1
        instret += run["instret"]
    return {"outcomes": outcomes, "runs": len(runs),
            "instret_total": instret}


def failures(report: dict) -> int:
    """Silent-corruption-class failures: the CI gate counts these."""
    total = report["summary"]["outcomes"]
    return (total["divergence"] + total["decode_disagreement"]
            + total["host_error"]
            + report["oracle"]["n_disagreements"])


def format_summary(report: dict) -> str:
    """Render the campaign summary as the table the CLI prints."""
    summary = report["summary"]
    cov = report["coverage"]["summary"]
    lines = []
    head = "".join(f"{o:>22}" for o in OUTCOMES)
    lines.append(head)
    lines.append("-" * len(head))
    lines.append("".join(f"{summary['outcomes'][o]:>22}" for o in OUTCOMES))
    lines.append(
        f"oracle: {report['oracle']['checked']} words cross-checked, "
        f"{report['oracle']['n_disagreements']} disagreement(s)")
    lines.append(
        f"coverage: {cov['covered']}/{cov['universe']} buckets "
        + " ".join(f"{k}={v}" for k, v in cov["by_family"].items()))
    if cov["missed"]:
        lines.append("missed: " + " ".join(cov["missed"][:12])
                     + (" ..." if len(cov["missed"]) > 12 else ""))
    lines.append(f"retired {summary['instret_total']} reference "
                 f"instructions over {summary['runs']} seeds")
    return "\n".join(lines)


def report_json(report: dict) -> str:
    """Canonical JSON encoding (sorted keys, stable across runs)."""
    return json.dumps(report, indent=2, sort_keys=True)
