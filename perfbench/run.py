"""The repository's benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload alu_cached --seed 1 --seconds 15 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``alu_cached`` — registered loops and generated large-footprint
  programs on the default MachineConfig (16 KiB I- and D-caches, tcache
  on, MJIT off), a seeded minority on the pipeline engine;
* ``paper_apps`` — the paper's §3 applications with their features
  live: custom page tables with the TLB on, STM under interception,
  kenter/kexit system calls, user-level NIC interrupts, and the
  registered ``syscall_heavy`` and ``intercept_heavy``;
* ``fleet_mix`` — ``POST /run`` against the default fleet over loopback.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced window, times the benchmark's calls into each
layer, and reports the per-layer metrics and the tracing overhead.

Every job is checked: its architectural digest and cycle count must
equal those of the reference interpreter (tcache off) on the same
machine shape, computed after the timed region; rejected requests must
carry their expected error kind; and the simulated statistics (cycles,
cache, TLB, delivery and intercept counts) must repeat exactly.  The
cycle model is unvalidated: the repository holds no hardware
measurements, so no error figure is given.  The modelled caches start
empty for each job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full row,
with provenance and every check, goes to ``perfbench/out/``, and a
traced run also writes its spans there as Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("alu_cached", "paper_apps", "fleet_mix")
#: A run repeats whole passes until both the time is up and it holds
#: this many jobs, so at least ten samples lie beyond p90.
MIN_JOBS = 110


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance(args, machine_config, fleet_config) -> dict:
    """Where a result row came from."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha(ROOT / "src"),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine_config": machine_config,
        "fleet_config": fleet_config,
    }


def _git_sha():
    """HEAD's sha when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha(root: Path) -> str:
    """sha256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _config_fields(config) -> dict:
    fields = dataclasses.asdict(config)
    fields.pop("extra_symbols", None)
    fields["timing"] = "TimingModel()" if config.timing is None else repr(config.timing)
    return fields


def run_local(args, tracer) -> dict:
    from perfbench import jobs, local
    from perfbench.tracing import NO_TRACE

    make = jobs.alu_cached_jobs if args.workload == "alu_cached" else jobs.paper_apps_jobs
    pass_jobs = make(args.seed)
    min_passes = -(-MIN_JOBS // len(pass_jobs))
    if not tracer.enabled:
        results, digests, walls = local.run_passes(
            pass_jobs, args.seconds, NO_TRACE, min_passes=min_passes)
        traced = None
    else:
        results, digests, walls = local.run_passes(
            pass_jobs, args.seconds / 2, NO_TRACE)
        traced = local.run_passes(pass_jobs, args.seconds / 2, tracer)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs = local.References()
    failures = local.check(pass_jobs, results, digests, refs)
    out = {
        "attempted": len(results),
        "failures": failures,
        "passes": len(walls),
        "pass_walls": walls,
        "pass_jobs": local.describe(pass_jobs),
        "sim_stats": [r.sim for r in results[:len(pass_jobs)]],
        "end_to_end": dict(local.end_to_end(results, pass_jobs),
                           peak_rss_mb=rss),
    }
    if traced is not None:
        t_results, t_digests, t_walls = traced
        failures += local.check(pass_jobs, t_results, t_digests, refs)
        base = statistics.median(walls[1:] or walls)
        overhead = statistics.median(t_walls) / base - 1.0
        extra = {"metal.load_s": local.standalone_load_s(pass_jobs, tracer),
                 "cpu.cacheless_mips": 0.0, "cpu.cacheless_jit_mips": 0.0}
        if args.workload == "alu_cached":
            # Labelled comparison rows for earlier cache-less headlines.
            for key, overrides in (
                    ("cpu.cacheless_mips", {"with_caches": False}),
                    ("cpu.cacheless_jit_mips", {"with_caches": False, "jit": True})):
                extra[key], bad = local.replay_mips(pass_jobs, refs, **overrides)
                failures += bad
        # Snapshots and serving are off this workload's path.
        extra.update({name: 0 for name in (
            "machine.snapshot_s", "machine.restore_s", "machine.snapshot_bytes",
            "serve.admit_s", "serve.warm_frac", "serve.preemptions_per_job",
            "serve.migrations_per_job", "serve.busy_mips",
            "serve.cold_setup_s", "serve.warm_setup_s")})
        out["per_layer"] = local.per_layer(pass_jobs, t_results, tracer,
                                           overhead, extra)
        out["attempted"] += len(t_results)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.machine.builder import MachineConfig
    from repro.profile.exporters import validate_chrome_trace
    from repro.serve.fleet import FleetConfig

    from perfbench.tracing import NO_TRACE, Tracer

    tracer = Tracer() if args.trace else NO_TRACE
    if args.workload == "fleet_mix":
        from perfbench import fleet

        result = asyncio.run(fleet.run(args.seed, args.seconds, tracer))
        machine_config = dict(_config_fields(MachineConfig(with_caches=False)),
                              built_by="shard")
    else:
        result = run_local(args, tracer)
        machine_config = _config_fields(MachineConfig())
    fleet_config = dataclasses.asdict(FleetConfig())
    # One pass's simulated statistics; equal hashes across runs and
    # between traced and untraced runs show they repeat exactly.
    result["sim_stats_sha256"] = _sha(result.pop("sim_stats"))

    spec = _spec()
    group = "per_layer" if args.trace else "end_to_end"
    values = result[group]
    failures = result["failures"]
    if not args.trace:
        values["ok_frac"] = 1.0 - len(failures) / result["attempted"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        trace = tracer.chrome_trace(args.workload)
        try:
            validate_chrome_trace(trace)
        except ValueError as exc:
            failures.append(f"chrome trace: {exc}")
        (OUT / f"{stem}.trace.json").write_text(json.dumps(trace))
    row = {
        "provenance": dict(provenance(args, machine_config, fleet_config),
                           jobs=result["attempted"]),
        "metrics": metrics,
        "extra": {k: v for k, v in result.items()
                  if k not in ("end_to_end", "per_layer")},
        "values": values,
        "notes": {
            "cycle_model": "unvalidated: the repository holds no hardware "
                           "measurements, so no error figure is given",
            "caches": "the modelled caches and the TLB start empty for each job",
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(row, indent=1, default=str))
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
