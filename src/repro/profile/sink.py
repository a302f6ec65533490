"""The trace event sink: layer 1 of MPROF.

The chained run loops in :mod:`repro.cpu.functional` already know the
whole trace they just retired — head pc, namespace, chain length,
instructions retired, cycle cost — and until now threw that knowledge
away.  :class:`TraceEventSink` is the near-zero-overhead receiver for it:

* a **fixed-size ring buffer** of retired-trace records, overwriting the
  oldest record once full (bounded memory no matter how long the run);
* **per-trace aggregates** keyed by ``(namespace, head pc)`` — hit count,
  instructions, chain-length total and cycle total — the table the
  hot-trace report and the metrics registry read;
* a bounded log of **translation-cache events** (compiles, MJIT
  compiles, invalidations, flushes) reported by
  :class:`repro.cpu.tcache.TranslationCache` for the exported timeline.

The sink is strictly host-side and read-only with respect to the guest:
attaching or detaching it never changes architectural state, instruction
counts or cycle counts (asserted by ``tests/test_profile.py``).  When no
sink is attached the engines pay one ``is not None`` test per trace
retirement and nothing per instruction.

:class:`StepHub` is the companion *per-step* event hub: engines expose
one ``trace_fn`` slot, and the hub fans it out to any number of
subscribers (the :class:`repro.machine.trace.Tracer`, debuggers, custom
profilers) so they stop fighting over the raw slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Default ring capacity (records).  4096 retired-trace records cover
#: several hundred thousand instructions of history at typical chain
#: quanta while keeping the buffer a few hundred KiB.
DEFAULT_CAPACITY = 4096

#: Ring-record field order (tuples for speed on the note path).
#: ``(end_cycles, namespace, head_pc, chain_len, instructions, cycles)``
REC_END = 0
REC_NS = 1
REC_PC = 2
REC_CHAIN = 3
REC_INSTRS = 4
REC_CYCLES = 5


@dataclass
class TraceAggregate:
    """Per-trace totals for one ``(namespace, head pc)`` key."""

    ns: str
    head_pc: int
    hits: int
    instructions: int
    chain_total: int
    cycles: int

    @property
    def avg_chain(self) -> float:
        """Mean chained block transitions per retirement."""
        return self.chain_total / self.hits if self.hits else 0.0


def hot_sorted(aggregates, top: Optional[int] = None,
               key: str = "instructions") -> list:
    """Sort :class:`TraceAggregate` rows hottest-first by *key* with the
    stable ``(-count, ns, head_pc)`` tie-break.

    This is the single ordering every hot-trace consumer shares (the
    sink, :class:`repro.profile.registry.Snapshot`, the MSYNTH candidate
    miner): equal-count traces order by namespace then head pc instead
    of dict insertion order, so a report built from merged shard deltas
    is byte-identical to one recorded inline.
    """
    rows = sorted(aggregates,
                  key=lambda a: (-getattr(a, key), a.ns, a.head_pc))
    return rows[:top] if top is not None else rows


class TraceEventSink:
    """Ring buffer + aggregate table for retired-trace records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("sink capacity must be positive")
        self.capacity = capacity
        self._ring = [None] * capacity
        self._idx = 0
        #: Total retired-trace records ever noted (>= len(records()) once
        #: the ring has wrapped).
        self.total_traces = 0
        #: (ns, head_pc) -> [hits, instructions, chain_total, cycles]
        self._traces = {}
        #: Bounded tcache event log: (seq, ts, kind, ns, pc, count).
        self._events = []
        self._events_dropped = 0
        #: Monotonic clock for tcache events (set at attach time to the
        #: engine's cycle counter; trace records carry cycles directly).
        self.clock = None

    # -- hot path ----------------------------------------------------------
    def note_trace(self, ns: str, head_pc: int, chain_len: int,
                   instructions: int, end_cycles: int, cycles: int) -> None:
        """Record one retired trace.

        Called by the engines' run loops once per dispatched trace (a
        head block plus every block chained onto it up to the profiling
        chain quantum).  *end_cycles* is the engine cycle counter at
        retirement; *cycles* the cycles the trace itself cost.
        """
        idx = self._idx
        self._ring[idx] = (end_cycles, ns, head_pc, chain_len,
                           instructions, cycles)
        idx += 1
        self._idx = 0 if idx == self.capacity else idx
        self.total_traces += 1
        agg = self._traces.get((ns, head_pc))
        if agg is None:
            self._traces[(ns, head_pc)] = [1, instructions, chain_len, cycles]
        else:
            agg[0] += 1
            agg[1] += instructions
            agg[2] += chain_len
            agg[3] += cycles

    def tcache_event(self, kind: str, ns: str, pc: int, count: int = 1) -> None:
        """Record one translation-cache event (compile / jit_compile /
        invalidate / flush).  Bounded at the ring capacity; overflow is
        counted, not silently dropped."""
        events = self._events
        if len(events) >= self.capacity:
            self._events_dropped += 1
            return
        ts = self.clock() if self.clock is not None else 0
        events.append((len(events) + self._events_dropped, ts, kind, ns,
                       pc, count))

    # -- read side ---------------------------------------------------------
    def __len__(self) -> int:
        return min(self.total_traces, self.capacity)

    @property
    def wrapped(self) -> bool:
        """Whether the ring has overwritten its oldest records."""
        return self.total_traces > self.capacity

    def records(self) -> list:
        """Retired-trace records, oldest first (unwraps the ring)."""
        if not self.wrapped:
            return [r for r in self._ring[:self._idx]]
        return ([r for r in self._ring[self._idx:]]
                + [r for r in self._ring[:self._idx]])

    def events(self) -> list:
        """The tcache event log (chronological)."""
        return list(self._events)

    @property
    def events_dropped(self) -> int:
        return self._events_dropped

    def trace_table(self) -> dict:
        """Copy of the aggregate table: (ns, head_pc) -> TraceAggregate."""
        return {
            key: TraceAggregate(key[0], key[1], *vals)
            for key, vals in self._traces.items()
        }

    def hot_traces(self, top: Optional[int] = None,
                   key: str = "instructions") -> list:
        """Aggregates sorted hottest-first by *key* (``instructions``,
        ``hits`` or ``cycles``), optionally truncated to *top* rows.

        Equal-count rows tie-break on ``(ns, head_pc)`` so the ordering
        is a pure function of the aggregate *contents* — reports stay
        byte-identical whether the aggregates were recorded inline or
        reassembled from merged shard snapshots (whose dict insertion
        order differs).  MCONF and MFI enforce the same pool-vs-inline
        contract on their reports; synthesis candidate ranking relies
        on it too.
        """
        return hot_sorted(self.trace_table().values(), top=top, key=key)

    def clear(self) -> None:
        """Drop all recorded data (capacity and attachment unchanged)."""
        self._ring = [None] * self.capacity
        self._idx = 0
        self.total_traces = 0
        self._traces.clear()
        self._events.clear()
        self._events_dropped = 0


class StepHub:
    """Fan-out for the engines' single per-step ``trace_fn`` slot."""

    __slots__ = ("fns",)

    def __init__(self):
        self.fns = []

    def dispatch(self, step) -> None:
        for fn in self.fns:
            fn(step)
