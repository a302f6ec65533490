"""MFI fault injector: seeded, reproducible single-fault perturbations.

A :class:`FaultSpec` names *what* breaks (one bit of architectural or
device state) and a :class:`Trigger` names *when* (a retired-instruction
count, a PC match, or the N-th MMIO access to a device).  Both are plain
frozen dataclasses with dict round-trips, so a campaign run is described
entirely by ``(workload, seed)`` and can be replayed bit-for-bit.

Injection goes through the same interfaces the simulated hardware uses:

* RAM flips are performed through the memory bus, so the translation
  cache's write watchers evict any predecoded block covering the flipped
  word — without that the fast path would keep executing the pre-fault
  decode (the same reason ``Mram.corrupt`` bumps ``code_version``).
* Device perturbations use the devices' own fault hooks
  (``Nic.inject_rx_*``, ``BlockDevice.inject_error``/``inject_timeout``,
  ``InterruptController.inject_spurious``/``inject_storm``), which model
  lost/duplicated/corrupted packets, failed or hung I/O, and spurious or
  storming interrupt lines.

Triggers exploit two engine guarantees (see
:meth:`repro.cpu.functional.FunctionalSimulator.run`): the instruction
budget is never overshot — so an ``instret`` trigger fires at *exactly*
the requested retirement count — and ``stop_pc`` stops before executing
the matched instruction in normal mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError

#: Targets that perturb processor/memory state (recoverable from a
#: machine snapshot).
STATE_TARGETS = (
    "gpr_flip", "mreg_flip", "mram_data_flip", "mram_code_flip",
    "ram_flip", "tlb_evict",
)

#: Targets that perturb device/interrupt state (outside the snapshot
#: boundary — snapshots checkpoint the processor, not the world).
DEVICE_TARGETS = (
    "nic_drop", "nic_duplicate", "nic_corrupt",
    "blk_error", "blk_timeout", "irq_spurious", "irq_storm",
)

ALL_TARGETS = STATE_TARGETS + DEVICE_TARGETS

#: Relative selection weights for seeded campaign generation: biased
#: toward state faults, which interact with every workload.
DEFAULT_TARGET_WEIGHTS = (
    ("gpr_flip", 6), ("ram_flip", 5), ("mreg_flip", 3),
    ("mram_data_flip", 2), ("mram_code_flip", 2), ("tlb_evict", 1),
    ("irq_spurious", 1), ("irq_storm", 1),
    ("nic_drop", 1), ("nic_duplicate", 1), ("nic_corrupt", 1),
    ("blk_error", 1), ("blk_timeout", 1),
)


@dataclass(frozen=True)
class Trigger:
    """When a fault fires.

    ======== ======================================================
    instret  after exactly *value* retired instructions
    pc       when normal-mode execution first reaches PC *value*
    mmio     on the *value*-th register access to device *device*
    ======== ======================================================
    """

    kind: str
    value: int
    device: str = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "value": self.value}
        if self.device is not None:
            d["device"] = self.device
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Trigger":
        return cls(d["kind"], d["value"], d.get("device"))


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: a target plus its trigger and parameters."""

    target: str
    trigger: Trigger
    index: int = 0          # register number / TLB slot selector
    address: int = 0        # RAM address or MRAM byte offset
    bit: int = 0            # bit to flip
    line: int = 1           # interrupt line (spurious/storm)
    count: int = 4          # storm re-assertion budget

    def __post_init__(self):
        if self.target not in ALL_TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}")

    def describe(self) -> str:
        at = f"@{self.trigger.kind}={self.trigger.value}"
        if self.trigger.kind == "mmio":
            at += f"({self.trigger.device})"
        if self.target == "gpr_flip":
            what = f"x{1 + self.index % 31} bit {self.bit % 32}"
        elif self.target == "mreg_flip":
            what = f"m{self.index % 32} bit {self.bit % 32}"
        elif self.target in ("mram_data_flip", "mram_code_flip"):
            what = f"byte {self.address:#x} mask {1 << (self.bit % 8):#x}"
        elif self.target == "ram_flip":
            what = f"word {self.address:#x} bit {self.bit % 32}"
        elif self.target in ("irq_spurious", "irq_storm"):
            what = f"line {self.line % 32}"
        else:
            what = ""
        return f"{self.target} {what} {at}".replace("  ", " ")

    def to_dict(self) -> dict:
        return {
            "target": self.target, "trigger": self.trigger.to_dict(),
            "index": self.index, "address": self.address, "bit": self.bit,
            "line": self.line, "count": self.count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            target=d["target"], trigger=Trigger.from_dict(d["trigger"]),
            index=d.get("index", 0), address=d.get("address", 0),
            bit=d.get("bit", 0), line=d.get("line", 1),
            count=d.get("count", 4),
        )


def random_spec(seed: int, horizon: int,
                ram_window=(0x1000, 256),
                targets=None) -> FaultSpec:
    """Derive a fault spec deterministically from *seed*.

    *horizon* bounds the instret trigger (normally the golden run's
    retirement count, so the fault lands inside the workload's
    lifetime); *ram_window* is ``(base, bytes)`` for RAM flips, usually
    the loaded program image; *targets* optionally restricts the target
    pool (default: :data:`DEFAULT_TARGET_WEIGHTS`).
    """
    rng = random.Random(seed)
    if targets is None:
        pool = [t for t, w in DEFAULT_TARGET_WEIGHTS for _ in range(w)]
    else:
        pool = list(targets)
    target = rng.choice(pool)
    trigger = Trigger("instret", rng.randrange(1, max(2, horizon)))
    base, size = ram_window
    words = max(1, size // 4)
    return FaultSpec(
        target=target, trigger=trigger,
        index=rng.randrange(32),
        address=(base + 4 * rng.randrange(words)
                 if target == "ram_flip" else 4 * rng.randrange(words)),
        bit=rng.randrange(32),
        line=rng.choice((0, 1, 2, 3, 5, 9)),
        count=rng.randrange(2, 8),
    )


# ----------------------------------------------------------------------
# applying a fault to a machine
# ----------------------------------------------------------------------

def apply_fault(machine, spec: FaultSpec):
    """Inject *spec* into *machine* now.  Returns ``(applied, detail)``.

    ``applied`` is False when the target does not exist on this machine
    (no Metal unit, empty TLB/RX queue, ...) — the run then simply
    continues unperturbed and classifies as masked.
    """
    core = machine.core
    target = spec.target

    if target == "gpr_flip":
        idx = 1 + spec.index % 31
        old = core.regs[idx]
        core.rset(idx, old ^ (1 << (spec.bit % 32)))
        return True, f"x{idx}: {old:#x} -> {core.regs[idx]:#x}"

    if target == "mreg_flip":
        if core.metal is None:
            return False, "no Metal unit"
        idx = spec.index % 32
        old = core.metal.mregs.read(idx)
        core.metal.mregs.write(idx, old ^ (1 << (spec.bit % 32)))
        return True, f"m{idx}: {old:#x} -> {core.metal.mregs.read(idx):#x}"

    if target in ("mram_data_flip", "mram_code_flip"):
        if core.metal is None:
            return False, "no Metal unit"
        segment = "data" if target == "mram_data_flip" else "code"
        mask = 1 << (spec.bit % 8)
        core.metal.mram.corrupt(segment, spec.address, mask)
        return True, f"mram {segment} byte {spec.address:#x} ^= {mask:#x}"

    if target == "ram_flip":
        addr = spec.address & ~0x3
        # Through the bus: the write hook evicts predecoded blocks
        # covering this word, so the flip is architecturally real.
        old = machine.bus.read_u32(addr)
        machine.bus.write_u32(addr, old ^ (1 << (spec.bit % 32)))
        return True, f"ram {addr:#x}: {old:#010x} ^= bit {spec.bit % 32}"

    if target == "tlb_evict":
        entries = core.tlb.entries
        if not entries:
            return False, "TLB empty"
        victim = entries[spec.index % len(entries)]
        if not core.tlb.invalidate(victim.vpn, victim.asid):
            core.tlb.flush()
            return True, "TLB flushed (victim unmatchable)"
        return True, f"TLB evict vpn {victim.vpn:#x} asid {victim.asid}"

    if target == "nic_drop":
        ok = machine.nic.inject_rx_drop()
        return ok, "RX packet dropped" if ok else "RX queue empty"
    if target == "nic_duplicate":
        ok = machine.nic.inject_rx_duplicate()
        return ok, "RX head duplicated" if ok else "RX queue empty"
    if target == "nic_corrupt":
        ok = machine.nic.inject_rx_corrupt(spec.address, 1 << (spec.bit % 8))
        return ok, "RX payload corrupted" if ok else "RX queue empty"

    if target == "blk_error":
        machine.blockdev.inject_error()
        return True, "block I/O error armed"
    if target == "blk_timeout":
        machine.blockdev.inject_timeout()
        return True, "block I/O timeout armed"

    if target == "irq_spurious":
        machine.irq.inject_spurious(spec.line % 32)
        return True, f"spurious interrupt line {spec.line % 32}"
    if target == "irq_storm":
        machine.irq.inject_storm(spec.line % 32, spec.count)
        return True, f"interrupt storm line {spec.line % 32} x{spec.count}"

    raise ReproError(f"unhandled fault target {target!r}")


# ----------------------------------------------------------------------
# armed execution
# ----------------------------------------------------------------------

@dataclass
class FireReport:
    """What happened when a machine ran with one armed fault."""

    fired: bool = False         # trigger point was reached
    applied: bool = False       # fault actually perturbed state
    detail: str = ""
    instructions: int = 0
    cycles: int = 0
    halted: bool = False
    stop_reason: str = "limit"


class _MmioArm:
    """Count register accesses to one device; fire on the N-th.

    Wraps ``read_reg``/``write_reg`` as instance attributes (shadowing
    the class methods) for the duration of one armed run; always
    unwrapped on exit so the device survives for reuse.
    """

    def __init__(self, machine, device, spec: FaultSpec, nth: int):
        self.machine = machine
        self.device = device
        self.spec = spec
        self.nth = max(1, nth)
        self.seen = 0
        self.report = (False, "")
        self.fired = False

    def _tick(self):
        self.seen += 1
        if self.seen == self.nth and not self.fired:
            self.fired = True
            self.report = apply_fault(self.machine, self.spec)

    def __enter__(self):
        device = self.device
        orig_read, orig_write = device.read_reg, device.write_reg

        def read_reg(offset):
            value = orig_read(offset)
            self._tick()
            return value

        def write_reg(offset, value):
            orig_write(offset, value)
            self._tick()

        device.read_reg = read_reg
        device.write_reg = write_reg
        return self

    def __exit__(self, *exc):
        del self.device.__dict__["read_reg"]
        del self.device.__dict__["write_reg"]
        return False


def run_with_fault(machine, spec: FaultSpec, budget: int) -> FireReport:
    """Run *machine* for up to *budget* instructions with *spec* armed.

    Guest-detectable failures (:class:`ReproError`) propagate to the
    caller for classification; this helper only manages the trigger.
    """
    report = FireReport()

    def account(res):
        report.instructions += res.instructions
        report.cycles += res.cycles
        report.halted = res.halted
        report.stop_reason = res.stop_reason

    trig = spec.trigger
    if trig.kind == "instret":
        t = max(0, int(trig.value))
        if t < budget:
            account(machine.run(max_instructions=t, raise_on_limit=False))
            if not machine.core.halted and report.instructions == t:
                report.fired = True
                report.applied, report.detail = apply_fault(machine, spec)
        if not machine.core.halted and report.instructions < budget:
            account(machine.run(max_instructions=budget - report.instructions,
                                raise_on_limit=False))
        return report

    if trig.kind == "pc":
        res = machine.run(max_instructions=budget, stop_pc=int(trig.value),
                          raise_on_limit=False)
        account(res)
        if res.stop_reason == "stop_pc":
            report.fired = True
            report.applied, report.detail = apply_fault(machine, spec)
        if not machine.core.halted and report.instructions < budget:
            account(machine.run(max_instructions=budget - report.instructions,
                                raise_on_limit=False))
        return report

    if trig.kind == "mmio":
        device = getattr(machine, trig.device or "", None)
        if device is None:
            account(machine.run(max_instructions=budget,
                                raise_on_limit=False))
            report.detail = f"no device {trig.device!r}"
            return report
        with _MmioArm(machine, device, spec, int(trig.value)) as arm:
            account(machine.run(max_instructions=budget,
                                raise_on_limit=False))
        report.fired = arm.fired
        report.applied, report.detail = arm.report
        return report

    raise ReproError(f"unknown trigger kind {trig.kind!r}")
