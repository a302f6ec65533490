"""MJIT: the block compiler (predecoded blocks → specialized Python).

The translation cache (:mod:`repro.cpu.tcache`) removes fetch/decode
work; MJIT removes the per-entry dispatch that remains.  Every block
the engine's batched fast loop dispatches is rendered as straight
Python source at its first dispatch and ``exec``-compiled once:

* guest registers used by the trace live in host locals, loaded from
  ``core.regs`` at entry and stored back at exit / any escape —
  a self-looping trace never touches the register file mid-flight;
* decoded fields, immediates and ALU semantics are baked in as literal
  expressions from the micro-op IR (:func:`repro.cpu.tcache.uop_ir`)
  that the MVTV reference also reads, so the two cannot drift;
* the invalidation / budget / chain-quantum guards are hoisted out of
  the instruction stream: plain runs carry no per-entry tests at all,
  and a trace whose terminator targets its own head internalises the
  loop (bounded by the caller's remaining budget and chain quantum);
* cycle accounting batches the unit-cost entries (``cyc += n * bc``);
  inlined loads, stores, muldiv and terminators charge the terms of
  :meth:`SimpleTimer.cost` specialised per entry, and entries left to
  ``execute()`` charge ``timer.cost`` itself — MVTV and the
  differential fuzzer hold bit-identity on cycles, not just state.

Every block compiles: an entry the codegen cannot inline (a CSR or
SYSTEM op, a Metal transition, an unproven ``mld``/``mst``) stays a
generic ``execute()`` call inside the compiled function.

Both fetch namespaces compile through one code generator: an mram
block differs only in its fetch latency (``timing.mram_fetch``) and in
the Metal-only entries it may contain (``rmr``/``wmr``/``mld``/``mst``).

Guard elision (MAS-licensed).  Inside compiled mroutines, an
``mld``/``mst`` whose address the interval pass proved in-bounds
(``RoutineFacts.proven_access_words`` → ``MetalImage.proven_data_pcs``)
is compiled as a raw ``struct`` access on the MRAM data bytearray: the
bounds check is gone because the analysis already discharged it.  The
alignment check stays (an interval proof says nothing about the low
bits), and any site the pass could *not* prove keeps the guarded
``execute()`` dispatch — fact miss ⇒ fall back to the guarded tier,
per-site.

Calling convention (both namespaces)::

    status, next_pc, retired, loops, trap = jit_fn(
        core, block, timer, sync, budget, instret_base, limit)

* ``status == 0`` — normal exit; ``next_pc`` is the successor pc.
* ``status == 1`` — aborted: the block was invalidated mid-trace (DMA
  during a sync, or the trace's own store — SMC; mram blocks are never
  invalidated by either, so for them the escape is dead code);
  ``next_pc`` is the resume pc and no stale entry was executed.
* ``status == 2`` — trap: ``next_pc`` is the faulting pc (epc), ``trap``
  the :class:`TrapException`; registers are already spilled and
  ``timer.cycles`` flushed — the caller only dispatches.

``retired`` counts instructions retired inside the call and ``loops``
the internalised self-loop iterations (chain transitions the caller
credits to ``chain_hits``).  The compiled code reads and writes
``timer.cycles`` directly; the caller passes ``instret_base`` so CSR
reads inside the trace can latch an exact ``core.instret``.

``compile()`` dominates the cost of compiling a block, so its code
object is memoised process-wide, keyed by the generated source text:
a fresh machine, a snapshot restore or ``reload_mroutines`` that meets
the same code again pays only codegen and ``exec``.  The memo is
bounded like the decode memo (:mod:`repro.isa.decoder`): it clears
when it reaches :data:`_MEMO_LIMIT` entries.
"""

from __future__ import annotations

import struct

from repro.cpu import alu
from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.executor import _mem_width, execute
from repro.cpu.tcache import (
    F_CSR,
    F_TERM,
    IR_IMM,
    IR_NOP,
    IR_REG,
    IR_SET,
    uop_ir,
)
from repro.cpu.timing import CONTROL_PENALTY, MULDIV_EXTRA
from repro.isa.instruction import InstrClass

_M = 0xFFFFFFFF
_WORD = struct.Struct("<I")

#: Shared exec namespace: semantics helpers the generated code may call.
#: Everything else (operands, immediates, widths, costs) is baked into
#: the source as literals; per-block instruction objects are added as
#: ``_i<k>`` for the entries that keep generic ``execute()`` dispatch.
_BASE_NS = {
    "execute": execute,
    "TrapException": TrapException,
    "CAUSE_BUS_ERROR": Cause.BUS_ERROR,
    "_upk": _WORD.unpack_from,
    "_pk": _WORD.pack_into,
}
for _name, _fn in alu.REG_OPS.items():
    _BASE_NS["_op_" + _name] = _fn
del _name, _fn

#: Local names the generated source hoists the M-extension extra
#: cycles into, keyed by :data:`MULDIV_EXTRA`'s timing attribute.
_MULDIV_LOCALS = {"div_extra": "_dx", "mul_extra": "_mx"}

#: Timing-model attributes the generated prologue may hoist into locals
#: for the inlined entries, keyed by the local name used in the source.
_TIMING_LOCALS = {
    "_bt": CONTROL_PENALTY["branch"],
    "_jr": CONTROL_PENALTY["jalr"],
    "_jp": CONTROL_PENALTY["jal"],
    **{name: attr for attr, name in _MULDIV_LOCALS.items()},
}

_PLAIN_METAL = frozenset(("rmr", "wmr", "mld", "mst"))


def _r(n: int) -> str:
    """Source expression for guest register *n* (x0 reads are literal)."""
    return "0" if n == 0 else f"r{n}"


def _imm_rhs(m: str, a: str, imm: int) -> str:
    """RHS expression for a reg-imm ALU op (semantics of alu.IMM_OPS)."""
    if m == "addi":
        return f"({a} + {imm}) & 4294967295"
    if m == "xori":
        return f"{a} ^ {imm & _M}"
    if m == "ori":
        return f"{a} | {imm & _M}"
    if m == "andi":
        return f"{a} & {imm & _M}"
    if m == "slli":
        return f"({a} << {imm & 31}) & 4294967295"
    if m == "srli":
        return f"{a} >> {imm & 31}"
    if m == "srai":
        return (f"(({a} - (({a} & 2147483648) << 1)) >> {imm & 31})"
                f" & 4294967295")
    if m == "slti":
        return f"+(({a} ^ 2147483648) < {(imm & _M) ^ 0x80000000})"
    if m == "sltiu":
        return f"+({a} < {imm & _M})"
    raise KeyError(m)


def _reg_rhs(m: str, a: str, b: str) -> str:
    """RHS expression for a reg-reg ALU op (semantics of alu.REG_OPS)."""
    if m == "add":
        return f"({a} + {b}) & 4294967295"
    if m == "sub":
        return f"({a} - {b}) & 4294967295"
    if m == "xor":
        return f"{a} ^ {b}"
    if m == "or":
        return f"{a} | {b}"
    if m == "and":
        return f"{a} & {b}"
    if m == "sll":
        return f"({a} << ({b} & 31)) & 4294967295"
    if m == "srl":
        return f"{a} >> ({b} & 31)"
    if m == "sra":
        return (f"(({a} - (({a} & 2147483648) << 1)) >> ({b} & 31))"
                f" & 4294967295")
    if m == "slt":
        return f"+(({a} ^ 2147483648) < ({b} ^ 2147483648))"
    if m == "sltu":
        return f"+({a} < {b})"
    raise KeyError(m)


def _branch_cond(m: str, a: str, b: str) -> str:
    """Condition expression matching alu.BRANCH_OPS semantics."""
    if m == "beq":
        return f"{a} == {b}"
    if m == "bne":
        return f"{a} != {b}"
    if m == "bltu":
        return f"{a} < {b}"
    if m == "bgeu":
        return f"{a} >= {b}"
    if m == "blt":
        return f"({a} ^ 2147483648) < ({b} ^ 2147483648)"
    if m == "bge":
        return f"({a} ^ 2147483648) >= ({b} ^ 2147483648)"
    raise KeyError(m)


class _Codegen:
    """One block → one Python source string (+ its exec namespace)."""

    def __init__(self, block, proven_pcs):
        self.block = block
        self.proven = proven_pcs
        self.ns = dict(_BASE_NS)
        self.lines = []
        self.indent = 1
        self.tracked = set()        # guest regs living in host locals
        self.timing_needs = set()   # local names from _TIMING_LOCALS
        self.generic = []           # ns keys of execute() entries
        self.trapping = False
        self.units = 0              # pending unit-cost batch

    # -- emission helpers ------------------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line) if line else "")

    def flush_units(self) -> None:
        n = self.units
        if not n:
            return
        self.units = 0
        self.emit(f"retired += {n}")
        self.emit("cyc += bc" if n == 1 else f"cyc += {n} * bc")

    def spill(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"regs[{n}] = r{n}")

    def reload(self) -> None:
        for n in sorted(self.tracked):
            self.emit(f"r{n} = regs[{n}]")

    def abort(self, resume_pc: int) -> None:
        """Escape with status 1 (block invalidated), locals spilled."""
        self.spill()
        self.emit("timer.cycles += cyc")
        self.emit(f"return (1, {resume_pc}, retired, loops, None)")

    # -- scan pass -------------------------------------------------------
    def scan(self) -> None:
        """Classify every entry: the guest registers it touches, and
        whether it can trap."""
        track = self.tracked
        for instr, pc, flags in self.block.entries:
            cls = instr.spec.cls
            if flags & F_TERM:
                if cls is InstrClass.BRANCH:
                    track.update((instr.rs1, instr.rs2))
                    self.timing_needs.add("_bt")
                elif cls is InstrClass.JAL:
                    track.add(instr.rd)
                    self.timing_needs.add("_jp")
                elif cls is InstrClass.JALR:
                    track.update((instr.rs1, instr.rd))
                    self.timing_needs.add("_jr")
                else:
                    self.trapping = True
                continue
            if flags == 0:
                ir = uop_ir(instr, pc)
                if ir is not None:
                    kind, rd, a, b, _m = ir
                    if kind == IR_IMM:
                        track.update((rd, a))
                    elif kind == IR_REG:
                        track.update((rd, a, b))
                    elif kind == IR_SET:
                        track.add(rd)
                    continue
                if cls is InstrClass.MULDIV:
                    track.update((instr.rd, instr.rs1, instr.rs2))
                    self.timing_needs.add(
                        _MULDIV_LOCALS[MULDIV_EXTRA[instr.mnemonic]])
                    continue
                if cls is InstrClass.METAL and instr.mnemonic in _PLAIN_METAL:
                    m = instr.mnemonic
                    if m == "rmr":
                        track.add(instr.rd)
                    elif m == "wmr":
                        track.add(instr.rs1)
                    elif pc in self.proven:
                        # MAS-proven in-bounds mld/mst: raw data access.
                        self.trapping = True  # alignment check remains
                        if m == "mld":
                            track.update((instr.rs1, instr.rd))
                        else:
                            track.update((instr.rs1, instr.rs2))
                    else:
                        self.trapping = True
                    continue
                self.trapping = True
                continue
            if cls is InstrClass.LOAD:
                track.update((instr.rs1, instr.rd))
                self.trapping = True
                continue
            # STORE (F_SYNC | F_STORE)
            track.update((instr.rs1, instr.rs2))
            self.trapping = True
        track.discard(0)

    # -- body emission ---------------------------------------------------
    def emit_entry(self, index: int, entry) -> None:
        instr, pc, flags = entry
        cls = instr.spec.cls
        if flags & F_TERM:
            self.flush_units()
            if cls is InstrClass.BRANCH:
                self._emit_branch(instr, pc)
            elif cls is InstrClass.JAL:
                self._emit_jal(instr, pc)
            elif cls is InstrClass.JALR:
                self._emit_jalr(instr, pc)
            else:
                self._emit_generic(index, instr, pc, flags)
            return
        if flags == 0:
            ir = uop_ir(instr, pc)
            if ir is not None:
                self._emit_ir(ir)
                self.units += 1
                return
            if cls is InstrClass.MULDIV:
                self.flush_units()
                self._emit_muldiv(instr)
                return
            if cls is InstrClass.METAL and instr.mnemonic in _PLAIN_METAL:
                m = instr.mnemonic
                if m == "rmr":
                    if instr.rd:
                        self.emit(f"r{instr.rd} = _mrr({instr.rs1})")
                    self.units += 1
                elif m == "wmr":
                    self.emit(f"_mrw({instr.rd}, {_r(instr.rs1)})")
                    self.units += 1
                elif pc in self.proven:
                    self.flush_units()
                    self._emit_proven_access(instr, pc)
                else:
                    self.flush_units()
                    self._emit_generic(index, instr, pc, flags)
                return
            self.flush_units()
            self._emit_generic(index, instr, pc, flags)
            return
        if cls is InstrClass.LOAD:
            self.flush_units()
            self._emit_load(instr, pc)
            return
        # STORE (F_SYNC | F_STORE)
        self.flush_units()
        self._emit_store(instr, pc)

    def _emit_ir(self, ir) -> None:
        kind, rd, a, b, m = ir
        if kind == IR_NOP:
            return  # still retired + costed via the unit batch
        if kind == IR_IMM:
            self.emit(f"r{rd} = {_imm_rhs(m, _r(a), b)}")
        elif kind == IR_REG:
            self.emit(f"r{rd} = {_reg_rhs(m, _r(a), _r(b))}")
        else:  # IR_SET
            self.emit(f"r{rd} = {a}")

    def _emit_muldiv(self, instr) -> None:
        m = instr.mnemonic
        extra = _MULDIV_LOCALS[MULDIV_EXTRA[m]]
        if instr.rd:
            self.emit(f"r{instr.rd} = _op_{m}"
                      f"({_r(instr.rs1)}, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit(f"cyc += bc + {extra}")

    def _sync_prologue(self, pc: int) -> None:
        """Flush + device sync + invalidation escape (loads/stores)."""
        self.emit("timer.cycles += cyc")
        self.emit("cyc = 0")
        self.emit("sync()")
        self.emit("if not block.valid:")
        self.indent += 1
        self.spill()
        self.emit(f"return (1, {pc}, retired, loops, None)")
        self.indent -= 1

    def _emit_load(self, instr, pc: int) -> None:
        m = instr.mnemonic
        width = _mem_width(m)
        self._sync_prologue(pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_v, _l = read_mem(({_r(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width})")
        if m == "lb":
            self.emit("if _v >= 128:")
            self.emit("    _v |= 4294967040")
        elif m == "lh":
            self.emit("if _v >= 32768:")
            self.emit("    _v |= 4294901760")
        if instr.rd:
            self.emit(f"r{instr.rd} = _v")
        self.emit("retired += 1")
        self.emit("if _l > 1:")
        self.emit("    cyc += bc + _l - 1")
        self.emit("else:")
        self.emit("    cyc += bc")

    def _emit_store(self, instr, pc: int) -> None:
        width = _mem_width(instr.mnemonic)
        self._sync_prologue(pc)
        self.emit(f"epc = {pc}")
        self.emit(f"_l = write_mem(({_r(instr.rs1)} + {instr.imm})"
                  f" & 4294967295, {width}, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit("if _l > 1:")
        self.emit("    cyc += bc + _l - 1")
        self.emit("else:")
        self.emit("    cyc += bc")
        # The store itself may have evicted this block (SMC): escape
        # before any further entry runs, resuming after the store.
        self.emit("if not block.valid:")
        self.indent += 1
        self.abort(pc + 4)
        self.indent -= 1

    def _emit_proven_access(self, instr, pc: int) -> None:
        """MAS-licensed mld/mst: bounds guard elided, alignment kept."""
        self.emit(f"epc = {pc}")
        self.emit(f"_o = ({_r(instr.rs1)} + {instr.imm}) & 4294967295")
        self.emit("if _o & 3:")
        self.emit("    raise TrapException(CAUSE_BUS_ERROR, _o)")
        if instr.mnemonic == "mld":
            if instr.rd:
                self.emit(f"r{instr.rd} = _upk(data, _o)[0]")
        else:
            self.emit(f"_pk(data, _o, {_r(instr.rs2)})")
        self.emit("retired += 1")
        self.emit("cyc += bc + _me")

    def _emit_generic(self, index: int, instr, pc: int, flags: int) -> None:
        key = f"_i{index}"
        self.ns[key] = instr
        self.generic.append(key)
        if flags & F_CSR:
            self.emit("timer.cycles += cyc")
            self.emit("cyc = 0")
            self.emit("core._timer_cycles = timer.cycles")
            self.emit("core.instret = instret_base + retired")
        self.emit(f"epc = {pc}")
        self.spill()
        self.emit("_lv = 0")
        self.emit(f"_s = execute(core, {key}, {pc}, fetch_latency=_ml)")
        self.reload()
        self.emit("_lv = 1")
        self.emit("retired += 1")
        self.emit("cyc += _cost(_s)")
        self.emit("next_pc = _s.next_pc")

    # -- inlined terminators --------------------------------------------
    def _self_loop_guard(self) -> str:
        nlen = len(self.block.entries)
        return f"loops < limit and budget - retired >= {nlen}"

    def _emit_branch(self, instr, pc: int) -> None:
        taken = (pc + instr.imm) & _M
        fall = (pc + 4) & _M
        cond = _branch_cond(instr.mnemonic, _r(instr.rs1), _r(instr.rs2))
        self.emit("retired += 1")
        self.emit(f"if {cond}:")
        self.indent += 1
        self.emit("cyc += bc + _bt")
        if self.looped and taken == self.block.start:
            self.emit(f"if {self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit(f"next_pc = {taken}")
        if self.looped:
            self.emit("break")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit("cyc += bc")
        self.emit(f"next_pc = {fall}")
        if self.looped:
            self.emit("break")
        self.indent -= 1

    def _emit_jal(self, instr, pc: int) -> None:
        target = (pc + instr.imm) & _M
        self.emit("retired += 1")
        self.emit("cyc += bc + _jp")
        if instr.rd:
            self.emit(f"r{instr.rd} = {(pc + 4) & _M}")
        if self.looped and target == self.block.start:
            self.emit(f"if {self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit(f"next_pc = {target}")
        if self.looped:
            self.emit("break")

    def _emit_jalr(self, instr, pc: int) -> None:
        self.emit("retired += 1")
        self.emit("cyc += bc + _jr")
        # Target reads rs1 before the link write (rd == rs1 is legal).
        self.emit(f"_t0 = ({_r(instr.rs1)} + {instr.imm}) & 4294967294")
        if instr.rd:
            self.emit(f"r{instr.rd} = {(pc + 4) & _M}")
        if self.looped:
            self.emit(f"if _t0 == {self.block.start} and "
                      f"{self._self_loop_guard()}:")
            self.emit("    loops += 1")
            self.emit("    continue")
        self.emit("next_pc = _t0")
        if self.looped:
            self.emit("break")

    # -- whole-function assembly ----------------------------------------
    def generate(self):
        block = self.block
        entries = block.entries
        self.scan()
        last = entries[-1]
        term_cls = last[0].spec.cls if last[2] & F_TERM else None
        # Internalise the loop only for exits that can actually target
        # the block head: a statically self-targeting branch/jal, or any
        # jalr (dynamic target, checked at run time).
        self.looped = bool(block.chainable) and (
            (term_cls is InstrClass.BRANCH
             and ((last[1] + last[0].imm) & _M) == block.start)
            or (term_cls is InstrClass.JAL
                and ((last[1] + last[0].imm) & _M) == block.start)
            or term_cls is InstrClass.JALR
        )

        # Body first (into a side buffer) so the prologue can hoist
        # exactly what the body turned out to need.
        head_lines, self.lines = self.lines, []
        if self.trapping:
            self.emit("try:")
            self.indent += 1
        if self.looped:
            self.emit("while True:")
            self.indent += 1
        for index, entry in enumerate(entries):
            self.emit_entry(index, entry)
        self.flush_units()
        if not (last[2] & F_TERM):
            self.emit(f"next_pc = {block.end}")
        if self.looped:
            self.indent -= 1
        if self.trapping:
            self.indent -= 1
            self.emit("except TrapException as trap:")
            self.indent += 1
            # Locals are truth for inlined code, but a trap from inside a
            # generic execute() must NOT spill: the registers were spilled
            # before the call and execute() may have already mutated them.
            if self.generic and self.tracked:
                self.emit("if _lv:")
                self.indent += 1
                self.spill()
                self.indent -= 1
            elif self.tracked:
                self.spill()
            self.emit("timer.cycles += cyc")
            self.emit("return (2, epc, retired, loops, trap)")
            self.indent -= 1
        self.spill()
        self.emit("timer.cycles += cyc")
        self.emit("return (0, next_pc, retired, loops, None)")
        body, self.lines = self.lines, head_lines

        # Prologue: hoist exactly what the body turned out to need.
        self.indent = 0
        self.emit("def _jit(core, block, timer, sync, budget, "
                  "instret_base, limit):")
        self.indent = 1
        self.emit("regs = core.regs")
        self.emit("timing = timer.timing")
        fetch = "mram_fetch" if block.ns == "mram" else "mem_latency"
        self.emit(f"_ml = timing.{fetch}")
        self.emit("bc = _ml if _ml > 1 else 1")
        body_text = "\n".join(body)
        if "bc + _me" in body_text:
            self.emit("_me = _ml - 1 if _ml > 1 else 0")
        for name in sorted(self.timing_needs):
            self.emit(f"{name} = timing.{_TIMING_LOCALS[name]}")
        if "_cost(" in body_text:
            self.emit("_cost = timer.cost")
        if "read_mem(" in body_text:
            self.emit("read_mem = core.read_mem")
        if "write_mem(" in body_text:
            self.emit("write_mem = core.write_mem")
        if "_mr" in body_text or "(data, _o" in body_text:
            self.emit("metal = core.metal")
        if "_mrr(" in body_text:
            self.emit("_mrr = metal.mregs.read")
        if "_mrw(" in body_text:
            self.emit("_mrw = metal.mregs.write")
        if "(data, _o" in body_text:
            self.emit("data = metal.mram.data")
        self.reload()
        self.emit("retired = 0")
        self.emit("loops = 0")
        self.emit("cyc = 0")
        if self.trapping:
            self.emit(f"epc = {block.start}")
        if self.generic:
            self.emit("_lv = 1")
        self.lines.extend(body)
        return "\n".join(self.lines) + "\n"


#: Memo of ``compile()`` code objects, keyed by generated source text.
_MEMO = {}
_MEMO_LIMIT = 1 << 12


def compile_block(block, proven_pcs=frozenset()):
    """Compile *block* (either namespace); returns ``(fn, memo_hit)``.

    *proven_pcs* are the code byte offsets of ``mld``/``mst`` sites the
    MAS interval pass proved in-bounds (``MetalImage.proven_data_pcs``);
    those sites compile to raw data-segment accesses, all others keep
    the guarded ``execute()`` dispatch.  *memo_hit* says whether the
    code object came from the process-wide memo.
    """
    gen = _Codegen(block, proven_pcs)
    source = gen.generate()
    code = _MEMO.get(source)
    memo_hit = code is not None
    if not memo_hit:
        code = compile(source, f"<mjit:{block.ns}:{block.start:#x}>", "exec")
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[source] = code
    exec(code, gen.ns)
    fn = gen.ns["_jit"]
    fn.__jit_source__ = source
    return fn, memo_hit
