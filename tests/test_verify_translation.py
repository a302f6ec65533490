"""MVTV translation-validator tests (:mod:`repro.verify`).

Four angles:

* corpus cleanliness — every block MJIT compiles across a slice of the
  conformance seed space proves equivalent to its uop IR;
* golden symbolic summaries — the canonical reference summaries of
  three representative hand-written blocks are pinned byte-for-byte
  (``tests/golden/verify_*.txt``), so canonicalisation changes surface
  as diffs rather than silent behaviour shifts;
* mutation detection — seeding a codegen template bug or a loop-guard
  bug makes the validator fail the affected block with a precise
  citation (the acceptance property: a wrong compiler cannot pass);
* exhaustiveness — every uop IR kind and every ALU/branch mnemonic the
  execution model dispatches has a validator rule, so adding a new one
  without teaching the validator fails this suite.
"""

from __future__ import annotations

import contextlib
import pathlib

import pytest

from repro import build_metal_machine
from repro.errors import ExecutionLimitExceeded
from repro.cpu import alu, jit
from repro.cpu import tcache as tcache_mod
from repro.cpu.timing import MULDIV_EXTRA
from repro.isa.instruction import InstrClass
from repro.isa.opcodes import SPECS
from repro.machine.builder import MachineConfig
from repro.verify.corpus import validate_corpus
from repro.verify.model import render_summary
from repro.verify.translate import validate_block
from repro.verify.uopsem import (
    BRANCH_SEM, IMM_SEM, IR_RULES, REG_SEM, reference_summary,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CODE_BASE = 0x1000

#: Self-loop of reg-imm ALU ops: batched retire/cycle accounting and the
#: loop-generalisation machinery.
LOOP = """
_start:
    li t0, 50
loop:
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Load + store in the loop body: sync prologue, memory trap forks and
#: the store-abort (SMC) exit.
MEMLOOP = """
_start:
    li s0, 5
    li s1, 0x2000
loop:
    lw t0, 0(s1)
    addi t0, t0, 3
    sw t0, 4(s1)
    addi s0, s0, -1
    bnez s0, loop
    halt
"""

#: Muldiv dispatch plus the signed-comparison and arithmetic-shift
#: canonicalisations.
MIXLOOP = """
_start:
    li a0, 40
    li a1, 7
loop:
    mul a2, a0, a1
    srai a3, a2, 3
    slt a4, a3, a0
    addi a0, a0, -1
    bnez a0, loop
    halt
"""


def _machine():
    return build_metal_machine([], config=MachineConfig(with_caches=False))


def _compiled_blocks(source):
    machine = _machine()
    machine.load_and_run(source, base=CODE_BASE, max_instructions=100_000)
    return list(machine.sim.tcache.iter_jit_blocks())


def _looped_block(source):
    blocks = [block for ns, block in _compiled_blocks(source) if ns == "mem"]
    assert blocks, "program compiled no blocks"
    looped = [b for b in blocks
              if reference_summary(b, "mem").looped]
    assert len(looped) == 1, "expected exactly one looped block"
    return looped[0]


# ---------------------------------------------------------------------------
# corpus cleanliness
# ---------------------------------------------------------------------------

def test_corpus_slice_validates_clean():
    report = validate_corpus(range(6))
    assert report.findings == []
    assert report.blocks_validated > 0
    assert report.mem_blocks > 0
    assert report.blocks_seen >= report.blocks_validated


def test_hand_written_programs_validate_clean():
    for source in (LOOP, MEMLOOP, MIXLOOP):
        for ns, block in _compiled_blocks(source):
            assert validate_block(ns, block) == []


# ---------------------------------------------------------------------------
# golden symbolic summaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,source", [
    ("verify_loop", LOOP),
    ("verify_memloop", MEMLOOP),
    ("verify_mixloop", MIXLOOP),
])
def test_golden_reference_summary(name, source):
    block = _looped_block(source)
    text = render_summary(reference_summary(block, "mem"))
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert text == golden, (
        f"canonical summary of {name} changed; if intended, regenerate "
        f"tests/golden/{name}.txt (see docs/VALIDATION.md)")


# ---------------------------------------------------------------------------
# mutation detection
# ---------------------------------------------------------------------------

def test_detects_corrupted_imm_template(monkeypatch):
    """An off-by-one in the addi codegen template must fail validation
    with a citation of the affected block."""
    real = jit._imm_rhs

    def corrupt(m, a, imm):
        if m == "addi":
            return f"({a} + {imm + 1}) & 4294967295"
        return real(m, a, imm)

    monkeypatch.setattr(jit, "_imm_rhs", corrupt)
    machine = _machine()
    # The corrupted decrement turns the loop infinite; the limit stop is
    # fine — the block is compiled either way.
    with contextlib.suppress(ExecutionLimitExceeded):
        machine.load_and_run(LOOP, base=CODE_BASE, max_instructions=10_000)
    findings = []
    cited = []
    for ns, block in machine.sim.tcache.iter_jit_blocks():
        fs = validate_block(ns, block)
        findings.extend(fs)
        cited.extend(f.where for f in fs)
    assert findings, "corrupted addi template was not detected"
    assert any("mem:0x" in where for where in cited)


def test_detects_broken_loop_guard(monkeypatch):
    """Dropping the budget clause from the self-loop guard changes the
    loop-exit protocol and must be caught."""
    monkeypatch.setattr(
        jit._Codegen, "_self_loop_guard",
        lambda self: "loops < limit")
    machine = _machine()
    machine.load_and_run(LOOP, base=CODE_BASE, max_instructions=100_000)
    findings = []
    for ns, block in machine.sim.tcache.iter_jit_blocks():
        findings.extend(validate_block(ns, block))
    assert findings, "broken self-loop guard was not detected"


# ---------------------------------------------------------------------------
# exhaustiveness: new kinds/mnemonics must fail until taught
# ---------------------------------------------------------------------------

def test_every_ir_kind_has_a_rule():
    kinds = {
        value for name, value in vars(tcache_mod).items()
        if name.startswith("IR_") and isinstance(value, int)
    }
    assert kinds, "no IR kinds found"
    assert set(IR_RULES) == kinds


MULDIV = frozenset(("mul", "mulh", "mulhsu", "mulhu",
                    "div", "divu", "rem", "remu"))


def test_every_alu_mnemonic_has_semantics():
    assert set(IMM_SEM) == set(alu.IMM_OPS)
    assert set(REG_SEM) | MULDIV == set(alu.REG_OPS)
    assert set(BRANCH_SEM) == set(alu.BRANCH_OPS)
    # The one extra-cycle table the timers and MJIT read covers exactly
    # the M extension.
    assert set(MULDIV_EXTRA) == {
        m for m, spec in SPECS.items() if spec.cls is InstrClass.MULDIV}
