"""Decoded-instruction record and instruction classes.

An :class:`Instruction` is the single representation shared by the decoder,
the encoder, the assembler, the disassembler and both execution engines.
It is deliberately a plain dataclass: field semantics depend on the
instruction's :class:`format <Format>` (e.g. ``imm`` is the sign-extended
immediate for I/S/B/J formats and the *upper* immediate, already shifted,
for U-format).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Format(enum.Enum):
    """RISC-V style encoding formats."""

    R = "R"
    I = "I"  # noqa: E741 - standard RISC-V format name
    S = "S"
    B = "B"
    U = "U"
    J = "J"


class InstrClass(enum.Enum):
    """Coarse execution class used for simulator dispatch and interception.

    The Metal interception unit (paper §2.3) matches instructions at this
    granularity or finer; the timing model also keys off the class.
    """

    ALU_IMM = enum.auto()
    ALU_REG = enum.auto()
    LOAD = enum.auto()
    STORE = enum.auto()
    BRANCH = enum.auto()
    JAL = enum.auto()
    JALR = enum.auto()
    LUI = enum.auto()
    AUIPC = enum.auto()
    MULDIV = enum.auto()
    SYSTEM = enum.auto()
    CSR = enum.auto()
    FENCE = enum.auto()
    METAL = enum.auto()        # Table 1 instructions (menter/mexit/rmr/wmr/mld/mst)
    METAL_ARCH = enum.auto()   # §2.3 architectural-feature instructions


@dataclass
class InstrSpec:
    """Static description of one mnemonic (one row of the ISA table)."""

    mnemonic: str
    fmt: Format
    opcode: int
    funct3: int = 0
    funct7: int = 0
    cls: InstrClass = InstrClass.ALU_REG
    #: Operand syntax pattern used by the assembler/disassembler, e.g.
    #: "rd,rs1,imm" or "rd,imm(rs1)" or "mreg,rs1".
    operands: str = ""
    #: True if the instruction is only legal in Metal mode (paper Table 1:
    #: "The rest are only available in Metal mode").
    metal_only: bool = False
    #: For SYSTEM instructions encoded via a fixed 12-bit funct12 field.
    funct12: int = None


@dataclass(slots=True)
class Instruction:
    """One decoded (or to-be-encoded) instruction."""

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    #: Raw CSR number for CSR instructions (alias of imm, kept for clarity).
    csr: int = 0
    #: Filled by the decoder: the matching spec row.
    spec: InstrSpec = field(default=None, repr=False)
    #: Original 32-bit encoding when produced by the decoder.
    raw: int = None

    @property
    def cls(self) -> InstrClass:
        """Execution class of this instruction."""
        return self.spec.cls

    def __str__(self) -> str:
        from repro.isa.disasm import format_instruction

        return format_instruction(self)
