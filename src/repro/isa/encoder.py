"""Instruction -> 32-bit word encoder.

Follows the standard RV32 field layouts (see :mod:`repro.isa.fields`).
The encoder validates operand ranges and raises :class:`EncodeError` for
anything that cannot be represented, so the assembler can surface precise
diagnostics.
"""

from __future__ import annotations

from repro.errors import EncodeError
from repro.isa.fields import fits_signed, fits_unsigned
from repro.isa.instruction import Format, InstrClass, Instruction
from repro.isa.opcodes import SPECS


def _check_reg(name: str, value: int) -> int:
    if not 0 <= value < 32:
        raise EncodeError(f"{name} out of range: {value}")
    return value


#: Encoding fields actually consumed by each operand pattern; everything
#: else is canonicalized to zero so each instruction has one encoding.
_USED_FIELDS = {
    "": frozenset(),
    "rd,rs1,rs2": frozenset({"rd", "rs1", "rs2"}),
    "rd,rs1,imm": frozenset({"rd", "rs1"}),
    "rd,rs1,shamt": frozenset({"rd", "rs1"}),
    "rd,imm(rs1)": frozenset({"rd", "rs1"}),
    "rs2,imm(rs1)": frozenset({"rs1", "rs2"}),
    "rs1,rs2,btarget": frozenset({"rs1", "rs2"}),
    "rd,jtarget": frozenset({"rd"}),
    "rd,uimm": frozenset({"rd"}),
    "rd,csr,rs1": frozenset({"rd", "rs1"}),
    "rd,csr,zimm": frozenset({"rd", "rs1"}),   # zimm lives in rs1
    "entry": frozenset(),
    "rd,mreg": frozenset({"rd", "rs1"}),       # mreg index lives in rs1
    "mreg,rs1": frozenset({"rd", "rs1"}),      # mreg index lives in rd
    "rs1,rs2": frozenset({"rs1", "rs2"}),
    "rs1": frozenset({"rs1"}),
    "rd": frozenset({"rd"}),
    "rd,rs1": frozenset({"rd", "rs1"}),
}


def encode(instr: Instruction) -> int:
    """Encode *instr* into its 32-bit representation."""
    spec = instr.spec or SPECS.get(instr.mnemonic)
    if spec is None:
        raise EncodeError(f"unknown mnemonic: {instr.mnemonic!r}")
    used = _USED_FIELDS[spec.operands]
    rd = _check_reg("rd", instr.rd) if "rd" in used else 0
    rs1 = _check_reg("rs1", instr.rs1) if "rs1" in used else 0
    rs2 = _check_reg("rs2", instr.rs2) if "rs2" in used else 0
    fmt = spec.fmt

    if fmt is Format.R:
        return (
            (spec.funct7 << 25) | (rs2 << 20) | (rs1 << 15)
            | (spec.funct3 << 12) | (rd << 7) | spec.opcode
        )

    if fmt is Format.I:
        imm = instr.imm
        if spec.operands == "rd,rs1,shamt":
            if not fits_unsigned(imm, 5):
                raise EncodeError(f"{spec.mnemonic}: shamt out of range: {imm}")
            imm12 = (spec.funct7 << 5) | imm
        elif spec.cls is InstrClass.CSR:
            csr = instr.csr if instr.csr else instr.imm
            if not fits_unsigned(csr, 12):
                raise EncodeError(f"{spec.mnemonic}: CSR number out of range: {csr}")
            imm12 = csr
        elif spec.funct12 is not None:
            imm12 = spec.funct12
        elif spec.operands in ("", "rd,mreg", "mreg,rs1"):
            imm12 = 0  # I-forms without an immediate (mexit, rmr, wmr, ...)
        elif spec.mnemonic == "menter":
            if not fits_unsigned(imm, 12):
                raise EncodeError(f"menter: entry number out of range: {imm}")
            imm12 = imm
        else:
            if not fits_signed(imm, 12):
                raise EncodeError(f"{spec.mnemonic}: immediate out of range: {imm}")
            imm12 = imm & 0xFFF
        return (
            (imm12 << 20) | (rs1 << 15) | (spec.funct3 << 12)
            | (rd << 7) | spec.opcode
        )

    if fmt is Format.S:
        imm = instr.imm
        if not fits_signed(imm, 12):
            raise EncodeError(f"{spec.mnemonic}: offset out of range: {imm}")
        imm &= 0xFFF
        return (
            ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15)
            | (spec.funct3 << 12) | ((imm & 0x1F) << 7) | spec.opcode
        )

    if fmt is Format.B:
        imm = instr.imm
        if imm % 2:
            raise EncodeError(f"{spec.mnemonic}: branch offset must be even: {imm}")
        if not fits_signed(imm, 13):
            raise EncodeError(f"{spec.mnemonic}: branch offset out of range: {imm}")
        imm &= 0x1FFF
        return (
            (((imm >> 12) & 1) << 31)
            | (((imm >> 5) & 0x3F) << 25)
            | (rs2 << 20) | (rs1 << 15) | (spec.funct3 << 12)
            | (((imm >> 1) & 0xF) << 8)
            | (((imm >> 11) & 1) << 7)
            | spec.opcode
        )

    if fmt is Format.U:
        # ``imm`` is the shifted value the decoder produces (the 20-bit
        # field times 4096), never the field itself.
        imm = instr.imm
        if imm & 0xFFF or not -(1 << 31) <= imm <= 0xFFFFFFFF:
            raise EncodeError(f"{spec.mnemonic}: upper immediate must be a "
                              f"32-bit multiple of 0x1000: {imm:#x}")
        return (imm & 0xFFFFF000) | (rd << 7) | spec.opcode

    if fmt is Format.J:
        imm = instr.imm
        if imm % 2:
            raise EncodeError(f"{spec.mnemonic}: jump offset must be even: {imm}")
        if not fits_signed(imm, 21):
            raise EncodeError(f"{spec.mnemonic}: jump offset out of range: {imm}")
        imm &= 0x1FFFFF
        return (
            (((imm >> 20) & 1) << 31)
            | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 1) << 20)
            | (((imm >> 12) & 0xFF) << 12)
            | (rd << 7) | spec.opcode
        )

    raise EncodeError(f"unsupported format: {fmt}")  # pragma: no cover
