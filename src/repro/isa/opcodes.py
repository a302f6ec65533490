"""The MRV32 instruction table.

This module is the single source of truth for the instruction set: every
mnemonic, its format, opcode/funct fields, execution class, operand syntax
and Metal-mode restriction.  The decoder, encoder, assembler, disassembler
and both simulators are all table-driven from :data:`SPECS`.

Base ISA: RV32I encodings + the M extension + a small SYSTEM/CSR subset
(enough to build the trap-architecture baseline machine the paper compares
against).

Metal extension (paper Table 1 + §2.3) lives in the two custom opcode
spaces RISC-V reserves for vendors:

* ``custom-0`` (0x0B): the Table 1 instructions — ``menter``, ``mexit``,
  ``rmr``, ``wmr``, ``mld``, ``mst``.
* ``custom-1`` (0x2B): the architectural-feature instructions the prototype
  processor exposes to Metal (§2.3): direct physical memory access, TLB
  modification with ASIDs and page keys, interrupt/exception delivery
  control, and instruction interception control.
"""

from __future__ import annotations

from repro.isa.instruction import Format, InstrClass, InstrSpec

# Major opcodes (RV32 conventions).
OP_LUI = 0x37
OP_AUIPC = 0x17
OP_JAL = 0x6F
OP_JALR = 0x67
OP_BRANCH = 0x63
OP_LOAD = 0x03
OP_STORE = 0x23
OP_ALU_IMM = 0x13
OP_ALU_REG = 0x33
OP_FENCE = 0x0F
OP_SYSTEM = 0x73
OP_METAL = 0x0B       # custom-0: Table 1 instructions
OP_METAL_ARCH = 0x2B  # custom-1: §2.3 architectural features

#: Funct12 values for SYSTEM instructions (funct3 == 0).
F12_ECALL = 0x000
F12_EBREAK = 0x001
F12_MRET = 0x302
F12_WFI = 0x105
F12_HALT = 0x7FF  # simulator control: stop the machine


def _spec(*args, **kwargs) -> InstrSpec:
    return InstrSpec(*args, **kwargs)


def _build_specs():
    R, I, S, B, U, J = Format.R, Format.I, Format.S, Format.B, Format.U, Format.J
    C = InstrClass
    table = [
        # --- upper immediates and jumps -------------------------------
        _spec("lui", U, OP_LUI, cls=C.LUI, operands="rd,uimm"),
        _spec("auipc", U, OP_AUIPC, cls=C.AUIPC, operands="rd,uimm"),
        _spec("jal", J, OP_JAL, cls=C.JAL, operands="rd,jtarget"),
        _spec("jalr", I, OP_JALR, 0b000, cls=C.JALR, operands="rd,imm(rs1)"),
        # --- branches --------------------------------------------------
        _spec("beq", B, OP_BRANCH, 0b000, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        _spec("bne", B, OP_BRANCH, 0b001, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        _spec("blt", B, OP_BRANCH, 0b100, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        _spec("bge", B, OP_BRANCH, 0b101, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        _spec("bltu", B, OP_BRANCH, 0b110, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        _spec("bgeu", B, OP_BRANCH, 0b111, cls=C.BRANCH, operands="rs1,rs2,btarget"),
        # --- loads/stores ----------------------------------------------
        _spec("lb", I, OP_LOAD, 0b000, cls=C.LOAD, operands="rd,imm(rs1)"),
        _spec("lh", I, OP_LOAD, 0b001, cls=C.LOAD, operands="rd,imm(rs1)"),
        _spec("lw", I, OP_LOAD, 0b010, cls=C.LOAD, operands="rd,imm(rs1)"),
        _spec("lbu", I, OP_LOAD, 0b100, cls=C.LOAD, operands="rd,imm(rs1)"),
        _spec("lhu", I, OP_LOAD, 0b101, cls=C.LOAD, operands="rd,imm(rs1)"),
        _spec("sb", S, OP_STORE, 0b000, cls=C.STORE, operands="rs2,imm(rs1)"),
        _spec("sh", S, OP_STORE, 0b001, cls=C.STORE, operands="rs2,imm(rs1)"),
        _spec("sw", S, OP_STORE, 0b010, cls=C.STORE, operands="rs2,imm(rs1)"),
        # --- ALU immediate ---------------------------------------------
        _spec("addi", I, OP_ALU_IMM, 0b000, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("slti", I, OP_ALU_IMM, 0b010, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("sltiu", I, OP_ALU_IMM, 0b011, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("xori", I, OP_ALU_IMM, 0b100, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("ori", I, OP_ALU_IMM, 0b110, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("andi", I, OP_ALU_IMM, 0b111, cls=C.ALU_IMM, operands="rd,rs1,imm"),
        _spec("slli", I, OP_ALU_IMM, 0b001, 0b0000000, cls=C.ALU_IMM, operands="rd,rs1,shamt"),
        _spec("srli", I, OP_ALU_IMM, 0b101, 0b0000000, cls=C.ALU_IMM, operands="rd,rs1,shamt"),
        _spec("srai", I, OP_ALU_IMM, 0b101, 0b0100000, cls=C.ALU_IMM, operands="rd,rs1,shamt"),
        # --- ALU register ----------------------------------------------
        _spec("add", R, OP_ALU_REG, 0b000, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("sub", R, OP_ALU_REG, 0b000, 0b0100000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("sll", R, OP_ALU_REG, 0b001, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("slt", R, OP_ALU_REG, 0b010, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("sltu", R, OP_ALU_REG, 0b011, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("xor", R, OP_ALU_REG, 0b100, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("srl", R, OP_ALU_REG, 0b101, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("sra", R, OP_ALU_REG, 0b101, 0b0100000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("or", R, OP_ALU_REG, 0b110, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        _spec("and", R, OP_ALU_REG, 0b111, 0b0000000, cls=C.ALU_REG, operands="rd,rs1,rs2"),
        # --- M extension -----------------------------------------------
        _spec("mul", R, OP_ALU_REG, 0b000, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("mulh", R, OP_ALU_REG, 0b001, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("mulhsu", R, OP_ALU_REG, 0b010, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("mulhu", R, OP_ALU_REG, 0b011, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("div", R, OP_ALU_REG, 0b100, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("divu", R, OP_ALU_REG, 0b101, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("rem", R, OP_ALU_REG, 0b110, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        _spec("remu", R, OP_ALU_REG, 0b111, 0b0000001, cls=C.MULDIV, operands="rd,rs1,rs2"),
        # --- fence ------------------------------------------------------
        _spec("fence", I, OP_FENCE, 0b000, cls=C.FENCE, operands=""),
        # --- SYSTEM -----------------------------------------------------
        _spec("ecall", I, OP_SYSTEM, 0b000, cls=C.SYSTEM, operands="", funct12=F12_ECALL),
        _spec("ebreak", I, OP_SYSTEM, 0b000, cls=C.SYSTEM, operands="", funct12=F12_EBREAK),
        _spec("mret", I, OP_SYSTEM, 0b000, cls=C.SYSTEM, operands="", funct12=F12_MRET),
        _spec("wfi", I, OP_SYSTEM, 0b000, cls=C.SYSTEM, operands="", funct12=F12_WFI),
        _spec("halt", I, OP_SYSTEM, 0b000, cls=C.SYSTEM, operands="", funct12=F12_HALT),
        _spec("csrrw", I, OP_SYSTEM, 0b001, cls=C.CSR, operands="rd,csr,rs1"),
        _spec("csrrs", I, OP_SYSTEM, 0b010, cls=C.CSR, operands="rd,csr,rs1"),
        _spec("csrrc", I, OP_SYSTEM, 0b011, cls=C.CSR, operands="rd,csr,rs1"),
        _spec("csrrwi", I, OP_SYSTEM, 0b101, cls=C.CSR, operands="rd,csr,zimm"),
        _spec("csrrsi", I, OP_SYSTEM, 0b110, cls=C.CSR, operands="rd,csr,zimm"),
        _spec("csrrci", I, OP_SYSTEM, 0b111, cls=C.CSR, operands="rd,csr,zimm"),
    ]
    table.extend(_metal_specs())
    return {s.mnemonic: s for s in table}


def _metal_specs():
    """Metal extension rows (see module docstring for the encoding plan)."""
    R, I, S = Format.R, Format.I, Format.S
    C = InstrClass
    return [
        # ---- paper Table 1 (custom-0) ---------------------------------
        # menter <entry>: enter Metal mode at mroutine <entry> (normal mode).
        _spec("menter", I, OP_METAL, 0b000, cls=C.METAL, operands="entry"),
        # mexit: leave Metal mode, resume at the address stored in m31.
        _spec("mexit", I, OP_METAL, 0b001, cls=C.METAL, operands="", metal_only=True),
        # rmr rd, mN: read Metal register N into GPR rd.
        _spec("rmr", I, OP_METAL, 0b010, cls=C.METAL, operands="rd,mreg", metal_only=True),
        # wmr mN, rs1: write GPR rs1 into Metal register N.
        _spec("wmr", I, OP_METAL, 0b011, cls=C.METAL, operands="mreg,rs1", metal_only=True),
        # mld rd, imm(rs1): load word from the MRAM data segment.
        _spec("mld", I, OP_METAL, 0b100, cls=C.METAL, operands="rd,imm(rs1)", metal_only=True),
        # mst rs2, imm(rs1): store word to the MRAM data segment.
        _spec("mst", S, OP_METAL, 0b101, cls=C.METAL, operands="rs2,imm(rs1)", metal_only=True),
        # mexitm: exit Metal mode and, during the exit slot, commit
        # GPR[m26 & 31] := m27.  This is how intercept handlers deliver an
        # emulated result into the intercepted instruction's destination
        # register after restoring all scratch GPRs (§3.3 STM).
        _spec("mexitm", I, OP_METAL, 0b110, cls=C.METAL, operands="", metal_only=True),
        # ---- §2.3 architectural features (custom-1) --------------------
        # TLB and address-space control.
        _spec("mtlbw", R, OP_METAL_ARCH, 0b000, 0b0000000, cls=C.METAL_ARCH,
              operands="rs1,rs2", metal_only=True),
        _spec("mtlbi", R, OP_METAL_ARCH, 0b000, 0b0000001, cls=C.METAL_ARCH,
              operands="rs1,rs2", metal_only=True),
        _spec("mtlbf", R, OP_METAL_ARCH, 0b000, 0b0000010, cls=C.METAL_ARCH,
              operands="", metal_only=True),
        _spec("masid", R, OP_METAL_ARCH, 0b000, 0b0000011, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        _spec("mpkr", R, OP_METAL_ARCH, 0b000, 0b0000100, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        _spec("mpgon", R, OP_METAL_ARCH, 0b000, 0b0000101, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        # Direct physical memory access (bypasses the MMU).
        _spec("mpld", I, OP_METAL_ARCH, 0b001, cls=C.METAL_ARCH,
              operands="rd,imm(rs1)", metal_only=True),
        _spec("mpst", S, OP_METAL_ARCH, 0b010, cls=C.METAL_ARCH,
              operands="rs2,imm(rs1)", metal_only=True),
        # Instruction interception control.
        _spec("micept", R, OP_METAL_ARCH, 0b011, 0b0000000, cls=C.METAL_ARCH,
              operands="rs1,rs2", metal_only=True),
        _spec("miceptd", R, OP_METAL_ARCH, 0b011, 0b0000001, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        # Interrupt/exception delivery control.
        _spec("mivec", R, OP_METAL_ARCH, 0b100, 0b0000000, cls=C.METAL_ARCH,
              operands="rs1,rs2", metal_only=True),
        _spec("mintc", R, OP_METAL_ARCH, 0b100, 0b0000001, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        _spec("mipend", R, OP_METAL_ARCH, 0b100, 0b0000010, cls=C.METAL_ARCH,
              operands="rd", metal_only=True),
        _spec("miack", R, OP_METAL_ARCH, 0b100, 0b0000011, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        # Raise an exception from mcode (e.g. privilege violation, §3.1).
        _spec("mraise", R, OP_METAL_ARCH, 0b101, 0b0000000, cls=C.METAL_ARCH,
              operands="rs1", metal_only=True),
        # Indirect GPR file access — the microcode-style building block that
        # lets intercept handlers (§3.3) read/write the intercepted
        # instruction's dynamically-numbered source/destination registers.
        # mgprr rd, rs1: rd := GPR[ GPR[rs1] & 31 ]
        _spec("mgprr", R, OP_METAL_ARCH, 0b110, 0b0000000, cls=C.METAL_ARCH,
              operands="rd,rs1", metal_only=True),
        # mgprw rs1, rs2: GPR[ GPR[rs1] & 31 ] := GPR[rs2]
        _spec("mgprw", R, OP_METAL_ARCH, 0b110, 0b0000001, cls=C.METAL_ARCH,
              operands="rs1,rs2", metal_only=True),
    ]


#: mnemonic -> InstrSpec for the whole ISA.
SPECS = _build_specs()

#: Table 1 of the paper: the new Metal instructions, in paper order.
TABLE1_MNEMONICS = ("menter", "mexit", "rmr", "wmr", "mld", "mst")

#: One-line semantics for Table 1 (used to regenerate the paper table).
TABLE1_SEMANTICS = {
    "menter": "Enter Metal mode and execute the mroutine with the given "
              "entry number; the caller's return address is saved in m31.",
    "mexit": "Exit Metal mode and resume execution at the address stored "
             "in Metal register m31.",
    "rmr": "Read a Metal register into a general-purpose register.",
    "wmr": "Write a general-purpose register into a Metal register.",
    "mld": "Load a word from the MRAM data segment.",
    "mst": "Store a word to the MRAM data segment.",
}
