"""Encoder/decoder unit tests: field layouts, ranges, errors."""

import pytest

from repro.asm import assemble
from repro.errors import DecodeError, EncodeError
from repro.isa import decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS, TABLE1_MNEMONICS


def enc(mnemonic, **fields):
    return encode(Instruction(mnemonic, spec=SPECS[mnemonic], **fields))


class TestRFormat:
    def test_add_fields(self):
        word = enc("add", rd=1, rs1=2, rs2=3)
        instr = decode(word)
        assert (instr.mnemonic, instr.rd, instr.rs1, instr.rs2) == ("add", 1, 2, 3)

    def test_sub_distinguished_by_funct7(self):
        assert decode(enc("sub", rd=5, rs1=6, rs2=7)).mnemonic == "sub"
        assert decode(enc("add", rd=5, rs1=6, rs2=7)).mnemonic == "add"

    def test_muldiv_funct7(self):
        for m in ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"):
            assert decode(enc(m, rd=1, rs1=2, rs2=3)).mnemonic == m

    def test_register_out_of_range(self):
        with pytest.raises(EncodeError):
            enc("add", rd=32, rs1=0, rs2=0)


class TestIFormat:
    def test_addi_positive_imm(self):
        instr = decode(enc("addi", rd=10, rs1=11, imm=2047))
        assert instr.imm == 2047

    def test_addi_negative_imm(self):
        instr = decode(enc("addi", rd=10, rs1=11, imm=-2048))
        assert instr.imm == -2048

    def test_addi_imm_overflow(self):
        with pytest.raises(EncodeError):
            enc("addi", rd=1, rs1=1, imm=2048)
        with pytest.raises(EncodeError):
            enc("addi", rd=1, rs1=1, imm=-2049)

    def test_shift_shamt(self):
        instr = decode(enc("srai", rd=1, rs1=2, imm=31))
        assert instr.mnemonic == "srai"
        assert instr.imm == 31

    def test_shift_shamt_range(self):
        with pytest.raises(EncodeError):
            enc("slli", rd=1, rs1=2, imm=32)

    def test_srli_vs_srai(self):
        assert decode(enc("srli", rd=1, rs1=2, imm=4)).mnemonic == "srli"
        assert decode(enc("srai", rd=1, rs1=2, imm=4)).mnemonic == "srai"

    def test_load_offsets(self):
        for m in ("lb", "lh", "lw", "lbu", "lhu"):
            instr = decode(enc(m, rd=4, rs1=5, imm=-4))
            assert instr.mnemonic == m
            assert instr.imm == -4


class TestSBFormats:
    def test_store_imm_split(self):
        instr = decode(enc("sw", rs1=2, rs2=3, imm=-4))
        assert (instr.rs1, instr.rs2, instr.imm) == (2, 3, -4)

    def test_branch_offset_range(self):
        instr = decode(enc("beq", rs1=1, rs2=2, imm=4094))
        assert instr.imm == 4094
        instr = decode(enc("bne", rs1=1, rs2=2, imm=-4096))
        assert instr.imm == -4096

    def test_branch_odd_offset_rejected(self):
        with pytest.raises(EncodeError):
            enc("beq", rs1=1, rs2=2, imm=3)

    def test_all_branches_decode(self):
        for m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            assert decode(enc(m, rs1=8, rs2=9, imm=64)).mnemonic == m


class TestUJFormats:
    def test_lui_preshifted(self):
        instr = decode(enc("lui", rd=7, imm=0xABCDE000))
        assert instr.imm == 0xABCDE000

    def test_lui_raw_field(self):
        # The raw 20-bit field is the assembly operand; Instruction.imm
        # holds it shifted, as the decoder produces it.
        instr = decode(assemble("lui t2, 0xFFFFF").words()[0])
        assert instr.imm == 0xFFFFF000

    def test_lui_rejects_unshifted_imm(self):
        # A bare field is not a shifted value: 0x80000 must not encode
        # as field 0x80 (nor as field 0x80000).
        for imm in (0xFFFFF, 0x80000 | 0x800, 0x100000000):
            with pytest.raises(EncodeError):
                enc("lui", rd=7, imm=imm)
        assert decode(enc("lui", rd=7, imm=0x80000)).imm == 0x80000
        assert decode(enc("lui", rd=7, imm=-4096)).imm == 0xFFFFF000

    def test_auipc(self):
        assert decode(enc("auipc", rd=3, imm=0x1000)).mnemonic == "auipc"

    def test_jal_range(self):
        instr = decode(enc("jal", rd=1, imm=(1 << 20) - 2))
        assert instr.imm == (1 << 20) - 2
        instr = decode(enc("jal", rd=1, imm=-(1 << 20)))
        assert instr.imm == -(1 << 20)

    def test_jal_overflow(self):
        with pytest.raises(EncodeError):
            enc("jal", rd=1, imm=1 << 20)


class TestSystem:
    def test_funct12_discrimination(self):
        for m in ("ecall", "ebreak", "mret", "wfi", "halt"):
            assert decode(enc(m)).mnemonic == m

    def test_csr_number(self):
        instr = decode(enc("csrrw", rd=1, rs1=2, imm=0x305, csr=0x305))
        assert instr.csr == 0x305

    def test_csr_immediate_variant(self):
        instr = decode(enc("csrrsi", rd=1, rs1=5, imm=0x300, csr=0x300))
        assert instr.rs1 == 5  # zimm in the rs1 field


class TestMetalEncodings:
    def test_table1_instructions_all_encode(self):
        for m in TABLE1_MNEMONICS:
            spec = SPECS[m]
            assert spec is not None

    def test_menter_entry_number(self):
        instr = decode(enc("menter", imm=63))
        assert instr.imm == 63
        assert instr.spec.metal_only is False

    def test_mexit_is_metal_only(self):
        assert decode(enc("mexit")).spec.metal_only is True

    def test_rmr_wmr_mreg_fields(self):
        instr = decode(enc("rmr", rd=10, rs1=31))
        assert (instr.rd, instr.rs1) == (10, 31)
        instr = decode(enc("wmr", rd=0, rs1=10))
        assert (instr.rd, instr.rs1) == (0, 10)

    def test_mld_mst(self):
        instr = decode(enc("mld", rd=4, rs1=0, imm=128))
        assert instr.imm == 128
        instr = decode(enc("mst", rs1=0, rs2=4, imm=-8))
        assert instr.imm == -8

    def test_arch_feature_instructions_decode(self):
        for m in ("mtlbw", "mtlbi", "mtlbf", "masid", "mpkr", "mpgon",
                  "micept", "miceptd", "mivec", "mintc", "mipend", "miack",
                  "mraise", "mgprr", "mgprw"):
            instr = decode(enc(m, rd=1, rs1=2, rs2=3))
            assert instr.mnemonic == m
            assert instr.spec.metal_only

    def test_mpld_mpst(self):
        assert decode(enc("mpld", rd=1, rs1=2, imm=4)).mnemonic == "mpld"
        assert decode(enc("mpst", rs1=2, rs2=3, imm=4)).mnemonic == "mpst"


class TestDecodeErrors:
    def test_garbage_word(self):
        with pytest.raises(DecodeError):
            decode(0xFFFFFFFF)

    def test_zero_word(self):
        with pytest.raises(DecodeError):
            decode(0)

    def test_unknown_funct12(self):
        # SYSTEM funct3=0 with unassigned funct12
        with pytest.raises(DecodeError):
            decode((0x123 << 20) | 0x73)

    def test_error_carries_word(self):
        try:
            decode(0xFFFFFFFF)
        except DecodeError as exc:
            assert exc.word == 0xFFFFFFFF
