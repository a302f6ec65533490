"""ALU semantics: unit cases plus property tests against Python ints."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import alu
from repro.cpu.alu import REG_OPS
from repro.cpu.core import CpuCore
from repro.cpu.executor import execute
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS

u32s = st.integers(0, 0xFFFFFFFF)


def signed(v):
    return v - (1 << 32) if v & 0x80000000 else v


class TestAddSub:
    def test_add_wraps(self):
        assert REG_OPS["add"](0xFFFFFFFF, 1) == 0

    def test_sub_wraps(self):
        assert REG_OPS["sub"](0, 1) == 0xFFFFFFFF

    @given(u32s, u32s)
    def test_add_matches_python(self, a, b):
        assert REG_OPS["add"](a, b) == (a + b) & 0xFFFFFFFF

    @given(u32s, u32s)
    def test_sub_matches_python(self, a, b):
        assert REG_OPS["sub"](a, b) == (a - b) & 0xFFFFFFFF


class TestShifts:
    def test_sll_uses_low5_bits(self):
        assert REG_OPS["sll"](1, 33) == 2

    def test_srl_logical(self):
        assert REG_OPS["srl"](0x80000000, 1) == 0x40000000

    def test_sra_arithmetic(self):
        assert REG_OPS["sra"](0x80000000, 1) == 0xC0000000
        assert REG_OPS["sra"](0x40000000, 1) == 0x20000000

    @given(u32s, st.integers(0, 31))
    def test_srl_matches_python(self, a, s):
        assert REG_OPS["srl"](a, s) == a >> s

    @given(u32s, st.integers(0, 31))
    def test_sra_matches_python(self, a, s):
        assert REG_OPS["sra"](a, s) == (signed(a) >> s) & 0xFFFFFFFF


class TestCompare:
    def test_slt_signed(self):
        assert REG_OPS["slt"](0xFFFFFFFF, 0) == 1   # -1 < 0
        assert REG_OPS["slt"](0, 0xFFFFFFFF) == 0

    def test_sltu_unsigned(self):
        assert REG_OPS["sltu"](0xFFFFFFFF, 0) == 0
        assert REG_OPS["sltu"](0, 0xFFFFFFFF) == 1

    @given(u32s, u32s)
    def test_branch_ops_consistent(self, a, b):
        assert alu.BRANCH_OPS["beq"](a, b) == (a == b)
        assert alu.BRANCH_OPS["bne"](a, b) == (a != b)
        assert alu.BRANCH_OPS["blt"](a, b) == (signed(a) < signed(b))
        assert alu.BRANCH_OPS["bgeu"](a, b) == (a >= b)


class TestMul:
    def test_mul_low(self):
        assert alu.mul(0x10000, 0x10000) == 0  # low 32 bits

    def test_mulh_signed(self):
        assert alu.mulh(0xFFFFFFFF, 0xFFFFFFFF) == 0  # (-1)*(-1)=1, high=0

    def test_mulhu_unsigned(self):
        assert alu.mulhu(0xFFFFFFFF, 0xFFFFFFFF) == 0xFFFFFFFE

    def test_mulhsu_mixed(self):
        # -1 * 0xFFFFFFFF = -0xFFFFFFFF -> high word 0xFFFFFFFF
        assert alu.mulhsu(0xFFFFFFFF, 0xFFFFFFFF) == 0xFFFFFFFF

    @given(u32s, u32s)
    def test_mul_matches_python(self, a, b):
        assert alu.mul(a, b) == (signed(a) * signed(b)) & 0xFFFFFFFF

    @given(u32s, u32s)
    def test_mulhu_matches_python(self, a, b):
        assert alu.mulhu(a, b) == (a * b) >> 32


class TestDivRem:
    def test_div_by_zero_is_minus_one(self):
        assert alu.div(42, 0) == 0xFFFFFFFF
        assert alu.divu(42, 0) == 0xFFFFFFFF

    def test_rem_by_zero_is_dividend(self):
        assert alu.rem(42, 0) == 42
        assert alu.remu(42, 0) == 42

    def test_signed_overflow(self):
        int_min = 0x80000000
        assert alu.div(int_min, 0xFFFFFFFF) == int_min  # wraps
        assert alu.rem(int_min, 0xFFFFFFFF) == 0

    def test_truncating_division(self):
        # RISC-V divides toward zero: -7 / 2 == -3, rem -1
        assert signed(alu.div(REG_OPS["sub"](0, 7), 2)) == -3
        assert signed(alu.rem(REG_OPS["sub"](0, 7), 2)) == -1

    @given(u32s, st.integers(1, 0xFFFFFFFF))
    def test_divu_matches_python(self, a, b):
        assert alu.divu(a, b) == a // b
        assert alu.remu(a, b) == a % b

    @given(u32s, u32s)
    def test_div_rem_identity(self, a, b):
        """a == div(a,b)*b + rem(a,b) (mod 2^32), including edge cases."""
        q = alu.div(a, b)
        r = alu.rem(a, b)
        if b == 0:
            assert q == 0xFFFFFFFF and r == a
        else:
            assert (signed(q) * signed(b) + signed(r)) & 0xFFFFFFFF == a


# --- every table row, through execute(), against a spelled-out reference

M32 = 0xFFFFFFFF
boundary = st.one_of(
    st.sampled_from([0, 1, 2, 31, 32, 0x7FF, 0x800, 0x7FFFFFFF, 0x80000000,
                     0x80000001, 0xFFFFF800, 0xFFFFFFFE, 0xFFFFFFFF]),
    u32s)
imm12 = st.one_of(st.sampled_from([-2048, -1, 0, 1, 31, 32, 2047]),
                  st.integers(-2048, 2047))


def _trunc_div(sa, sb):
    q = sa // sb                      # floors; RV32M truncates toward 0
    if q < 0 and q * sb != sa:
        q += 1
    return q


def reference(m, a, b):
    """RV32IM result of *m* on unsigned *a* and *b* (b may be a signed
    12-bit immediate), as an unsigned 32-bit int or a branch bool."""
    sa, ub = signed(a), b & M32
    sb, sh = signed(ub), b & 31
    if m in ("div", "rem", "divu", "remu"):
        if ub == 0:
            return M32 if m in ("div", "divu") else a
        if m == "divu":
            return a // ub
        if m == "remu":
            return a % ub
        if sa == -(1 << 31) and sb == -1:
            return a if m == "div" else 0
        q = _trunc_div(sa, sb)
        return (q if m == "div" else sa - q * sb) & M32
    value = {
        "add": a + b, "sub": a - b, "sll": a << sh, "slt": int(sa < sb),
        "sltu": int(a < ub), "xor": a ^ ub, "srl": a >> sh, "sra": sa >> sh,
        "or": a | ub, "and": a & ub,
        "mul": sa * sb, "mulh": (sa * sb) >> 32, "mulhsu": (sa * ub) >> 32,
        "mulhu": (a * ub) >> 32,
        "beq": a == ub, "bne": a != ub, "blt": sa < sb, "bge": sa >= sb,
        "bltu": a < ub, "bgeu": a >= ub,
    }[m]
    return value if isinstance(value, bool) else value & M32


#: Reg-imm mnemonic -> the reg-reg op whose reference it shares.
IMM_BASE = {"addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
            "ori": "or", "andi": "and", "slli": "sll", "srli": "srl",
            "srai": "sra"}


def _run(m, a, b=0, imm=0):
    """Execute *m* with a in x5, b in x6, the result into x7."""
    core = CpuCore(bus=None)
    core.regs[5], core.regs[6] = a, b
    instr = Instruction(m, rd=7, rs1=5, rs2=6, imm=imm, spec=SPECS[m])
    return core, execute(core, instr, 0x1000)


class TestTableRowsAgainstReference:
    """Executor and MJIT format the same table rows, so lockstep cannot
    catch a wrong row; this checks each one against the reference."""

    def test_reference_covers_every_row(self):
        assert set(IMM_BASE) == set(alu.IMM_OPS)
        for m in [*alu.REG_OPS, *alu.BRANCH_OPS]:
            reference(m, 0, 1)

    @pytest.mark.parametrize("m", sorted(alu.REG_OPS))
    @given(a=boundary, b=boundary)
    def test_reg_op(self, m, a, b):
        core, _ = _run(m, a, b)
        assert core.regs[7] == reference(m, a, b)

    @pytest.mark.parametrize("m", sorted(alu.IMM_OPS))
    @given(a=boundary, imm=imm12)
    def test_imm_op(self, m, a, imm):
        core, _ = _run(m, a, imm=imm)
        assert core.regs[7] == reference(IMM_BASE[m], a, imm)

    @pytest.mark.parametrize("m", sorted(alu.BRANCH_OPS))
    @given(a=boundary, b=boundary)
    def test_branch(self, m, a, b):
        _, info = _run(m, a, b, imm=-8)
        taken = reference(m, a, b)
        assert info.next_pc == (0x1000 - 8 if taken else 0x1004)
