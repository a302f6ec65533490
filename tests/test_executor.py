"""Executor semantics through full programs on the functional engine."""

import pytest

from repro import build_metal_machine, build_trap_machine, MRoutine
from repro.errors import GuestPanic


def run(machine, body, max_instructions=100_000):
    machine.load_and_run(f"_start:\n{body}\n    halt\n",
                         max_instructions=max_instructions)
    return machine


@pytest.fixture
def m():
    return build_trap_machine(with_caches=False)


class TestAluPrograms:
    def test_arith_chain(self, m):
        run(m, """
            li   a0, 10
            li   a1, 3
            add  a2, a0, a1
            sub  a3, a0, a1
            mul  a4, a0, a1
            div  a5, a0, a1
            rem  a6, a0, a1
        """)
        assert m.reg("a2") == 13
        assert m.reg("a3") == 7
        assert m.reg("a4") == 30
        assert m.reg("a5") == 3
        assert m.reg("a6") == 1

    def test_x0_is_hardwired(self, m):
        run(m, """
            addi zero, zero, 5
            mv   a0, zero
        """)
        assert m.reg("a0") == 0

    def test_logic_and_shifts(self, m):
        run(m, """
            li   a0, 0xF0F0
            li   a1, 0x0FF0
            and  a2, a0, a1
            or   a3, a0, a1
            xor  a4, a0, a1
            slli a5, a0, 4
            srli a6, a0, 4
        """)
        assert m.reg("a2") == 0x0FF0 & 0xF0F0
        assert m.reg("a3") == 0xFFF0
        assert m.reg("a4") == 0xFF00
        assert m.reg("a5") == 0xF0F00
        assert m.reg("a6") == 0xF0F


class TestMemoryPrograms:
    def test_store_load_word(self, m):
        run(m, """
            li   t0, 0x2000
            li   t1, 0x12345678
            sw   t1, 0(t0)
            lw   a0, 0(t0)
        """)
        assert m.reg("a0") == 0x12345678

    def test_byte_sign_extension(self, m):
        run(m, """
            li   t0, 0x2000
            li   t1, 0x80
            sb   t1, 0(t0)
            lb   a0, 0(t0)
            lbu  a1, 0(t0)
        """)
        assert m.reg("a0") == 0xFFFFFF80
        assert m.reg("a1") == 0x80

    def test_half_sign_extension(self, m):
        run(m, """
            li   t0, 0x2000
            li   t1, 0x8000
            sh   t1, 0(t0)
            lh   a0, 0(t0)
            lhu  a1, 0(t0)
        """)
        assert m.reg("a0") == 0xFFFF8000
        assert m.reg("a1") == 0x8000

    def test_negative_offset(self, m):
        run(m, """
            li   t0, 0x2010
            li   t1, 77
            sw   t1, -16(t0)
            lw   a0, -16(t0)
        """)
        assert m.reg("a0") == 77


class TestControlFlow:
    def test_loop_sum(self, m):
        run(m, """
            li   a0, 0
            li   t0, 5
        loop:
            add  a0, a0, t0
            addi t0, t0, -1
            bnez t0, loop
        """)
        assert m.reg("a0") == 15

    def test_jal_links(self, m):
        run(m, """
            jal  ra, target
        back:
            j    out
        target:
            mv   a0, ra
            jr   ra
        out:
        """)
        # ra should point at `back`
        assert m.reg("a0") == m.reg("ra")

    def test_jalr_clears_low_bit(self, m):
        run(m, """
            li   t0, target + 1
            jalr ra, 0(t0)
            j    done
        target:
            li   a0, 55
            j    done
        done:
        """)
        assert m.reg("a0") == 55

    def test_auipc(self, m):
        m.load_and_run("""
_start:
    auipc a0, 0
    halt
""", base=0x1000)
        assert m.reg("a0") == 0x1000

    def test_lui_operand_is_the_upper_field(self, m):
        # A 4 KiB-aligned field is still a field, not a shifted value.
        run(m, """
            lui  t5, 0x80000
            lui  t6, 0x1000
            li   t4, 0x80000000
        """)
        assert m.reg("t5") == 0x80000000
        assert m.reg("t6") == 0x01000000
        assert m.reg("t4") == 0x80000000


class TestTrapsOnBaseline:
    def test_ecall_without_mtvec_panics(self, m):
        with pytest.raises(GuestPanic):
            run(m, "ecall")

    def test_ecall_dispatches_to_mtvec(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            ecall
            j    never
        handler:
            li   a0, 123
            csrrs a1, CSR_MCAUSE, zero
        never:
        """)
        assert m.reg("a0") == 123
        assert m.reg("a1") == 5  # CAUSE_ECALL

    def test_mret_resumes_after_ecall(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            li   a0, 0
            ecall
            addi a0, a0, 1
            j    done
        handler:
            csrrs t0, CSR_MEPC, zero
            addi t0, t0, 4
            csrrw zero, CSR_MEPC, t0
            li   a0, 10
            mret
        done:
        """)
        assert m.reg("a0") == 11

    def test_illegal_instruction_cause(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            .word 0xFFFFFFFF
            j    done
        handler:
            csrrs a0, CSR_MCAUSE, zero
            halt
        done:
        """)
        assert m.reg("a0") == 1  # ILLEGAL_INSTRUCTION

    def test_misaligned_load_cause_and_tval(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            li   t1, 0x2001
            lw   a0, 0(t1)
            j    done
        handler:
            csrrs a0, CSR_MCAUSE, zero
            csrrs a1, CSR_MTVAL, zero
            halt
        done:
        """)
        assert m.reg("a0") == 3  # MISALIGNED_LOAD
        assert m.reg("a1") == 0x2001

    def test_bus_error_on_unmapped(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            li   t1, 0xE0000000
            lw   a0, 0(t1)
            j    done
        handler:
            csrrs a0, CSR_MCAUSE, zero
            halt
        done:
        """)
        assert m.reg("a0") == 6  # BUS_ERROR

    def test_metal_instruction_illegal_on_baseline(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            menter 0
            j    done
        handler:
            csrrs a0, CSR_MCAUSE, zero
            halt
        done:
        """)
        assert m.reg("a0") == 1

    def test_csr_cycle_readable(self, m):
        run(m, """
            csrrs a0, CSR_CYCLE, zero
            csrrs a1, CSR_INSTRET, zero
        """)
        assert m.reg("a1") >= 1

    def test_user_mode_blocks_csr(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            # drop to user mode at `user`
            li   t0, user
            csrrw zero, CSR_MEPC, t0
            csrrwi zero, CSR_MSTATUS, 0
            mret
        user:
            csrrs a0, CSR_MCAUSE, zero   # illegal in user mode
            j    done
        handler:
            li   a0, 99
            halt
        done:
        """)
        assert m.reg("a0") == 99


class TestBaselineTlbOps:
    def test_machine_mode_refill(self, m):
        run(m, """
            # map VA 0x400000 -> PA 0x2000 RW, then store/load through it
            li   t0, 0x400000          # rs1: va | asid 0
            li   t1, 0x2000 + 1 + 2    # rs2: pa | R | W
            mtlbw t0, t1
            # identity-map the code page BEFORE enabling paging
            li   t3, 0x1000
            li   t4, 0x1000 + 1 + 4    # R | X
            mtlbw t3, t4
            li   t2, 1
            mpgon t2                   # paging on
            li   t0, 0x400000
            li   t1, 0xABCD
            sw   t1, 0(t0)
            lw   a0, 0(t0)
            li   t2, 0
            mpgon t2                   # paging off again
        """)
        assert m.reg("a0") == 0xABCD

    def test_user_mode_tlb_op_illegal(self, m):
        run(m, """
            li   t0, handler
            csrrw zero, CSR_MTVEC, t0
            li   t0, user
            csrrw zero, CSR_MEPC, t0
            csrrwi zero, CSR_MSTATUS, 0
            mret
        user:
            mtlbf
            j    done
        handler:
            csrrs a0, CSR_MCAUSE, zero
            halt
        done:
        """)
        assert m.reg("a0") == 1


class TestMetalOnlyGating:
    def test_metal_only_in_normal_mode_is_illegal(self):
        # A skip-forward handler: advance m31 past the illegal instruction.
        skipper = MRoutine(name="skipper", entry=0, source="""
            rmr  t6, m30
            addi t6, t6, 4
            wmr  m31, t6
            mexit
        """)
        m = build_metal_machine([skipper], with_caches=False)
        m.route_cause(1, "skipper")
        m.load_and_run("""
_start:
    mexit                  # metal-only in normal mode -> ILLEGAL
    rmr  a0, m0            # also illegal -> skipped too
    li   a0, 1
    halt
""")
        assert m.reg("a0") == 1
        assert m.core.metal.stats.deliveries.get(1, 0) == 2
