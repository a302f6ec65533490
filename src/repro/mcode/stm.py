"""Software transactional memory via instruction interception (paper §3.3).

"We created several new mroutines: tstart starts a transaction, tabort
aborts the transaction, and tcommit commits the transaction.  We intercept
all memory access instructions within a transaction and invoke tread and
twrite instead, which perform and record the memory accesses.  Upon
tcommit, all accessed memory addresses within the transaction are
inspected for conflict. ... Our implementation is under 100 instructions
and closely resembles TL2."

Design (TL2-lite, write-buffering):

* A **global version clock** and a **striped version-lock table** live in
  guest physical memory (addresses are parameters).
* ``tstart`` (a0 = abort-continuation address) snapshots the clock into
  ``rv`` and turns on interception of word loads and stores — this is the
  paper's headline trick: no compiler instrumentation, interception is
  enabled/disabled at runtime.
* The intercept handlers ``tread_i``/``twrite_i`` decode the intercepted
  instruction (from m29), emulate it against the transaction's read/write
  sets in the MRAM data segment, and resume after it.  ``tread_i``
  validates the stripe version against ``rv`` (abort on conflict) and
  forwards buffered writes (read-your-writes); results are committed into
  the intercepted destination register with ``mexitm``.
* ``tcommit`` revalidates the read set, bumps the clock, writes the write
  set back with the new version, and reports success/failure in a0;
  ``tabort`` discards the transaction.
* On a conflict detected mid-transaction, the handler aborts inline and
  transfers control to the abort continuation with a0 = 0.

Capacity: RS_MAX reads / WS_MAX writes per transaction; overflow aborts
(like a hardware TM capacity abort).  Only word (lw/sw) accesses are
transactional; transactions must use word-sized data.

Conflicts on this single-core machine come from *other* logical writers
(e.g. an interrupt handler, another time-sliced thread, or a benchmark
harness playing the remote core) bumping stripe versions through the same
lock-table protocol — see ``bench_stm.py``.
"""

from __future__ import annotations

from repro.isa.metal_ops import pack_intercept_spec
from repro.isa.opcodes import OP_LOAD, OP_STORE
from repro.metal.mroutine import MRoutine

#: Default entry numbers.
ENTRY_TSTART = 24
ENTRY_TCOMMIT = 25
ENTRY_TABORT = 26
ENTRY_TREAD_I = 27
ENTRY_TWRITE_I = 28
#: Explicit-call variants (the "compiler-instrumented STM library"
#: baseline the paper contrasts against): same TL2 logic, but the caller
#: replaces every transactional load/store with a routine call.
ENTRY_TREAD_X = 29
ENTRY_TWRITE_X = 30
ENTRY_TSTART_X = 31

#: Read/write set capacities (MRAM-data limited; capacity overflow aborts).
RS_MAX = 48
WS_MAX = 48

#: MRAM data layout, relative to TSTART_DATA (all word offsets * 4).
OFF_IN_TX = 0
OFF_RS_COUNT = 4
OFF_WS_COUNT = 8
OFF_RV = 12
OFF_COMMITS = 16
OFF_ABORTS = 20
OFF_ONABORT = 24
OFF_RSET = 28
OFF_WSET = OFF_RSET + 4 * RS_MAX
DATA_BYTES = OFF_WSET + 8 * WS_MAX
DATA_WORDS = DATA_BYTES // 4

#: Packed micept/miceptd operands for word loads and stores.
ICEPT_LW = pack_intercept_spec(OP_LOAD, funct3=2)
ICEPT_SW = pack_intercept_spec(OP_STORE, funct3=2)

_SAVE = """\
    wmr  m13, t0
    wmr  m14, t1
    wmr  m15, t2
    wmr  m16, t3
    wmr  m17, t4
    wmr  m18, t5
"""

_RESTORE = """\
    rmr  t5, m18
    rmr  t4, m17
    rmr  t3, m16
    rmr  t2, m15
    rmr  t1, m14
    rmr  t0, m13
"""


def _abort_epilogue(label_prefix: str) -> str:
    """Inline abort used by the intercept handlers on conflict/overflow."""
    return f"""\
{label_prefix}_abort:
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    li   t0, {ICEPT_LW:#x}
    miceptd t0
    li   t0, {ICEPT_SW:#x}
    miceptd t0
    mld  t0, TSTART_DATA+{OFF_ONABORT}(zero)
    wmr  m31, t0              # resume at the abort continuation
{_RESTORE}
    li   a0, 0                # abort indication
    mexit
"""


def make_stm_routines(global_clock: int, lock_table: int,
                      stripe_count: int = 1024):
    """Build the §3.3 STM routine set.

    Args:
        global_clock: physical address of the TL2 global version clock.
        lock_table: physical address of the stripe version table
            (*stripe_count* words; stripe = (addr >> 2) & (count-1)).
        stripe_count: number of stripes (power of two).
    """
    if stripe_count & (stripe_count - 1):
        raise ValueError("stripe_count must be a power of two")
    mask = stripe_count - 1

    tstart = f"""
tstart:
    # a0 = abort continuation; clobbers t0/t1 (explicit-call ABI)
    mst  zero, TSTART_DATA+{OFF_RS_COUNT}(zero)
    mst  zero, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t0, {global_clock:#x}
    mpld t1, 0(t0)
    mst  t1, TSTART_DATA+{OFF_RV}(zero)      # rv = global clock
    mst  a0, TSTART_DATA+{OFF_ONABORT}(zero)
    li   t0, {ICEPT_LW:#x}
    li   t1, MR_TREAD_I
    micept t0, t1             # intercept word loads  (paper §3.3)
    li   t0, {ICEPT_SW:#x}
    li   t1, MR_TWRITE_I
    micept t0, t1             # intercept word stores
    li   t0, 1
    mst  t0, TSTART_DATA+{OFF_IN_TX}(zero)   # in_tx last: the transaction
    mexit                                    # is live only when fully set up
"""

    tread_i = f"""
tread_i:
{_SAVE}
    rmr  t0, m29              # intercepted lw
    srai t1, t0, 20           # sign-extended I-immediate
    rmr  t2, m25              # rs1 value (latched at intercept entry)
    add  t2, t2, t1           # t2 = effective address
    # read-your-writes: search the write log backwards
    mld  t3, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t4, TSTART_DATA+{OFF_WSET}
    slli t5, t3, 3
    add  t5, t4, t5           # one past the last entry
trd_wsloop:
    beq  t5, t4, trd_mem
    addi t5, t5, -8
    mld  t1, 0(t5)
    bne  t1, t2, trd_wsloop
    mld  t1, 4(t5)            # forwarded value
    j    trd_done
trd_mem:
    lw   t1, 0(t2)            # the actual memory read
    srli t3, t2, 2
    andi t3, t3, {mask:#x}
    slli t3, t3, 2
    li   t4, {lock_table:#x}
    add  t3, t3, t4
    mpld t3, 0(t3)            # stripe version
    mld  t4, TSTART_DATA+{OFF_RV}(zero)
    bltu t4, t3, trd_abort    # version > rv: conflict
    mld  t3, TSTART_DATA+{OFF_RS_COUNT}(zero)
    li   t4, {RS_MAX}
    bgeu t3, t4, trd_abort    # capacity abort
    slli t4, t3, 2
    li   t5, TSTART_DATA+{OFF_RSET}
    add  t4, t4, t5
    mst  t2, 0(t4)            # log the read address
    addi t3, t3, 1
    mst  t3, TSTART_DATA+{OFF_RS_COUNT}(zero)
trd_done:
    rmr  t0, m29
    srli t0, t0, 7
    andi t0, t0, 31           # destination register index
    wmr  m26, t0
    wmr  m27, t1              # value to commit
{_RESTORE}
    mexitm                    # exit + GPR[m26] := m27, resume after the lw
{_abort_epilogue("trd")}
"""

    twrite_i = f"""
twrite_i:
{_SAVE}
    rmr  t0, m29              # intercepted sw
    srai t1, t0, 25           # S-immediate upper bits (sign-extended)
    slli t1, t1, 5
    srli t3, t0, 7
    andi t3, t3, 31           # S-immediate lower bits
    add  t1, t1, t3
    rmr  t2, m25              # rs1 value (latched at intercept entry)
    add  t2, t2, t1           # t2 = effective address
    rmr  t3, m24              # rs2 value = value to store
    mld  t1, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t4, {WS_MAX}
    bgeu t1, t4, twr_abort    # capacity abort
    slli t4, t1, 3
    li   t5, TSTART_DATA+{OFF_WSET}
    add  t4, t4, t5
    mst  t2, 0(t4)            # log (address, value)
    mst  t3, 4(t4)
    addi t1, t1, 1
    mst  t1, TSTART_DATA+{OFF_WS_COUNT}(zero)
{_RESTORE}
    mexit                     # resume after the sw (skipped, now buffered)
{_abort_epilogue("twr")}
"""

    tcommit = f"""
tcommit:
    # clobbers t0-t5 (explicit-call ABI); a0 = 1 commit / 0 abort
    mld  t0, TSTART_DATA+{OFF_RS_COUNT}(zero)
    li   t1, TSTART_DATA+{OFF_RSET}
    slli t2, t0, 2
    add  t2, t1, t2           # read-set end
tc_rloop:
    beq  t1, t2, tc_rdone
    mld  t3, 0(t1)            # logged read address
    srli t3, t3, 2
    andi t3, t3, {mask:#x}
    slli t3, t3, 2
    li   t4, {lock_table:#x}
    add  t3, t3, t4
    mpld t3, 0(t3)
    mld  t4, TSTART_DATA+{OFF_RV}(zero)
    bltu t4, t3, tc_abort     # read-set validation failed
    addi t1, t1, 4
    j    tc_rloop
tc_rdone:
    li   t0, {global_clock:#x}
    mpld t1, 0(t0)
    addi t1, t1, 1
    mpst t1, 0(t0)            # wv = ++clock
    mld  t0, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t2, TSTART_DATA+{OFF_WSET}
    slli t3, t0, 3
    add  t3, t2, t3           # write-set end
tc_wloop:
    beq  t2, t3, tc_wdone
    mld  t4, 0(t2)            # address
    mld  t5, 4(t2)            # value
    sw   t5, 0(t4)            # write back
    srli t4, t4, 2
    andi t4, t4, {mask:#x}
    slli t4, t4, 2
    li   t5, {lock_table:#x}
    add  t4, t4, t5
    mpst t1, 0(t4)            # stripe version := wv
    addi t2, t2, 8
    j    tc_wloop
tc_wdone:
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_COMMITS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_COMMITS}(zero)
    li   t0, {ICEPT_LW:#x}
    miceptd t0
    li   t0, {ICEPT_SW:#x}
    miceptd t0
    li   a0, 1
    mexit
tc_abort:
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    li   t0, {ICEPT_LW:#x}
    miceptd t0
    li   t0, {ICEPT_SW:#x}
    miceptd t0
    li   a0, 0
    mexit
"""

    tabort = f"""
tabort:
    # explicit abort; clobbers t0; a0 = 0
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    li   t0, {ICEPT_LW:#x}
    miceptd t0
    li   t0, {ICEPT_SW:#x}
    miceptd t0
    li   a0, 0
    mexit
"""

    tread_x = f"""
tread_x:
    # explicit-call transactional read: a0 = address -> a0 = value
    # (baseline for §3.3: what a compiler-instrumented STM library does;
    # clobbers t0-t5 like any explicit call).  Outside a transaction the
    # instrumented path still pays the call + the in_tx check — the cost
    # the paper's runtime interception avoids entirely.
    mld  t0, TSTART_DATA+{OFF_IN_TX}(zero)
    beqz t0, trx_plain
    mv   t2, a0
    mld  t3, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t4, TSTART_DATA+{OFF_WSET}
    slli t5, t3, 3
    add  t5, t4, t5
trx_wsloop:
    beq  t5, t4, trx_mem
    addi t5, t5, -8
    mld  t1, 0(t5)
    bne  t1, t2, trx_wsloop
    mld  t1, 4(t5)
    j    trx_done
trx_mem:
    lw   t1, 0(t2)
    srli t3, t2, 2
    andi t3, t3, {mask:#x}
    slli t3, t3, 2
    li   t4, {lock_table:#x}
    add  t3, t3, t4
    mpld t3, 0(t3)
    mld  t4, TSTART_DATA+{OFF_RV}(zero)
    bltu t4, t3, trx_abort
    mld  t3, TSTART_DATA+{OFF_RS_COUNT}(zero)
    li   t4, {RS_MAX}
    bgeu t3, t4, trx_abort
    slli t4, t3, 2
    li   t5, TSTART_DATA+{OFF_RSET}
    add  t4, t4, t5
    mst  t2, 0(t4)
    addi t3, t3, 1
    mst  t3, TSTART_DATA+{OFF_RS_COUNT}(zero)
trx_done:
    mv   a0, t1
    mexit
trx_plain:
    lw   a0, 0(a0)            # not in a transaction: plain load
    mexit
trx_abort:
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    mld  t0, TSTART_DATA+{OFF_ONABORT}(zero)
    wmr  m31, t0
    li   a0, 0
    mexit
"""

    twrite_x = f"""
twrite_x:
    # explicit-call transactional write: a0 = address, a1 = value
    mld  t0, TSTART_DATA+{OFF_IN_TX}(zero)
    beqz t0, twx_plain
    mv   t2, a0
    mv   t3, a1
    mld  t1, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t4, {WS_MAX}
    bgeu t1, t4, twx_abort
    slli t4, t1, 3
    li   t5, TSTART_DATA+{OFF_WSET}
    add  t4, t4, t5
    mst  t2, 0(t4)
    mst  t3, 4(t4)
    addi t1, t1, 1
    mst  t1, TSTART_DATA+{OFF_WS_COUNT}(zero)
    mexit
twx_plain:
    sw   a1, 0(a0)            # not in a transaction: plain store
    mexit
twx_abort:
    mst  zero, TSTART_DATA+{OFF_IN_TX}(zero)
    mld  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    addi t0, t0, 1
    mst  t0, TSTART_DATA+{OFF_ABORTS}(zero)
    mld  t0, TSTART_DATA+{OFF_ONABORT}(zero)
    wmr  m31, t0
    li   a0, 0
    mexit
"""

    tstart_x = f"""
tstart_x:
    # explicit-call transaction start: no interception — the caller is
    # responsible for routing every access through tread_x/twrite_x
    mst  zero, TSTART_DATA+{OFF_RS_COUNT}(zero)
    mst  zero, TSTART_DATA+{OFF_WS_COUNT}(zero)
    li   t0, {global_clock:#x}
    mpld t1, 0(t0)
    mst  t1, TSTART_DATA+{OFF_RV}(zero)
    mst  a0, TSTART_DATA+{OFF_ONABORT}(zero)
    li   t0, 1
    mst  t0, TSTART_DATA+{OFF_IN_TX}(zero)
    mexit
"""

    shared = ("tstart",)
    return [
        MRoutine(name="tstart_x", entry=ENTRY_TSTART_X, source=tstart_x,
                 shared_data=shared),
        MRoutine(name="tread_x", entry=ENTRY_TREAD_X, source=tread_x,
                 shared_data=shared),
        MRoutine(name="twrite_x", entry=ENTRY_TWRITE_X, source=twrite_x,
                 shared_data=shared),
        MRoutine(name="tstart", entry=ENTRY_TSTART, source=tstart,
                 data_words=DATA_WORDS),
        MRoutine(name="tcommit", entry=ENTRY_TCOMMIT, source=tcommit,
                 shared_data=shared),
        MRoutine(name="tabort", entry=ENTRY_TABORT, source=tabort,
                 shared_data=shared),
        MRoutine(name="tread_i", entry=ENTRY_TREAD_I, source=tread_i,
                 shared_mregs=(13, 14, 15, 16, 17, 18), shared_data=shared),
        MRoutine(name="twrite_i", entry=ENTRY_TWRITE_I, source=twrite_i,
                 shared_mregs=(13, 14, 15, 16, 17, 18), shared_data=shared),
    ]


class StmHost:
    """Host-side view of the STM state (tests/benches).

    Reads the statistics the routines keep in MRAM data and drives the
    lock-table protocol the way a second core would (to inject conflicts).
    """

    def __init__(self, machine, global_clock: int, lock_table: int,
                 stripe_count: int = 1024):
        self.machine = machine
        self.global_clock = global_clock
        self.lock_table = lock_table
        self.stripe_mask = stripe_count - 1
        self.data_base = machine.metal_image.data_offset_of("tstart")

    def _data_word(self, offset: int) -> int:
        return self.machine.core.metal.mram.load_word(self.data_base + offset)

    @property
    def commits(self) -> int:
        return self._data_word(OFF_COMMITS)

    @property
    def aborts(self) -> int:
        return self._data_word(OFF_ABORTS)

    @property
    def in_tx(self) -> bool:
        return bool(self._data_word(OFF_IN_TX))

    @property
    def read_set_size(self) -> int:
        return self._data_word(OFF_RS_COUNT)

    def remote_write(self, addr: int, value: int) -> None:
        """Simulate a conflicting writer on another core: write memory and
        bump the stripe version past the current clock."""
        bus = self.machine.bus
        clock = bus.read_u32(self.global_clock) + 1
        bus.write_u32(self.global_clock, clock)
        bus.write_u32(addr, value)
        stripe = (addr >> 2) & self.stripe_mask
        bus.write_u32(self.lock_table + 4 * stripe, clock)
