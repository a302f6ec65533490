"""32-bit ALU semantics (two's complement, RV32IM rules).

The base ALU and branch ops are stated once, below, as one Python
expression per mnemonic over unsigned 32-bit operands ``{a}`` and
``{b}``.  Two readers format the same expressions:

* the executor calls :data:`REG_OPS`, :data:`IMM_OPS` and
  :data:`BRANCH_OPS`, whose base entries are each an ``eval``'d
  ``lambda a, b:`` of the expression;
* MJIT (:mod:`repro.cpu.jit`) pastes the expression into a block's
  source with the operands' register locals, and folds a reg-imm op's
  normalised immediate to a literal.

A reg-imm row pairs its expression with a normaliser over the signed
immediate ``b`` (shift amounts keep their low five bits, ``slti``
biases its operand for a signed compare); the executor inlines the
normaliser into the lambda.  Signed views are spelled without calls:
``x ^ 2**31`` orders like the signed value, and ``x - ((x & 2**31) << 1)``
is it.  The M extension stays as functions, which MJIT calls by name.
MVTV's ``uopsem`` states these semantics again, independently, to check
them (docs/VALIDATION.md).
"""

from __future__ import annotations

from repro.isa.fields import to_signed32, u32

_INT_MIN = -(1 << 31)

#: Reg-reg ops: mnemonic -> expression over ``{a}`` and ``{b}``.
REG_EXPRS = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "sll": "({a} << ({b} & 31)) & 4294967295",
    "slt": "+(({a} ^ 2147483648) < ({b} ^ 2147483648))",
    "sltu": "+({a} < {b})",
    "xor": "{a} ^ {b}",
    "srl": "{a} >> ({b} & 31)",
    "sra": "(({a} - (({a} & 2147483648) << 1)) >> ({b} & 31)) & 4294967295",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
}

#: Reg-imm ops: mnemonic -> (expression over ``{a}`` and the normalised
#: immediate ``{b}``, normaliser over the signed immediate ``b``).
IMM_EXPRS = {
    "addi": ("({a} + {b}) & 4294967295", "b"),
    "slti": ("+(({a} ^ 2147483648) < {b})", "(b & 4294967295) ^ 2147483648"),
    "sltiu": ("+({a} < {b})", "b & 4294967295"),
    "xori": ("{a} ^ {b}", "b & 4294967295"),
    "ori": ("{a} | {b}", "b & 4294967295"),
    "andi": ("{a} & {b}", "b & 4294967295"),
    "slli": ("({a} << {b}) & 4294967295", "b & 31"),
    "srli": ("{a} >> {b}", "b & 31"),
    "srai": ("(({a} - (({a} & 2147483648) << 1)) >> {b}) & 4294967295",
             "b & 31"),
}

#: Branch conditions: mnemonic -> expression over ``{a}`` and ``{b}``.
BRANCH_EXPRS = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 2147483648) < ({b} ^ 2147483648)",
    "bge": "({a} ^ 2147483648) >= ({b} ^ 2147483648)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

#: Compiled immediate normalisers; MJIT folds ``IMM_NORMS[m](imm)``.
IMM_NORMS = {m: eval(f"lambda b: {norm}")
             for m, (_, norm) in IMM_EXPRS.items()}


def _lambda(expr: str, b: str = "b"):
    """``lambda a, b:`` evaluating *expr*, with ``{b}`` spelled *b*."""
    return eval(f"lambda a, b: {expr.format(a='a', b=b)}")


# --- M extension ------------------------------------------------------------

def mul(a: int, b: int) -> int:
    return u32(to_signed32(a) * to_signed32(b))


def mulh(a: int, b: int) -> int:
    return u32((to_signed32(a) * to_signed32(b)) >> 32)


def mulhsu(a: int, b: int) -> int:
    return u32((to_signed32(a) * u32(b)) >> 32)


def mulhu(a: int, b: int) -> int:
    return u32((u32(a) * u32(b)) >> 32)


def div(a: int, b: int) -> int:
    sa, sb = to_signed32(a), to_signed32(b)
    if sb == 0:
        return 0xFFFFFFFF                     # RV32M: division by zero -> -1
    if sa == _INT_MIN and sb == -1:
        return u32(_INT_MIN)                  # overflow wraps
    q = abs(sa) // abs(sb)
    return u32(q if (sa < 0) == (sb < 0) else -q)


def divu(a: int, b: int) -> int:
    ua, ub = u32(a), u32(b)
    if ub == 0:
        return 0xFFFFFFFF
    return ua // ub


def rem(a: int, b: int) -> int:
    sa, sb = to_signed32(a), to_signed32(b)
    if sb == 0:
        return u32(sa)                        # remainder of /0 is the dividend
    if sa == _INT_MIN and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return u32(r if sa >= 0 else -r)


def remu(a: int, b: int) -> int:
    ua, ub = u32(a), u32(b)
    if ub == 0:
        return ua
    return ua % ub


#: Dispatch tables keyed by mnemonic (the executor's; MJIT calls the
#: M-extension entries of REG_OPS by name).
REG_OPS = {m: _lambda(e) for m, e in REG_EXPRS.items()}
REG_OPS.update({
    "mul": mul, "mulh": mulh, "mulhsu": mulhsu, "mulhu": mulhu,
    "div": div, "divu": divu, "rem": rem, "remu": remu,
})

IMM_OPS = {m: _lambda(e, f"({norm})") for m, (e, norm) in IMM_EXPRS.items()}

BRANCH_OPS = {m: _lambda(e) for m, e in BRANCH_EXPRS.items()}
