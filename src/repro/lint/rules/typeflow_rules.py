"""RPR011 — overflow-risk arithmetic over the typeflow analysis
(documented on :class:`OverflowArithmeticRule`).

The rule consumes the module's solved
:class:`~repro.lint.typeflow.TypeflowAnalysis`: the dtype and
significant-bit bound inferred for every operand, checked against the
recorded arithmetic events.  It respects inline suppressions,
``--select`` / ``--ignore`` and path-scoped rule sets like every other
rule.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint._ast import snippet
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule
from repro.lint.typeflow import (
    analyze_module,
    int_capacity,
    is_int_dtype,
    promote_dtype,
    raw_bits,
)


@REGISTRY.register
class OverflowArithmeticRule(Rule):
    """Arithmetic on packed-key integers stays within the dtype's range.

    An add, multiply or left shift whose mathematical result can exceed
    the promoted integer dtype's capacity wraps silently in numpy.  The
    bound is the uncapped bit count, so a value that already wrapped
    upstream does not launder the overflow.  Bounds come from
    ``PacketBatch`` column dtypes, literals and casts, and from parameter
    names: a ``*_ip`` parameter holds at most 32 bits and a ``*_port``
    parameter 16, whatever its dtype; any other parameter is bounded only
    by a cast's dtype.  A helper's return value flows to its callers in
    the same module; the result of a call into another module is unknown.
    ``np.errstate(over=...)`` is the idiom for intentional wraparound
    (hash mixers); arithmetic under it is skipped.  For a bound the
    analysis cannot see (e.g. "group ids are bounded by the packet
    index"), state it in a comment and suppress the line.
    """

    code = "RPR011"
    name = "overflow-arithmetic"
    description = (
        "add/mul/shift on a tracked integer value whose inferred bit "
        "width can exceed the result dtype (silent wraparound)"
    )
    example = """
        key = (saddr.astype(np.uint64) << 48) | seq   # RPR011: u32 << 48
        with np.errstate(over="ignore"):
            mixed *= np.uint64(0x9E3779B97F4A7C15)    # ok: declared wrap
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        tf = analyze_module(ctx.scope)
        for event in tf.iter_events():
            if event.wrap:
                continue
            lv = tf.eval(event.left)
            rv = tf.eval(event.right)
            dtype = promote_dtype(lv, rv)
            if dtype is None or not is_int_dtype(dtype):
                continue
            raw = raw_bits(event.op, lv, rv, event.right)
            if raw is None:
                continue
            capacity = int_capacity(dtype)
            if raw <= capacity:
                continue
            yield self.diag_at(
                ctx.rel_path, event.node.lineno, event.node.col_offset,
                f"'{event.op}' result needs up to {raw} bits but {dtype} "
                f"holds {capacity}; '{snippet(event.node, 72, '...')}' "
                "can wrap silently — "
                "widen the operands, mask the inputs, or put the statement "
                "under np.errstate(over=...) to declare intentional "
                "wraparound",
            )


__all__ = ["OverflowArithmeticRule"]
