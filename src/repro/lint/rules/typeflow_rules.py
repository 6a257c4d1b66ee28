"""RPR011 — overflow-risk arithmetic over the typeflow analysis
(documented on :class:`OverflowArithmeticRule`).

The rule consumes the module's solved
:class:`~repro.lint.typeflow.TypeflowAnalysis`: abstract values (dtype,
unit tag, provenance column, significant-bit bound) inferred for every
tracked expression, checked against the recorded arithmetic events.  It
respects inline suppressions, ``--select`` / ``--ignore`` and
path-scoped rule sets like every other rule.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule
from repro.lint.typeflow import (
    TypeflowAnalysis,
    analyze_module,
    int_capacity,
    promote_dtype,
)


def _is_int(dtype: Optional[str]) -> bool:
    return dtype is not None and dtype.startswith(("uint", "int"))


@REGISTRY.register
class OverflowArithmeticRule(Rule):
    """Arithmetic on packed-key integers stays within the dtype's range.

    An add, multiply or left shift whose mathematical result can exceed
    the promoted dtype's capacity wraps silently in numpy.  The bound is
    the uncapped bit count, so a value that already wrapped upstream does
    not launder the overflow.  ``np.errstate(over=...)`` is the idiom for
    intentional wraparound (hash mixers); arithmetic under it is skipped.
    For a bound the analysis cannot see (e.g. "group ids are bounded by
    the packet index"), state it in a comment and suppress the line.
    Values flow through calls between the functions of one module (a
    helper's return value, a caller's arguments); the result of a call
    into another module is unknown, bounded only by a cast's dtype.
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
        for fn, event in tf.iter_events():
            if event.wrap:
                continue
            data = event.data
            op: str = data["op"]
            left, right = data["l"], data["r"]
            lv = tf.eval(fn.fqname, left)
            rv = tf.eval(fn.fqname, right)
            # Gate: the operands derive from a tracked column/unit, or the
            # author is doing explicit numpy integer arithmetic (a packed
            # key); generic Python-int arithmetic cannot wrap.
            tracked = (
                tf.involves_tracked(fn.fqname, left)
                or tf.involves_tracked(fn.fqname, right)
                or _is_int(lv.dtype)
            )
            if not tracked:
                continue
            dtype = promote_dtype(lv, rv)
            if dtype is None or not _is_int(dtype):
                continue
            raw = TypeflowAnalysis.raw_bits(op, lv, rv, right)
            if raw is None:
                continue
            capacity = int_capacity(dtype)
            if raw <= capacity:
                continue
            yield self.diag_at(
                ctx.rel_path, event.lineno, event.col,
                f"'{op}' result needs up to {raw} bits but {dtype} holds "
                f"{capacity}; '{event.text}' can wrap silently — widen the "
                "operands, mask the inputs, or put the statement under "
                "np.errstate(over=...) to declare intentional wraparound",
            )


__all__ = ["OverflowArithmeticRule"]
