"""RPR003 — header-field safety: literals fit their wire widths.

The packet model stores header fields at wire width (``uint16`` ports and
``ip_id``, ``uint8`` TTL/flags, ``uint32`` addresses/seq — see
``repro.telescope.packet._COLUMNS``).  An out-of-range literal silently
wraps once it reaches a numpy column, so it must be caught at the source:

* keyword arguments named after header fields (``ttl=300``,
  ``src_port=70000``) with out-of-range integer literals;
* literals handed to the validators (``check_port``/``check_ttl``/
  ``check_ip``/``check_header_field``) that can never pass;
* numpy scalar constructors (``np.uint8(256)``) whose literal exceeds the
  dtype;
* ``.astype`` casts that *narrow* a known packet column below its declared
  wire width (``batch.seq.astype(np.uint16)``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint._ast import FIELD_BITS, import_aliases, int_literal, resolve
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

_NUMPY_INT_BITS = {
    "numpy.uint8": (0, 8),
    "numpy.uint16": (0, 16),
    "numpy.uint32": (0, 32),
    "numpy.uint64": (0, 64),
    "numpy.int8": (-(2 ** 7), 8),
    "numpy.int16": (-(2 ** 15), 16),
    "numpy.int32": (-(2 ** 31), 32),
    "numpy.int64": (-(2 ** 63), 64),
}

#: Validator name -> fixed bit width of its second argument (None = generic).
_VALIDATORS = {"check_port": 16, "check_ttl": 8, "check_ip": 32}


@REGISTRY.register
class HeaderFieldRule(Rule):
    code = "RPR003"
    name = "header-field-safety"
    description = (
        "integer literals out of wire range for packet header fields, "
        "numpy scalar overflow, or dtype-narrowing casts on packet columns"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(ctx.tree)
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_field_keywords(ctx, node)
            yield from self._check_validator_literal(ctx, node)
            yield from self._check_numpy_scalar(ctx, node, aliases)
            yield from self._check_narrowing_cast(ctx, node, aliases)

    def _check_field_keywords(self, ctx, node: ast.Call) -> Iterator[Diagnostic]:
        for kw in node.keywords:
            bits = FIELD_BITS.get(kw.arg or "")
            if bits is None:
                continue
            value = int_literal(kw.value)
            if value is not None and not 0 <= value < (1 << bits):
                yield self.diag(
                    ctx, kw.value,
                    f"literal {value} does not fit header field `{kw.arg}` "
                    f"({bits}-bit wire width); it would wrap in the column store",
                )

    def _check_validator_literal(self, ctx, node: ast.Call) -> Iterator[Diagnostic]:
        func_name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        if func_name in _VALIDATORS and len(node.args) >= 2:
            bits: Optional[int] = _VALIDATORS[func_name]
        elif func_name == "check_header_field" and len(node.args) >= 3:
            bits = int_literal(node.args[2])
        else:
            return
        value = int_literal(node.args[1])
        if bits is not None and bits <= 0:
            # A non-positive width is rejected by the validator itself at
            # runtime (tests exercise that path with literals); don't shift.
            return
        if value is not None and bits is not None and not 0 <= value < (1 << bits):
            yield self.diag(
                ctx, node,
                f"{func_name} is called with literal {value}, which can never "
                f"satisfy its {bits}-bit bound — dead validation or a typo",
            )

    def _check_numpy_scalar(self, ctx, node: ast.Call, aliases) -> Iterator[Diagnostic]:
        target = resolve(node.func, aliases)
        span = _NUMPY_INT_BITS.get(target or "")
        if span is None or len(node.args) != 1:
            return
        low, bits = span
        value = int_literal(node.args[0])
        high = (1 << bits) if low == 0 else (1 << (bits - 1))
        if value is not None and not low <= value < high:
            yield self.diag(
                ctx, node,
                f"{target}({value}) overflows the {bits}-bit dtype and wraps "
                "silently",
            )

    def _check_narrowing_cast(self, ctx, node: ast.Call, aliases) -> Iterator[Diagnostic]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
            return
        base = func.value
        if not isinstance(base, ast.Attribute):
            return
        declared = FIELD_BITS.get(base.attr)
        if declared is None or not node.args:
            return
        target = resolve(node.args[0], aliases)
        span = _NUMPY_INT_BITS.get(target or "")
        if span is None:
            return
        _, bits = span
        if bits < declared:
            yield self.diag(
                ctx, node,
                f"column `{base.attr}` is declared {declared}-bit; casting to "
                f"{target} truncates header values",
            )
