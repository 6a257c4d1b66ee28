"""RPR004 — batch immutability: no in-place writes to PacketBatch columns.

``PacketBatch`` is documented (and, since this rule landed, runtime-
enforced) as immutable: every transformation returns a new batch.  This
rule catches the static shapes of in-place mutation:

* subscript stores / augmented stores into a column attribute
  (``batch.ttl[mask] = 0``, ``batch.flags[i] |= ACK``);
* any store into ``._cols`` (rebinding or subscript), outside the defining
  module (``immutability-exempt``, default ``telescope/packet.py``);
* in-place mutator calls on a column attribute (``batch.time.sort()``,
  ``batch.seq.fill(0)``, ``setflags``...).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint._ast import BATCH_COLUMNS
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

_MUTATOR_METHODS = {
    "sort", "fill", "partition", "put", "resize", "setflags", "byteswap",
}


@REGISTRY.register
class BatchImmutabilityRule(Rule):
    code = "RPR004"
    name = "batch-immutability"
    description = (
        "in-place mutation of PacketBatch columns or its _cols store; "
        "transformations must return new batches"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        exempt = ctx.matches_suffix(ctx.config.immutability_exempt)
        for node in ctx.walk():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    yield from self._check_store(ctx, node, target, exempt)
            elif isinstance(node, ast.Call):
                yield from self._check_mutator_call(ctx, node, exempt)

    def _check_store(self, ctx, stmt, target, exempt: bool) -> Iterator[Diagnostic]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_store(ctx, stmt, element, exempt)
            return
        if isinstance(target, ast.Attribute) and target.attr == "_cols":
            if not exempt:
                yield self.diag(
                    ctx, stmt,
                    "rebinding `._cols` outside the PacketBatch definition "
                    "breaks the immutability invariant",
                )
            return
        if isinstance(target, ast.Subscript):
            if self._mentions_cols(target.value):
                yield self.diag(
                    ctx, stmt,
                    "subscript store into `._cols` mutates a PacketBatch in "
                    "place; build a new batch instead",
                )
            else:
                column = self._column_attr(target.value)
                if column is not None:
                    yield self.diag(
                        ctx, stmt,
                        f"in-place write to batch column `.{column}`; "
                        "PacketBatch transformations must return new batches",
                    )

    def _check_mutator_call(self, ctx, node: ast.Call, exempt: bool) -> Iterator[Diagnostic]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS):
            return
        column = self._column_attr(func.value)
        if column is None and not (self._mentions_cols(func.value) and not exempt):
            return
        where = f"column `.{column}`" if column else "`._cols` contents"
        yield self.diag(
            ctx, node,
            f"`.{func.attr}()` mutates {where} in place; use the copying "
            "equivalent (np.sort, full-array expressions) on a new batch",
        )

    @staticmethod
    def _column_attr(node: ast.AST) -> Optional[str]:
        """Column name when ``node`` is ``<expr>.<column>`` (or a subscript
        of it, e.g. ``x._cols['ttl']``)."""
        if isinstance(node, ast.Attribute) and node.attr in BATCH_COLUMNS:
            return node.attr
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr == "_cols":
                key = node.slice
                if isinstance(key, ast.Constant) and key.value in BATCH_COLUMNS:
                    return str(key.value)
        return None

    @staticmethod
    def _mentions_cols(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Attribute) and sub.attr == "_cols"
            for sub in ast.walk(node)
        )
