"""RPR005 — float equality in analysis code.

The ``core/`` analyses reduce packet data to rates, fractions and scores;
comparing those with ``==``/``!=`` is order-of-operations roulette.  The
rule fires when either side of an equality *provably looks float*: a float
literal, a true division, or a call to a known float producer (``float``,
``np.mean``/``std``/``median``..., ``math.sqrt``/``log``..., or a
``.mean()``-style method).  Scope is limited to paths matching
``float-eq-paths`` (default: ``core/``) — generation code legitimately
compares exact float ticks it produced itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint._ast import import_aliases, resolve
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

_FLOAT_CALLS = {
    "float",
    "numpy.mean", "numpy.average", "numpy.std", "numpy.var", "numpy.median",
    "numpy.quantile", "numpy.percentile", "numpy.sqrt", "numpy.log",
    "numpy.log2", "numpy.log10", "numpy.exp",
    "math.sqrt", "math.log", "math.log2", "math.log10", "math.exp",
    "math.fsum",
}

_FLOAT_METHODS = {"mean", "std", "var"}


@REGISTRY.register
class FloatEqualityRule(Rule):
    code = "RPR005"
    name = "float-equality"
    description = (
        "==/!= between float-typed expressions in analysis code; use "
        "math.isclose / np.isclose or an explicit tolerance"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not any(frag in ctx.rel_path for frag in ctx.config.float_eq_paths):
            return
        aliases = import_aliases(ctx.tree)
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                culprit = next(
                    (x for x in (left, right) if self._looks_float(x, aliases)),
                    None,
                )
                if culprit is not None:
                    yield self.diag(
                        ctx, culprit,
                        "float equality comparison in analysis code; use "
                        "math.isclose/np.isclose or compare with a tolerance",
                    )

    @staticmethod
    def _looks_float(node: ast.AST, aliases) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.Call):
            target = resolve(node.func, aliases)
            if target in _FLOAT_CALLS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FLOAT_METHODS
            ):
                return True
        return False
