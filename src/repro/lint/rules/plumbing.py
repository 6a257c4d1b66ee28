"""RPR002 — RNG plumbing: generators come from repro._util.rng
(documented on :class:`RngPlumbingRule`)."""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint._ast import annotation_text, import_aliases, resolve
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

_DIRECT_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}

#: Methods that actually draw from (or fork) a Generator.
_DRAW_METHODS = {
    "random", "integers", "uniform", "normal", "lognormal", "exponential",
    "poisson", "binomial", "geometric", "gamma", "beta", "choice", "shuffle",
    "permutation", "permuted", "standard_normal", "standard_exponential",
    "standard_gamma", "bytes", "spawn", "multivariate_normal", "pareto",
    "weibull", "zipf", "dirichlet", "multinomial", "hypergeometric",
}

_NORMALISERS = {"as_generator", "derive_rng", "spawn_rngs"}


@REGISTRY.register
class RngPlumbingRule(Rule):
    """Random generators derive from ``repro._util.rng``.

    Two failure modes:

    * constructing generators directly (``np.random.default_rng(seed)``,
      ``Generator``/``RandomState``/``SeedSequence``) outside
      ``_util/rng.py``: such streams bypass the keyed derivation, so
      adding a consumer can shift the draws an existing consumer sees;
    * accepting the public ``RandomState`` union (``int | Generator |
      None``) and drawing on the parameter directly: an ``int`` or
      ``None`` has no ``.integers``/``.random``, so the parameter must be
      normalised with ``as_generator`` (or routed through
      ``derive_rng``/``spawn_rngs``) first.
    """

    code = "RPR002"
    name = "rng-plumbing"
    description = (
        "generators constructed outside repro._util.rng, or RandomState "
        "parameters drawn from without as_generator normalisation"
    )
    example = """
        import numpy as np
        g = np.random.default_rng(0)              # RPR002
        g = as_generator(seed)                    # ok
        child = derive_rng(g, "retries", year)    # ok
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.matches_suffix(ctx.config.rng_exempt):
            return
        aliases = import_aliases(ctx.tree)
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                target = resolve(node.func, aliases)
                if target in _DIRECT_CONSTRUCTORS:
                    leaf = target.rsplit(".", 1)[1]
                    yield self.diag(
                        ctx, node,
                        f"direct numpy.random.{leaf}(...) construction; derive "
                        "streams via repro._util.rng (as_generator/derive_rng/"
                        "spawn_rngs) so draws stay stable as consumers are added",
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx, func: ast.AST) -> Iterator[Diagnostic]:
        state_params = self._randomstate_params(func)
        if not state_params:
            return
        normalised = self._normalised_names(func)
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in state_params
                and base.id not in normalised
                and node.func.attr in _DRAW_METHODS
            ):
                yield self.diag(
                    ctx, node,
                    f"parameter `{base.id}` is a RandomState (may be an int or "
                    f"None) but `.{node.func.attr}` is drawn from it directly; "
                    "normalise with as_generator(...) first",
                )

    @staticmethod
    def _randomstate_params(func) -> Set[str]:
        params = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if "RandomState" in annotation_text(arg.annotation):
                params.add(arg.arg)
        return params

    @staticmethod
    def _normalised_names(func) -> Set[str]:
        """Parameter names that are rebound via a normaliser in the body,
        e.g. ``rng = as_generator(rng)``."""
        rebound: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _NORMALISERS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
        return rebound
