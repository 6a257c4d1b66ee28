"""RPR002 — RNG plumbing: generators come from repro._util.rng
(documented on :class:`RngPlumbingRule`)."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint._ast import ModuleFunction, annotation_text, resolve
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule
from repro.lint.rules.determinism import RNG_EXEMPT

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

    A normalisation covers the def whose name it rebinds: an ``=`` in a
    nested def binds that def's own name unless it declares the name
    ``nonlocal``.
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
        if ctx.rel_path.endswith(RNG_EXEMPT):
            return
        scope = ctx.scope
        for node, holder in scope.calls:
            target = resolve(node.func, scope.aliases_in(holder))
            if target in _DIRECT_CONSTRUCTORS:
                leaf = target.rsplit(".", 1)[1]
                yield self.diag(
                    ctx, node,
                    f"direct numpy.random.{leaf}(...) construction; derive "
                    "streams via repro._util.rng (as_generator/derive_rng/"
                    "spawn_rngs) so draws stay stable as consumers are added",
                )
        for fn in scope.functions:
            yield from self._check_function(ctx, fn)

    def _check_function(self, ctx: FileContext,
                        fn: ModuleFunction) -> Iterator[Diagnostic]:
        state_params = self._randomstate_params(fn.node.args)
        if not state_params:
            return
        normalised = self._normalised_names(ctx, fn)
        for node in fn.calls:
            if not isinstance(node.func, ast.Attribute):
                continue
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in state_params
                and base.id not in normalised
                and node.func.attr in _DRAW_METHODS
                and not self._bound_below(ctx, node, base.id, fn)
            ):
                yield self.diag(
                    ctx, node,
                    f"parameter `{base.id}` is a RandomState (may be an int or "
                    f"None) but `.{node.func.attr}` is drawn from it directly; "
                    "normalise with as_generator(...) first",
                )

    @staticmethod
    def _bound_below(ctx: FileContext, call: ast.Call, name: str,
                     fn: ModuleFunction) -> bool:
        """Whether a def between ``call`` and ``fn``, the def holding the
        call included, takes ``name`` as a parameter: the call then draws
        from that def's own parameter, which that def's check covers."""
        holder = next(h for node, h in ctx.scope.calls if node is call)
        while holder is not None and holder is not fn:
            args = holder.node.args
            bound = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                     args.vararg, args.kwarg]
            if any(arg is not None and arg.arg == name for arg in bound):
                return True
            holder = holder.parent
        return False

    @staticmethod
    def _randomstate_params(args: ast.arguments) -> Set[str]:
        params = set()
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if "RandomState" in annotation_text(arg.annotation):
                params.add(arg.arg)
        return params

    @staticmethod
    def _normalised_names(ctx: FileContext, fn: ModuleFunction) -> Set[str]:
        """Names ``fn`` rebinds via a normaliser, e.g. ``rng =
        as_generator(rng)``.  An ``=`` in a nested def binds that def's
        own name unless every def from it up to ``fn`` declares the name
        ``nonlocal``; the holder is looked up only for a normaliser ``=``."""
        rebound: Set[str] = set()
        for _, node in fn.stores:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _NORMALISERS
            ):
                continue
            holder = next(h for stmt, h in ctx.scope.stores if stmt is node)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                binder: Optional[ModuleFunction] = holder
                while (binder is not None and binder is not fn
                       and target.id in binder.nonlocals):
                    binder = binder.parent
                if binder is fn:
                    rebound.add(target.id)
        return rebound
