"""RPR001 — determinism: no ambient randomness or wall-clock reads
(documented on :class:`DeterminismRule`)."""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.lint._ast import resolve
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Paths (suffix-matched against the posix relative path) where the
#: determinism and RNG-plumbing rules do not apply: the RNG plumbing itself.
RNG_EXEMPT = ("_util/rng.py",)

#: The finding on an import of the stdlib ``random`` module.
_STDLIB_RANDOM = (
    "stdlib `random` uses hidden process-global state; "
    "draw from a generator built by repro._util.rng"
)

#: numpy.random module-level names that are *not* global legacy state.
_NUMPY_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "RandomState",  # construction is RPR002's concern, not global state
}


@REGISTRY.register
class DeterminismRule(Rule):
    """No ambient nondeterminism in library code.

    Every stochastic draw must flow through the generators that
    ``repro._util.rng`` derives, so a run is byte-reproducible from its
    seed and adding a consumer never perturbs the draws of existing ones
    (the property Table 1/Table 2 calibration rests on).  Flagged:

    * the stdlib ``random`` module (import or call): process-global state;
    * legacy ``numpy.random.*`` module-level distributions and ``seed``:
      the same global-state problem in numpy clothing;
    * ``numpy.random.default_rng()`` without a seed: fresh OS entropy;
    * wall-clock reads (``time.time``, ``time.monotonic``,
      ``time.perf_counter`` and their ``_ns`` forms, ``datetime.now``,
      ``utcnow``, ``today``).

    Files ending in ``_util/rng.py`` are skipped: they are the plumbing.
    """

    code = "RPR001"
    name = "determinism"
    description = (
        "ambient randomness (stdlib random, legacy np.random globals, "
        "unseeded default_rng) or wall-clock reads in library code"
    )
    example = """
        import time
        started = time.time()          # RPR001
        jitter = rng.random()          # ok: rng plumbed in
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.rel_path.endswith(RNG_EXEMPT):
            return
        scope = ctx.scope
        for node, _ in scope.imports:
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random" or item.name.startswith("random."):
                        yield self.diag(ctx, node, _STDLIB_RANDOM)
            elif node.level == 0 and node.module == "random":
                yield self.diag(ctx, node, _STDLIB_RANDOM)
        for call, holder in scope.calls:
            yield from self._check_call(ctx, call, scope.aliases_in(holder))

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    aliases: Dict[str, str]) -> Iterator[Diagnostic]:
        target = resolve(node.func, aliases)
        if target is None:
            return
        if target == "random" or target.startswith("random."):
            yield self.diag(
                ctx, node,
                f"call into stdlib random ({target}) is nondeterministic "
                "across processes; use repro._util.rng generators",
            )
        elif target in _CLOCK_CALLS:
            yield self.diag(
                ctx, node,
                f"wall-clock read {target}() in library code breaks replay "
                "determinism; thread timestamps in as data",
            )
        elif target.startswith("numpy.random."):
            leaf = target.rsplit(".", 1)[1]
            if leaf == "default_rng" and not node.args and not node.keywords:
                yield self.diag(
                    ctx, node,
                    "numpy.random.default_rng() without a seed pulls OS "
                    "entropy; pass a seed or use as_generator/derive_rng",
                )
            elif leaf not in _NUMPY_RANDOM_OK:
                yield self.diag(
                    ctx, node,
                    f"legacy numpy.random.{leaf}() mutates the global numpy "
                    "stream; use Generator methods on a derived rng",
                )
