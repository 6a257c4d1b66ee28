"""Shared AST helpers and :class:`ModuleScope`, a module's one traversal.

The central primitive is *import-aware name resolution*: ``np.random.rand``
resolves to ``numpy.random.rand`` given ``import numpy as np``, so rules
match on canonical dotted module paths instead of guessing from surface
spellings.  One walk per module builds the :class:`ModuleScope` index —
defs, imports, calls, and each def's ``return`` and ``=`` statements —
which the file rules, the summariser and the typeflow and lock analyses
read instead of walking the tree again.  An import binds in the def that
holds it: module-level code resolves through the module-level imports,
code in a def through its own imports layered over its enclosing scope's.

This lives outside the :mod:`repro.lint.rules` package so that
:mod:`repro.lint.project` can use it without triggering rule registration
(the rules package imports project back — a cycle otherwise).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

ImportNode = Union[ast.Import, ast.ImportFrom]

#: Node types with nothing below them that a walk looks for.
LEAVES = frozenset({ast.Name, ast.Constant}.union(*(
    kind.__subclasses__() for kind in
    (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)
)))


def bind_imports(imports: Iterable[ImportNode],
                 base: Dict[str, str]) -> Dict[str, str]:
    """``base`` plus the local names ``imports`` bind to canonical dotted
    module paths; a later binding of a name wins."""
    aliases = dict(base)
    for node in imports:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    # ``import a.b`` binds the top-level name ``a``.
                    top = item.name.split(".")[0]
                    aliases[top] = top
        elif node.level == 0 and node.module is not None:
            # Absolute only: relative imports stay project-local.
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def module_bindings(
    tree: ast.Module,
) -> Iterator[Tuple[ast.stmt, str, ast.expr]]:
    """``(statement, name, value)`` for each name that a module-level
    ``=`` or annotated ``=`` binds."""
    for node in tree.body:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield node, target.id, value


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of an expression, following import aliases."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in aliases:
        head = aliases[head]
    return f"{head}.{rest}" if rest else head


def annotation_text(node: Optional[ast.AST]) -> str:
    """Source text of an annotation ('' when absent)."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # string annotations
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""


def snippet(node: ast.AST, cap: int, ellipsis: str) -> str:
    """Source text of an expression for a finding's message: at most
    ``cap`` characters, the last of them ``ellipsis`` when it is cut."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed expression
        return "<expr>"
    return text if len(text) <= cap else text[:cap - len(ellipsis)] + ellipsis


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a posix relative path.

    ``src/repro/exec/cache.py`` → ``repro.exec.cache``; a package
    ``__init__.py`` names the package itself.
    """
    parts = [p for p in rel_path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(eq=False)
class ModuleFunction:
    """One ``def`` of a module, named as calls into it resolve, with what
    lies under it, nested defs and lambdas included."""

    qualname: str  #: ``func``, ``Class.method`` or ``outer.inner``
    fqname: str  #: ``<module>.<qualname>``
    klass: Optional[str]  #: enclosing class of a method, else None
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    parent: Optional[ModuleFunction]  #: the def this one is nested in
    #: the imports visible in the def: its parent's, then its own
    aliases: Dict[str, str] = field(default_factory=dict)
    calls: List[ast.Call] = field(default_factory=list)
    #: ``(depth, node)`` of every ``return`` and ``=`` statement, in
    #: ``ast.walk`` order (shallowest first), which picks whose line a
    #: summary keeps when several share a key
    stores: List[Tuple[int, ast.stmt]] = field(default_factory=list)
    #: the names the def declares ``nonlocal``
    nonlocals: Set[str] = field(default_factory=set)

    @property
    def params(self) -> List[str]:
        args = self.node.args
        return [a.arg for a in [*args.posonlyargs, *args.args]]


class ModuleScope:
    """One module's index: its defs, imports and calls, and call resolution.

    A bare name resolves to a top-level ``def`` or class of the module, or
    through the imports; ``self.m()``/``cls.m()`` inside a method resolves
    to ``<module>.<Class>.m``.  Calls into other modules resolve to their
    dotted import path, which names no function of this scope.
    """

    def __init__(self, tree: ast.Module, rel_path: str):
        self.module = module_name_for(rel_path)
        #: names of module-level defs (for bare-name call resolution)
        self.toplevel = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }
        #: every def, each after the def it is nested in
        self.functions: List[ModuleFunction] = []
        #: every call and import, with the innermost def holding it (None
        #: at module level); no entry refers back to the scope, so a file's
        #: tree is freed as soon as its lint is done
        self.calls: List[Tuple[ast.Call, Optional[ModuleFunction]]] = []
        self.imports: List[Tuple[ImportNode, Optional[ModuleFunction]]] = []
        #: every ``return`` and ``=`` statement under a def, with the
        #: innermost def holding it
        self.stores: List[Tuple[ast.stmt, ModuleFunction]] = []
        self._collect(tree, None, [], 1)
        own: Dict[Optional[ModuleFunction], List[ImportNode]] = {}
        for node, holder in self.imports:
            own.setdefault(holder, []).append(node)
        #: the imports visible at module level
        self.aliases = bind_imports(own.get(None, []), {})
        for fn in self.functions:
            base = self.aliases_in(fn.parent)
            fn.aliases = bind_imports(own[fn], base) if fn in own else base
            fn.stores.sort(key=itemgetter(0))

    def _collect(self, node: ast.AST, klass: Optional[str],
                 stack: List[ModuleFunction], depth: int) -> None:
        holder = stack[-1] if stack else None
        for child in ast.iter_child_nodes(node):
            if type(child) in LEAVES:
                continue
            if isinstance(child, ast.Call):
                self.calls.append((child, holder))
                for fn in stack:
                    fn.calls.append(child)
            elif isinstance(child, (ast.Return, ast.Assign)):
                if holder is not None:
                    self.stores.append((child, holder))
                for fn in stack:
                    fn.stores.append((depth, child))
            elif isinstance(child, ast.Nonlocal):
                if holder is not None:
                    holder.nonlocals.update(child.names)
                continue
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                self.imports.append((child, holder))
                continue
            elif isinstance(child, ast.ClassDef):
                self._collect(child, child.name, stack, depth + 1)
                continue
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if holder is not None:
                    qual = f"{holder.qualname}.{child.name}"
                elif klass:
                    qual = f"{klass}.{child.name}"
                else:
                    qual = child.name
                fn = ModuleFunction(
                    qualname=qual, fqname=f"{self.module}.{qual}",
                    klass=klass, node=child, parent=holder,
                )
                self.functions.append(fn)
                self._collect(child, None, [*stack, fn], depth + 1)
                continue
            self._collect(child, klass, stack, depth + 1)

    def aliases_in(self, fn: Optional[ModuleFunction]) -> Dict[str, str]:
        """The imports visible in ``fn``, or at module level for None."""
        return self.aliases if fn is None else fn.aliases

    def resolve_call(self, func: ast.expr,
                     fn: ModuleFunction) -> Optional[str]:
        """Dotted name of ``func``, a callee named in ``fn``."""
        if isinstance(func, ast.Name):
            if func.id in self.toplevel:
                return f"{self.module}.{func.id}"
            return fn.aliases.get(func.id)
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and fn.klass is not None
            ):
                return f"{self.module}.{fn.klass}.{func.attr}"
            return resolve(func, fn.aliases)
        return None
