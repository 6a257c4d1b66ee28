"""Shared AST helpers for the rule modules and the project pass.

The central primitive is *import-aware name resolution*: ``np.random.rand``
resolves to ``numpy.random.rand`` given ``import numpy as np``, so rules
match on canonical dotted module paths instead of guessing from surface
spellings.  :class:`ModuleScope` extends it to one module's own
functions, which is the reach of the typeflow and lock analyses.

This lives outside the :mod:`repro.lint.rules` package so that
:mod:`repro.lint.project` can use it without triggering rule registration
(the rules package imports project back — a cycle otherwise).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names bound by imports to canonical dotted module paths."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    # ``import a.b`` binds the top-level name ``a``.
                    top = item.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports stay project-local
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


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


@dataclass(frozen=True)
class ModuleFunction:
    """One ``def`` of a module, named as calls into it resolve."""

    qualname: str  #: ``func``, ``Class.method`` or ``outer.inner``
    fqname: str  #: ``<module>.<qualname>``
    klass: Optional[str]  #: enclosing class of a method, else None
    node: FunctionNode

    @property
    def params(self) -> List[str]:
        args = self.node.args
        return [a.arg for a in [*args.posonlyargs, *args.args]]


class ModuleScope:
    """One module's functions and the calls that resolve to them.

    A bare name resolves to a top-level ``def`` or class of the module, or
    through the imports; ``self.m()``/``cls.m()`` inside a method resolves
    to ``<module>.<Class>.m``.  Calls into other modules resolve to their
    dotted import path, which names no function of this scope.
    """

    def __init__(self, tree: ast.Module, rel_path: str,
                 aliases: Dict[str, str]):
        self.module = module_name_for(rel_path)
        self.aliases = aliases
        #: names of module-level defs (for bare-name call resolution)
        self.toplevel = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }
        self.functions: List[ModuleFunction] = []
        self._collect(tree, None, [])

    def _collect(self, node: ast.AST, klass: Optional[str],
                 stack: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._collect(child, child.name, stack)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stack:
                    qual = f"{stack[-1]}.{child.name}"
                elif klass:
                    qual = f"{klass}.{child.name}"
                else:
                    qual = child.name
                self.functions.append(ModuleFunction(
                    qualname=qual, fqname=f"{self.module}.{qual}",
                    klass=klass, node=child,
                ))
                self._collect(child, None, [*stack, qual])
            else:
                self._collect(child, klass, stack)

    def resolve_call(self, node: ast.Call,
                     klass: Optional[str]) -> Optional[str]:
        """Dotted callee of ``node`` as seen from a def in ``klass``."""
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.toplevel:
                return f"{self.module}.{func.id}"
            return self.aliases.get(func.id)
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and klass is not None
            ):
                return f"{self.module}.{klass}.{func.attr}"
            return resolve(func, self.aliases)
        return None
