"""Shared AST helpers for the rule modules and the project pass.

The central primitive is *import-aware name resolution*: ``np.random.rand``
resolves to ``numpy.random.rand`` given ``import numpy as np``, so rules
match on canonical dotted module paths instead of guessing from surface
spellings.

This lives outside the :mod:`repro.lint.rules` package so that
:mod:`repro.lint.project` can use it without triggering rule registration
(the rules package imports project back — a cycle otherwise).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional


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
