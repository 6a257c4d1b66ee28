"""Typeflow analysis: dtype and bit-width inference over one module.

The paper's tool fingerprints rest on wire-width arithmetic — ``uint32``
IPs, ``uint16`` ports, ZMap's fixed IP-ID, Masscan's IP-ID derived from
dstIP ⊕ dstPort ⊕ seq — and the identifiers pack the same columns into
wide sort keys.  This module performs abstract interpretation over one
module's functions to infer, for every expression, an
:class:`AbstractValue`:

* **dtype** — canonical numpy dtype (width + signedness + float/int);
* **bits** — a conservative upper bound on the significant value bits
  (for overflow reasoning: a ``uint32`` source widened to ``uint64`` and
  shifted left by 32 needs at most 64 bits, so it is proven to fit).

The seeds are ``PacketBatch`` columns, literals, casts, and parameters
named ``*_ip`` or ``*_port``, which hold at most 32 or 16 bits whatever
their dtype.  Any other parameter is unknown: call-site arguments do not
flow into it.

:class:`TypeflowExtractor` runs once per function and emits a
:class:`FunctionTypeflow` (an expression IR whose leaves are parameters,
batch columns, literals and calls, plus one event per add/multiply/
left-shift).  :func:`analyze_module` then joins each function's return
expressions into the value of every call to it until fixpoint, and the
RPR011 overflow rule evaluates the recorded events against the solved
return values.  A call into another module is opaque: its result is
unknown.  RPR011's findings are cached with the file's, under a key that
digests this module's source, so editing the lattice re-analyses every
file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint._ast import ModuleFunction, ModuleScope, resolve

# ---------------------------------------------------------------------------
# the lattice: dtypes, column seeds, parameter bounds
# ---------------------------------------------------------------------------

#: Canonical integer/float dtypes with their widths in bits.
DTYPE_BITS: Dict[str, int] = {
    "uint8": 8, "uint16": 16, "uint32": 32, "uint64": 64,
    "int8": 8, "int16": 16, "int32": 32, "int64": 64,
    "float32": 32, "float64": 64,
    "bool": 1,
}

#: Column name -> canonical dtype.  Mirrors
#: ``repro.telescope.packet._COLUMNS``; this is the seed of the analysis.
COLUMN_TYPES: Dict[str, str] = {
    "time": "float64",
    "src_ip": "uint32",
    "dst_ip": "uint32",
    "src_port": "uint16",
    "dst_port": "uint16",
    "ip_id": "uint16",
    "seq": "uint32",
    "ttl": "uint8",
    "window": "uint16",
    "flags": "uint8",
}

#: Parameter name suffixes that bound the value regardless of its dtype:
#: an IPv4 address is < 2**32 and a port < 2**16 by definition.
NAME_BITS: Tuple[Tuple[str, int], ...] = (("_port", 16), ("_ip", 32))

#: numpy dtype spellings (dotted names and struct-style strings) mapped to
#: canonical dtypes; struct strings also carry explicit endianness.
_DTYPE_NAMES: Dict[str, str] = {
    "numpy.uint8": "uint8", "numpy.uint16": "uint16",
    "numpy.uint32": "uint32", "numpy.uint64": "uint64",
    "numpy.int8": "int8", "numpy.int16": "int16",
    "numpy.int32": "int32", "numpy.int64": "int64",
    "numpy.float32": "float32", "numpy.float64": "float64",
    "numpy.single": "float32", "numpy.double": "float64",
    "numpy.intp": "int64", "numpy.int_": "int64",
    "numpy.bool_": "bool",
}

_STRUCT_CODES: Dict[str, str] = {
    "u1": "uint8", "u2": "uint16", "u4": "uint32", "u8": "uint64",
    "i1": "int8", "i2": "int16", "i4": "int32", "i8": "int64",
    "f4": "float32", "f8": "float64",
    "b1": "bool",
}


def parse_dtype(text: Optional[str]) -> Optional[str]:
    """Canonical dtype for a dtype spelling, or None when unknown.

    ``numpy.uint32`` → ``"uint32"``; ``"<u4"`` and ``"u4"`` → ``"uint32"``.
    """
    if not text:
        return None
    if text in _DTYPE_NAMES:
        return _DTYPE_NAMES[text]
    if text in DTYPE_BITS:
        return text
    if text[0] in "<>=|":
        text = text[1:]
    return _STRUCT_CODES.get(text)


def _dtype_kind(dtype: str) -> str:
    if dtype.startswith("float"):
        return "float"
    if dtype.startswith("uint"):
        return "uint"
    if dtype == "bool":
        return "bool"
    return "int"


def int_capacity(dtype: str) -> int:
    """Magnitude bits an integer dtype can represent (sign bit excluded)."""
    width = DTYPE_BITS[dtype]
    return width - 1 if _dtype_kind(dtype) == "int" else width


def is_int_dtype(dtype: str) -> bool:
    return _dtype_kind(dtype) in ("uint", "int")


def _name_bits(name: str) -> Optional[int]:
    for suffix, bits in NAME_BITS:
        if name.endswith(suffix):
            return bits
    return None


# ---------------------------------------------------------------------------
# abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractValue:
    """One point of the typeflow lattice.

    ``None`` fields mean *unknown* (top); :data:`BOTTOM` means *no
    information yet* (used only inside the fixpoint — joining anything
    with bottom yields the other value).
    """

    dtype: Optional[str] = None
    bits: Optional[int] = None  #: upper bound on significant value bits
    is_bottom: bool = False


UNKNOWN = AbstractValue()
BOTTOM = AbstractValue(is_bottom=True)


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound; disagreement collapses a field to unknown."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    bits: Optional[int]
    if a.bits is None or b.bits is None:
        bits = None
    else:
        bits = max(a.bits, b.bits)
    return AbstractValue(dtype=a.dtype if a.dtype == b.dtype else None,
                         bits=bits)


def promote_dtype(a: AbstractValue, b: AbstractValue) -> Optional[str]:
    """Conservative numpy-style result dtype of a binary operation.

    A weak literal (``dtype is None`` with known ``bits``) adapts to the
    other operand, matching numpy scalar promotion for in-range Python
    ints.
    """
    if a.dtype is None and a.bits is not None and b.dtype is not None:
        return b.dtype
    if b.dtype is None and b.bits is not None and a.dtype is not None:
        return a.dtype
    if a.dtype is None or b.dtype is None:
        return None
    ka, kb = _dtype_kind(a.dtype), _dtype_kind(b.dtype)
    wa = DTYPE_BITS[a.dtype]
    wb = DTYPE_BITS[b.dtype]
    if "float" in (ka, kb):
        return "float64" if max(wa, wb) > 32 or "float64" in (a.dtype, b.dtype) else "float32"
    if ka == kb:
        return a.dtype if wa >= wb else b.dtype
    # signed/unsigned mix: numpy widens to a signed type (or float64 for
    # uint64/int64); width reasoning only needs the capacity, so report
    # the wider kind-mixed width as signed.
    width = max(wa, wb)
    return None if width >= 64 else f"int{min(width * 2, 64)}"


# ---------------------------------------------------------------------------
# the expression IR (nested lists)
# ---------------------------------------------------------------------------

# Encodings:
#   ["u"]                              unknown
#   ["c", dtype, bits, value]          constant (value: exact int or None)
#   ["p", bits]                        parameter (bits from its name, or None)
#   ["col", name]                      PacketBatch column load
#   ["call", dotted]                   call to a resolvable function
#   ["cast", dtype, inner]             dtype cast (None dtype = dynamic)
#   ["bin", op, left, right]           arithmetic/bitwise operation

Expr = List[Any]

_UNKNOWN_EXPR: Expr = ["u"]

_BIN_OPS: Dict[type, str] = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
    ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.LShift: "shl", ast.RShift: "shr",
    ast.BitOr: "or", ast.BitAnd: "and", ast.BitXor: "xor",
}

#: Ops RPR011 audits for overflow risk; each one records an event.
OVERFLOW_OPS = ("add", "mul", "shl")

_MAX_DEPTH = 10
_MAX_EVENTS = 400

#: numpy constructors that cast their first argument.
_CAST_CALLS = {
    "numpy.asarray", "numpy.ascontiguousarray", "numpy.array",
    "numpy.asfortranarray", "numpy.frombuffer",
}

_SUM_CALLS = {"numpy.sum", "numpy.nansum", "numpy.cumsum"}


def expr_is_const(expr: Expr) -> bool:
    return bool(expr) and expr[0] == "c"


def _const_int_value(expr: Expr) -> Optional[int]:
    if expr_is_const(expr) and isinstance(expr[3], int):
        return expr[3]
    return None


# ---------------------------------------------------------------------------
# per-function typeflow records
# ---------------------------------------------------------------------------


@dataclass
class TypeEvent:
    """One add/multiply/left-shift site the RPR011 rule may flag.

    ``left`` and ``right`` are the operand expression trees.  ``wrap`` is
    True inside a ``with np.errstate(...)`` block — arithmetic there has
    declared its wraparound intent.
    """

    lineno: int
    col: int
    text: str
    op: str
    left: Expr
    right: Expr
    wrap: bool = False


@dataclass
class FunctionTypeflow:
    """The typeflow facts of one function."""

    events: List[TypeEvent] = field(default_factory=list)
    returns: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extraction (per function)
# ---------------------------------------------------------------------------


def _short_text(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed expression
        return "<expr>"
    return text if len(text) <= 72 else text[:69] + "..."


class TypeflowExtractor:
    """Builds a :class:`FunctionTypeflow` for one function body.

    Locals are tracked in statement order (a use reads the latest
    binding); branch-local rebinding is approximated by last-wins, which
    is fine for a linter that only ever *under*-claims.
    """

    def __init__(self, scope: ModuleScope, fn: ModuleFunction):
        self.param_bits = {name: _name_bits(name) for name in fn.params}
        self.aliases = scope.aliases
        self.scope = scope
        self.klass = fn.klass
        self.env: Dict[str, Expr] = {}
        self.out = FunctionTypeflow()
        self._wrap_depth = 0

    # -- public entry --------------------------------------------------------

    def extract(self, func: ast.AST) -> FunctionTypeflow:
        body = getattr(func, "body", [])
        self._block(body)
        return self.out

    # -- statements ----------------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.out.returns.append(self._expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.For):
            self._expr(stmt.iter)
            # Iterating an array yields elements of the same scalar type.
            self._bind(stmt.target, self._expr(stmt.iter))
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            wraps = any(self._is_errstate(item.context_expr)
                        for item in stmt.items)
            for item in stmt.items:
                self._expr(item.context_expr)
            if wraps:
                self._wrap_depth += 1
            self._block(stmt.body)
            if wraps:
                self._wrap_depth -= 1
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested defs are extracted separately
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _bind(self, target: ast.expr, value: Expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, _UNKNOWN_EXPR)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        op = _BIN_OPS.get(type(stmt.op))
        value = self._expr(stmt.value)
        old = _UNKNOWN_EXPR
        if isinstance(stmt.target, ast.Name):
            old = self._name(stmt.target.id)
        if op is not None:
            self._record_binop(stmt, op, old, value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = ["bin", op, old, value]

    def _is_errstate(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return (resolve(node.func, self.aliases) or "").startswith(
                "numpy.errstate"
            )
        return False

    # -- expressions ---------------------------------------------------------

    def _name(self, name: str) -> Expr:
        # A rebinding in the body shadows the parameter from there on.
        if name in self.env:
            return self.env[name]
        if name in self.param_bits:
            return ["p", self.param_bits[name]]
        return _UNKNOWN_EXPR

    def _expr(self, node: ast.expr, depth: int = 0) -> Expr:
        if depth > _MAX_DEPTH:
            return _UNKNOWN_EXPR
        if isinstance(node, ast.Constant):
            return self._const(node.value)
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            self._expr(node.slice, depth + 1)
            # Indexing/slicing preserves the element type.
            return self._expr(node.value, depth + 1)
        if isinstance(node, ast.BinOp):
            return self._binop(node, depth)
        if isinstance(node, ast.UnaryOp):
            inner = self._expr(node.operand, depth + 1)
            return inner if isinstance(node.op, (ast.USub, ast.UAdd)) else _UNKNOWN_EXPR
        if isinstance(node, ast.Compare):
            return self._compare(node, depth)
        if isinstance(node, ast.Call):
            return self._call(node, depth)
        if isinstance(node, ast.IfExp):
            self._expr(node.test, depth + 1)
            left = self._expr(node.body, depth + 1)
            self._expr(node.orelse, depth + 1)
            return left
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._expr(elt, depth + 1)
            return _UNKNOWN_EXPR
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._expr(key, depth + 1)
            for value in node.values:
                self._expr(value, depth + 1)
            return _UNKNOWN_EXPR
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                             ast.DictComp)):
            return _UNKNOWN_EXPR
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._expr(value, depth + 1)
            return _UNKNOWN_EXPR
        return _UNKNOWN_EXPR

    def _const(self, value: Any) -> Expr:
        # Literal ints are *weak* (dtype None): they adapt to the other
        # operand the way numpy scalar promotion does.
        if isinstance(value, bool):
            return ["c", "bool", 1, int(value)]
        if isinstance(value, int):
            bits = max(value.bit_length(), 1) if value >= 0 else None
            exact = value if -(2 ** 63) <= value < 2 ** 64 else None
            return ["c", None, bits, exact]
        if isinstance(value, float):
            return ["c", "float64", None, None]
        return _UNKNOWN_EXPR

    def _attribute(self, node: ast.Attribute) -> Expr:
        base = node.value
        receiver_ok = (
            (isinstance(base, ast.Name) and base.id not in self.aliases)
            or (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self")
        )
        if receiver_ok and node.attr in COLUMN_TYPES:
            return ["col", node.attr]
        if node.attr in ("size", "itemsize", "ndim", "nbytes"):
            return ["c", "int64", None, None]
        return _UNKNOWN_EXPR

    def _binop(self, node: ast.BinOp, depth: int) -> Expr:
        op = _BIN_OPS.get(type(node.op))
        left = self._expr(node.left, depth + 1)
        right = self._expr(node.right, depth + 1)
        if op is None:
            return _UNKNOWN_EXPR
        self._record_binop(node, op, left, right)
        return ["bin", op, left, right]

    def _record_binop(self, node: ast.AST, op: str,
                      left: Expr, right: Expr) -> None:
        if op not in OVERFLOW_OPS:
            return
        if expr_is_const(left) and expr_is_const(right):
            return
        if len(self.out.events) >= _MAX_EVENTS:
            return
        self.out.events.append(TypeEvent(
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            text=_short_text(node),
            op=op, left=left, right=right,
            wrap=self._wrap_depth > 0,
        ))

    def _compare(self, node: ast.Compare, depth: int) -> Expr:
        self._expr(node.left, depth + 1)
        for comparator in node.comparators:
            self._expr(comparator, depth + 1)
        return ["c", "bool", 1, None]

    def _call(self, node: ast.Call, depth: int) -> Expr:
        func = node.func
        # x.astype(dtype)
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            src = self._expr(func.value, depth + 1)
            dtype = self._dtype_arg(node, 0)
            for arg in node.args[1:]:
                self._expr(arg, depth + 1)
            return ["cast", dtype, src]

        resolved = resolve(func, self.aliases) if isinstance(
            func, (ast.Name, ast.Attribute)
        ) else None

        # numpy scalar constructors: np.uint64(32) and friends.
        if resolved in _DTYPE_NAMES:
            dtype = _DTYPE_NAMES[resolved]
            if len(node.args) == 1:
                inner = self._expr(node.args[0], depth + 1)
                exact = _const_int_value(inner)
                if exact is not None:
                    return ["c", dtype, max(exact.bit_length(), 1), exact]
                return ["cast", dtype, inner]
            return ["c", dtype, DTYPE_BITS.get(dtype), None]

        # np.asarray(x, dtype=...) and friends.
        if resolved in _CAST_CALLS and node.args:
            src = self._expr(node.args[0], depth + 1)
            dtype = self._dtype_kwarg(node) or self._dtype_arg(node, 1)
            if dtype is not None:
                return ["cast", dtype, src]
            return src

        # Reductions keep the summed values' type (in ``dtype=`` if given).
        if resolved in _SUM_CALLS and node.args:
            src = self._expr(node.args[0], depth + 1)
            acc_dtype = self._dtype_kwarg(node)
            return ["cast", acc_dtype, src] if acc_dtype else src
        if isinstance(func, ast.Name) and func.id == "sum" and node.args:
            return self._expr(node.args[0], depth + 1)

        # Builtin numeric coercions produce Python numbers (arbitrary
        # precision — they cannot wrap): keep the bound but no dtype.
        if isinstance(func, ast.Name) and func.id in ("int", "float") \
                and len(node.args) == 1:
            inner = self._expr(node.args[0], depth + 1)
            return ["cast", None, inner]
        if isinstance(func, ast.Name) and func.id == "len":
            for arg in node.args:
                self._expr(arg, depth + 1)
            return ["c", "int64", None, None]

        # Ordinary call: its value is the callee's return value when the
        # callee is a function of this module; arguments are always
        # visited for their own events.
        for arg in node.args:
            self._expr(arg, depth + 1)
        for kw in node.keywords:
            self._expr(kw.value, depth + 1)
        callee = self.scope.resolve_call(node, self.klass)
        return _UNKNOWN_EXPR if callee is None else ["call", callee]

    def _dtype_arg(self, node: ast.Call, index: int) -> Optional[str]:
        if len(node.args) <= index:
            return self._dtype_kwarg(node)
        return self._dtype_of(node.args[index])

    def _dtype_kwarg(self, node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return self._dtype_of(kw.value)
        return None

    def _dtype_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return parse_dtype(node.value)
        return parse_dtype(resolve(node, self.aliases))


# ---------------------------------------------------------------------------
# the solver (one module)
# ---------------------------------------------------------------------------


class TypeflowAnalysis:
    """Fixpoint over the return values of one module's functions.

    Each function's return value starts at bottom and joins the value of
    every return expression; a call to a function of the module reads
    that function's current return value.  The lattice is finite and
    joins only move upward, so the iteration terminates; evaluation order
    does not affect the fixpoint.
    """

    _MAX_ROUNDS = 40

    def __init__(self, functions: Dict[str, FunctionTypeflow]):
        self.functions = functions  #: fqname -> that function's facts
        self.return_values: Dict[str, AbstractValue] = {
            name: BOTTOM for name in functions
        }

    # -- solving -------------------------------------------------------------

    def solve(self) -> None:
        names = sorted(self.functions)
        for _ in range(self._MAX_ROUNDS):
            changed = False
            for name in names:
                ret = self.return_values[name]
                for expr in self.functions[name].returns:
                    ret = join(ret, self.eval(expr))
                if ret != self.return_values[name]:
                    self.return_values[name] = ret
                    changed = True
            if not changed:
                break

    # -- evaluation ----------------------------------------------------------

    def eval(self, expr: Expr) -> AbstractValue:
        """Abstract value of ``expr`` under the (current) return values."""
        kind = expr[0] if expr else "u"
        if kind == "c":
            return AbstractValue(dtype=expr[1], bits=expr[2])
        if kind == "p":
            return AbstractValue(bits=expr[1])
        if kind == "col":
            dtype = COLUMN_TYPES[expr[1]]
            return AbstractValue(dtype=dtype, bits=DTYPE_BITS[dtype])
        if kind == "call":
            value = self.return_values.get(expr[1], UNKNOWN)
            return UNKNOWN if value.is_bottom else value
        if kind == "cast":
            return self._eval_cast(expr)
        if kind == "bin":
            return self._eval_bin(expr)
        return UNKNOWN

    def _eval_cast(self, expr: Expr) -> AbstractValue:
        inner = self.eval(expr[2])
        dtype: Optional[str] = expr[1]
        if dtype is None:
            return AbstractValue(bits=inner.bits)
        cap = int_capacity(dtype)
        bits: Optional[int]
        if _dtype_kind(dtype) == "float":
            bits = None
        elif inner.bits is not None:
            bits = min(inner.bits, cap)
        else:
            bits = cap
        return AbstractValue(dtype=dtype, bits=bits)

    def _eval_bin(self, expr: Expr) -> AbstractValue:
        left = self.eval(expr[2])
        right = self.eval(expr[3])
        dtype = promote_dtype(left, right)
        bits = raw_bits(expr[1], left, right, expr[3])
        # The stored result is *physical*: whatever the mathematical bound,
        # an N-bit register holds at most N bits (RPR011 audits the raw
        # bound at the operation itself; downstream sees the wrapped value).
        if bits is not None and dtype is not None and is_int_dtype(dtype):
            bits = min(bits, int_capacity(dtype))
        return AbstractValue(dtype=dtype, bits=bits)

    def iter_events(self) -> Iterator[TypeEvent]:
        for name in sorted(self.functions):
            yield from self.functions[name].events


def raw_bits(op: str, left: AbstractValue, right: AbstractValue,
             right_expr: Expr) -> Optional[int]:
    """Mathematical (uncapped) bit bound of ``left op right`` — what
    RPR011 compares against the result dtype's capacity."""
    lb, rb = left.bits, right.bits
    if op == "shl":
        shift = _const_int_value(right_expr)
        if lb is None or shift is None or shift < 0:
            return None
        return lb + shift
    if op == "shr":
        shift = _const_int_value(right_expr)
        if lb is None:
            return None
        return max(lb - shift, 0) if shift is not None and shift >= 0 else lb
    if op == "and":
        candidates = [b for b in (lb, rb) if b is not None]
        return min(candidates) if candidates else None
    if op in ("or", "xor"):
        if lb is None or rb is None:
            return None
        return max(lb, rb)
    if op == "add" or op == "sub":
        if lb is None or rb is None:
            return None
        return max(lb, rb) + 1
    if op == "mul":
        if lb is None or rb is None:
            return None
        return lb + rb
    if op in ("floordiv", "mod"):
        return lb
    return None


def analyze_module(scope: ModuleScope) -> TypeflowAnalysis:
    """Extract every function of one module and solve the fixpoint."""
    analysis = TypeflowAnalysis({
        fn.fqname: TypeflowExtractor(scope, fn).extract(fn.node)
        for fn in scope.functions
    })
    analysis.solve()
    return analysis
