"""Typeflow pass (pass 3): interprocedural dtype/width/unit inference.

The paper's measurement rests on exact wire-level semantics — ``uint32``
IPs, ``uint16`` ports, ``float64`` epoch timestamps — and those columns
now move through many hands (packed sort keys in ``identify_scans``,
per-source tallies in ``repro.stream``, fixed little-endian layouts in
``.rtrace``/checkpoint stores).  This module performs abstract
interpretation over the pass-1 summaries to infer, for every tracked
expression, an :class:`AbstractValue`:

* **dtype** — canonical numpy dtype (width + signedness + float/int);
* **unit** — what the number *means*: ``seconds``, ``packets``,
  ``bytes``, ``ip-int``, ``port``, ``window-index``;
* **origin** — which ``PacketBatch`` column the value derived from;
* **bits** — a conservative upper bound on the significant value bits
  (for overflow reasoning: a ``uint32`` source widened to ``uint64`` and
  shifted left by 32 needs at most 64 bits, so it is proven to fit).

Everything is summary-driven: :class:`TypeflowExtractor` runs once per
function during pass 1 and emits a JSON-serialisable :class:`FunctionTypeflow`
(an expression IR whose leaves are parameters, batch columns, literals and
project calls, plus one event per add/multiply/left-shift), so the
content-addressed summary cache covers typeflow and warm runs re-parse
nothing.  :class:`TypeflowAnalysis` then joins call-site argument values
into callee parameters and return expressions into call results until
fixpoint, and the RPR011 overflow rule evaluates the recorded events
against the solved environment.

The lattice definition (unit vocabulary, column seeds, dtype tables) is
fingerprinted into the summary-cache salt: editing it invalidates every
cached summary.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint._ast import resolve

#: Bump on any change to the extraction or evaluation semantics.
TYPEFLOW_VERSION = 2

# ---------------------------------------------------------------------------
# the lattice: dtypes, units, column seeds
# ---------------------------------------------------------------------------

#: Canonical integer/float dtypes with their widths in bits.
DTYPE_BITS: Dict[str, int] = {
    "uint8": 8, "uint16": 16, "uint32": 32, "uint64": 64,
    "int8": 8, "int16": 16, "int32": 32, "int64": 64,
    "float32": 32, "float64": 64,
    "bool": 1,
}

#: The unit vocabulary of the packet pipeline.
UNITS: Tuple[str, ...] = (
    "seconds", "packets", "bytes", "ip-int", "port", "window-index",
)

#: Semantic value bounds implied by a unit tag regardless of storage dtype:
#: an IPv4 address is < 2**32 and a port < 2**16 *by definition*, so a
#: value tagged with one of these units needs at most this many bits.
UNIT_VALUE_BITS: Dict[str, int] = {
    "ip-int": 32,
    "port": 16,
}

#: Column name -> (canonical dtype, unit tag).  Mirrors
#: ``repro.telescope.packet._COLUMNS`` plus the semantic unit of each
#: column; this is the seed of the whole analysis.
COLUMN_TYPES: Dict[str, Tuple[str, Optional[str]]] = {
    "time": ("float64", "seconds"),
    "src_ip": ("uint32", "ip-int"),
    "dst_ip": ("uint32", "ip-int"),
    "src_port": ("uint16", "port"),
    "dst_port": ("uint16", "port"),
    "ip_id": ("uint16", None),
    "seq": ("uint32", None),
    "ttl": ("uint8", None),
    "window": ("uint16", None),
    "flags": ("uint8", None),
}

#: Parameter/variable name suffixes that imply a unit when interprocedural
#: propagation has nothing better (documented in docs/lint.md).
NAME_UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_seconds", "seconds"),
    ("_window_index", "window-index"),
    ("_widx", "window-index"),
    ("_bytes", "bytes"),
    ("_packets", "packets"),
    ("_pkts", "packets"),
    ("_port", "port"),
    ("_ip", "ip-int"),
    ("_ts", "seconds"),
    ("_s", "seconds"),
)

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


def lattice_fingerprint() -> str:
    """Content fingerprint of the lattice definition (part of the cache
    salt — editing the unit vocabulary or column seeds re-analyses all)."""
    material = {
        "version": TYPEFLOW_VERSION,
        "units": list(UNITS),
        "unit_bits": UNIT_VALUE_BITS,
        "columns": {k: list(v) for k, v in COLUMN_TYPES.items()},
        "suffixes": [list(p) for p in NAME_UNIT_SUFFIXES],
        "dtypes": DTYPE_BITS,
    }
    digest = hashlib.blake2b(digest_size=8)
    digest.update(json.dumps(material, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


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
    unit: Optional[str] = None
    origin: Optional[str] = None  #: provenance PacketBatch column
    bits: Optional[int] = None  #: upper bound on significant value bits
    is_bottom: bool = False

    def tracked(self) -> bool:
        return self.origin is not None or self.unit is not None


UNKNOWN = AbstractValue()
BOTTOM = AbstractValue(is_bottom=True)


def _is_int_dtype(dtype: str) -> bool:
    return _dtype_kind(dtype) in ("uint", "int")


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
    return AbstractValue(
        dtype=a.dtype if a.dtype == b.dtype else None,
        unit=a.unit if a.unit == b.unit else None,
        origin=a.origin if a.origin == b.origin else None,
        bits=bits,
    )


def promote_dtype(a: AbstractValue, b: AbstractValue) -> Optional[str]:
    """Conservative numpy-style result dtype of a binary operation.

    A weak literal (``dtype is None`` with known ``bits``) adapts to the
    other operand, matching numpy scalar promotion for in-range Python
    ints.
    """
    if a.is_bottom or b.is_bottom:
        return None
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
# the expression IR (JSON-serialisable nested lists)
# ---------------------------------------------------------------------------

# Encodings:
#   ["u"]                              unknown
#   ["c", dtype, bits, unit, value]    constant (value: exact int or None)
#   ["p", index]                       parameter of the enclosing function
#   ["col", name]                      PacketBatch column load
#   ["call", dotted, [args...]]        call to a resolvable function
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

#: Ops that combine two quantities additively (the unit carries through).
_ADDITIVE_OPS = ("add", "sub")

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
    if expr_is_const(expr) and isinstance(expr[4], int):
        return expr[4]
    return None


def iter_leaves(expr: Expr) -> Iterator[Expr]:
    """Yield the param/col/call leaves of an expression tree."""
    kind = expr[0] if expr else "u"
    if kind in ("p", "col"):
        yield expr
    elif kind == "call":
        yield expr
        for arg in expr[2]:
            yield from iter_leaves(arg)
    elif kind == "cast":
        yield from iter_leaves(expr[2])
    elif kind == "bin":
        yield from iter_leaves(expr[2])
        yield from iter_leaves(expr[3])


# ---------------------------------------------------------------------------
# per-function typeflow records
# ---------------------------------------------------------------------------


@dataclass
class TypeCall:
    """A call site with abstract argument expressions (param seeding)."""

    callee: str
    args: List[Expr]
    lineno: int

    def to_list(self) -> List[Any]:
        return [self.callee, self.args, self.lineno]

    @classmethod
    def from_list(cls, data: Sequence[Any]) -> "TypeCall":
        return cls(callee=data[0], args=list(data[1]), lineno=int(data[2]))


@dataclass
class TypeEvent:
    """One add/multiply/left-shift site the RPR011 rule may flag.

    ``data`` holds ``op`` and the operand expression trees ``l`` and
    ``r``.  ``wrap`` is True inside a ``with np.errstate(...)`` block —
    arithmetic there has declared its wraparound intent.
    """

    lineno: int
    col: int
    text: str
    data: Dict[str, Any] = field(default_factory=dict)
    wrap: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"lineno": self.lineno, "col": self.col, "text": self.text,
                "data": self.data, "wrap": self.wrap}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TypeEvent":
        return cls(lineno=int(data["lineno"]), col=int(data["col"]),
                   text=data["text"], data=dict(data["data"]),
                   wrap=bool(data["wrap"]))


@dataclass
class FunctionTypeflow:
    """The serialisable typeflow facts of one function."""

    events: List[TypeEvent] = field(default_factory=list)
    returns: List[Expr] = field(default_factory=list)
    calls: List[TypeCall] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [e.to_dict() for e in self.events],
            "returns": self.returns,
            "calls": [c.to_list() for c in self.calls],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionTypeflow":
        return cls(
            events=[TypeEvent.from_dict(e) for e in data["events"]],
            returns=[list(r) for r in data["returns"]],
            calls=[TypeCall.from_list(c) for c in data["calls"]],
        )


# ---------------------------------------------------------------------------
# extraction (pass 1, per function)
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

    def __init__(
        self,
        params: Sequence[str],
        aliases: Dict[str, str],
        resolve_call: Callable[[ast.Call], Optional[str]],
    ):
        self.params = list(params)
        self.param_index = {name: i for i, name in enumerate(params)}
        self.aliases = aliases
        self.resolve_call = resolve_call
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
            pass  # nested defs are summarised separately
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
            name = stmt.target.id
            if name in self.param_index:
                old = ["p", self.param_index[name]]
            else:
                old = self.env.get(name, _UNKNOWN_EXPR)
        if op is not None:
            combined: Expr = ["bin", op, old, value]
            self._record_binop(stmt, op, old, value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = combined

    def _is_errstate(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return (resolve(node.func, self.aliases) or "").startswith(
                "numpy.errstate"
            )
        return False

    # -- expressions ---------------------------------------------------------

    def _expr(self, node: ast.expr, depth: int = 0) -> Expr:
        if depth > _MAX_DEPTH:
            return _UNKNOWN_EXPR
        if isinstance(node, ast.Constant):
            return self._const(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.param_index:
                return ["p", self.param_index[node.id]]
            return self.env.get(node.id, _UNKNOWN_EXPR)
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
            return ["c", "bool", 1, None, int(value)]
        if isinstance(value, int):
            bits = max(value.bit_length(), 1) if value >= 0 else None
            exact = value if -(2 ** 63) <= value < 2 ** 64 else None
            return ["c", None, bits, None, exact]
        if isinstance(value, float):
            return ["c", "float64", None, None, None]
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
        if node.attr in ("size", "itemsize", "ndim"):
            return ["c", "int64", None, None, None]
        if node.attr == "nbytes":
            return ["c", "int64", None, "bytes", None]
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
        self._event(node, data={"op": op, "l": left, "r": right})

    def _compare(self, node: ast.Compare, depth: int) -> Expr:
        self._expr(node.left, depth + 1)
        for comparator in node.comparators:
            self._expr(comparator, depth + 1)
        return ["c", "bool", 1, None, None]

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
                    return ["c", dtype, max(exact.bit_length(), 1), None, exact]
                return ["cast", dtype, inner]
            return ["c", dtype, DTYPE_BITS.get(dtype), None, None]

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
        # precision — they cannot wrap), so keep provenance but no dtype.
        if isinstance(func, ast.Name) and func.id in ("int", "float") \
                and len(node.args) == 1:
            inner = self._expr(node.args[0], depth + 1)
            return ["cast", None, inner]
        if isinstance(func, ast.Name) and func.id == "len":
            for arg in node.args:
                self._expr(arg, depth + 1)
            return ["c", "int64", None, None, None]

        # Ordinary call: record for interprocedural propagation when the
        # callee resolves; arguments are always visited.
        args = [self._expr(arg, depth + 1) for arg in node.args]
        for kw in node.keywords:
            self._expr(kw.value, depth + 1)
        callee = self.resolve_call(node)
        if callee is not None:
            self.out.calls.append(TypeCall(
                callee=callee, args=args, lineno=node.lineno,
            ))
            return ["call", callee, args]
        return _UNKNOWN_EXPR

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

    def _event(self, node: ast.AST, data: Dict[str, Any]) -> None:
        if len(self.out.events) >= _MAX_EVENTS:
            return
        self.out.events.append(TypeEvent(
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            text=_short_text(node),
            data=data,
            wrap=self._wrap_depth > 0,
        ))


# ---------------------------------------------------------------------------
# the interprocedural solver (pass 3)
# ---------------------------------------------------------------------------


@dataclass
class TypeflowFunction:
    """Solver-side view of one function."""

    fqname: str
    rel_path: str
    params: List[str]
    flow: FunctionTypeflow


class TypeflowAnalysis:
    """Whole-program fixpoint over the per-function typeflow records.

    Parameters start at bottom and absorb (join) the abstract value of
    every call-site argument; return values join every return expression.
    The lattice is finite, joins only move upward, so the iteration
    terminates; evaluation order does not affect the fixpoint, making
    diagnostics byte-identical at any ``--workers`` count.
    """

    _MAX_ROUNDS = 40

    def __init__(self, functions: Dict[str, TypeflowFunction]):
        self.functions = functions
        self.param_values: Dict[str, List[AbstractValue]] = {
            name: [BOTTOM] * len(fn.params)
            for name, fn in functions.items()
        }
        self.return_values: Dict[str, AbstractValue] = {
            name: BOTTOM for name in functions
        }
        self._solved = False

    # -- solving -------------------------------------------------------------

    def solve(self) -> None:
        if self._solved:
            return
        names = sorted(self.functions)
        for _ in range(self._MAX_ROUNDS):
            changed = False
            for name in names:
                fn = self.functions[name]
                for call in fn.flow.calls:
                    changed |= self._apply_call(name, call)
                ret = BOTTOM
                for expr in fn.flow.returns:
                    ret = join(ret, self.eval(name, expr))
                if ret != self.return_values[name]:
                    self.return_values[name] = join(
                        self.return_values[name], ret
                    )
                    changed = True
            if not changed:
                break
        self._solved = True

    def _apply_call(self, caller: str, call: TypeCall) -> bool:
        callee = self.functions.get(call.callee)
        if callee is None:
            return False
        shift = 1 if callee.params[:1] in (["self"], ["cls"]) else 0
        table = self.param_values[call.callee]
        changed = False
        for arg_idx, arg in enumerate(call.args):
            target = arg_idx + shift
            if target >= len(table):
                continue
            value = self.eval(caller, arg)
            joined = join(table[target], value)
            if joined != table[target]:
                table[target] = joined
                changed = True
        return changed

    # -- evaluation ----------------------------------------------------------

    def eval(self, fname: str, expr: Expr) -> AbstractValue:
        """Abstract value of ``expr`` in the (current) solved environment."""
        kind = expr[0] if expr else "u"
        if kind == "u":
            return UNKNOWN
        if kind == "c":
            return AbstractValue(dtype=expr[1], unit=expr[3], bits=expr[2])
        if kind == "p":
            return self._param_value(fname, expr[1])
        if kind == "col":
            dtype, unit = COLUMN_TYPES[expr[1]]
            return AbstractValue(dtype=dtype, unit=unit, origin=expr[1],
                                 bits=DTYPE_BITS[dtype])
        if kind == "call":
            value = self.return_values.get(expr[1], UNKNOWN)
            return UNKNOWN if value.is_bottom else value
        if kind == "cast":
            return self._eval_cast(fname, expr)
        if kind == "bin":
            return self._eval_bin(fname, expr)
        return UNKNOWN

    def _param_value(self, fname: str, index: int) -> AbstractValue:
        fn = self.functions.get(fname)
        table = self.param_values.get(fname)
        if fn is None or table is None or index >= len(table):
            return UNKNOWN
        value = table[index]
        if value.is_bottom:
            value = UNKNOWN
        if value.unit is None and index < len(fn.params):
            fallback = self._name_unit(fn.params[index])
            if fallback is not None:
                value = AbstractValue(dtype=value.dtype, unit=fallback,
                                      origin=value.origin, bits=value.bits)
        if value.bits is None and value.unit in UNIT_VALUE_BITS:
            value = AbstractValue(dtype=value.dtype, unit=value.unit,
                                  origin=value.origin,
                                  bits=UNIT_VALUE_BITS[value.unit])
        return value

    @staticmethod
    def _name_unit(name: str) -> Optional[str]:
        for suffix, unit in NAME_UNIT_SUFFIXES:
            if name.endswith(suffix):
                return unit
        return None

    def _eval_cast(self, fname: str, expr: Expr) -> AbstractValue:
        inner = self.eval(fname, expr[2])
        if inner.is_bottom:
            return BOTTOM
        dtype: Optional[str] = expr[1]
        if dtype is None:
            return AbstractValue(unit=inner.unit, origin=inner.origin,
                                 bits=inner.bits)
        cap = int_capacity(dtype)
        bits: Optional[int]
        if _dtype_kind(dtype) == "float":
            bits = None
        elif inner.bits is not None:
            bits = min(inner.bits, cap)
        else:
            bits = cap
        return AbstractValue(dtype=dtype, unit=inner.unit,
                             origin=inner.origin, bits=bits)

    def _eval_bin(self, fname: str, expr: Expr) -> AbstractValue:
        op = expr[1]
        left = self.eval(fname, expr[2])
        right = self.eval(fname, expr[3])
        if left.is_bottom or right.is_bottom:
            return BOTTOM
        dtype = promote_dtype(left, right)
        unit = self._unit_of(op, left, right)
        origin = self._origin_of(left, right)
        bits = self.raw_bits(op, left, right, expr[3])
        # The stored result is *physical*: whatever the mathematical bound,
        # an N-bit register holds at most N bits (RPR011 audits the raw
        # bound at the operation itself; downstream sees the wrapped value).
        if bits is not None and dtype is not None and _is_int_dtype(dtype):
            bits = min(bits, int_capacity(dtype))
        return AbstractValue(dtype=dtype, unit=unit, origin=origin, bits=bits)

    @staticmethod
    def _unit_of(op: str, left: AbstractValue,
                 right: AbstractValue) -> Optional[str]:
        if op in _ADDITIVE_OPS or op in ("mod",):
            if left.unit == right.unit:
                return left.unit
            # Unitless literals/offsets keep the tagged side's unit.
            if left.unit is None:
                return right.unit
            if right.unit is None:
                return left.unit
            return None  # two different units: the tag collapses
        if op in ("and", "or", "xor", "shl", "shr"):
            return left.unit if right.unit is None else None
        return None

    @staticmethod
    def _origin_of(left: AbstractValue,
                   right: AbstractValue) -> Optional[str]:
        if left.origin == right.origin:
            return left.origin
        if left.origin is None:
            return right.origin
        if right.origin is None:
            return left.origin
        return None  # two different columns mixed — ambiguous provenance

    @staticmethod
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

    # -- queries for the rules ----------------------------------------------

    def involves_tracked(self, fname: str, expr: Expr) -> bool:
        """True when any leaf of ``expr`` carries column provenance or a
        unit tag — the gate that keeps RPR011 off generic arithmetic."""
        for leaf in iter_leaves(expr):
            if leaf[0] == "col":
                return True
            if leaf[0] == "p":
                value = self._param_value(fname, leaf[1])
                if value.tracked():
                    return True
            if leaf[0] == "call":
                value = self.return_values.get(leaf[1], UNKNOWN)
                if not value.is_bottom and value.tracked():
                    return True
        return False

    def iter_events(self) -> Iterator[Tuple[TypeflowFunction, TypeEvent]]:
        for name in sorted(self.functions):
            fn = self.functions[name]
            for event in fn.flow.events:
                yield fn, event

