"""Tiny scalar expression language for problem data functions.

Expressions are closed-form formulas in the spatial coordinates ``x1``,
``x2`` and one value variable (written ``y`` or ``t``; the two names are
interchangeable).  The syntax is Python's expression syntax restricted to
``+ - * /``, unary signs, decimal literals, the constant ``pi``, powers
``base^e`` with a signed numeric-literal exponent (``^``, not ``**``),
``abs``, ``sin``, ``cos``, ``exp``, ``sign`` and the signed power
``spow(u, alpha) = |u|^(alpha-2) * u`` for a literal ``alpha >= 2``.
``parse_expr`` rewrites ``^`` as ``**``, hands the text to Python's parser
and builds the tree in one walk over the nodes it accepts; every other
node is a :class:`ParseError`.  So surrounding whitespace is ignored, a
parenthesised exponent such as ``y^(2)`` is accepted, an integer with
leading zeros such as ``007`` is refused as Python refuses it, as are
``0x1``, ``1_0`` and ``1j``, and a text nested or chained too deep to
evaluate (about 1,000 terms) is refused at parse.

Trees are immutable; ``diff`` returns the derivative tree with respect to
the value variable, built on the first call and kept on the node.
Evaluation is vectorized over numpy arrays: the leaves return their
operands, and the root broadcasts the result once.
Integral exponents 1 to ``_MAX_INT_POWER`` (in ``^`` and in ``spow``) are
computed by multiplication, within a few ulp of ``np.power`` (exact for 1, 2);
a base the evaluation computed itself, not an operand, is squared in place,
so a power of a large table needs no second table.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["Expr", "EvalError", "ParseError", "parse_expr"]

_MAX_INT_POWER = 4  # largest exponent taken by repeated squaring: 3 roundings at most


class EvalError(ValueError):
    """Evaluation failed (division by zero, invalid power)."""


class ParseError(ValueError):
    """Expression text does not conform to the grammar."""


class Expr:
    """Base class for expression nodes."""

    def ev(self, x1, x2, val):
        raise NotImplementedError

    def diff(self) -> "Expr":
        """Derivative with respect to the value variable: the node's rule ``_diff``, run once and kept."""
        if "_derivative" not in vars(self):
            object.__setattr__(self, "_derivative", self._diff())
        return self._derivative

    def _children(self):
        """The operand subtrees: the node's Expr-valued dataclass fields, never its kept derivative."""
        return [v for v in (getattr(self, f.name) for f in fields(self)) if isinstance(v, Expr)]

    def uses_value(self) -> bool:
        return any(c.uses_value() for c in self._children())

    def uses_coords(self) -> bool:
        return any(c.uses_coords() for c in self._children())

    def __call__(self, x1, x2, val):
        """The value at (x1, x2, val), in the shape they broadcast to; never one of the operands."""
        args = [np.asarray(a, dtype=float) for a in (x1, x2, val)]
        out = self.ev(*args)
        shape = np.broadcast_shapes(*(a.shape for a in args))
        if np.shape(out) != shape or any(out is a for a in args):  # a constant, or a leaf's operand
            out = np.broadcast_to(out, shape).copy()
        return out


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def ev(self, x1, x2, val):
        return np.float64(self.value)

    def _diff(self):
        return Const(0.0)

    def __str__(self):
        return repr(self.value) if self.value >= 0 else f"({self.value!r})"


@dataclass(frozen=True)
class Coord(Expr):
    axis: int  # 1 or 2

    def ev(self, x1, x2, val):
        return x1 if self.axis == 1 else x2

    def _diff(self):
        return Const(0.0)

    def uses_coords(self):
        return True

    def __str__(self):
        return f"x{self.axis}"


@dataclass(frozen=True)
class Value(Expr):
    def ev(self, x1, x2, val):
        return val

    def _diff(self):
        return Const(1.0)

    def uses_value(self):
        return True

    def __str__(self):
        return "y"


def _power(b, e: float, inplace: bool = False):
    """b^e, by square-and-multiply for the integral e in [1, _MAX_INT_POWER].

    With ``inplace`` the caller gives up b, a table of its own: the
    squarings then write into it rather than into a second table.
    """
    if not (1.0 <= e <= _MAX_INT_POWER and e == int(e)):
        return np.power(b, e)
    if e == 1.0:
        return b
    if e % 2:
        half = _power(b * b, e // 2, inplace=True)
        half *= b
        return half
    own = inplace and isinstance(b, np.ndarray)
    return _power(np.multiply(b, b, out=b if own else None), e // 2, inplace=True)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def ev(self, x1, x2, val):
        return self.left.ev(x1, x2, val) + self.right.ev(x1, x2, val)

    def _diff(self):
        return add(self.left.diff(), self.right.diff())

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def ev(self, x1, x2, val):
        return self.left.ev(x1, x2, val) - self.right.ev(x1, x2, val)

    def _diff(self):
        return sub(self.left.diff(), self.right.diff())

    def __str__(self):
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def ev(self, x1, x2, val):
        return self.left.ev(x1, x2, val) * self.right.ev(x1, x2, val)

    def _diff(self):
        return add(mul(self.left.diff(), self.right), mul(self.left, self.right.diff()))

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def ev(self, x1, x2, val):
        den = self.right.ev(x1, x2, val)
        if np.any(den == 0.0):
            raise EvalError(f"division by zero in {self}")
        return self.left.ev(x1, x2, val) / den

    def _diff(self):
        # (u/v)' = u'/v - u v'/v^2
        u, v = self.left, self.right
        return sub(Div(u.diff(), v), Div(mul(u, v.diff()), Mul(v, v)))

    def __str__(self):
        return f"({self.left} / {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def ev(self, x1, x2, val):
        b = self.base.ev(x1, x2, val)
        e = self.exponent
        if e != int(e) and np.any(b < 0.0):
            raise EvalError(f"negative base with fractional exponent in {self}")
        # a base computed here, not an operand, may be squared in place; an overflow is refused below
        with np.errstate(over="ignore"):
            out = _power(b, e, inplace=not any(b is a for a in (x1, x2, val)))
        if not np.all(np.isfinite(out)):
            raise EvalError(f"non-finite power result in {self}")
        return out

    def _diff(self):
        if self.exponent == 0.0:
            return Const(0.0)
        inner = self.base.diff()
        if self.exponent == 1.0:
            return inner
        return mul(mul(Const(self.exponent), Pow(self.base, self.exponent - 1.0)), inner)

    def __str__(self):
        e = self.exponent
        etxt = repr(int(e)) if e == int(e) else repr(e)
        return f"({self.base}^{etxt})"


@dataclass(frozen=True)
class Func(Expr):
    name: str  # abs, sin, cos, exp, sign
    arg: Expr

    _TABLE = {"abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp, "sign": np.sign}

    def ev(self, x1, x2, val):
        return self._TABLE[self.name](self.arg.ev(x1, x2, val))

    def _diff(self):
        inner = self.arg.diff()
        if self.name == "abs":
            # subgradient convention: derivative 0 at the kink
            return mul(Func("sign", self.arg), inner)
        if self.name == "sign":
            return Const(0.0)
        if self.name == "sin":
            return mul(Func("cos", self.arg), inner)
        if self.name == "cos":
            return mul(Const(-1.0), mul(Func("sin", self.arg), inner))
        if self.name == "exp":
            return mul(Func("exp", self.arg), inner)
        raise NotImplementedError(self.name)

    def __str__(self):
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class SPow(Expr):
    """Signed power scale |u|^(alpha-2) * u, the shape of the cost derivative terms.

    ``scale`` multiplies the magnitude |u|^(alpha-2) before the product with
    u, so a tiny u underflows once, in that product; a constant applied
    after it would scale the subnormal rounding error as well.
    """

    arg: Expr
    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if self.alpha < 2.0:
            raise ParseError(f"spow exponent must be >= 2, got {self.alpha}")

    def ev(self, x1, x2, val):
        u = self.arg.ev(x1, x2, val)
        return self.scale * _power(np.abs(u), self.alpha - 2.0) * u

    def _diff(self):
        return mul(mul(Const((self.alpha - 1.0) * self.scale), Pow(Func("abs", self.arg), self.alpha - 2.0)),
                   self.arg.diff())

    def __str__(self):
        a = self.alpha
        atxt = repr(int(a)) if a == int(a) else repr(a)
        text = f"spow({self.arg}, {atxt})"
        return text if self.scale == 1.0 else f"({Const(self.scale)} * {text})"


_STRAY = re.compile(r"[^0-9A-Za-z_\s.+\-*/^(),]|\*\*")  # outside the token alphabet, or Python's power
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_NAMES = {"x1": lambda: Coord(1), "x2": lambda: Coord(2), "y": Value, "t": Value, "pi": lambda: Const(float(np.pi))}
_FUNCS = ("abs", "sin", "cos", "exp", "sign")


def _text(node: ast.expr, source: str) -> str:
    """The text of ``node`` in ``source``, with powers spelled ``^`` as written."""
    return source[node.col_offset:node.end_col_offset].replace("**", "^")


def _literal(node: ast.expr, source: str) -> float:
    """The value of a numeric literal under any number of unary signs."""
    sign = 1.0
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign = -sign if isinstance(node.op, ast.USub) else sign
        node = node.operand
    text = _text(node, source)
    if not (isinstance(node, ast.Constant) and _NUMBER.fullmatch(text)):
        raise ParseError(f"expected a numeric literal, got {text!r}")
    return sign * float(text)


def _build(node: ast.expr, source: str) -> Expr:
    """The tree of one node of the parsed ``source``; a node outside the language is a ParseError."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return Pow(_build(node.left, source), _literal(node.right, source))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left, source), _build(node.right, source))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Sub(Const(0.0), _build(node.operand, source))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _build(node.operand, source)
    if isinstance(node, ast.Constant):
        return Const(_literal(node, source))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]()
    text = _text(node, source)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords \
            and not text[:-1].rstrip().endswith(","):  # Python accepts f(a,)
        name, args = node.func.id, node.args
        if name in _FUNCS and len(args) == 1:
            return Func(name, _build(args[0], source))
        if name == "spow" and len(args) == 2:
            return SPow(_build(args[0], source), _literal(args[1], source))
    raise ParseError(f"unsupported {text!r}")


def parse_expr(text: str) -> Expr:
    """Parse an expression string into an immutable tree: Python's parser, then one walk over its nodes."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray.group()[0]!r} at position {stray.start()}")
    source = " ".join(text.split()).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning becomes the SyntaxError below
            return _build(ast.parse(source, mode="eval").body, source)
    except (SyntaxError, RecursionError, ParseError) as exc:
        raise ParseError(f"{getattr(exc, 'msg', exc)} in {text!r}") from None
