"""Analytic symbols f(s): parsing, evaluation, Taylor series, r-series.

Grammar: complex constants (reals, scientific notation, the imaginary
unit i), one free variable, + - * /, ^ with nonnegative integer
exponents, exp(...), and zeta(s + h) with a real shift h > 1.

One evaluation of a tree evaluates each distinct zeta(s + h) node once,
however often it appears, so a composed transform such as (L(J) + r)/f
with r built from f pays for each zeta node once per point.  A real tree
is evaluated on the upper half of a conjugate-palindrome argument only,
such as a line sampled at +-y, and mirrored (eval_symbol).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special_functions import zeta

SERIES_CAP = 128


class SymbolSyntaxError(ValueError):
    """Parse failure; carries the character offset of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class ZetaNode:
    shift: float


@dataclass(frozen=True)
class Call:
    """Leaf holding a vectorized callable of the variable; no series."""

    fn: Callable


@dataclass(frozen=True)
class AnalyticSymbol:
    """An expression tree; all it carries is the tree, so two symbols with
    equal trees compare and hash equal, whoever built them.  Its variable
    is that of its Var nodes.  Calling it evaluates it (eval_symbol)."""

    expr: object

    def __call__(self, s):
        return eval_symbol(self, s)


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, var_name: str, allow_zeta: bool) -> None:
        self.tokens = _tokenize(text)
        self.idx = 0
        self.var_name = var_name
        self.allow_zeta = allow_zeta

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def fail(self, message: str) -> SymbolSyntaxError:
        return SymbolSyntaxError(message, self.peek()[2])

    def parse(self) -> object:
        tree = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected token {value!r}", pos)
        return tree

    def expr(self) -> object:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> object:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> object:
        kind, value, _ = self.peek()
        if kind == "op" and value in ("+", "-"):
            self.advance()
            inner = self.factor()
            if value == "+":
                return inner
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Sub(Const(0j), inner)
        return self.power()

    def power(self) -> object:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or float(value) != int(float(value)) or float(value) < 0:
                raise SymbolSyntaxError("exponent must be a nonnegative integer literal", pos)
            self.advance()
            return Pow(base, int(float(value)))
        return base

    def atom(self) -> object:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(complex(float(value)))
        if kind == "name":
            if value == self.var_name:
                return Var(value)
            if value == "i":
                return Const(1j)
            if value == "exp":
                self.expect_open()
                arg = self.expr()
                self.expect_close()
                return Exp(arg)
            if value == "zeta":
                if not self.allow_zeta:
                    raise SymbolSyntaxError("zeta is not allowed in this expression", pos)
                self.expect_open()
                arg = self.expr()
                self.expect_close()
                return self.zeta_node(arg, pos)
            raise SymbolSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_close()
            return node
        raise SymbolSyntaxError(
            "unexpected end of expression" if kind == "end" else f"unexpected token {value!r}", pos
        )

    def expect_open(self) -> None:
        if self.peek()[:2] != ("op", "("):
            raise self.fail("expected '('")
        self.advance()

    def expect_close(self) -> None:
        if self.peek()[:2] != ("op", ")"):
            raise self.fail("expected ')'")
        self.advance()

    def zeta_node(self, arg: object, pos: int) -> ZetaNode:
        # the argument must reduce to the variable plus a real shift
        try:
            v0 = complex(_eval_node(arg, np.complex128(0)))
            v1 = complex(_eval_node(arg, np.complex128(1)))
            vi = complex(_eval_node(arg, np.complex128(1j)))
        except Exception:
            raise SymbolSyntaxError("zeta argument must be the variable plus a real shift", pos) from None
        if abs(v1 - v0 - 1) > 1e-12 or abs(vi - v0 - 1j) > 1e-12 or abs(v0.imag) > 1e-12:
            raise SymbolSyntaxError("zeta argument must be the variable plus a real shift", pos)
        if not v0.real > 1:
            raise SymbolSyntaxError("shift must exceed 1", pos)
        return ZetaNode(float(v0.real))


def parse_expression(text: str, var_name: str, allow_zeta: bool = True) -> object:
    """Parse to a raw expression tree over the given variable."""
    return _Parser(text, var_name, allow_zeta).parse()


def parse_symbol(text: str) -> AnalyticSymbol:
    """Parse a symbol f(s).  All built-ins are analytic on Re(s) > 0."""
    return AnalyticSymbol(parse_expression(text, "s", allow_zeta=True))


def _walk(node):
    yield node
    for attr in ("left", "right", "base", "arg"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _walk(child)


def format_node(node) -> str:
    """Text of a tree, in the variable of its Var nodes; zeta is always zeta(s + h)."""
    if isinstance(node, Const):
        return _format_complex(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Add):
        return f"({format_node(node.left)} + {format_node(node.right)})"
    if isinstance(node, Sub):
        return f"({format_node(node.left)} - {format_node(node.right)})"
    if isinstance(node, Mul):
        return f"({format_node(node.left)} * {format_node(node.right)})"
    if isinstance(node, Div):
        return f"({format_node(node.left)} / {format_node(node.right)})"
    if isinstance(node, Pow):
        return f"({format_node(node.base)}^{node.exponent})"
    if isinstance(node, Exp):
        return f"exp({format_node(node.arg)})"
    if isinstance(node, ZetaNode):
        return f"zeta(s + {node.shift!r})"
    raise TypeError(f"not an expression node: {node!r}")


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return repr(v.real)
    if v.real == 0:
        return f"({v.imag!r}*i)"
    return f"({v.real!r} + {v.imag!r}*i)" if v.imag > 0 else f"({v.real!r} - {-v.imag!r}*i)"


def format_symbol(f: AnalyticSymbol) -> str:
    return format_node(f.expr)


def _eval_node(node, s, zetas: dict | None = None):
    """Value of a tree at s; zetas holds the zeta values of this one
    evaluation by shift, so each distinct zeta node is evaluated once."""
    if zetas is None:
        zetas = {}
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return s
    if isinstance(node, Add):
        return _eval_node(node.left, s, zetas) + _eval_node(node.right, s, zetas)
    if isinstance(node, Sub):
        return _eval_node(node.left, s, zetas) - _eval_node(node.right, s, zetas)
    if isinstance(node, Mul):
        return _eval_node(node.left, s, zetas) * _eval_node(node.right, s, zetas)
    if isinstance(node, Div):
        return _eval_node(node.left, s, zetas) / _eval_node(node.right, s, zetas)
    if isinstance(node, Pow):
        return _eval_node(node.base, s, zetas) ** node.exponent
    if isinstance(node, Exp):
        return np.exp(_eval_node(node.arg, s, zetas))
    if isinstance(node, ZetaNode):
        if node.shift not in zetas:
            zetas[node.shift] = zeta(s + node.shift)
        return zetas[node.shift]
    if isinstance(node, Call):
        return np.asarray(node.fn(s), np.complex128)
    raise TypeError(f"not an expression node: {node!r}")


def _is_real(node) -> bool:
    """Real constants, no Call leaf (zeta shifts are real): f(conj s) = conj f(s)."""
    return not any(isinstance(n, Call) or isinstance(n, Const) and n.value.imag != 0
                   for n in _walk(node))


def eval_symbol(f: AnalyticSymbol, s):
    """Evaluate f at complex s (scalar or array).

    Overflow produces inf rather than raising; a zeta node evaluated at
    its pole raises a domain error.  A scalar s is evaluated as a 1-element
    array, since numpy's scalar arithmetic rounds unlike its array loops.
    A real tree (_is_real) on a 1-D s with s[::-1] == conj(s) and some point
    off the real axis is evaluated on s[n//2:] only; the rest are conjugates.
    """
    scalar = np.ndim(s) == 0
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    n = arr.shape[0]
    mirror = (arr.ndim == 1 and _is_real(f.expr) and np.any(arr.imag != 0)
              and np.array_equal(arr[::-1], arr.conj()))
    part = arr[n // 2:] if mirror else arr
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = _eval_node(f.expr, part)
    out = np.broadcast_to(np.asarray(val, dtype=np.complex128), part.shape)
    if mirror:
        return np.concatenate([out[::-1][:n // 2].conj(), out])
    return complex(out[0]) if scalar else np.array(out)


def _series(node, m: int) -> np.ndarray:
    """First m Taylor coefficients at 0, by exact series arithmetic."""
    if isinstance(node, Const):
        out = np.zeros(m, dtype=np.complex128)
        out[0] = node.value
        return out
    if isinstance(node, Var):
        out = np.zeros(m, dtype=np.complex128)
        if m > 1:
            out[1] = 1.0
        return out
    if isinstance(node, Add):
        return _series(node.left, m) + _series(node.right, m)
    if isinstance(node, Sub):
        return _series(node.left, m) - _series(node.right, m)
    if isinstance(node, Mul):
        return np.convolve(_series(node.left, m), _series(node.right, m))[:m]
    if isinstance(node, Div):
        return _series_div(_series(node.left, m), _series(node.right, m))
    if isinstance(node, Pow):
        result = np.zeros(m, dtype=np.complex128)
        result[0] = 1.0
        base = _series(node.base, m)
        e = node.exponent
        while e > 0:
            if e & 1:
                result = np.convolve(result, base)[:m]
            base = np.convolve(base, base)[:m]
            e >>= 1
        return result
    if isinstance(node, Exp):
        u = _series(node.arg, m)
        g = np.zeros(m, dtype=np.complex128)
        g[0] = np.exp(u[0])
        for n in range(1, m):
            g[n] = sum(k * u[k] * g[n - k] for k in range(1, n + 1)) / n
        return g
    if isinstance(node, ZetaNode):
        rho = 0.5 * min(1.0, node.shift - 1.0)
        return cauchy_taylor_at(zeta, node.shift, m - 1, rho)
    raise TypeError(f"not an expression node: {node!r}")


def _series_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b[0] == 0:
        raise ValueError("denominator series has zero constant term")
    m = len(a)
    q = np.zeros(m, dtype=np.complex128)
    for n in range(m):
        acc = a[n]
        for k in range(1, n + 1):
            acc -= b[k] * q[n - k]
        q[n] = acc / b[0]
    return q


def taylor_coefficients(f: AnalyticSymbol, n_max: int) -> np.ndarray:
    """Coefficients c_0..c_{n_max} with c_n = f^(n)(0)/n!."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > SERIES_CAP:
        raise ValueError(f"n_max exceeds the series cap {SERIES_CAP}")
    return _series(f.expr, n_max + 1)


def cauchy_taylor_at(f, center: complex, order: int, radius: float,
                     n_nodes: int = 256) -> np.ndarray:
    """Taylor coefficients of f about an arbitrary center, by circle quadrature.

    Accepts an AnalyticSymbol or a plain vectorized callable.  Requires f
    analytic on the closed disk; returns c_0..c_order with
    c_k = f^(k)(center)/k!.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if order >= n_nodes:
        raise ValueError("order must be below the node count")
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    ring = center + radius * np.exp(1j * theta)
    samples = np.asarray(f(ring), dtype=np.complex128)
    if not np.all(np.isfinite(samples)):
        raise ValueError("symbol is not finite on the quadrature circle")
    coeffs = np.fft.fft(samples)[: order + 1] / n_nodes
    return coeffs / radius ** np.arange(order + 1)


@dataclass(frozen=True)
class DataSequence:
    """Data d_0, d_1, ... feeding the r-series: an explicit finite list or
    a geometric generator d_j = scale * ratio^j."""

    values: tuple = ()
    generator: str | None = None
    ratio: complex = 0j
    scale: complex = 1 + 0j

    @staticmethod
    def from_values(seq) -> "DataSequence":
        return DataSequence(values=tuple(complex(v) for v in seq))

    @staticmethod
    def geometric(ratio: complex, scale: complex = 1.0) -> "DataSequence":
        return DataSequence(generator="geometric", ratio=complex(ratio), scale=complex(scale))

    def term(self, j: int) -> complex:
        if self.generator == "geometric":
            return self.scale * self.ratio ** j
        return self.values[j] if j < len(self.values) else 0j


R_SERIES_REL_TOL = 1e-12


def build_r_series(f: AnalyticSymbol, d: DataSequence, s: complex, n_trunc: int) -> complex:
    """Truncated double sum sum_{n=1}^{n_trunc} c_n sum_{j=1}^{n} d_{j-1} s^{n-j}.

    s must lie in the Taylor disk of f, radius min(h - 1) over its zeta(s + h).
    Convergence is declared once three successive partial sums agree to
    1e-12 relative; otherwise the truncation is flagged as divergent.
    Geometric data with |ratio| >= 1 violates the convergence hypothesis
    outright and is flagged without summation.
    """
    s = complex(s)
    if any(abs(s) >= node.shift - 1.0 for node in _walk(f.expr) if isinstance(node, ZetaNode)):
        raise ValueError("s lies outside the Taylor disk of the symbol")
    if d.generator == "geometric" and abs(d.ratio) >= 1:
        raise ArithmeticError(
            f"data sequence d_j = {d.ratio} ** j grows without decay (|ratio| >= 1); "
            "the r-series does not converge"
        )
    coeffs = taylor_coefficients(f, n_trunc)
    inner = 0j
    total = 0j
    prev_diff = math.inf
    converged = False
    for n in range(1, n_trunc + 1):
        inner = inner * s + d.term(n - 1)
        term = coeffs[n] * inner
        total += term
        tol = R_SERIES_REL_TOL * max(1.0, abs(total))
        if n >= 3 and abs(term) < tol and prev_diff < tol:
            converged = True
        prev_diff = abs(term)
    if not converged:
        raise ArithmeticError(
            f"r-series partial sums did not settle within n_trunc = {n_trunc} terms"
        )
    return total
