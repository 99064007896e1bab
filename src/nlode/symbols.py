"""Analytic symbols f(s): parsing, evaluation, Taylor series, r-series,
and the one circle quadrature of the package, laurent_coefficients.

Grammar: complex constants (reals, scientific notation, the imaginary
unit i), one free variable, + - * /, ^ with nonnegative integer
exponents, exp(...), and zeta(s + h) with a real shift h > 1.

One evaluation of a tree evaluates each distinct zeta(s + h) node once,
however often it appears, so a composed transform such as (L(J) + r)/f
with r built from f pays for each zeta node once per point.  A real tree
is evaluated on the upper half of a conjugate-palindrome argument only,
such as a line sampled at +-y, and mirrored (eval_symbol).

The tree nodes, and the value types of the other modules, derive from
Record: fields declared by annotation, frozen, compared and hashed by
content, with dataclass-style reprs.  It builds no code at class
creation, so importing nlode costs no dataclass code generation.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

import numpy as np

from .special_functions import zeta

SERIES_CAP = 128
LAURENT_TOL = 1e-11     # laurent_coefficients' settle threshold under node doubling
_setattr = object.__setattr__


class SymbolSyntaxError(ValueError):
    """Parse failure; carries the character offset of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


class Record:
    """Base of nlode's value types: a subclass's annotated names are its
    fields, in order, and a class attribute is a field's default.

    An instance is built from its fields by position or keyword, then
    checked by __post_init__.  It equals only an instance of its own class
    with equal fields, hashes as its field tuple and has the repr
    Name(field=value, ...).  It is frozen: assignment raises
    AttributeError.  A class declared with frozen=False is mutable and
    unhashable.
    """

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        # the field tuple, or the one field's value; as no descriptor, an
        # attrgetter stays a plain function of the instance
        cls._get = operator.attrgetter(*fields)
        if len(fields) <= 2 and cls.__post_init__ is Record.__post_init__ and "__init__" not in vars(cls):
            cls.__init__ = _small_init(*fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one setattr per field keeps the instance's attribute storage compact,
        # where filling __dict__ at once makes every later read slower
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The full field tuple of a call: args, then each later field from
        kwargs or its default."""
        try:
            values = args + tuple([kwargs.pop(name) if name in kwargs else self._defaults[name]
                                   for name in self._fields[len(args):]])
        except KeyError:  # a field without a value
            values = ()
        if kwargs or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(self._fields)}), "
                            "each once, by position or keyword; a field without a default is required")
        return values

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # as (a, b) == (c, d), also for one field: (a,) == (c,)
            return (self._get(self),) == (self._get(other),)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _small_init(first: str, second: str | None = None):
    """Record.__init__ for one or two fields and no __post_init__, as the
    tree nodes have: without the loop over the fields, which is about half
    of a node's construction time."""
    if second is None:
        def __init__(self, *args, **kwargs) -> None:
            if kwargs or len(args) != 1:
                args = self._bind(args, kwargs)
            _setattr(self, first, args[0])
    else:
        def __init__(self, *args, **kwargs) -> None:
            if kwargs or len(args) != 2:
                args = self._bind(args, kwargs)
            _setattr(self, first, args[0])
            _setattr(self, second, args[1])
    return __init__


class Const(Record):
    value: complex


class Var(Record):
    name: str


class Add(Record):
    left: object
    right: object


class Sub(Record):
    left: object
    right: object


class Mul(Record):
    left: object
    right: object


class Div(Record):
    left: object
    right: object


class Pow(Record):
    base: object
    exponent: int


class Exp(Record):
    arg: object


class ZetaNode(Record):
    shift: float


class Call(Record):
    """Leaf holding a vectorized callable of the variable; no series."""

    fn: Callable


class AnalyticSymbol(Record):
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
    The tree is walked only for such an s.
    """
    scalar = np.ndim(s) == 0
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    n = arr.shape[0]
    mirror = (arr.ndim == 1 and np.any(arr.imag != 0)
              and np.array_equal(arr[::-1], arr.conj()) and _is_real(f.expr))
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
        # a ring near the edge of the disk, whose radius h - 1 is the distance
        # to zeta's pole, so rounding relative to c_j grows only like 1.25^j
        return np.array(laurent_coefficients(zeta, node.shift, 1 - m, 0.8 * (node.shift - 1.0)))
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


ROOT_CLUSTER_TOL = 1e-4   # np.roots meets an m-fold root as m roots about eps^(1/m) apart
ROOT_MERGE_TOL = 1e-9     # roots of different factors this close are one point


def _factor(poly: np.ndarray) -> tuple[complex, dict]:
    """A polynomial (ascending coefficients) as its leading coefficient
    times one monic factor; a constant has no factor."""
    n = len(poly)
    while n > 1 and poly[n - 1] == 0:
        n -= 1
    lead = complex(poly[n - 1])
    if n == 1:
        return lead, {}
    return lead, {tuple((poly[:n] / lead).tolist()): 1}


def _product(c: complex, factors: dict) -> np.ndarray:
    """c times the expanded product of the factors of positive multiplicity."""
    out = np.array([c], np.complex128)
    for key, m in factors.items():
        for _ in range(m):
            out = np.convolve(out, key)
    return out


def _merge(left: dict, right: dict, sign: int) -> dict:
    out = dict(left)
    for key, m in right.items():
        out[key] = out.get(key, 0) + sign * m
    return {key: m for key, m in out.items() if m}


def rational_form(node):
    """A tree of Const, Var, Add, Sub, Mul, Div and integer Pow as
    (c, factors): c times the product of monic polynomials p^m, each p
    keyed by its ascending coefficients, with an integer multiplicity m,
    negative in the denominator.  So c is the leading coefficient, the
    degree of the numerator is the sum of deg p * m over m > 0, and a
    power or a repeated factor of the tree stays one factor with its
    multiplicity; only a sum expands its terms, by np.convolve.  None for
    a tree with an Exp, ZetaNode or Call node, or a division by zero."""
    if isinstance(node, Const):
        return complex(node.value), {}
    if isinstance(node, Var):
        return 1 + 0j, {(0j, 1 + 0j): 1}
    if isinstance(node, Pow):
        base = rational_form(node.base)
        if base is None or node.exponent == 0:
            return None if base is None else (1 + 0j, {})
        return base[0] ** node.exponent, {k: m * node.exponent for k, m in base[1].items()}
    if not isinstance(node, (Add, Sub, Mul, Div)):
        return None
    left, right = rational_form(node.left), rational_form(node.right)
    if left is None or right is None or isinstance(node, Div) and right[0] == 0:
        return None
    (c1, f1), (c2, f2) = left, right
    if isinstance(node, (Mul, Div)):
        sign = 1 if isinstance(node, Mul) else -1
        return (c1 * c2 ** sign, _merge(f1, f2, sign)) if c1 * c2 != 0 else (0j, {})
    c2 = c2 if isinstance(node, Add) else -c2
    if c1 == 0 or c2 == 0:
        return (c2, f2) if c1 == 0 else left
    # over the common denominator
    den = {key: min(f1.get(key, 0), f2.get(key, 0), 0) for key in {**f1, **f2}}
    terms = [_product(c, _merge(f, den, -1)) for c, f in ((c1, f1), (c2, f2))]
    total = np.zeros(max(map(len, terms)), np.complex128)
    for term in terms:
        total[:len(term)] += term
    lead, factor = _factor(total)
    return (lead, _merge(den, factor, 1)) if lead != 0 else (0j, {})


def degree_gap(form) -> float:
    """deg denominator - deg numerator of a rational form; inf for 0."""
    c, factors = form
    return math.inf if c == 0 else float(-sum(m * (len(key) - 1) for key, m in factors.items()))


def _factor_roots(key: tuple) -> list[tuple[complex, int]]:
    """The roots (point, multiplicity) of one monic factor: exact for a
    linear one; else np.roots, clustered, a cluster's mean for a multiple
    root and Newton on the factor for a simple one."""
    if len(key) == 2:
        return [(0j - key[0], 1)]
    clusters: list[list] = []
    for z in np.roots(key[::-1]):
        for cluster in clusters:
            if abs(z - cluster[0]) <= ROOT_CLUSTER_TOL * max(1.0, abs(z)):
                cluster.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for cluster in clusters:
        z = complex(sum(cluster) / len(cluster))
        for _ in range(4 if len(cluster) == 1 else 0):
            value = slope = 0j
            for a in key[::-1]:
                slope = slope * z + value
                value = value * z + a
            if slope == 0:
                break
            step = value / slope
            z -= step
            if abs(step) <= 1e-16 * abs(z):
                break
        out.append((z, len(cluster)))
    return out


def rational_roots(form) -> tuple[list, list]:
    """The zeros and the poles (point, multiplicity) of a rational form,
    with coincident zeros and poles cancelled.  Roots of different factors
    within ROOT_MERGE_TOL are one point, at the root of the lower-degree
    factor, with their multiplicities summed."""
    points: list = []
    for key, m in sorted(form[1].items(), key=lambda item: len(item[0])):
        for z, k in _factor_roots(key):
            for i, (w, n) in enumerate(points):
                if abs(z - w) <= ROOT_MERGE_TOL * max(1.0, abs(w)):
                    points[i] = (w, n + k * m)
                    break
            else:
                points.append((z, k * m))
    # rightmost first
    points.sort(key=lambda wm: (-wm[0].real, wm[0].imag))
    return [(w, m) for w, m in points if m > 0], [(w, -m) for w, m in points if m < 0]


def taylor_coefficients(f: AnalyticSymbol, n_max: int) -> np.ndarray:
    """Coefficients c_0..c_{n_max} with c_n = f^(n)(0)/n!, by series
    arithmetic; a zeta node's come from laurent_coefficients, which raises
    ArithmeticError when they do not settle."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > SERIES_CAP:
        raise ValueError(f"n_max exceeds the series cap {SERIES_CAP}")
    return _series(f.expr, n_max + 1)


def _values_on(F: Callable, s: np.ndarray) -> np.ndarray:
    """F at the points s as a complex array; an overflow or a division by
    zero leaves inf or nan there rather than warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.asarray(F(s), np.complex128)


def laurent_coefficients(g: Callable, omega: complex, order: int, radius: float) -> list:
    """Laurent coefficients a_k = (1/2*pi*i) contour integral of g (s-omega)^{k-1},
    for k = 1, ..., order when order >= 1, and k = 0, -1, ..., order when
    order <= 0: a_{-j} is the coefficient of (s - omega)^j, so for a g
    analytic on the disk these are its Taylor coefficients c_0, ..., c_{-order}.

    Periodic trapezoid sums on the circle, with node doubling 64 -> 4096
    until the coefficients settle below LAURENT_TOL of the largest (at
    least 1); otherwise ArithmeticError.  The even nodes of a doubled ring
    are the previous ring's nodes bit for bit, so each doubling samples g
    on the new odd nodes only.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    omega = complex(omega)

    def ring_and_samples(j: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        ring = np.exp(1j * (2.0 * math.pi * j / n))
        z = omega + radius * ring
        vals = _values_on(g, z)
        if vals.shape != z.shape:
            vals = np.array([g(zz) for zz in z], np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("samples on the Laurent circle are not finite")
        return ring, vals

    ks = np.arange(1, order + 1) if order >= 1 else -np.arange(1 - order)
    n = 64
    ring, vals = ring_and_samples(np.arange(n), n)
    prev: np.ndarray | None = None
    while True:
        a = (radius ** ks / n) * (ring[:, None] ** ks[None, :] * vals[:, None]).sum(axis=0)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(a))))
            if float(np.max(np.abs(a - prev))) < LAURENT_TOL * scale:
                return [complex(v) for v in a]
        prev = a
        if n == 4096:
            break
        n *= 2
        odd_ring, odd_vals = ring_and_samples(np.arange(1, n, 2), n)
        ring = np.stack([ring, odd_ring], axis=1).ravel()
        vals = np.stack([vals, odd_vals], axis=1).ravel()
    raise ArithmeticError(
        f"Laurent coefficients on the circle of radius {radius:g} about {omega:.6g} did not settle "
        "under node doubling to 4096 nodes: a singularity on or near the circle, or noise "
        "in the samples that the division by radius^k amplifies, keeps the rings apart"
    )


class DataSequence(Record):
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
