"""Laplace-transform machinery on the vertical contour line.

The inverse-transform engine splits a transform F into a small
combination of reference terms 1/(s+b)^k, whose inverse transforms and
t = 0 moments are closed-form, plus a fast-decaying remainder, analytic in
a strip about the line, where a uniform trapezoid rule with a step-halving
check converges exponentially.  The split is fitted on a window beyond
the truncation half-width, so the remainder decays like the first
neglected reference order and the truncation tail is negligible.

The trapezoid nodes are y = h k with integer k, and h/2 pi is a power of
two, so the phase of node k at time t is exactly c k turns, c = t h/2 pi.
Both line-sum kernels reduce their phases mod 1 exactly (_turns).  A
uniform grid of at least CHIRP_MIN_POINTS times is a chirp-z transform in
k, evaluated by Bluestein's FFT convolution centred on k = 0.  Every other
t set (the settle probes, derivative stencils at 0+, the residual sample,
short or irregular grids) goes to the blocked kernel, which splits k into
blocks of B and needs about 2 sqrt(N) phases per time for N nodes.

A rational transform, an AnalyticSymbol whose tree symbols.rational_form
reads as c N/D, is instead the sum of its principal parts (Heaviside's
expansion) at the roots of D's factors, taken by a Taylor shift and one
series division per pole (rational_parts), with no Cauchy ring.  The sum,
accepted when F minus it vanishes on the contour probes, is the inverse
transform wherever its poles lie: values, derivatives and moments in
closed form at every t, with no nodes and no e^{sigma t} to amplify
rounding.  Any other F goes to the noded line, which refuses an F that is
0 on its fit window, where a zero transform and underflow look alike.
A rational F's H^2 norm is exact too, by Plancherel from its parts (h2_norm).
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .special_functions import uniform_step
from .symbols import (
    Add,
    AnalyticSymbol,
    Const,
    Div,
    Exp,
    Mul,
    Pow,
    Record,
    Sub,
    Var,
    _product,
    _series_div,
    _values_on,
    degree_gap,
    eval_symbol,
    parse_expression,
    rational_form,
    rational_roots,
)

# numpy.polynomial's leggauss(20), bit for bit, from its symmetric halves:
# the positive nodes and their weights
_GL20_X = np.array([0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
                    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
                    0.8391169718222188, 0.912234428251326, 0.9639719272779138,
                    0.993128599185095])
_GL20_W = np.array([0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
                    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
                    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
                    0.017614007139150893])
_GL20 = (np.concatenate([-_GL20_X[::-1], _GL20_X]), np.concatenate([_GL20_W[::-1], _GL20_W]))

N_ATOMS = 8
LINE_PROBES = 8
MAX_LINE_NODES = 1 << 20
HARDY_NODES = 4097
FORWARD_TAIL_TOL = 1e-10      # laplace_forward's horizon puts the integrand below it
FORCING_CHECK_TOL = 1e-8      # verify_forcing's largest accepted probe error
FORCING_PROBES = 10
CHIRP_MIN_POINTS = 32         # fewer uniform times go to the blocked kernel
CHIRP_MAX_INDEX = 1 << 26     # chirp indices below it have exact float squares
PHASE_TABLE_CAP = 1 << 22     # entries per phase table of the blocked kernel
CONTOUR_PROBES = 513          # points of |Im s| <= y_max that accept a census
PART_ZERO_TOL = 1e-10         # a numerator Taylor coefficient this far below its rounding scale is 0


class BromwichConfig(Record):
    """Numerical contract for contour-line integrals."""

    sigma: float = 1.0
    y_max: float = 200.0
    quad_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("contour abscissa sigma must be positive and finite")
        if not (self.y_max > 0 and math.isfinite(self.y_max)):
            raise ValueError("truncation half-width y_max must be positive and finite")
        if not (self.quad_tol > 0 and math.isfinite(self.quad_tol)):
            raise ValueError("quad_tol must be positive and finite")


class Forcing(Record):
    """Right-hand side J(t) with an optional closed-form transform.

    breakpoints are the times where J jumps; laplace_forward puts a panel
    edge on each, so its rule never integrates across a jump.  A forcing
    is its content: forcings with equal parts compare and hash equal.
    """

    j_eval: Callable
    closed_form_laplace: AnalyticSymbol | None = None
    breakpoints: tuple[float, ...] = ()

    @property
    def is_zero(self) -> bool:
        expr = self.closed_form_laplace.expr if self.closed_form_laplace else None
        return isinstance(expr, Const) and expr.value == 0

    def laplace(self, s):
        if self.closed_form_laplace is None:
            raise ValueError("forcing has no closed-form transform")
        return eval_symbol(self.closed_form_laplace, s)


def _terms_product(left: dict, right: dict) -> dict:
    """Terms of the product of two {(power m, rate a): coefficient} sums."""
    out: dict = {}
    for (m1, a1), c1 in left.items():
        for (m2, a2), c2 in right.items():
            key = (m1 + m2, a1 + a2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def poly_exp_terms(node) -> dict:
    """Decompose a t-expression into {(power m, rate a): coefficient}.

    Covers sums and products of polynomials and exponentials of linear
    arguments; anything else is rejected.
    """
    if isinstance(node, Const):
        return {(0, 0j): node.value}
    if isinstance(node, Var):
        return {(1, 0j): 1.0 + 0j}
    if isinstance(node, (Add, Sub)):
        op = operator.add if isinstance(node, Add) else operator.sub
        out = poly_exp_terms(node.left)
        for key, c in poly_exp_terms(node.right).items():
            out[key] = op(out.get(key, 0j), c)
        return out
    if isinstance(node, Mul):
        return _terms_product(poly_exp_terms(node.left), poly_exp_terms(node.right))
    if isinstance(node, Div):
        right = poly_exp_terms(node.right)
        if set(right) <= {(0, 0j)}:
            c = right.get((0, 0j), 0j)
            if c == 0:
                raise ValueError("division by zero in forcing expression")
            return {key: v / c for key, v in poly_exp_terms(node.left).items()}
        raise ValueError("forcing division must be by a constant")
    if isinstance(node, Pow):
        out = {(0, 0j): 1.0 + 0j}
        base = poly_exp_terms(node.base)
        for _ in range(node.exponent):
            out = _terms_product(out, base)
        return out
    if isinstance(node, Exp):
        arg = poly_exp_terms(node.arg)
        if not set(arg) <= {(0, 0j), (1, 0j)}:
            raise ValueError("exponential argument must be linear in t")
        b = arg.get((0, 0j), 0j)
        a = arg.get((1, 0j), 0j)
        return {(0, a): complex(np.exp(b))}
    raise ValueError(f"forcing term not of polynomial-times-exponential form: {node!r}")


def _laplace_tree_from_terms(terms: dict):
    """Transform of sum c * t^m e^{at}: sum c * m! / (s - a)^{m+1}."""
    tree = None
    for (m, a), c in sorted(terms.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag)):
        if c == 0:
            continue
        denom = Sub(Var("s"), Const(a)) if a != 0 else Var("s")
        term = Div(Const(c * math.factorial(m)), Pow(denom, m + 1))
        tree = term if tree is None else Add(tree, term)
    return tree if tree is not None else Const(0j)


def _exp_poly_derivative(blocks, n: int, ts: np.ndarray) -> np.ndarray:
    """n-th t-derivative of the sum over blocks (omega, a) of
    sum_j a_j t^{j-1}/(j-1)! e^{omega t}, exact by the Leibniz rule.

    Each nonzero a_j contributes a power sum in t, and each block ends in
    one multiply by e^{omega t}.  The transform of a block is
    sum_j a_j/(s - omega)^j.
    """
    out = np.zeros(ts.shape, dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        for omega, coeffs in blocks:
            inner = np.zeros(ts.shape, dtype=np.complex128)
            for m, a in enumerate(coeffs):
                if a == 0:
                    continue
                part = np.zeros(ts.shape, dtype=np.complex128)
                for i in range(min(n, m) + 1):
                    part += (math.comb(n, i) * omega ** (n - i)
                             * ts ** (m - i) / math.factorial(m - i))
                inner += a * part
            out += inner * np.exp(omega * ts)
    return out


def forcing_from_text(text: str) -> Forcing:
    """Build a Forcing from an expression in t (polynomials and exponentials).
    Its j_eval is the symbol of that t-tree, so two forcings built from
    texts that parse to one tree compare and hash equal."""
    tree = parse_expression(text, "t", allow_zeta=False)
    laplace = AnalyticSymbol(_laplace_tree_from_terms(poly_exp_terms(tree)))
    return Forcing(AnalyticSymbol(tree), laplace)


def builtin_forcing(name: str, **params) -> Forcing:
    """Built-in forcings: zero, exp_decay(rate), indicator(a, b)."""
    if name == "zero":
        return forcing_from_text("0")
    if name == "exp_decay":
        rate = float(params.get("rate", 1.0))
        return forcing_from_text(f"exp(-{rate!r}*t)")
    if name == "indicator":
        a = float(params.get("a", 0.0))
        b = float(params.get("b", 1.0))
        if not 0 <= a < b:
            raise ValueError("indicator needs 0 <= a < b")

        def j_eval(t):
            arr = np.asarray(t, dtype=np.float64)
            return np.where((arr >= a) & (arr < b), 1.0 + 0j, 0j)

        tree = Div(
            Sub(Exp(Mul(Const(-a + 0j), Var("s"))), Exp(Mul(Const(-b + 0j), Var("s")))),
            Var("s"),
        )
        return Forcing(j_eval, AnalyticSymbol(tree), breakpoints=(a, b))
    raise ValueError(f"unknown builtin forcing {name!r}")


def laplace_forward(J: Forcing, s, t_cap: float = 1e4):
    """Numerical transform integral_0^inf e^{-st} J(t) dt for Re(s) > 0, at
    a scalar s (returns a complex) or a 1-D array of them (returns an array).

    One fixed composite rule: 20-point Gauss-Legendre on the panels with
    edges 0, 2^-10, 2^-9, ..., 1, 2, 3, ..., ceil(H), graded toward t = 0
    where a fast decay lives, plus J's breakpoints below ceil(H).  The
    horizon H is 128, or further out where the integrand, extrapolated along
    its decay between t = 64 and t = 128, falls below FORWARD_TAIL_TOL.  A
    non-decaying integrand, a J that overflows before H and an H beyond
    t_cap raise ValueError, for the first such s in order, before any node
    is laid, so one call costs at most 20 (ceil(t_cap) + 10 +
    len(breakpoints)) points of J.

    The panels are laid once, out to the largest horizon, and J is
    evaluated once on them.  Each s sums over its own prefix of panels,
    the rule it would get alone: a shorter horizon's edges, breakpoints
    included, are a prefix of a longer one's.
    """
    ss = np.asarray(s, dtype=np.complex128)
    if ss.ndim > 1:
        raise ValueError("laplace_forward takes a scalar s or a 1-D array of s")
    probes = [complex(z) for z in np.atleast_1d(ss)]
    with np.errstate(over="ignore", invalid="ignore"):
        j_probe = np.asarray(J.j_eval(np.array([64.0, 128.0])), np.complex128)
    horizons = []
    for z in probes:
        if z.real <= 0:
            raise ValueError("laplace_forward requires Re(s) > 0")
        with np.errstate(over="ignore", invalid="ignore"):
            near, far = np.abs(np.exp(-z * np.array([64.0 + 0j, 128.0 + 0j])) * j_probe)
        if not (np.isfinite(far) and (far < near or far == 0.0)):
            raise ValueError(f"forcing does not decay against e^(-st) at s = {z:.3g}")
        # a slow decay lets J(t) overflow, making e^(-st)*J(t) inf*0, long
        # before the integrand falls below FORWARD_TAIL_TOL
        horizon = 128.0
        if far > FORWARD_TAIL_TOL:
            horizon = 128.0 + 64.0 * math.log(far / FORWARD_TAIL_TOL) / math.log(near / far)
            with np.errstate(over="ignore", invalid="ignore"):
                at_horizon = J.j_eval(np.array([horizon]))
            if not np.all(np.isfinite(at_horizon)):
                raise ValueError(f"forcing overflows at t = {horizon:.4g} before e^(-st) J(t) "
                                 f"decays below {FORWARD_TAIL_TOL:.1e} at s = {z:.3g}")
        if horizon > t_cap:
            raise ValueError("tail truncation failure: forcing decays too slowly for the tolerance")
        horizons.append(horizon)

    edges = np.concatenate([[0.0], 2.0 ** np.arange(-10, 1),
                            np.arange(2.0, math.ceil(max(horizons, default=128.0)) + 1)])
    if J.breakpoints:
        # merged sorted and distinct as by np.union1d, which imports numpy.ma
        inside = {float(b) for b in J.breakpoints if 0 < b < edges[-1]}
        edges = np.array(sorted(inside.union(edges.tolist())))
    half = 0.5 * np.diff(edges)[:, None]
    x20, w20 = _GL20
    t = (edges[:-1, None] + half * (1.0 + x20)).ravel()
    weights = (half * w20).ravel()
    t_c = t.astype(np.complex128)
    j_vals = np.asarray(J.j_eval(t), np.complex128)
    # the panels of horizon H end at edge ceil(H)
    ends = 20 * np.searchsorted(edges, [math.ceil(hz) for hz in horizons])
    out = np.array([np.sum(weights[:n] * (np.exp(-z * t_c[:n]) * j_vals[:n]))
                    for z, n in zip(probes, ends)], dtype=np.complex128)
    return complex(out[0]) if ss.ndim == 0 else out


def verify_forcing(J: Forcing, re_min: float = 0.7) -> dict:
    """Check the closed-form transform against quadrature at FORCING_PROBES
    fixed probes with real parts from re_min upward, to FORCING_CHECK_TOL."""
    if J.closed_form_laplace is None:
        return {"ok": False, "max_error": math.inf, "reason": "no closed-form transform"}
    ss = np.array([re_min + 0.3 * k + 1j * (0.5 * k - 2.25) for k in range(FORCING_PROBES)])
    worst = float(np.max(np.abs(laplace_forward(J, ss) - J.laplace(ss))))
    return {"ok": worst <= FORCING_CHECK_TOL, "max_error": worst, "probes": FORCING_PROBES}


def _power_fit(xs: np.ndarray, ms: np.ndarray) -> tuple[float, float, float]:
    """Fit |g| ~ C x^{-alpha}; returns (alpha, C, max log-residual), with C
    capped at e^700 so it stays finite.

    The least-squares line through (log x, log |g|) in closed form, centred
    on the means.  Fewer than 4 usable points, or a single x, give
    (nan, nan, inf): no slope is determined.
    """
    mask = np.isfinite(ms) & (ms > 0)
    if mask.sum() < 4:
        return math.nan, math.nan, math.inf
    lx = np.log(xs[mask])
    lm = np.log(ms[mask])
    if lx.min() == lx.max():
        return math.nan, math.nan, math.inf
    mx, mm = float(np.mean(lx)), float(np.mean(lm))
    dx, dm = lx - mx, lm - mm
    slope = float(dx @ dm) / float(dx @ dx)
    intercept = mm - slope * mx
    resid = float(np.max(np.abs(dm - slope * dx)))
    return -slope, float(math.exp(min(intercept, 700.0))), resid


MATCHED_MOMENT_ORDER = 4
MOMENT_TAIL_TOL = 1e-5


def _block_sum(blocks, s: np.ndarray) -> np.ndarray:
    """sum over blocks (omega, a) of sum_j a_j / (s - omega)^j.

    With w = s - omega and N terms, term j is a_j w^{N-j} / w^N: one
    division per point.  A power of two w^p squares w^{p/2}, and any
    other w^j is w^{j-p} w^p with p the largest power of two below j, so
    w^j is at most floor(log2 j) + 1 products deep, as with numpy's
    integer power.  Horner's rule in 1/w, or products of 1/w, round more
    at the small far-out terms and move the inverse transform measurably.
    """
    out = None
    for omega, coeffs in blocks:
        N = len(coeffs)
        pw = [None, s - omega]
        for j in range(2, N + 1):
            p = 1 << (j.bit_length() - 1)
            pw.append(pw[p // 2] * pw[p // 2] if p == j else pw[j - p] * pw[p])
        inv = 1.0 / pw[N]
        part = coeffs[N - 1] * inv
        for k in range(1, N):
            part += coeffs[k - 1] * (pw[N - k] * inv)
        out = part if out is None else out + part
    return out


def _block_decay(blocks) -> dict:
    """The decay |G| ~ C |s|^-q of G = sum over blocks (omega, a) of
    sum_j a_j/(s - omega)^j, exactly: its large-|s| expansion is sum_k
    e_k s^-k with e_k = sum over blocks of sum_{j<=k} a_j C(k-1, j-1)
    omega^(k-j), and q is the first k whose e_k is not lost to rounding;
    q = inf, C = 0 when no e_k up to the total order is."""
    for k in range(1, sum(len(coeffs) for _, coeffs in blocks) + 1):
        terms = [a * math.comb(k - 1, j) * omega ** (k - 1 - j)
                 for omega, coeffs in blocks for j, a in enumerate(coeffs[:k])]
        if abs(sum(terms)) > 1e-12 * sum(map(abs, terms)):
            return {"q": float(k), "C": abs(sum(terms))}
    return {"q": math.inf, "C": 0.0}


def _taylor_shift(coeffs: np.ndarray, w: complex, m: int) -> np.ndarray:
    """The first m Taylor coefficients at w of the polynomial with
    ascending coefficients coeffs, by repeated synthetic division."""
    out = np.zeros(m, np.complex128)
    rest = coeffs[::-1].tolist()
    for k in range(min(m, len(rest))):
        acc, quotient = 0j, []
        for a in rest:
            acc = acc * w + a
            quotient.append(acc)
        out[k] = quotient.pop()
        rest = quotient
    return out


def _rational_blocks(form, poles) -> list:
    """The nonzero principal parts, as blocks (omega, (a_1, ..., a_m)),
    of the rational form c N/D at the poles (omega, m) of D, by polynomial
    arithmetic: (s - omega)^m F is c N over the other poles' factors, and
    its first m Taylor coefficients at omega, from a Taylor shift of each
    and one series division, are a_m, ..., a_1.  A leading run of N's
    Taylor coefficients at omega within PART_ZERO_TOL of their rounding
    scale is a factor N shares with D: it is taken as 0, so that pole's
    order falls, or its part is 0 and left out."""
    num = _product(*form)
    blocks = []
    for omega, m in poles:
        top = _taylor_shift(num, omega, m)
        scale = _taylor_shift(np.abs(num), abs(omega), m).real
        k = 0
        while k < m and abs(top[k]) <= PART_ZERO_TOL * scale[k]:
            k += 1
        if k == m:
            continue
        top[:k] = 0.0
        den = np.ones(1, np.complex128)
        for v, n in poles:
            for _ in range(n if v != omega else 0):
                den = np.convolve(den, [omega - v, 1.0])[:m]
        g = _series_div(top, np.pad(den, (0, m - den.size)))
        blocks.append((omega, tuple(g[::-1][:m - k])))
    return blocks


class RationalParts(Record):
    """The pole census of a rational transform F = c N/D (rational_form):
    gap = deg D - deg N (inf for F = 0); blocks, F's nonzero principal
    parts (omega, (a_1, ..., a_m)), rightmost first, when F minus their sum
    vanishes on the contour probes, else None (always for gap < 1); and
    error, that difference's largest modulus there relative to max |F|."""

    gap: float
    blocks: tuple | None
    error: float


def _contour_probes(cfg: BromwichConfig) -> np.ndarray:
    return cfg.sigma + 1j * np.linspace(-cfg.y_max, cfg.y_max, CONTOUR_PROBES)


def rational_parts(F, cfg: BromwichConfig) -> RationalParts | None:
    """The census of F when it is an AnalyticSymbol of a rational tree,
    else None: the roots of its denominator's factors (symbols.rational_roots),
    the principal parts there by polynomial arithmetic (_rational_blocks),
    accepted when F minus their sum vanishes on the CONTOUR_PROBES points of
    the contour line: within 1e-12 of max |F| there."""
    form = rational_form(F.expr) if isinstance(F, AnalyticSymbol) else None
    if form is None:
        return None
    c, factors = form
    gap = degree_gap(form)
    if c == 0 or gap < 1:
        return RationalParts(gap, () if c == 0 else None, 0.0 if c == 0 else math.inf)
    # every pole of D, before any cancels against N: the parts see a shared factor
    poles = rational_roots((c, {key: m for key, m in factors.items() if m < 0}))[1]
    blocks = _rational_blocks(form, poles)
    s_probe = _contour_probes(cfg)
    f_probe = _values_on(F, s_probe)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff = f_probe - (_block_sum(blocks, s_probe) if blocks else 0.0)
    top = float(np.max(np.abs(f_probe)))
    error = float(np.max(np.abs(diff))) / top if top > 0 else math.inf
    return RationalParts(gap, tuple(blocks) if error <= 1e-12 else None, error)


def h2_norm(blocks) -> float:
    """||F||_{H^2} of F = sum over blocks (omega, a), each omega in
    Re(s) < 0, of sum_j a_j/(s - omega)^j, exactly: by Plancherel the L^2
    norm on t > 0 of sum_j a_j t^(j-1)/(j-1)! e^(omega t), whose square
    sums, over pairs of terms a t^p/p! e^(omega t) and b t^q/q! e^(v t),
    a conj(b) C(p + q, p)/(-(omega + conj v))^(p + q + 1)."""
    terms = [(w, p, a) for w, coeffs in blocks for p, a in enumerate(coeffs)]
    total = sum(a * b.conjugate() * math.comb(p + q, p) / (-(w + v.conjugate())) ** (p + q + 1)
                for w, p, a in terms for v, q, b in terms)
    return math.sqrt(max(complex(total).real, 0.0))


def _check_times(ts: np.ndarray) -> None:
    """Refuse a t that is not a scalar or 1-D, or a t that is not finite
    or negative, naming the first one."""
    if ts.ndim > 1:
        raise ValueError(f"inverse transform takes a scalar t or a 1-D array of t, "
                         f"got an array of shape {ts.shape}")
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"inverse transform needs a finite t, got t = {bad[0]}")
    if np.any(ts < 0):
        raise ValueError("inverse transform is defined on t >= 0")


def _turns(c, m: np.ndarray) -> np.ndarray:
    """c m reduced mod 1 into [-1/2, 1/2], for integer-valued floats m and
    a scalar c or a column of them.

    Each c splits into a head short enough that head * m is an exact float
    for every m, whose fraction is then exact too, plus a tail whose
    product with m is small; in plain float64, c m would carry an error of
    order eps * c m.
    """
    bits = 53 - int(np.max(np.abs(m), initial=1.0)).bit_length()
    exponent = np.frexp(c)[1] - bits
    head = np.ldexp(np.rint(np.ldexp(c, -exponent)), exponent)
    x = head * m
    x -= np.rint(x)
    x += (c - head) * m
    x -= np.rint(x)
    return x


def _chirp(c: float, n: np.ndarray) -> np.ndarray:
    """exp(2 pi i c n^2), with c n^2 reduced mod 1 exactly."""
    return np.exp(2j * math.pi * _turns(c, np.square(n.astype(np.float64))))


def _chirp_z(k: np.ndarray, w: np.ndarray, t0y: np.ndarray, c: float,
             n_t: int) -> np.ndarray:
    """sum_m w_m e^{i t0 y_m} e^{4 pi i c j k_m} for j < n_t, by Bluestein's
    identity jk = (j^2 + k^2 - (j - k)^2)/2 and one circular convolution.

    The convolution is centred on k = 0: a_k sits at index k mod L and the
    chirp b_m, m in [-K, n_t - 1 + K], at m mod L, so the large central
    samples see the smallest phases.  All three chirps share one c, so
    the identity holds exactly in the reduced phases.
    """
    top = int(np.max(np.abs(k), initial=0))
    size = 1 << (2 * top + n_t - 1).bit_length()
    a = np.zeros(size, dtype=np.complex128)
    a[k % size] = w * np.exp(1j * t0y) * _chirp(c, k)   # the nodes hold each k once
    m = np.arange(-top, n_t + top)
    b = np.zeros(size, dtype=np.complex128)
    b[m % size] = np.conj(_chirp(c, m))
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:n_t]
    return _chirp(c, np.arange(n_t)) * conv


def _blocked_sums(k: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_m w_m e^{2 pi i c_j k_m} for each c_j, over integer node indices k.

    Each index splits as k = B q + r, 0 <= r < B, with B a power of two
    near sqrt(k_max - k_min) and the blocks aligned to multiples of B, so
    block q = 0 holds the large central nodes.  With the weights scattered
    into a Q x B table A, the sum is sum_q e^{2 pi i c B q} sum_r A[q, r]
    e^{2 pi i c r}: B + Q phases per time instead of one per node, from
    exactly reduced turns, and one matrix-vector product per time, so a
    time's value does not depend on the other times in the call (a matrix
    product over all times rounds differently for different row counts).
    Times go in chunks whose phase tables hold at most PHASE_TABLE_CAP
    entries.
    """
    out = np.zeros(c.shape, dtype=np.complex128)
    if k.size == 0:
        return out
    lo, hi = int(k.min()), int(k.max())
    shift = (hi - lo).bit_length() // 2
    q_lo, q_hi = lo >> shift, hi >> shift
    table = np.zeros((q_hi - q_lo + 1, 1 << shift), dtype=np.complex128)
    table[(k >> shift) - q_lo, k & ((1 << shift) - 1)] = w   # the nodes hold each k once
    r = np.arange(table.shape[1], dtype=np.float64)
    bq = np.ldexp(np.arange(q_lo, q_hi + 1, dtype=np.float64), shift)
    chunk = max(1, PHASE_TABLE_CAP // max(table.shape))
    for i0 in range(0, c.size, chunk):
        cc = c[i0:i0 + chunk, None]
        inner = np.matmul(table, np.exp(2j * math.pi * _turns(cc, r))[:, :, None])[:, :, 0]
        out[i0:i0 + chunk] = np.sum(np.exp(2j * math.pi * _turns(cc, bq)) * inner, axis=1)
    return out


def _derivative_order(n) -> int:
    """n if it is a nonnegative integer, else a ValueError naming it."""
    if isinstance(n, (int, np.integer)) and n >= 0:
        return n
    raise ValueError(f"derivative order must be a nonnegative integer, got n = {n!r}")


class _LineState(Record):
    """The trapezoid rule at one t budget: nodes y = h k in level order,
    the finest from index level on, the remainder g on them, the mass that
    scales their rounding and the settle's error estimate; once settled,
    its arrays are read-only."""

    h: float
    y_nodes: np.ndarray
    g_vals: np.ndarray
    level: int
    mass: float
    est_quad_error: float = math.inf


class LineSampler:
    """Samples of F on Re(s) = sigma, split into reference terms and remainder.

    A rational AnalyticSymbol F whose census (rational_parts; the solver
    hands over its gate pass's census as parts) passes its probe check is
    the closed form of its parts at any sigma: no nodes, and every moment
    order certified.  Any other F is the noded line, which refuses an F
    that is 0 on the fit window, where a zero transform and underflow look alike.

    Supports inverse-transform values, t = 0 moments, and derivatives of
    the inverse transform.  Its trapezoid rule is a table of immutable
    states by power-of-two t budget, each grown once from the build state,
    whose t_max, h, y_nodes and g_vals the sampler shows and on which the
    moments are taken; so a call's values depend on its ts alone, and a
    sampler is its own deep copy, shared by the gate memo and its replays.
    States and the last t-evaluation are each published by one assignment,
    so threads that race on a sampler at most repeat work; a moment is
    taken anew on each call (the solver takes each once per pass).  On the
    noded line, moment orders are certified by one of two regimes: a
    transform the reference terms match on the fit window supports orders
    up to MATCHED_MOMENT_ORDER (the far-window fit cannot identify higher
    reference coefficients, and a coefficient error pollutes the matching
    moment order directly); a measurable remainder gates each order n by
    the estimated tail contribution of the un-integrated remainder beyond
    y_max, which scales like |g(y_max)| y_max^{n+1}.
    """

    def __init__(self, F: Callable, cfg: BromwichConfig, t_max: float = 1.0,
                 parts: RationalParts | None = None) -> None:
        if not math.isfinite(t_max):
            raise ValueError(f"t budget must be finite, got t_max = {t_max}")
        self.cfg = cfg
        self._evaluations = {"chirp_z": 0, "blocked": 0}   # kernel runs
        self._last = None   # (key, values) of the last t-evaluation
        # power-of-two t budgets, so the grid of a larger budget nests
        # under halving and an extension reuses every sample
        self.t_max = 1.0
        while self.t_max < t_max:
            self.t_max *= 2.0
        sigma, y_max = cfg.sigma, cfg.y_max
        self.sigma = sigma
        self.b = max(1.0, sigma)
        self.y_nodes, self.g_vals = np.zeros(0), np.zeros(0, np.complex128)
        self.poles, self.coefficient_error = (), None
        if parts is None:
            parts = rational_parts(F, cfg)
        if parts is not None and parts.blocks is not None:
            # the inverse transform of the blocks: no nodes, and every value,
            # derivative and moment, of any order, from _exp_poly_derivative
            self.poles = tuple((omega, len(coeffs)) for omega, coeffs in parts.blocks)
            self.coefficient_error = parts.error
            self.blocks, self.certified_order = list(parts.blocks), math.inf
            self.atom_exact = self.atom_matched = True
            self.alpha_g, self.h, self.tail_estimate = math.inf, 0.0, 0.0
            self._states = {self.t_max: _LineState(0.0, self.y_nodes, self.g_vals, 0, 0.0, 0.0)}
            return

        # Two-decade log-spaced window so the inverse-power columns separate
        # by scale; a narrow window makes them collinear and the fit chases
        # noise with huge cancelling coefficients.
        ys = np.geomspace(y_max, 100.0 * y_max, 128)
        ys = np.concatenate([-ys[::-1], ys])
        ss = sigma + 1j * ys
        vals = _values_on(F, ss)
        if not np.all(np.isfinite(vals)):
            raise ValueError("transform is not finite on the fit window beyond y_max")
        scale_f = float(np.max(np.abs(vals)))
        if scale_f < 1e-300:
            raise ValueError("transform is 0 on the fit window beyond y_max: the line cannot "
                             "tell a zero transform from one that underflows there")
        cols = np.stack([(ss + self.b) ** (-k) for k in range(1, N_ATOMS + 1)], axis=1)
        # |F| can span many decades across the window; fit in relative
        # error (floored fourteen decades down) or the solver shaves the
        # large near-window samples at the expense of wild relative errors
        # far out, wrecking the decay measurement below.
        wts = 1.0 / (np.abs(vals) + 1e-14 * scale_f + 1e-300)
        wcols = cols * wts[:, None]
        norms = np.linalg.norm(wcols, axis=0)
        norms[norms == 0.0] = 1.0
        sol, *_ = np.linalg.lstsq(wcols / norms, vals * wts, rcond=None)
        self.gammas = sol / norms
        self.blocks = [(-self.b, self.gammas)]
        resid = vals - cols @ self.gammas

        scale_g = float(np.max(np.abs(resid)))
        alpha_f, _, _ = _power_fit(np.abs(ys), np.abs(vals))
        if not alpha_f > 0.05:
            raise ValueError(
                f"non-decaying integrand on the contour (fitted decay exponent {alpha_f:.3f})"
            )

        self.atom_matched = scale_g <= 1e-12 * scale_f
        self.atom_exact = False
        if self.atom_matched:
            self.alpha_g = float(N_ATOMS + 1)
            self.tail_estimate = scale_g * y_max
            self.certified_order = MATCHED_MOMENT_ORDER
        else:
            # the local slope next to y_max is what the tail integrals
            # see; the far end of the window can sit at the noise floor
            near_decade = np.abs(ys) <= 10.0 * y_max
            alpha_g, c_g, _ = _power_fit(np.abs(ys[near_decade]),
                                         np.abs(resid[near_decade]))
            if not math.isfinite(alpha_g):
                alpha_g = N_ATOMS + 1.0
            self.alpha_g = alpha_g
            if alpha_g <= 1.0:
                raise ValueError(
                    f"truncation tail is not summable (remainder decay exponent {alpha_g:.3f})"
                )
            near = float(np.abs(resid[ys.size // 2]))
            self.tail_estimate = near * y_max / max(alpha_g - 1.0, 0.5)
            if self.tail_estimate > cfg.quad_tol:
                raise ValueError(
                    f"truncation-tail estimate {self.tail_estimate:.3e} exceeds quad_tol"
                )
            # order n is certified while the computed tail of its moment
            # integrand beyond y_max stays small: the window part integrates
            # the actual remainder samples with their signs (the Hermitian
            # pairing of the two line halves cancels most of what an
            # absolute bound would count), and the slice beyond the window
            # is extrapolated along the fitted slope
            half = ys.size // 2
            order = -1
            for n in range(N_ATOMS):
                integrand = ss ** n * resid
                window = (np.trapezoid(integrand[:half], ys[:half])
                          + np.trapezoid(integrand[half:], ys[half:])) / (2.0 * math.pi)
                far = float(np.abs(resid[-1])) * (100.0 * y_max) ** (n + 1) \
                    / (2.0 * math.pi * max(alpha_g - n - 1.0, 0.3))
                if abs(window) + far > MOMENT_TAIL_TOL:
                    break
                order = n
            self.certified_order = order

        self._F = F
        # the step halves to pi/t_max first, laying every node of that grid
        unlaid = _LineState(2.0 * math.pi / self.t_max, self.y_nodes, self.g_vals, 0, 0.0)
        build = self._settle(unlaid, self.t_max)
        self._states = {self.t_max: build}
        self.h, self.y_nodes, self.g_vals = build.h, build.y_nodes, build.g_vals

    def __deepcopy__(self, memo) -> "LineSampler":
        return self

    def _reference(self, s: np.ndarray) -> np.ndarray:
        """Sum of the reference terms, the fitted gamma_k / (s + b)^k."""
        return _block_sum(self.blocks, s)

    def _halve(self, state: _LineState, change: float | None = None) -> _LineState:
        """state with its step halved and the new level, y = h*m for every
        m on an unlaid state and for odd m after, appended in level order."""
        h = 0.5 * state.h
        top = math.floor(self.cfg.y_max / h)
        if 2 * top + 1 > MAX_LINE_NODES:
            last = "" if change is None else f" (last change {change:.3e})"
            raise ValueError(f"trapezoid rule on the contour did not settle within "
                             f"{MAX_LINE_NODES} nodes{last}")
        m = np.arange(-top, top + 1)
        y = h * (m[m % 2 == 1] if state.y_nodes.size else m)
        s_line = self.sigma + 1j * y
        ref = self._reference(s_line)
        g = _values_on(self._F, s_line) - ref
        if not np.all(np.isfinite(g)):
            raise ValueError("transform is not finite on the contour line")
        # g = F - reference terms carries rounding of order eps*|F|, not
        # eps*|g|, so the rounding floor counts the reference terms too
        mass = 0.5 * state.mass + h * float(np.sum(np.abs(g) + np.abs(ref)))
        return _LineState(h, np.concatenate([state.y_nodes, y]),
                          np.concatenate([state.g_vals, g]), state.y_nodes.size, mass)

    @staticmethod
    def _line_sums(state: _LineState, probes: np.ndarray, start: int,
                   stop: int | None) -> np.ndarray:
        k = np.rint(state.y_nodes[start:stop] / state.h).astype(np.int64)
        return _blocked_sums(k, state.g_vals[start:stop], probes * (state.h / (2.0 * math.pi)))

    def _settle(self, state: _LineState, budget: float) -> _LineState:
        """The state at budget grown from state: its step halved to at most
        pi/(2 budget), as a fresh build at budget starts, and then on until
        it settles.  Node order is free: both line-sum kernels place a node
        by its index k."""
        # Trapezoid rule on y = h*k, |y| <= y_max.  Its error at t is the
        # Poisson image sum_{k>=1} e^{-sigma k T} q(t + kT), T = 2*pi/h, whose
        # decay no step formula knows; so h is halved, reusing the samples,
        # until the values at the probe times settle: the finest level
        # against its coarse prefix, the grid at 2h.
        while state.h > math.pi / (2.0 * budget):
            state = self._halve(state)
        probes = np.linspace(0.0, budget, LINE_PROBES)
        scale = np.exp(self.sigma * probes) / (2.0 * math.pi)
        coarse = 2.0 * state.h * self._line_sums(state, probes, 0, state.level)
        fine = 0.5 * coarse + state.h * self._line_sums(state, probes, state.level, None)
        while True:
            change = scale * np.abs(fine - coarse)
            floor = 64.0 * np.finfo(np.float64).eps * scale * state.mass
            if np.all(change <= np.maximum(self.cfg.quad_tol, floor)):
                state.y_nodes.flags.writeable = state.g_vals.flags.writeable = False
                return _LineState(state.h, state.y_nodes, state.g_vals, state.level, state.mass,
                                  float(np.max(change)))
            state = self._halve(state, float(np.max(change)))
            fine, coarse = (0.5 * fine
                            + state.h * self._line_sums(state, probes, state.level, None)), fine

    def _state(self, ts: np.ndarray) -> _LineState:
        """The state at the least budget, the build budget doubled, that
        covers ts, grown from the build state the first time."""
        budget = self.t_max
        while budget < np.max(ts, initial=0.0):
            budget *= 2.0
        state = self._states.get(budget)
        if state is None:
            state = self._states.setdefault(budget, self._settle(self._states[self.t_max], budget))
        return state

    def _require_moment_order(self, n: int) -> None:
        if _derivative_order(n) > self.certified_order:
            raise ValueError(
                f"moment order {n} exceeds the certified order "
                f"{self.certified_order} for this transform"
            )

    def moment(self, n: int) -> complex:
        """(1/2*pi*i) integral s^n F(s) ds, the one-sided n-th derivative at
        0, on the build state."""
        self._require_moment_order(n)
        quad = np.sum(self.h * (self.sigma + 1j * self.y_nodes) ** n * self.g_vals)
        atoms = _exp_poly_derivative(self.blocks, n, np.zeros(1))[0]
        return complex(atoms + quad / (2.0 * math.pi))

    def values(self, ts) -> np.ndarray:
        """Inverse transform at t >= 0; t = 0 returns the symmetric midpoint value."""
        return self._derivative_values(0, ts, midpoint_at_zero=True)

    def derivative_values(self, n: int, ts) -> np.ndarray:
        """n-th derivative of the inverse transform on t > 0; for n = 0 also
        at t = 0, where it returns the one-sided limit."""
        self._require_moment_order(n)
        if n > 0 and np.any(np.asarray(ts, dtype=np.float64) <= 0):
            raise ValueError("derivative sampling requires t > 0")
        return self._derivative_values(n, ts, midpoint_at_zero=False)

    def _derivative_values(self, n: int, ts, midpoint_at_zero: bool) -> np.ndarray:
        """e^{sigma t}/2pi times the line sum of h (sigma + iy)^n g e^{ity},
        on the state that covers ts, plus the reference terms' closed-form
        n-th derivative.

        The line sum has two kernels over the integer node index k = y/h.
        On an increasing grid of at least CHIRP_MIN_POINTS times, uniform
        to within a few ulp, it is a chirp-z transform (_chirp_z),
        O((N + J) log(N + J)) for N nodes and J times.  Any other t set
        (the derivative stencils at 0+, the residual sample, short or
        irregular grids) goes to the blocked kernel (_blocked_sums), with
        about 2 sqrt(N) phases and N multiply-adds per time.  A call that
        repeats the last one returns a copy of its values.
        """
        ts_arr = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        _check_times(ts_arr)
        if self.atom_exact:
            return self._atom_inverse(n, ts_arr, midpoint_at_zero)
        key = (n, midpoint_at_zero, ts_arr.tobytes())   # the t budget follows from ts
        last = self._last
        if last is not None and last[0] == key:
            return last[1].copy()
        state = self._state(ts_arr)
        sn = (self.sigma + 1j * state.y_nodes) ** n if n else 1.0
        wg = state.h * sn * state.g_vals
        step = uniform_step(ts_arr, CHIRP_MIN_POINTS)
        k = np.rint(state.y_nodes / state.h).astype(np.int64)
        if step is not None and np.max(np.abs(k), initial=0) + ts_arr.size < CHIRP_MAX_INDEX:
            kernel = "chirp_z"
            # h is pi/budget over a power of two, so h/4pi is exact and
            # c = step h/4pi carries no rounding beyond that of step
            out = _chirp_z(k, wg, ts_arr[0] * state.y_nodes,
                           step * (state.h / (4.0 * math.pi)), ts_arr.size)
        else:
            kernel = "blocked"
            # h/2pi is a power of two, so the turns c = t h/2pi are exact
            out = _blocked_sums(k, wg, ts_arr * (state.h / (2.0 * math.pi)))
        self._evaluations[kernel] += 1
        out *= np.exp(self.sigma * ts_arr) / (2.0 * math.pi)
        out += self._atom_inverse(n, ts_arr, midpoint_at_zero)
        stored = out.copy()
        stored.flags.writeable = False
        self._last = (key, stored)
        return out

    def _atom_inverse(self, n: int, ts: np.ndarray, midpoint_at_zero: bool) -> np.ndarray:
        """n-th derivative of the blocks' inverse transform; at t = 0 with
        midpoint_at_zero and n = 0, the jump midpoint, half the sum of the
        blocks' first coefficients."""
        out = _exp_poly_derivative(self.blocks, n, ts)
        if midpoint_at_zero and n == 0:
            out[ts == 0.0] = sum(coeffs[0] for _, coeffs in self.blocks) * 0.5
        return out

    def diagnostics(self) -> dict:
        """The fit and its certificates; n_nodes and est_quad_error of the
        largest budget's state; and per budget, that state's."""
        budgets = sorted(self._states.items())
        return {
            "atom_exact": self.atom_exact,
            "atom_matched": self.atom_matched,
            "certified_order": self.certified_order,
            "remainder_decay_exponent": self.alpha_g,
            "tail_estimate": self.tail_estimate,
            "est_quad_error": budgets[-1][1].est_quad_error,
            "n_nodes": int(budgets[-1][1].y_nodes.size),
            "reference_pole": -self.b,
            "poles": list(self.poles),
            "coefficient_error": self.coefficient_error,
            "t_evaluations": dict(self._evaluations),
            "budgets": {budget: {"n_nodes": int(state.y_nodes.size),
                                 "est_quad_error": state.est_quad_error}
                        for budget, state in budgets},
        }


def bromwich_invert(F: Callable, t, cfg: BromwichConfig | None = None):
    """Inverse Laplace transform of F at t >= 0 (scalar or array).

    A census closed form (LineSampler) holds at any cfg.sigma; on the
    noded line, cfg.sigma must lie right of every singularity of F.
    At t = 0 the truncated Fourier integral returns the midpoint of the
    jump, half the one-sided limit for a transform like 1/(s+1).
    """
    cfg = cfg or BromwichConfig()
    ts = np.asarray(t, dtype=np.float64)
    _check_times(ts)
    vals = LineSampler(F, cfg, float(np.max(ts, initial=0.0))).values(np.atleast_1d(ts))
    return complex(vals[0]) if ts.ndim == 0 else vals


def hardy_norm(F: Callable, p: float = 2.0, x: float = 0.0,
               y_max: float = BromwichConfig.y_max) -> float:
    """Truncated vertical-line mean mu_p(F, x) on |y| <= y_max, by the
    trapezoid rule on HARDY_NODES points.

    Raises on a bad p, x or y_max, on non-finite samples, on a pole spiking
    next to the line, and on integrands whose decay cannot give a finite p-mean.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got x = {x}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    BromwichConfig(y_max=y_max)   # refuses a y_max that is not positive and finite
    ys = np.linspace(-y_max, y_max, HARDY_NODES)
    vals = _values_on(F, x + 1j * ys)
    mods = np.abs(vals)
    if not np.all(np.isfinite(mods)):
        raise ValueError("divergent truncated Hardy integral: non-finite samples on the line")
    interior = mods[1:-1]
    spike = interior > 50.0 * np.maximum(mods[:-2], mods[2:])
    # np.median's value, without its import of numpy.ma
    part = np.partition(mods, [(mods.size - 1) // 2, mods.size // 2])
    median = (part[(mods.size - 1) // 2] + part[mods.size // 2]) / 2
    if np.any(spike & (interior > 100.0 * median)):
        raise ValueError("divergent truncated Hardy integral: pole adjacent to the line")
    half = ys > y_max / 4.0
    alpha, _, _ = _power_fit(ys[half], mods[half])
    if not alpha > 1.0 / p:
        raise ValueError(
            f"Hardy integrand decay exponent {alpha:.3f} is too small for a finite p-mean"
        )
    integral = float(np.trapezoid(mods ** p, ys)) / (2.0 * math.pi)
    return float(integral ** (1.0 / p))


def hardy_membership(F: Callable, p: float = 2.0, x_grid=(0.01, 0.1, 1.0),
                     y_max: float = BromwichConfig.y_max) -> dict:
    """Membership diagnostic: mu_p over an x-grid, flagging growth as x -> 0+."""
    mus: list[float] = []
    flags: list[str] = []
    for x in x_grid:
        try:
            mus.append(hardy_norm(F, p, float(x), y_max))
        except ValueError as exc:
            mus.append(math.inf)
            flags.append(f"x={x:g}: {exc}")
    finite = [m for m in mus if math.isfinite(m)]
    sup = max(finite) if finite else math.inf
    growth = 0.0
    if len(x_grid) >= 2 and all(math.isfinite(m) and m > 0 for m in mus[:2]):
        growth = math.log(mus[0] / mus[1]) / math.log(x_grid[1] / x_grid[0])
    unbounded = bool(flags) or (growth > 0.25 and mus[0] > 3.0 * mus[-1])
    return {
        "x_grid": tuple(float(x) for x in x_grid),
        "mu_values": mus,
        "sup": sup,
        "growth_exponent": growth,
        "bounded": not unbounded,
        "flags": flags,
    }
