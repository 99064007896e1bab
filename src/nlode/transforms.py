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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .special_functions import uniform_step
from .symbols import (
    Add,
    AnalyticSymbol,
    Const,
    Div,
    Exp,
    Mul,
    Pow,
    Sub,
    Var,
    eval_symbol,
    parse_expression,
)

_GL20 = leggauss(20)

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


@dataclass(frozen=True)
class BromwichConfig:
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


@dataclass(frozen=True)
class Forcing:
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


def _check_times(ts: np.ndarray) -> None:
    """Refuse a t that is not finite or negative, naming the first one."""
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


class LineSampler:
    """Samples of F on Re(s) = sigma, split into reference terms and remainder.

    Supports inverse-transform values, t = 0 moments, and derivatives of
    the inverse transform, all sharing one deterministic node set, which
    grows by step halving when a later t exceeds the t budget.  Moment
    orders are certified by regime: a transform whose reference-term fit is
    machine-exact everywhere supports orders up to N_ATOMS - 1; one matched
    only asymptotically supports orders up to MATCHED_MOMENT_ORDER (the
    far-window fit cannot identify higher reference coefficients, and a
    coefficient error pollutes the matching moment order directly); and a
    measurable remainder gates each order n by the estimated tail
    contribution of the un-integrated remainder beyond y_max, which scales
    like |g(y_max)| y_max^{n+1}.
    """

    def __init__(self, F: Callable, cfg: BromwichConfig, t_max: float = 1.0) -> None:
        if not math.isfinite(t_max):
            raise ValueError(f"t budget must be finite, got t_max = {t_max}")
        self.cfg = cfg
        self._evaluations = {"chirp_z": 0, "blocked": 0}   # t-evaluations per kernel
        # power-of-two t budgets, so the grid of a larger budget nests
        # under halving and an extension reuses every sample
        self.t_max = 1.0
        while self.t_max < t_max:
            self.t_max *= 2.0
        sigma, y_max = cfg.sigma, cfg.y_max
        self.sigma = sigma
        self.b = max(1.0, sigma)

        # Two-decade log-spaced window so the inverse-power columns separate
        # by scale; a narrow window makes them collinear and the fit chases
        # noise with huge cancelling coefficients.
        ys = np.geomspace(y_max, 100.0 * y_max, 128)
        ys = np.concatenate([-ys[::-1], ys])
        ss = sigma + 1j * ys
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(F(ss), np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ValueError("transform is not finite on the fit window beyond y_max")
        scale_f = float(np.max(np.abs(vals)))
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
        resid = vals - cols @ self.gammas

        scale_g = float(np.max(np.abs(resid)))
        alpha_f, _, _ = _power_fit(np.abs(ys), np.abs(vals))
        if scale_f > 0 and not (alpha_f > 0.05 or scale_f < 1e-300):
            raise ValueError(
                f"non-decaying integrand on the contour (fitted decay exponent {alpha_f:.3f})"
            )

        self.y_nodes, self.g_vals = np.zeros(0), np.zeros(0, np.complex128)
        self.atom_matched = scale_f < 1e-300 or scale_g <= 1e-12 * scale_f
        self.atom_exact = False
        if self.atom_matched:
            self.alpha_g = float(N_ATOMS + 1)
            self.tail_estimate = scale_g * y_max
            self.certified_order = MATCHED_MOMENT_ORDER
            s_probe = sigma + 1j * np.linspace(-y_max, y_max, 513)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                f_vals = np.asarray(F(s_probe), np.complex128)
            g_probe = np.abs(f_vals - self._reference(s_probe))
            f_probe = np.abs(f_vals)
            f_scale = float(np.max(f_probe)) if np.all(np.isfinite(f_probe)) else 0.0
            if scale_f < 1e-300 or (
                f_scale > 0 and float(np.max(g_probe)) <= 1e-12 * f_scale
            ):
                self.atom_exact = True
                self.alpha_g = math.inf
                self.certified_order = N_ATOMS - 1
                self.h, self.est_quad_error = 0.0, 0.0
                return
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
        self.h, self._mass = math.pi / self.t_max, 0.0
        self._lay(np.arange(-math.floor(y_max / self.h), math.floor(y_max / self.h) + 1))
        self._halve()
        self._settle()

    def copy(self) -> "LineSampler":
        """A sampler on the same nodes with its own t budget and evaluation
        counts (also deepcopy's).  The two share their arrays, made read-only:
        an extension rebinds them and never writes into them."""
        for shared in (self.gammas, self.y_nodes, self.g_vals):
            shared.flags.writeable = False
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, _evaluations=dict.fromkeys(self._evaluations, 0))
        return twin

    def __deepcopy__(self, memo) -> "LineSampler":
        return self.copy()

    def _reference(self, s: np.ndarray) -> np.ndarray:
        """Sum of the fitted reference terms gamma_k / (s + b)^k.

        With w = s + b and N = N_ATOMS, term k is gamma_k w^{N-k} / w^N:
        one division per node.  A power of two w^p squares w^{p/2}, and
        any other w^j is w^{j-p} w^p with p the largest power of two below
        j, so w^j is at most floor(log2 j) + 1 products deep, as with
        numpy's integer power.  Horner's rule in 1/w, or products of 1/w,
        round more at the small far-out terms and move the inverse
        transform measurably.
        """
        pw = [None, s + self.b]
        for j in range(2, N_ATOMS + 1):
            p = 1 << (j.bit_length() - 1)
            pw.append(pw[p // 2] * pw[p // 2] if p == j else pw[j - p] * pw[p])
        inv = 1.0 / pw[N_ATOMS]
        out = self.gammas[N_ATOMS - 1] * inv
        for k in range(1, N_ATOMS):
            out += self.gammas[k - 1] * (pw[N_ATOMS - k] * inv)
        return out

    def _lay(self, m: np.ndarray) -> None:
        """Append the level y = h*m, in level order, and update the node mass."""
        y = self.h * m
        s_line = self.sigma + 1j * y
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_vals = np.asarray(self._F(s_line), np.complex128)
        ref = self._reference(s_line)
        g = f_vals - ref
        if not np.all(np.isfinite(g)):
            raise ValueError("transform is not finite on the contour line")
        self._level = self.y_nodes.size
        self.y_nodes = np.concatenate([self.y_nodes, y])
        self.g_vals = np.concatenate([self.g_vals, g])
        # g = F - reference terms carries rounding of order eps*|F|, not
        # eps*|g|, so the rounding floor counts the reference terms too
        self._mass = 0.5 * self._mass + self.h * float(np.sum(np.abs(g) + np.abs(ref)))

    def _halve(self, change: float | None = None) -> None:
        self.h *= 0.5
        if 2 * math.floor(self.cfg.y_max / self.h) + 1 > MAX_LINE_NODES:
            last = "" if change is None else f" (last change {change:.3e})"
            raise ValueError(f"trapezoid rule on the contour did not settle within "
                             f"{MAX_LINE_NODES} nodes{last}")
        odd = np.arange(1, math.floor(self.cfg.y_max / self.h) + 1, 2)
        self._lay(np.concatenate([-odd[::-1], odd]))

    def _line_sums(self, probes: np.ndarray, start: int, stop: int | None) -> np.ndarray:
        k = np.rint(self.y_nodes[start:stop] / self.h).astype(np.int64)
        return _blocked_sums(k, self.g_vals[start:stop], probes * (self.h / (2.0 * math.pi)))

    def _settle(self) -> None:
        # Trapezoid rule on y = h*k, |y| <= y_max.  Its error at t is the
        # Poisson image sum_{k>=1} e^{-sigma k T} q(t + kT), T = 2*pi/h, whose
        # decay no step formula knows; so h is halved, from pi/t_max and
        # reusing the samples, until the values at the probe times settle:
        # the finest level against its coarse prefix, the grid at 2h.
        probes = np.linspace(0.0, self.t_max, LINE_PROBES)
        scale = np.exp(self.sigma * probes) / (2.0 * math.pi)
        coarse = 2.0 * self.h * self._line_sums(probes, 0, self._level)
        fine = 0.5 * coarse + self.h * self._line_sums(probes, self._level, None)
        while True:
            change = scale * np.abs(fine - coarse)
            floor = 64.0 * np.finfo(np.float64).eps * scale * self._mass
            if np.all(change <= np.maximum(self.cfg.quad_tol, floor)):
                self.est_quad_error = float(np.max(change))
                return
            self._halve(float(np.max(change)))
            coarse, fine = fine, 0.5 * fine + self.h * self._line_sums(probes, self._level, None)

    def _cover(self, ts: np.ndarray) -> None:
        """Double the t budget until it covers ts, settling the rule at it."""
        budget = self.t_max
        while budget < np.max(ts, initial=0.0):
            budget *= 2.0
        if budget > self.t_max:
            self.t_max = budget
            if not self.atom_exact:
                # a fresh build compares pi/(2 budget) with pi/budget first;
                # a grid already that fine is compared as it stands, so an
                # extension lays no node a fresh build would not.  Node order
                # is free: both line-sum kernels place a node by its index k.
                while self.h > math.pi / (2.0 * budget):
                    self._halve()
                self._settle()

    def _require_moment_order(self, n: int) -> None:
        if n > self.certified_order:
            raise ValueError(
                f"moment order {n} exceeds the certified order "
                f"{self.certified_order} for this transform"
            )

    def moment(self, n: int) -> complex:
        """(1/2*pi*i) integral s^n F(s) ds, the one-sided n-th derivative at 0."""
        self._require_moment_order(n)
        quad = np.sum(self.h * (self.sigma + 1j * self.y_nodes) ** n * self.g_vals)
        atoms = _exp_poly_derivative([(-self.b, self.gammas)], n, np.zeros(1))[0]
        return complex(atoms + quad / (2.0 * math.pi))

    def values(self, ts) -> np.ndarray:
        """Inverse transform at t >= 0; t = 0 returns the symmetric midpoint value."""
        return self._derivative_values(0, ts, midpoint_at_zero=True)

    def derivative_values(self, n: int, ts) -> np.ndarray:
        """n-th derivative of the inverse transform on t > 0; for n = 0 also
        at t = 0, where it returns the one-sided limit."""
        ts_arr = np.asarray(ts, dtype=np.float64)
        if n > 0 and np.any(ts_arr <= 0):
            raise ValueError("derivative sampling requires t > 0")
        self._require_moment_order(n)
        return self._derivative_values(n, ts, midpoint_at_zero=False)

    def _derivative_values(self, n: int, ts, midpoint_at_zero: bool) -> np.ndarray:
        """e^{sigma t}/2pi times the line sum of h (sigma + iy)^n g e^{ity},
        plus the reference terms' closed-form n-th derivative.

        The line sum has two kernels over the integer node index k = y/h.
        On an increasing grid of at least CHIRP_MIN_POINTS times, uniform
        to within a few ulp, it is a chirp-z transform (_chirp_z),
        O((N + J) log(N + J)) for N nodes and J times.  Any other t set
        (the derivative stencils at 0+, the residual sample, short or
        irregular grids) goes to the blocked kernel (_blocked_sums), with
        about 2 sqrt(N) phases and N multiply-adds per time.
        """
        ts_arr = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        _check_times(ts_arr)
        self._cover(ts_arr)
        sn = (self.sigma + 1j * self.y_nodes) ** n if n else 1.0
        wg = self.h * sn * self.g_vals
        step = uniform_step(ts_arr, CHIRP_MIN_POINTS)
        k = np.rint(self.y_nodes / self.h).astype(np.int64)
        if step is not None and np.max(np.abs(k), initial=0) + ts_arr.size < CHIRP_MAX_INDEX:
            self._evaluations["chirp_z"] += 1
            # h is pi/t_max over a power of two, so h/4pi is exact and
            # c = step h/4pi carries no rounding beyond that of step
            out = _chirp_z(k, wg, ts_arr[0] * self.y_nodes,
                           step * (self.h / (4.0 * math.pi)), ts_arr.size)
        else:
            self._evaluations["blocked"] += 1
            # h/2pi is a power of two, so the turns c = t h/2pi are exact
            out = _blocked_sums(k, wg, ts_arr * (self.h / (2.0 * math.pi)))
        out *= np.exp(self.sigma * ts_arr) / (2.0 * math.pi)
        out += self._atom_inverse(n, ts_arr, midpoint_at_zero)
        return out

    def _atom_inverse(self, n: int, ts: np.ndarray, midpoint_at_zero: bool) -> np.ndarray:
        """n-th derivative of the reference terms' inverse transform,
        sum_k gamma_k t^{k-1}/(k-1)! e^{-bt}; at t = 0 with midpoint_at_zero
        and n = 0, the jump midpoint gamma_1/2."""
        out = _exp_poly_derivative([(-self.b, self.gammas)], n, ts)
        if midpoint_at_zero and n == 0:
            out[ts == 0.0] = self.gammas[0] * 0.5
        return out

    def diagnostics(self) -> dict:
        return {
            "atom_exact": self.atom_exact,
            "atom_matched": self.atom_matched,
            "certified_order": self.certified_order,
            "remainder_decay_exponent": self.alpha_g,
            "tail_estimate": self.tail_estimate,
            "est_quad_error": self.est_quad_error,
            "n_nodes": int(self.y_nodes.size),
            "reference_pole": -self.b,
            "t_evaluations": dict(self._evaluations),
        }


def bromwich_invert(F: Callable, t, cfg: BromwichConfig | None = None):
    """Inverse Laplace transform of F at t >= 0 (scalar or array).

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

    Raises on non-finite samples, on a pole spiking next to the line, and
    on integrands whose decay cannot give a finite p-mean.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    if x < 0:
        raise ValueError("x must be nonnegative")
    ys = np.linspace(-y_max, y_max, HARDY_NODES)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(F(x + 1j * ys), np.complex128)
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
