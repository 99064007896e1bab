"""Solvers for the nonlocal equation f(d/dt) phi = J on t >= 0.

Three entry points share the same transform-side machinery:

- solve_generalized inverts (L(J) + r)/f directly on the contour line;
- solve_with_poles splits the solution into a Bromwich part from L(J)/f
  and residue polynomials of r/f at declared poles;
- solve_classical_ivp constructs the residue coefficients, and with them
  the generalized initial condition r0, from finitely many local initial
  values.

Each first drains hypothesis_gates, the ordered solvability checks that
`nlode diagnose` prints, and raises HypothesisError at the first FAIL.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .symbols import (
    Add,
    AnalyticSymbol,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    cauchy_taylor_at,
    eval_symbol,
)
from .transforms import (
    BromwichConfig,
    Forcing,
    get_line_sampler,
    hardy_membership,
    smoothness_order,
    verify_forcing,
)

CONDITION_LIMIT = 1e10
DECAY_EXPONENT_MIN = 0.05
LAURENT_TOL = 1e-11
DECAY_RADII = (1e2, 1e3, 1e4)
ZERO_COUNT_CAP = 64


class HypothesisError(RuntimeError):
    """A solvability hypothesis failed; carries the diagnostic report."""

    def __init__(self, message: str, report: dict | None = None) -> None:
        super().__init__(message)
        self.report = dict(report or {})


@dataclass(frozen=True)
class PoleSpec:
    """Declared poles (omega_i, order r_i) of r/f, all left of the axis."""

    poles: tuple

    def __post_init__(self) -> None:
        normalized = tuple((complex(w), int(r)) for w, r in self.poles)
        object.__setattr__(self, "poles", normalized)
        for omega, order in normalized:
            if order < 1:
                raise ValueError(f"pole order must be positive, got {order}")
            if not omega.real < 0:
                raise ValueError(
                    f"pole {omega} must lie strictly left of the imaginary axis"
                )
        for i, (wi, _) in enumerate(normalized):
            for wj, _ in normalized[i + 1:]:
                if abs(wi - wj) <= 1e-9:
                    raise ValueError("poles must be pairwise distinct")

    @property
    def K(self) -> int:
        return sum(order for _, order in self.poles)

    @property
    def omegas(self) -> tuple:
        return tuple(w for w, _ in self.poles)


@dataclass(frozen=True)
class ResiduePolynomials:
    """Per-pole coefficients (a_1 .. a_r) of P(t) = sum a_j t^{j-1}/(j-1)!."""

    coefficients: tuple

    def __post_init__(self) -> None:
        normalized = tuple(tuple(complex(a) for a in block) for block in self.coefficients)
        object.__setattr__(self, "coefficients", normalized)

    @staticmethod
    def zeros(poles: PoleSpec) -> "ResiduePolynomials":
        return ResiduePolynomials(tuple((0j,) * order for _, order in poles.poles))


@dataclass(frozen=True)
class GeneralizedIC:
    """Generalized initial condition r, with the provenance of its construction."""

    r: object
    provenance: str = "user-supplied"

    def __post_init__(self) -> None:
        allowed = {"user-supplied", "constructed-from-IVP"}
        if self.provenance not in allowed:
            raise ValueError(f"provenance must be one of {sorted(allowed)}")
        if not (isinstance(self.r, AnalyticSymbol) or callable(self.r)):
            raise ValueError("r must be an AnalyticSymbol or a callable")

    def eval(self, s):
        if isinstance(self.r, AnalyticSymbol):
            return eval_symbol(self.r, s)
        return self.r(s)

    @property
    def is_zero(self) -> bool:
        return isinstance(self.r, AnalyticSymbol) and isinstance(self.r.expr, Const) \
            and self.r.expr.value == 0


def zero_ic() -> GeneralizedIC:
    return GeneralizedIC(AnalyticSymbol(Const(0j)), "user-supplied")


@dataclass(frozen=True)
class ClassicalIVP:
    """Symbol, forcing, declared poles, and K local initial values at 0."""

    f: AnalyticSymbol
    forcing: Forcing
    poles: PoleSpec
    initial_values: tuple

    def __post_init__(self) -> None:
        values = tuple(complex(v) for v in self.initial_values)
        object.__setattr__(self, "initial_values", values)
        if self.poles.K < 1:
            raise ValueError("a classical IVP needs at least one pole")
        if len(values) != self.poles.K:
            raise ValueError(
                f"initial_values must have length K = {self.poles.K}, got {len(values)}"
            )


def residue_sum_eval(rp: ResiduePolynomials, poles: PoleSpec, t):
    """Sum of P_i(t) e^{omega_i t}, each polynomial evaluated in Horner form."""
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.zeros(ts.shape, dtype=np.complex128)
    for (omega, order), coeffs in zip(poles.poles, rp.coefficients):
        if len(coeffs) != order:
            raise ValueError("coefficient block length must match the pole order")
        poly = np.zeros(ts.shape, dtype=np.complex128)
        for j in range(order, 0, -1):
            poly = poly * ts + coeffs[j - 1] / math.factorial(j - 1)
        out += poly * np.exp(omega * ts)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(out[0])
    return out


def residue_derivative_values(rp: ResiduePolynomials, poles: PoleSpec, n: int, t):
    """n-th t-derivative of the residue sum, exact via the Leibniz rule."""
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.zeros(ts.shape, dtype=np.complex128)
    for (omega, order), coeffs in zip(poles.poles, rp.coefficients):
        inner = np.zeros(ts.shape, dtype=np.complex128)
        for k in range(0, min(n, order - 1) + 1):
            poly = np.zeros(ts.shape, dtype=np.complex128)
            for j in range(order, k, -1):
                poly = poly * ts + coeffs[j - 1] / math.factorial(j - 1 - k)
            inner += math.comb(n, k) * omega ** (n - k) * poly
        out += inner * np.exp(omega * ts)
    return out


@dataclass
class Solution:
    """Bromwich part plus residue part, with the diagnostics of the solve."""

    f: AnalyticSymbol
    forcing: Forcing
    gic: GeneralizedIC | None
    config: BromwichConfig
    bromwich_transform: Callable | None
    poles: PoleSpec | None = None
    residue: ResiduePolynomials | None = None
    diagnostics: dict = field(default_factory=dict)

    _RICHARDSON_H = 1e-3
    _RICHARDSON = ((1.0, 8.0 / 3.0), (2.0, -2.0), (4.0, 1.0 / 3.0))

    def _sampler(self, t_max: float):
        return get_line_sampler(self.bromwich_transform, self.config, t_max)

    def bromwich_part(self, t) -> np.ndarray:
        """Inverse transform of the Bromwich factor; one-sided value at t = 0."""
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self.bromwich_transform is None:
            return np.zeros(ts.shape, dtype=np.complex128)
        sampler = self._sampler(float(np.max(ts, initial=1.0)))
        vals = sampler.values(ts)
        at_zero = ts == 0.0
        if np.any(at_zero):
            # the truncated line integral lands on the jump midpoint at t = 0;
            # extrapolate the one-sided limit from inside the support instead
            probe = np.array([h for h, _ in self._RICHARDSON]) * self._RICHARDSON_H
            pv = sampler.values(probe)
            limit = sum(w * pv[i] for i, (_, w) in enumerate(self._RICHARDSON))
            vals = np.where(at_zero, limit, vals)
        return vals

    def residue_part(self, t) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if self.poles is None or self.residue is None:
            return np.zeros(ts.shape, dtype=np.complex128)
        return np.asarray(residue_sum_eval(self.residue, self.poles, ts))

    def eval_parts(self, t) -> tuple[np.ndarray, np.ndarray]:
        return self.bromwich_part(t), self.residue_part(t)

    def eval(self, t):
        bro, res = self.eval_parts(t)
        total = bro + res
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(total[0])
        return total

    __call__ = eval

    def derivative_order_limit(self) -> int:
        """Largest derivative order the Bromwich moments support."""
        if self.bromwich_transform is None:
            return 10 ** 6
        return self._sampler(1.0).certified_order

    def nth_derivative(self, n: int, t) -> np.ndarray:
        """n-th derivative of the solution on t > 0 (t >= 0 for n = 0)."""
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if n == 0:
            return self.bromwich_part(ts) + self.residue_part(ts)
        out = np.zeros(ts.shape, dtype=np.complex128)
        if self.bromwich_transform is not None:
            sampler = self._sampler(float(np.max(ts, initial=1.0)))
            out += sampler.derivative_values(n, ts)
        if self.poles is not None and self.residue is not None:
            out += residue_derivative_values(self.residue, self.poles, n, ts)
        return out


def _as_gic(r) -> GeneralizedIC:
    if isinstance(r, GeneralizedIC):
        return r
    if r is None:
        return zero_ic()
    return GeneralizedIC(r, "user-supplied")


def _symbol_eval(f) -> Callable:
    if isinstance(f, AnalyticSymbol):
        return lambda s: eval_symbol(f, s)
    if callable(f):
        return f
    raise ValueError("symbol must be an AnalyticSymbol or a callable")


def decay_fit(g: Callable, radii=DECAY_RADII) -> dict:
    """Empirical decay fit |g| ~ C |s|^{-q} on 8 rays at large |s|.

    The rays cover the closed right half-plane, where the inversion
    theory needs the bound; symbols like exp(s) make r/f grow to the
    left, which is harmless.
    """
    angles = np.array([0.125, -0.125, 0.25, -0.25, 0.375, -0.375, 0.5, -0.5]) * math.pi
    points = np.array([r * np.exp(1j * a) for r in radii for a in angles])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.abs(np.asarray(g(points), np.complex128))
    mask = np.isfinite(vals) & (vals > 0)
    n_finite = int(mask.sum())
    if n_finite < 6:
        raise HypothesisError(
            "decay check failed: fewer than 6 finite probes of r/f at large |s|"
        )
    lx = np.log(np.abs(points[mask]))
    lv = np.log(vals[mask])
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, lv, rcond=None)
    return {"q": -float(slope), "C": float(math.exp(min(intercept, 700.0))), "n_finite": n_finite}


def laurent_coefficients(g: Callable, omega: complex, order: int, radius: float) -> list:
    """Laurent coefficients a_k = (1/2*pi*i) contour integral of g (s-omega)^{k-1}.

    Periodic trapezoid sums on the circle, with node doubling 64 -> 4096
    until the coefficients settle below 1e-11.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not radius > 0:
        raise ValueError("radius must be positive")
    omega = complex(omega)
    prev: np.ndarray | None = None
    n = 64
    while n <= 4096:
        theta = 2.0 * math.pi * np.arange(n) / n
        ring = np.exp(1j * theta)
        z = omega + radius * ring
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(g(z), np.complex128)
        if vals.shape != z.shape:
            vals = np.array([g(zz) for zz in z], np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("samples on the Laurent circle are not finite")
        ks = np.arange(1, order + 1)
        a = (radius ** ks / n) * (ring[:, None] ** ks[None, :] * vals[:, None]).sum(axis=0)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(a))))
            if float(np.max(np.abs(a - prev))) < LAURENT_TOL * scale:
                return [complex(v) for v in a]
        prev = a
        n *= 2
    raise ArithmeticError(
        "Laurent coefficients did not converge under node doubling; "
        "the circle may intersect another singularity"
    )


def _default_radii(poles: PoleSpec) -> list[float]:
    radii = []
    for i, (omega, _) in enumerate(poles.poles):
        others = [abs(omega - w) for j, (w, _) in enumerate(poles.poles) if j != i]
        rad = min(others) / 2.0 if others else math.inf
        radii.append(min(rad, abs(omega.real) / 2.0, 0.5))
    return radii

def _check_pole_orders(f_eval: Callable, poles: PoleSpec) -> None:
    """Every declared pole of r/f must be a zero of f of at least that order.

    With r analytic, r/f can only have poles at zeros of f; a declaration
    at a point where f does not vanish (or of higher order than the zero)
    would silently drop or invent residue terms.
    """
    for (omega, order), radius in zip(poles.poles, _default_radii(poles)):
        radius = min(radius, 0.4)
        coeffs = cauchy_taylor_at(f_eval, omega, order, radius=radius)
        scale = float(np.max(np.abs(coeffs)))
        if scale == 0.0:
            continue
        for k in range(order):
            if abs(coeffs[k]) > 1e-6 * scale:
                raise HypothesisError(
                    f"declared pole {omega} of order {order} needs a zero of the "
                    f"symbol of at least that order; the symbol's degree-{k} "
                    "Taylor coefficient there is not negligible"
                )


def assemble_ivp_system(ivp: ClassicalIVP, Ln) -> tuple[np.ndarray, np.ndarray]:
    """K x K system for the residue coefficients from the local initial values.

    Row n states phi_n = L_n + sum over poles and k of C(n,k) omega^k
    P_i^{(n-k)}(0); the unknowns are ordered a_{1,1}..a_{r_1,1}, a_{1,2}, ...
    """
    K = ivp.poles.K
    Ln = np.asarray(list(Ln), dtype=np.complex128)
    if Ln.shape != (K,):
        raise ValueError(f"need exactly K = {K} moments L_0..L_{{K-1}}")
    matrix = np.zeros((K, K), dtype=np.complex128)
    col = 0
    for omega, order in ivp.poles.poles:
        for j in range(1, order + 1):
            for n in range(K):
                e = n - j + 1
                if 0 <= e <= n:
                    matrix[n, col] = math.comb(n, e) * omega ** e
            col += 1
    rhs = np.asarray(ivp.initial_values, dtype=np.complex128) - Ln
    return matrix, rhs


def predict_derivative_at_zero(poles: PoleSpec, rp: ResiduePolynomials, n: int,
                               Ln_value: complex) -> complex:
    """phi^(n)(0+) = L_n + sum_i sum_k C(n,k) omega_i^k P_i^{(n-k)}(0)."""
    total = complex(Ln_value)
    for (omega, order), coeffs in zip(poles.poles, rp.coefficients):
        for k in range(n + 1):
            m = n - k
            if m <= order - 1:
                total += math.comb(n, k) * omega ** k * coeffs[m]
    return total


def derivatives_at_zero(fn: Callable, orders, h: float = 1e-3) -> list[complex]:
    """One-sided derivatives at 0+ from values on {h, 2h, ...}, 4th order.

    Stencil weights come from a small Vandermonde solve on nodes k*h,
    k = 1..n+4, exact through degree n+3.  Higher orders use a larger h
    to keep the h^{-n} noise amplification in check.
    """
    out = []
    for n in orders:
        n = int(n)
        step = h if n <= 1 else h * 10.0
        m = n + 4
        ks = np.arange(1, m + 1, dtype=np.float64)
        V = np.vander(ks, m, increasing=True).T  # V[p, j] = k_j^p
        e = np.zeros(m)
        e[n] = math.factorial(n)
        w = np.linalg.solve(V, e) / step ** n
        ts = ks * step
        vals = np.asarray(fn(ts), np.complex128)
        if vals.shape != ts.shape:
            vals = np.array([fn(float(t)) for t in ts], np.complex128)
        out.append(complex(np.sum(w * vals)))
    return out


def _quotient(num: Callable, f_eval: Callable) -> Callable:
    """s -> num(s)/f(s); overflow and division by zero are left to the gates."""
    def q(s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.asarray(num(s), np.complex128) / np.asarray(f_eval(s), np.complex128)
    return q


def _transforms(f_eval: Callable, J: Forcing, gic: GeneralizedIC, split: bool) -> tuple:
    """(F, g): the transform the solve inverts, and r/f; each None when zero.

    Without declared poles F = (L(J) + r)/f.  With them (split) F = L(J)/f,
    and r/f goes to the residues at the poles instead.
    """
    g = None if gic.is_zero else _quotient(gic.eval, f_eval)
    if split:
        F = None if J.is_zero else _quotient(J.laplace, f_eval)
    elif J.is_zero and gic.is_zero:
        F = None
    else:
        F = _quotient(lambda s: np.asarray(J.laplace(s), np.complex128)
                      + np.asarray(gic.eval(s), np.complex128), f_eval)
    return F, g


def _verdict(ok: bool, passed: str, failed: str) -> tuple[str, str]:
    return ("PASS", passed) if ok else ("FAIL", failed)


def _gate_rows(f, J: Forcing, F, g, cfg: BromwichConfig, poles, initial_values):
    f_eval = _symbol_eval(f)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near = np.abs(np.asarray(f_eval(np.array([1e-1, 1e-2, 1e-3, 1e-4]) + 0j), np.complex128))
        on_line = np.abs(np.asarray(
            f_eval(cfg.sigma + 1j * np.linspace(-cfg.y_max, cfg.y_max, 513)), np.complex128))
    ok = bool(np.all(np.isfinite(near))) and near[-1] <= 100.0 * max(1.0, near[0])
    yield ("analytic-right-half-plane", *_verdict(
        ok, "|f| bounded near the axis", f"|f| grows to {near[-1]:.3e} approaching the axis"), None)

    finite = on_line[np.isfinite(on_line)]
    if finite.size == 0:
        yield ("contour-nonvanishing", "FAIL",
               "symbol is not finite anywhere on the contour line", None)
    else:
        ok = float(np.min(finite)) >= 1e-8 * float(np.median(finite))
        yield ("contour-nonvanishing", *_verdict(
            ok, f"Re(s) = {cfg.sigma:g}",
            f"symbol vanishes on the contour line Re(s) = {cfg.sigma:g}; shift sigma"), None)

    if J.closed_form_laplace is None:
        yield ("forcing-transform", "FAIL",
               "forcing needs a closed-form transform on the contour line", None)
    elif J.is_zero:
        yield "forcing-transform", "PASS", "zero forcing", None
    else:
        try:
            # probe where the solve uses the transform: on and right of the contour
            check = verify_forcing(J, re_min=cfg.sigma)
        except (ValueError, ArithmeticError) as exc:
            check = {"ok": False, "max_error": math.nan, "reason": str(exc)}
        error = f"max probe error {check['max_error']:.3e}"
        yield ("forcing-transform", *_verdict(
            check["ok"], error,
            f"closed-form transform of the forcing fails its quadrature check: "
            f"{check.get('reason', error)}"), None)

    what = "(L(J) + r)/f" if poles is None else "L(J)/f"
    if F is None and poles is None:
        yield ("hardy-membership", "FAIL",
               "both J and r vanish; the solution is identically zero", None)
    elif F is None:
        yield "hardy-membership", "SKIP", "J = 0: no Bromwich part", None
    else:
        x_grid = tuple(sorted({0.01, 0.1, min(1.0, cfg.sigma), cfg.sigma}))
        report = hardy_membership(F, 2.0, x_grid=x_grid, y_max=cfg.y_max)
        yield ("hardy-membership", *_verdict(
            report["bounded"], f"sup mu_2 = {report['sup']:.4e} for {what}",
            f"Hardy membership fails for {what}: line means are not uniformly bounded"), report)

    if g is None:
        yield "decay-of-r-over-f", "SKIP", "r = 0", None
    else:
        try:
            fit = decay_fit(g)
        except HypothesisError as exc:
            yield "decay-of-r-over-f", "FAIL", str(exc), None
        else:
            yield ("decay-of-r-over-f", *_verdict(
                fit["q"] > DECAY_EXPONENT_MIN, f"fitted q = {fit['q']:.3f}",
                f"decay hypothesis fails: fitted exponent q = {fit['q']:.3f} is not positive"),
                fit)

    pairs = poles.poles if isinstance(poles, PoleSpec) else poles or ()
    if initial_values is None or F is None:
        yield ("smoothness-order", "SKIP",
               "no initial values" if initial_values is None else "J = 0: no Bromwich part", None)
    else:
        K = sum(order for _, order in pairs)
        M = smoothness_order(F, cfg.sigma, n_cap=max(K + 1, 6), y_max=cfg.y_max)
        yield ("smoothness-order", *_verdict(
            M >= K - 1, f"M = {M}, K = {K}",
            f"smoothness order M = {M} is below K - 1 = {K - 1}; "
            "the Bromwich part cannot match the requested initial data"), M)

    ivp = None
    if poles is None:
        yield "pole-constraints", "SKIP", "no declared poles", None
    else:
        try:
            spec = poles if isinstance(poles, PoleSpec) else PoleSpec(tuple(poles))
            _check_pole_orders(f_eval, spec)
            if initial_values is not None:
                ivp = ClassicalIVP(f, J, spec, initial_values)
            yield "pole-constraints", "PASS", f"K = {spec.K}", None
        except (HypothesisError, ValueError) as exc:
            yield "pole-constraints", "FAIL", str(exc), None

    if ivp is None:
        yield "conditioning", "SKIP", "no initial-value system", None
    else:
        cond = float(np.linalg.cond(assemble_ivp_system(ivp, np.zeros(ivp.poles.K))[0]))
        yield ("conditioning", *_verdict(
            cond <= CONDITION_LIMIT, f"condition number {cond:.3e}",
            f"non-generic pole configuration: system condition number {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}"), cond)


def hypothesis_gates(f, J: Forcing, cfg: BromwichConfig | None = None, r=None,
                     poles=None, initial_values=None):
    """The solvability hypotheses of one problem, checked in a fixed order.

    Yields rows (name, status, detail, data), status PASS, FAIL or SKIP,
    for: analytic-right-half-plane, contour-nonvanishing,
    forcing-transform, hardy-membership, decay-of-r-over-f,
    smoothness-order, pole-constraints and conditioning.  The arguments
    name the problem as the solvers take it: without poles the Hardy gate
    tests (L(J) + r)/f (solve_generalized); with poles, given as a
    PoleSpec or (omega, order) pairs, it tests L(J)/f (solve_with_poles);
    initial values add the classical IVP's smoothness and conditioning
    gates (solve_classical_ivp).  Each solver drains these rows and raises
    HypothesisError at the first FAIL.
    """
    gic = _as_gic(r)
    F, g = _transforms(_symbol_eval(f), J, gic, split=poles is not None)
    yield from _gate_rows(f, J, F, g, cfg or BromwichConfig(), poles, initial_values)


# row data kept in Solution.diagnostics, by gate
_DIAGNOSTIC_KEYS = {
    "hardy-membership": "hardy",
    "decay-of-r-over-f": "r_over_f_decay",
    "smoothness-order": "smoothness_order",
    "conditioning": "condition_number",
}


def _run_gates(rows, mode: str) -> dict:
    """Drain gate rows into a diagnostics dict; raise at the first FAIL."""
    diagnostics: dict = {"mode": mode, "gates": []}
    for name, status, detail, data in rows:
        diagnostics["gates"].append((name, status, detail))
        if data is not None and name in _DIAGNOSTIC_KEYS:
            diagnostics[_DIAGNOSTIC_KEYS[name]] = data
        if status == "FAIL":
            raise HypothesisError(detail, diagnostics)
    return diagnostics


def solve_generalized(f: AnalyticSymbol, J: Forcing, r, cfg: BromwichConfig | None = None) -> Solution:
    """Solve f(d/dt) phi = J with generalized initial condition r.

    The solution transform is (L(J) + r)/f; it must be in the Hardy
    space, and r/f must decay at large |s| (see hypothesis_gates).
    """
    cfg = cfg or BromwichConfig()
    gic = _as_gic(r)
    F, g = _transforms(_symbol_eval(f), J, gic, split=False)
    diagnostics = _run_gates(_gate_rows(f, J, F, g, cfg, None, None), "generalized")
    return Solution(f, J, gic, cfg, F, diagnostics=diagnostics)


def solve_with_poles(f: AnalyticSymbol, J: Forcing, r, poles: PoleSpec,
                     cfg: BromwichConfig | None = None) -> Solution:
    """Residue-expansion solve: Bromwich part from L(J)/f, residue
    polynomials from the Laurent coefficients of r/f at the declared poles."""
    cfg = cfg or BromwichConfig()
    gic = _as_gic(r)
    F0, g = _transforms(_symbol_eval(f), J, gic, split=True)
    diagnostics = _run_gates(_gate_rows(f, J, F0, g, cfg, poles, None), "poles-given")
    if g is None:
        rp = ResiduePolynomials.zeros(poles)
    else:
        blocks = []
        for (omega, order), radius in zip(poles.poles, _default_radii(poles)):
            coeffs = laurent_coefficients(g, omega, order, radius)
            blocks.append(tuple(coeffs))
            top = abs(coeffs[-1])
            scale = max(1.0, max(abs(c) for c in coeffs))
            if order > 1 and top < 1e-10 * scale:
                warnings.warn(
                    f"pole order at {omega} may be overstated: leading Laurent "
                    f"coefficient {top:.2e} is negligible",
                    stacklevel=2,
                )
        rp = ResiduePolynomials(tuple(blocks))
    return Solution(f, J, gic, cfg, F0, poles=poles, residue=rp, diagnostics=diagnostics)


def solve_classical_ivp(ivp: ClassicalIVP, cfg: BromwichConfig | None = None
                        ) -> tuple[Solution, GeneralizedIC]:
    """Solve a classical IVP and return the solution plus the constructed r0.

    r0(s) = f(s) * sum a_{j,i} (j-1)! / (s - omega_i)^j, the closed-form
    transform of the residue part times f.
    """
    cfg = cfg or BromwichConfig()
    K = ivp.poles.K
    F0, _ = _transforms(_symbol_eval(ivp.f), ivp.forcing, zero_ic(), split=True)
    diagnostics = _run_gates(
        _gate_rows(ivp.f, ivp.forcing, F0, None, cfg, ivp.poles, ivp.initial_values),
        "classical-ivp",
    )
    if F0 is None:
        Ln = np.zeros(K, dtype=np.complex128)
    else:
        sampler = get_line_sampler(F0, cfg, 1.0)
        Ln = np.array([sampler.moment(n) for n in range(K)], dtype=np.complex128)
    diagnostics["Ln"] = [complex(v) for v in Ln]
    matrix, rhs = assemble_ivp_system(ivp, Ln)
    a = np.linalg.solve(matrix, rhs)

    blocks = []
    idx = 0
    for _, order in ivp.poles.poles:
        blocks.append(tuple(complex(v) for v in a[idx:idx + order]))
        idx += order
    rp = ResiduePolynomials(tuple(blocks))

    var = Var(ivp.f.var_name)
    tree = None
    for (omega, order), coeffs in zip(ivp.poles.poles, rp.coefficients):
        for j, a_j in enumerate(coeffs, start=1):
            term = Div(Const(a_j * math.factorial(j - 1)), Pow(Sub(var, Const(omega)), j))
            tree = term if tree is None else Add(tree, term)
    r0_tree = Mul(ivp.f.expr, tree if tree is not None else Const(0j))
    gic = GeneralizedIC(AnalyticSymbol(r0_tree, ivp.f.var_name), "constructed-from-IVP")

    def r0_over_f(s):
        return eval_symbol(AnalyticSymbol(tree, ivp.f.var_name), s) if tree is not None else 0j

    diagnostics["r0_over_f_decay"] = decay_fit(r0_over_f) if tree is not None else None

    solution = Solution(ivp.f, ivp.forcing, gic, cfg, F0,
                        poles=ivp.poles, residue=rp, diagnostics=diagnostics)

    recovered = derivatives_at_zero(solution.eval, range(K))
    errors = [abs(recovered[n] - ivp.initial_values[n]) for n in range(K)]
    diagnostics["initial_value_errors"] = errors
    if max(errors) > 1e-3:
        warnings.warn(
            f"initial values reproduced to only {max(errors):.2e}; "
            "check conditioning and quadrature settings",
            stacklevel=2,
        )
    return solution, gic


def _rect_tuple(rect) -> tuple[float, float, float, float]:
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in rect)
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("rectangle must have positive width and height")
    if re_hi > 0:
        raise ValueError("rectangle must lie in Re(s) <= 0")
    return re_lo, re_hi, im_lo, im_hi


def _boundary_winding(f_eval: Callable, rect: tuple, max_refine: int = 40) -> int:
    """Winding number of f around the rectangle boundary by argument tracking."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = np.array(
        [re_lo + 1j * im_lo, re_hi + 1j * im_lo, re_hi + 1j * im_hi,
         re_lo + 1j * im_hi, re_lo + 1j * im_lo]
    )
    params = np.linspace(0.0, 4.0, 65)

    def to_points(u):
        seg = np.clip(np.floor(u).astype(int), 0, 3)
        frac = u - seg
        return corners[seg] * (1 - frac) + corners[seg + 1] * frac

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(f_eval(to_points(params)), np.complex128)
    for _ in range(max_refine):
        if not np.all(np.isfinite(vals)) or np.any(np.abs(vals) < 1e-300):
            raise ValueError(
                "zero on or near the rectangle boundary; perturb the rectangle"
            )
        dargs = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dargs) >= math.pi / 2.0
        if not np.any(bad):
            total = float(np.sum(dargs))
            winding = total / (2.0 * math.pi)
            if abs(winding - round(winding)) > 0.2:
                raise ValueError(
                    "zero on or near the rectangle boundary; perturb the rectangle"
                )
            return int(round(winding))
        mids = 0.5 * (params[:-1][bad] + params[1:][bad])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mvals = np.asarray(f_eval(to_points(mids)), np.complex128)
        params = np.concatenate([params, mids])
        order = np.argsort(params)
        params = params[order]
        vals = np.concatenate([vals, mvals])[order]
    raise ValueError("zero on or near the rectangle boundary; perturb the rectangle")


def _newton_refine(f_eval: Callable, z0: complex, multiplicity: int) -> complex:
    z = complex(z0)
    for _ in range(80):
        fz = complex(np.asarray(f_eval(np.complex128(z))))
        coeffs = cauchy_taylor_at(f_eval, z, 1, radius=1e-3, n_nodes=32)
        dfz = coeffs[1]
        if dfz == 0:
            break
        step = multiplicity * fz / dfz
        z -= step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            break
    return z


def find_zeros(f, rect, max_zeros: int = ZERO_COUNT_CAP) -> list[tuple[complex, int]]:
    """Zeros of f (with multiplicities) inside a rectangle in Re(s) <= 0.

    Argument-principle counts on the boundary drive a quadrisection; cells
    holding a single cluster are polished by multiplicity-aware Newton.
    """
    f_eval = _symbol_eval(f)
    rect = _rect_tuple(rect)
    total = _boundary_winding(f_eval, rect)
    if total == 0:
        return []
    if total > max_zeros:
        raise ValueError(f"zero count {total} exceeds the cap {max_zeros}")

    found: list[tuple[complex, int]] = []
    stack = [(rect, total, 0)]
    shifts = (0.0, 0.07, -0.05, 0.11)
    while stack:
        cell, count, depth = stack.pop()
        re_lo, re_hi, im_lo, im_hi = cell
        diam = max(re_hi - re_lo, im_hi - im_lo)
        if count == 1 and diam <= 0.25 or diam <= 1e-4:
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            zero = _newton_refine(f_eval, center, count)
            pad = 10.0 * diam
            if not (re_lo - pad <= zero.real <= re_hi + pad
                    and im_lo - pad <= zero.imag <= im_hi + pad):
                zero = center
            found.append((zero, count))
            continue
        if depth > 48:
            raise ArithmeticError("zeros could not be isolated by bisection")
        for shift in shifts:
            re_mid = 0.5 * (re_lo + re_hi) + shift * (re_hi - re_lo)
            im_mid = 0.5 * (im_lo + im_hi) + shift * (im_hi - im_lo)
            children = [
                (re_lo, re_mid, im_lo, im_mid),
                (re_mid, re_hi, im_lo, im_mid),
                (re_lo, re_mid, im_mid, im_hi),
                (re_mid, re_hi, im_mid, im_hi),
            ]
            try:
                counts = [_boundary_winding(f_eval, child) for child in children]
            except ValueError:
                continue
            if sum(counts) != count:
                continue
            for child, c in zip(children, counts):
                if c > 0:
                    stack.append((child, c, depth + 1))
            break
        else:
            raise ValueError(
                "zero on or near the rectangle boundary; perturb the rectangle"
            )

    merged: list[tuple[complex, int]] = []
    for zero, mult in sorted(found, key=lambda zm: (zm[0].real, zm[0].imag)):
        if merged and abs(merged[-1][0] - zero) < 1e-7:
            merged[-1] = (merged[-1][0], max(merged[-1][1], mult))
        else:
            merged.append((zero, mult))
    return merged
