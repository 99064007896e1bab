"""Solvers for the nonlocal equation f(d/dt) phi = J on t >= 0.

One entry point, solve(f, J, *, r, poles, initial_values, cfg), takes
the path its data select; the transform-side machinery is shared:

- r alone (or no data) inverts (L(J) + r)/f directly on the contour line;
- r with declared poles splits the solution into a Bromwich part from
  L(J)/f and residue polynomials of r/f at the poles;
- poles with local initial values constructs the residue coefficients,
  and with them the generalized initial condition r0, from the data.

solve_generalized, solve_with_poles and solve_classical_ivp name these
three paths.  solve first runs the rows of hypothesis_gates, the ordered
solvability checks that `nlode diagnose` prints: analytic-right-half-plane,
contour-nonvanishing, forcing-transform, hardy-membership,
decay-of-r-over-f, pole-constraints, conditioning and line-quadrature.
It raises HypothesisError at the first FAIL.  The last row builds the
one LineSampler of the solve, kept as solution.line; nothing else builds
one for a Solution.  With initial values that row is also the one judge
of the K moments L_0, ..., L_{K-1} the initial-value system needs: the
sampler that computes them must certify them.

Where f and the transform F the mode inverts are rational, one pole
census per pass decides the rows from coefficients (_census): the roots
of f's factors, and F's principal parts at the roots of its denominator
by polynomial arithmetic (transforms.rational_parts), accepted when F
minus their sum vanishes on the 513 contour probes.  f's poles and zeros
decide the first two rows and pole-constraints, the parts and the degree
gap of F decide hardy-membership, with the exact H^2 norm by Plancherel,
and the degrees of r/f its decay; the sampler is the closed form of the
parts, exact at every t, with no nodes, immutable and shared by every
replay.  A transcendental f or F (exp, zeta, a callable) and a census
that fails its check keep the sampled rules.  The residues of a rational
r/f at the declared poles are its census parts too, and a census pole
that the declared poles omit fails pole-constraints; any other principal
part, or Taylor coefficient of f at a declared pole, is taken on one
ring, laurent_coefficients.

solve and hypothesis_gates normalize their data once (_Problem) and
run one pass of the rows, which depend on f, J, r, the poles, cfg and
K, not on the initial values.  One slot keeps the _Problem of the last
pass with no callable in its data that ran to its end without zeta
warning; a problem of the same content replays it
(diagnostics["gates_reused"]).  It takes the pass's moment matrix M and
moments L_0, ..., L_{K-1}, so its data d cost one K x K solve
M a = d - L, and shares its sampler, whose t-budget states and last grid
evaluation are computed once per stored pass (LineSampler).  zeta warns
its own caller; the pass only notes the warning, in a list that a
context variable holds for that pass alone.
"""

from __future__ import annotations

import copy
import math
import sys
import warnings
from typing import Callable

import numpy as np

from .special_functions import _height_warnings
from .symbols import (
    ROOT_MERGE_TOL,
    Add,
    AnalyticSymbol,
    Call,
    Const,
    Div,
    Mul,
    Record,
    _values_on,
    _walk,
    degree_gap,
    laurent_coefficients,
    rational_form,
    rational_roots,
)
from .transforms import (
    BromwichConfig,
    Forcing,
    LineSampler,
    RationalParts,
    _block_decay,
    _contour_probes,
    _derivative_order,
    _exp_poly_derivative,
    _laplace_tree_from_terms,
    _power_fit,
    h2_norm,
    hardy_membership,
    rational_parts,
    verify_forcing,
)

CONDITION_LIMIT = 1e10
DECAY_EXPONENT_MIN = 0.05
DECAY_RADII = (1e2, 1e3, 1e4)
ZERO_COUNT_CAP = 64
DECLARED_POLE_TOL = 1e-6      # a census point this close to a declared pole is at it
WINDING_REFINE_CAP = 40


class HypothesisError(RuntimeError):
    """A solvability hypothesis failed; carries the diagnostic report."""

    def __init__(self, message: str, report: dict | None = None) -> None:
        super().__init__(message)
        self.report = dict(report or {})


class PoleSpec(Record):
    """Declared poles (omega_i, order r_i) of r/f, all finite and left of the axis."""

    poles: tuple

    def __post_init__(self) -> None:
        normalized = tuple((complex(w), int(r)) for w, r in self.poles)
        object.__setattr__(self, "poles", normalized)
        for omega, order in normalized:
            if not np.isfinite(omega):
                raise ValueError(f"pole {omega} is not finite")
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


class ResiduePolynomials(Record):
    """Per-pole coefficients (a_1 .. a_r) of P(t) = sum a_j t^{j-1}/(j-1)!."""

    coefficients: tuple

    def __post_init__(self) -> None:
        normalized = tuple(tuple(complex(a) for a in block) for block in self.coefficients)
        object.__setattr__(self, "coefficients", normalized)

    @staticmethod
    def zeros(poles: PoleSpec) -> "ResiduePolynomials":
        return ResiduePolynomials(tuple((0j,) * order for _, order in poles.poles))


class GeneralizedIC(Record):
    """Generalized initial condition r, with the provenance of its construction."""

    r: object
    provenance: str = "user-supplied"

    def __post_init__(self) -> None:
        allowed = {"user-supplied", "constructed-from-IVP"}
        if self.provenance not in allowed:
            raise ValueError(f"provenance must be one of {sorted(allowed)}")
        if not callable(self.r):
            raise ValueError("r must be an AnalyticSymbol or a callable")

    def eval(self, s):
        return self.r(s)

    @property
    def is_zero(self) -> bool:
        return isinstance(self.r, AnalyticSymbol) and isinstance(self.r.expr, Const) \
            and self.r.expr.value == 0


def zero_ic() -> GeneralizedIC:
    return GeneralizedIC(AnalyticSymbol(Const(0j)), "user-supplied")


class ClassicalIVP(Record):
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


def residue_derivative_values(rp: ResiduePolynomials, poles: PoleSpec, n: int, t):
    """n-th t-derivative of the residue sum, exact via the Leibniz rule."""
    _derivative_order(n)
    if any(len(c) != order for (_, order), c in zip(poles.poles, rp.coefficients)):
        raise ValueError("coefficient block length must match the pole order")
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return _exp_poly_derivative(zip(poles.omegas, rp.coefficients), n, ts)


class Solution(Record, frozen=False):
    """Bromwich part, from the sampler `line` that the line-quadrature gate
    built (None without one), plus residue part, with the solve's diagnostics
    (a new dict when not given)."""

    f: AnalyticSymbol
    forcing: Forcing
    gic: GeneralizedIC | None
    config: BromwichConfig
    line: LineSampler | None
    poles: PoleSpec | None = None
    residue: ResiduePolynomials | None = None
    diagnostics: dict | None = None

    def __post_init__(self) -> None:
        if self.diagnostics is None:
            self.diagnostics = {}

    def _parts(self, n: int, t) -> tuple[np.ndarray, np.ndarray]:
        """n-th t-derivatives of the Bromwich part (one-sided at t = 0) and
        of the residue part."""
        _derivative_order(n)
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        bro = (np.zeros(ts.shape, dtype=np.complex128) if self.line is None
               else self.line.derivative_values(n, ts))
        res = (np.zeros(ts.shape, dtype=np.complex128) if self.poles is None or self.residue is None
               else residue_derivative_values(self.residue, self.poles, n, ts))
        return bro, res

    def eval_parts(self, t) -> tuple[np.ndarray, np.ndarray]:
        return self._parts(0, t)

    def eval(self, t):
        bro, res = self._parts(0, t)
        total = bro + res
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(total[0])
        return total

    __call__ = eval

    def nth_derivative(self, n: int, t) -> np.ndarray:
        """n-th derivative of the solution on t > 0 (t >= 0 for n = 0)."""
        bro, res = self._parts(n, t)
        return bro + res


def decay_fit(g: Callable) -> dict:
    """Empirical decay fit |g| ~ C |s|^{-q} on 8 rays at |s| in DECAY_RADII.

    The rays cover the closed right half-plane, where the inversion
    theory needs the bound; symbols like exp(s) make r/f grow to the
    left, which is harmless.  A probe that overflows fails; a NaN is dropped.
    """
    angles = np.array([0.125, -0.125, 0.25, -0.25, 0.375, -0.375, 0.5, -0.5]) * math.pi
    points = np.array([r * np.exp(1j * a) for r in DECAY_RADII for a in angles])
    vals = np.abs(_values_on(g, points))
    if np.any(vals == np.inf):
        raise HypothesisError("decay check failed: r/f overflows at large |s| in Re(s) >= 0")
    n_finite = int(np.count_nonzero(np.isfinite(vals) & (vals > 0)))
    if n_finite < 6:
        raise HypothesisError(
            "decay check failed: fewer than 6 finite probes of r/f at large |s|"
        )
    q, c, _ = _power_fit(np.abs(points), vals)
    return {"q": q, "C": c, "n_finite": n_finite}


def _default_radii(poles: PoleSpec) -> list[float]:
    radii = []
    for i, (omega, _) in enumerate(poles.poles):
        others = [abs(omega - w) for j, (w, _) in enumerate(poles.poles) if j != i]
        rad = min(others) / 2.0 if others else math.inf
        radii.append(min(rad, abs(omega.real) / 2.0, 0.5))
    return radii


def _declared(w: complex, omega: complex) -> bool:
    """Whether a census point w is the declared pole omega."""
    return abs(w - omega) <= DECLARED_POLE_TOL * max(1.0, abs(omega))


def _check_pole_orders(f, poles: PoleSpec, zeros) -> None:
    """Every declared pole of r/f must be a zero of f of at least that order.

    With r analytic, r/f can only have poles at zeros of f; a declaration
    at a point where f does not vanish (or of higher order than the zero)
    would silently drop or invent residue terms.  The order of the zero is
    the multiplicity of the census zero at the pole when zeros holds f's
    census, else the first of f's Taylor coefficients there, on the ring
    of laurent_coefficients, above 1e-6 of the largest up to the order.
    """
    for (omega, order), radius in zip(poles.poles, _default_radii(poles)):
        if zeros is not None:
            have = next((m for w, m in zeros if _declared(w, omega)), 0)
        else:
            coeffs = np.abs(laurent_coefficients(f, omega, -order, radius))
            big = coeffs[:order] > 1e-6 * np.max(coeffs)
            have = int(np.argmax(big)) if big.any() else order
        if have < order:
            raise HypothesisError(
                f"declared pole {omega} of order {order} needs a zero of the symbol of at "
                f"least that order; the symbol has {f'a zero of order {have}' if have else 'no zero'} there"
            )


def assemble_ivp_system(ivp: ClassicalIVP, Ln) -> tuple[np.ndarray, np.ndarray]:
    """K x K system for the residue coefficients from the local initial values.

    Row n states phi_n = L_n + the n-th derivative at 0 of the residue
    part; the unknowns are ordered a_{1,1}..a_{r_1,1}, a_{1,2}, ...  Column
    (i, j) is that derivative of the part with a_{j,i} = 1 and every other
    coefficient 0, from the evaluator the solution itself uses.
    """
    K = ivp.poles.K
    Ln = np.asarray(list(Ln), dtype=np.complex128)
    if Ln.shape != (K,):
        raise ValueError(f"need exactly K = {K} moments L_0..L_{{K-1}}")
    units = [(omega, np.eye(order)[j]) for omega, order in ivp.poles.poles for j in range(order)]
    matrix = np.array([[_exp_poly_derivative([unit], n, np.zeros(1))[0] for unit in units]
                       for n in range(K)])
    rhs = np.asarray(ivp.initial_values, dtype=np.complex128) - Ln
    return matrix, rhs


def predict_derivative_at_zero(poles: PoleSpec, rp: ResiduePolynomials, n: int,
                               Ln_value: complex) -> complex:
    """phi^(n)(0+) = L_n + sum_i sum_k C(n,k) omega_i^k P_i^{(n-k)}(0)."""
    return complex(Ln_value) + complex(residue_derivative_values(rp, poles, n, 0.0)[0])


def _tree(x) -> object:
    """The expression tree of a symbol, or a Call leaf holding a callable."""
    if isinstance(x, AnalyticSymbol):
        return x.expr
    if callable(x):
        return Call(x)
    raise ValueError("symbol must be an AnalyticSymbol or a callable")


def _transforms(f, J: Forcing, gic: GeneralizedIC, split: bool) -> tuple:
    """(F, g): the transform the solve inverts, and r/f; each None when zero.

    Without declared poles F = (L(J) + r)/f.  With them (split) F = L(J)/f,
    and r/f goes to the residues at the poles instead.  Each is one tree
    over the trees of its parts, so a zeta node that r shares with f is
    evaluated once per point; overflow and division by zero are left to
    the gates.
    """
    f_node = _tree(f)

    def over_f(num) -> AnalyticSymbol:
        return AnalyticSymbol(Div(num, f_node))

    lj = _tree(J.laplace if J.closed_form_laplace is None else J.closed_form_laplace)
    r = _tree(gic.r)
    g = None if gic.is_zero else over_f(r)
    if split:
        F = None if J.is_zero else over_f(lj)
    elif J.is_zero and gic.is_zero:
        F = None
    else:
        F = over_f(Add(lj, r))
    return F, g


def _verdict(ok: bool, passed: str, failed: str) -> tuple[str, str]:
    return ("PASS", passed) if ok else ("FAIL", failed)


class _Problem:
    """The data of solve and hypothesis_gates, normalized once.  Initial
    values fix the residues at the declared poles, so they need poles and
    exclude r; anything else, or a value that is not finite, is a
    ValueError.  poles is None, a PoleSpec,
    or the ValueError of poles that PoleSpec refuses, which the
    pole-constraints row reports.  key is what the gate rows depend on:
    all data but the initial values' own values; None when a part is a
    callable, whose identity is never a key.  The pass sets census, matrix,
    Ln and, without initial values, the residues of r/f at the poles."""

    def __init__(self, f, J: Forcing, r, poles, initial_values, cfg) -> None:
        if initial_values is not None and (r is not None or poles is None):
            raise ValueError("initial values need declared poles and no r")
        self.f, self.J, self.cfg = f, J, cfg or BromwichConfig()
        self.gic = r if isinstance(r, GeneralizedIC) else zero_ic() if r is None else GeneralizedIC(r)
        self.values = None if initial_values is None else tuple(map(complex, initial_values))
        for n, v in enumerate(self.values or ()):
            if not np.isfinite(v):
                raise ValueError(f"initial value phi^({n})(0) = {v} is not finite")
        if poles is not None and not isinstance(poles, PoleSpec):
            try:
                poles = PoleSpec(tuple(poles))
            except ValueError as exc:
                poles = exc
        self.poles = poles
        self.F, self.g = _transforms(f, J, self.gic, split=poles is not None)
        parts = (f, self.gic.r, J.closed_form_laplace, J.j_eval)
        keyed = not isinstance(poles, ValueError) \
            and all(isinstance(x, AnalyticSymbol) for x in parts) \
            and not any(isinstance(node, Call) for x in parts for node in _walk(x.expr))
        K = None if self.values is None else len(self.values)
        self.key = (f, J, self.gic.r, poles, self.cfg, K) if keyed else None
        self.census, self.matrix, self.Ln = None, None, np.zeros(K or 0, np.complex128)
        self.residue = None


class _Census(Record):
    """What the coefficients decide for a rational f and F: f's zeros and
    poles (point, multiplicity), rightmost first, after common factors
    cancel, and F's census (transforms.rational_parts), None without F."""

    zeros: tuple
    poles: tuple
    F: RationalParts | None


def _census(p: _Problem) -> _Census | None:
    """The pole census of a pass, or None when f, or F, is not rational,
    or when F's parts fail their check on the contour probes: then every
    row samples.  A degree gap below 1 needs no parts to refuse F."""
    form = rational_form(_tree(p.f))
    if form is None:
        return None
    parts = None if p.F is None else rational_parts(p.F, p.cfg)
    if p.F is not None and (parts is None or parts.blocks is None and parts.gap >= 1):
        return None
    zeros, poles = rational_roots(form)
    return _Census(tuple(zeros), tuple(poles), parts)


def _on_axis(w: complex) -> bool:
    return abs(w.real) <= ROOT_MERGE_TOL * max(1.0, abs(w))


def _residues(p: _Problem) -> ResiduePolynomials:
    """r/f's residue polynomials at the declared poles: its census parts
    (transforms.rational_parts), each zero-padded to its declared order,
    when r/f is rational and its census passes its check, else on rings
    (laurent_coefficients).  A census pole of r/f that no declared pole
    holds at its order raises HypothesisError: its residue would be
    dropped."""
    if p.g is None:
        return ResiduePolynomials.zeros(p.poles)
    parts = rational_parts(p.g, p.cfg)
    if parts is None or parts.blocks is None:
        return ResiduePolynomials(tuple(
            tuple(laurent_coefficients(p.g, omega, order, radius))
            for (omega, order), radius in zip(p.poles.poles, _default_radii(p.poles))))
    blocks = [(0j,) * order for _, order in p.poles.poles]
    for w, coeffs in parts.blocks:
        i = next((i for i, (omega, order) in enumerate(p.poles.poles)
                  if _declared(w, omega) and len(coeffs) <= order), None)
        if i is None:
            raise HypothesisError(f"r/f has a pole of order {len(coeffs)} at {_at([w])} "
                                  "that the declared poles omit")
        blocks[i] = coeffs + (0j,) * (len(blocks[i]) - len(coeffs))
    return ResiduePolynomials(tuple(blocks))


def _at(points) -> str:
    return "s = " + ", ".join(f"{w.real:.6g}" if w.imag == 0 else f"{w:.6g}" for w in points)


def _hypothesis_rows(p: _Problem):
    census = p.census = _census(p)
    sigma = p.cfg.sigma
    if census is None:
        yield from _sampled_symbol_rows(p)
    else:
        right = [w for w, _ in census.poles if w.real >= 0]
        yield ("analytic-right-half-plane", *_verdict(
            not right, "|f| bounded near the axis",
            f"symbol has a pole in Re(s) >= 0 at {_at(right)}"), None)
        on = [w for w, _ in census.zeros
              if abs(w.real - sigma) <= ROOT_MERGE_TOL * max(1.0, abs(w))]
        yield ("contour-nonvanishing", *_verdict(
            not on, f"Re(s) = {sigma:g}",
            f"symbol vanishes on the contour line Re(s) = {sigma:g} at {_at(on)}; shift sigma"),
            None)

    forcing_failed = p.J.closed_form_laplace is None
    if forcing_failed:
        yield ("forcing-transform", "FAIL",
               "forcing needs a closed-form transform on the contour line", None)
    elif p.J.is_zero:
        yield "forcing-transform", "PASS", "zero forcing", None
    else:
        try:
            # probe where the solve uses the transform: on and right of the contour
            check = verify_forcing(p.J, re_min=sigma)
        except (ValueError, ArithmeticError) as exc:
            check = {"ok": False, "max_error": math.nan, "reason": str(exc)}
        error = f"max probe error {check['max_error']:.3e}"
        forcing_failed = not check["ok"]
        yield ("forcing-transform", *_verdict(
            check["ok"], error,
            f"closed-form transform of the forcing fails its quadrature check: "
            f"{check.get('reason', error)}"), None)

    what = "(L(J) + r)/f" if p.poles is None else "L(J)/f"
    if p.F is None and p.poles is None:
        yield ("hardy-membership", "FAIL",
               "both J and r vanish; the solution is identically zero", None)
    elif p.F is None:
        yield "hardy-membership", "SKIP", "J = 0: no Bromwich part", None
    elif forcing_failed:
        yield "hardy-membership", "SKIP", "the forcing-transform gate failed", None
    elif census is None:
        x_grid = tuple(sorted({0.01, 0.1, min(1.0, sigma), sigma}))
        report = hardy_membership(p.F, 2.0, x_grid=x_grid, y_max=p.cfg.y_max)
        yield ("hardy-membership", *_verdict(
            report["bounded"], f"sup mu_2 = {report['sup']:.4e} for {what}",
            f"Hardy membership fails for {what}: line means are not uniformly bounded"), report)
    else:
        # ||F||_{H^2} is mu_2 at x = 0, the sup over x >= 0, by Plancherel.
        # Parts between the axis and the contour grow like e^{Re(omega) t},
        # which the line at sigma inverts: the norm is then F(sigma + .)'s
        parts = census.F
        blocks = parts.blocks or ()
        bad = [w for w, _ in blocks if w.real >= sigma or _on_axis(w)]
        growing = [w for w, _ in blocks if w.real > 0]
        ok = parts.gap >= 1 and not bad
        shift = sigma if growing else 0.0
        norm = h2_norm([(w - shift, coeffs) for w, coeffs in blocks]) if ok else math.inf
        report = {"sup": norm, "bounded": ok, "poles": [(w, len(coeffs)) for w, coeffs in blocks]}
        yield ("hardy-membership", *_verdict(
            ok, f"sup mu_2 = {norm:.4e} for {what}" if not growing else
            f"mu_2 = {norm:.4e} on Re(s) = {sigma:g} for {what}, "
            f"which grows: poles right of the axis at {_at(growing)}",
            f"Hardy membership fails for {what}: " + (
                f"pole on the axis or in Re(s) >= {sigma:g} at {_at(bad)}" if bad else
                f"its degree gap {parts.gap:g} is below 1, so it does not decay like 1/|s|")),
            report)

    if p.g is None:
        yield "decay-of-r-over-f", "SKIP", "r = 0", None
    else:
        form = None if census is None else rational_form(p.g.expr)
        try:
            fit = decay_fit(p.g) if form is None else {"q": degree_gap(form), "C": abs(form[0])}
        except HypothesisError as exc:
            yield "decay-of-r-over-f", "FAIL", str(exc), None
        else:
            yield ("decay-of-r-over-f", *_verdict(
                fit["q"] > DECAY_EXPONENT_MIN, f"fitted q = {fit['q']:.3f}",
                f"decay hypothesis fails: fitted exponent q = {fit['q']:.3f} is not positive"),
                fit)

    ivp = None
    if p.poles is None:
        yield "pole-constraints", "SKIP", "no declared poles", None
    elif isinstance(p.poles, ValueError):
        yield "pole-constraints", "FAIL", str(p.poles), None
    else:
        try:
            _check_pole_orders(p.f, p.poles, None if census is None else census.zeros)
            if p.values is not None:
                ivp = ClassicalIVP(p.f, p.J, p.poles, p.values)
            else:
                p.residue = _residues(p)
            yield "pole-constraints", "PASS", f"K = {p.poles.K}", None
        except (HypothesisError, ValueError, ArithmeticError) as exc:
            yield "pole-constraints", "FAIL", str(exc), None

    if ivp is None:
        yield "conditioning", "SKIP", "no initial-value system", None
    else:
        p.matrix = assemble_ivp_system(ivp, np.zeros(ivp.poles.K))[0]
        cond = float(np.linalg.cond(p.matrix))
        yield ("conditioning", *_verdict(
            cond <= CONDITION_LIMIT, f"condition number {cond:.3e}",
            f"non-generic pole configuration: system condition number {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}"), cond)


def _sampled_symbol_rows(p: _Problem):
    """The first two rows for an f the census does not decide: |f| on 4
    real probes approaching the axis, and on 513 points of the contour."""
    near = np.abs(_values_on(p.f, np.array([1e-1, 1e-2, 1e-3, 1e-4]) + 0j))
    on_line = np.abs(_values_on(p.f, _contour_probes(p.cfg)))
    ok = bool(np.all(np.isfinite(near))) and near[-1] <= 100.0 * max(1.0, near[0])
    yield ("analytic-right-half-plane", *_verdict(
        ok, "|f| bounded near the axis", f"|f| grows to {near[-1]:.3e} approaching the axis"), None)

    finite = np.isfinite(on_line)
    if not np.any(finite):
        yield ("contour-nonvanishing", "FAIL",
               "symbol is not finite anywhere on the contour line", None)
    else:
        # a zero is a sample at most 1e-8 of the larger of its finite
        # neighbours, 0 amid 0s included: |f| of a degree-6 polynomial spans
        # ten decades on |y| <= 200, so no one scale tells a zero from the centre
        level = np.where(finite, on_line, 0.0)
        neighbours = np.maximum(np.r_[0.0, level[:-1]], np.r_[level[1:], 0.0])
        ok = not np.any(finite & (level <= 1e-8 * neighbours))
        yield ("contour-nonvanishing", *_verdict(
            ok, f"Re(s) = {p.cfg.sigma:g}",
            f"symbol vanishes on the contour line Re(s) = {p.cfg.sigma:g}; shift sigma"), None)


def _line_row(p: _Problem, failed: bool) -> tuple:
    """The line-quadrature row: it builds the solve's one LineSampler as
    its data only when no earlier row failed, the closed form of the
    census parts for a rational F."""
    if p.F is None or failed:
        return ("line-quadrature", "SKIP",
                "J = 0: no Bromwich part" if p.F is None else "an earlier gate failed", None)
    try:
        line = LineSampler(p.F, p.cfg, parts=None if p.census is None else p.census.F)
    except ValueError as exc:
        return "line-quadrature", "FAIL", str(exc), None
    # the initial-value system needs the moments L_0 .. L_{K-1}
    K = p.Ln.size
    if line.certified_order >= K - 1:
        p.Ln = np.array([line.moment(n) for n in range(K)], np.complex128)
    return ("line-quadrature", *_verdict(
        line.certified_order >= K - 1,
        f"closed form at {len(line.poles)} poles, 0 nodes" if line.poles else
        f"{line.y_nodes.size} nodes, certified order {line.certified_order}",
        f"certified moment order {line.certified_order} is below K - 1 = {K - 1}; "
        "the Bromwich part cannot match the requested initial data"), line)


_checked: list = []  # [_Problem]: the one stored pass


def _checked_rows(p: _Problem, drain: bool) -> tuple[list, bool]:
    """The gate rows of a problem, up to the first FAIL unless drain, and
    whether they replay the stored pass; a replay gives p the stored M and
    L, and each caller its own deep copy of the rows (sharing the sampler).
    A pass is stored when it ran to its end, so a refused solve stores
    nothing, and zeta did not warn in it: zeta notes its warning in the
    list this pass sets, and warns its own caller as always."""
    for stored in _checked[:]:
        if stored.key == p.key:
            p.matrix, p.Ln, p.residue = stored.matrix, stored.Ln, stored.residue
            return copy.deepcopy(stored.rows), True
    rows, warned = [], []
    token = _height_warnings.set(warned)
    try:
        for row in _hypothesis_rows(p):
            rows.append(row)
            if row[1] == "FAIL" and not drain:
                return rows, False
        rows.append(_line_row(p, any(row[1] == "FAIL" for row in rows)))
    finally:
        _height_warnings.reset(token)
    if p.key is not None and not warned and (drain or rows[-1][1] != "FAIL"):
        p.rows = copy.deepcopy(rows)
        _checked[:] = [p]
    return rows, False


def hypothesis_gates(f, J: Forcing, *, r=None, poles=None, initial_values=None,
                     cfg: BromwichConfig | None = None) -> list:
    """The solvability hypotheses of one problem, checked in a fixed order.

    Returns the rows (name, status, detail, data), status PASS, FAIL or
    SKIP, of: analytic-right-half-plane, contour-nonvanishing,
    forcing-transform, hardy-membership, decay-of-r-over-f,
    pole-constraints, conditioning and line-quadrature.  The arguments are
    those of solve, and data that solve refuses raise the same ValueError
    here.  Without poles the Hardy gate tests (L(J) + r)/f; with poles,
    given as a PoleSpec or (omega, order) pairs, it tests L(J)/f; initial
    values add the classical IVP's conditioning gate.  The last row builds
    the LineSampler of that transform and carries it as its data; with
    initial values it also requires the sampler to certify the K moments
    L_0, ..., L_{K-1} the initial-value system needs.  It is SKIP without
    a Bromwich part or after a FAIL.
    solve runs these rows, raises HypothesisError at the first FAIL and
    inverts the transform with that sampler.  A problem with the content
    of the stored pass replays it (see the module docstring).
    """
    return _checked_rows(_Problem(f, J, r, poles, initial_values, cfg), drain=True)[0]


# row data kept in Solution.diagnostics, by gate
_DIAGNOSTIC_KEYS = {
    "hardy-membership": "hardy",
    "decay-of-r-over-f": "r_over_f_decay",
    "conditioning": "condition_number",
}


def solve(f, J: Forcing, *, r=None, poles=None, initial_values=None,
          cfg: BromwichConfig | None = None) -> Solution:
    """Solve f(d/dt) phi = J by the path its data select.

    r alone, or no data, is the generalized path (r = 0 when absent); r
    with poles, a PoleSpec or (omega, order) pairs, the residue split;
    poles with initial values phi(0), ..., phi^{K-1}(0), the classical
    IVP, whose constructed r0 becomes solution.gic.  r with initial
    values, initial values without poles, or an initial value that is
    not finite, is a ValueError.  With r and poles, a pole of a rational
    r/f that the declared poles omit fails pole-constraints; a pole of a
    transcendental r/f (exp, zeta, a callable) that they omit loses its
    residue, and nothing warns: only the declared points are checked.  The
    arguments are those of hypothesis_gates: their rows go to
    diagnostics["gates"], the first FAIL raises HypothesisError, and
    diagnostics["mode"] names the path (generalized, poles-given or
    classical-ivp), and diagnostics["gates_reused"] whether the rows
    replay a stored pass.
    """
    p = _Problem(f, J, r, poles, initial_values, cfg)
    mode = "generalized" if p.poles is None else \
        "poles-given" if p.values is None else "classical-ivp"
    rows, reused = _checked_rows(p, drain=False)
    diagnostics: dict = {"mode": mode, "gates": [], "gates_reused": reused}
    line = None
    for name, status, detail, data in rows:
        diagnostics["gates"].append((name, status, detail))
        if data is not None and name in _DIAGNOSTIC_KEYS:
            diagnostics[_DIAGNOSTIC_KEYS[name]] = data
        if status == "FAIL":
            raise HypothesisError(detail, diagnostics)
        if name == "line-quadrature":
            line = data
    solution = Solution(f, J, p.gic, p.cfg, line, poles=p.poles, diagnostics=diagnostics)
    if p.values is not None:
        _fit_initial_values(solution, p)
    elif p.poles is not None:
        solution.residue = p.residue
        for (omega, order), coeffs in zip(p.poles.poles, p.residue.coefficients):
            top, scale = abs(coeffs[-1]), max(1.0, max(map(abs, coeffs)))
            if order > 1 and top < 1e-10 * scale:
                _warn(f"pole order at {omega} may be overstated: leading Laurent "
                      f"coefficient {top:.2e} is negligible")
    return solution


def _warn(message: str) -> None:
    """Warn at the first caller outside this module: the line that called
    solve or one of the named solvers."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _fit_initial_values(solution: Solution, p: _Problem) -> None:
    """Residue coefficients a = M^-1 (d - L) from the pass's matrix and
    moments, and r0 = f * (closed-form transform of the residue part) as
    solution.gic.  Each initial value d_n is checked against phi^(n)(0+) =
    L_n + the residue part's n-th derivative at 0, both exact: the line
    sum's n-th derivative at 0+ is its moment L_n."""
    diagnostics = solution.diagnostics
    diagnostics["Ln"] = [complex(v) for v in p.Ln]
    a = np.linalg.solve(p.matrix, np.asarray(p.values, np.complex128) - p.Ln)
    splits = np.cumsum([order for _, order in p.poles.poles])[:-1]
    solution.residue = ResiduePolynomials(tuple(map(tuple, np.split(a, splits))))

    # r0/f = sum a_{j,i}/(s - omega_i)^j, the transform of sum a_{j,i}
    # t^{j-1}/(j-1)! e^{omega_i t}
    blocks = list(zip(p.poles.omegas, solution.residue.coefficients))
    tree = _laplace_tree_from_terms({(m, omega): a_m / math.factorial(m)
                                     for omega, coeffs in blocks for m, a_m in enumerate(coeffs)})
    solution.gic = GeneralizedIC(AnalyticSymbol(tree if tree == Const(0j) else
                                                Mul(_tree(p.f), tree)), "constructed-from-IVP")
    diagnostics["r0_over_f_decay"] = _block_decay(blocks)

    errors = [abs(predict_derivative_at_zero(p.poles, solution.residue, n, Ln_n) - d_n)
              for n, (Ln_n, d_n) in enumerate(zip(p.Ln, p.values))]
    diagnostics["initial_value_errors"] = errors
    if max(errors) > 1e-3:
        _warn(f"initial values reproduced to only {max(errors):.2e}; "
              "check conditioning and quadrature settings")


def solve_generalized(f: AnalyticSymbol, J: Forcing, r, cfg: BromwichConfig | None = None) -> Solution:
    """Solve f(d/dt) phi = J with generalized initial condition r.

    The solution transform is (L(J) + r)/f; it must be in the Hardy
    space, and r/f must decay at large |s| (see hypothesis_gates).
    """
    return solve(f, J, r=r, cfg=cfg)


def solve_with_poles(f: AnalyticSymbol, J: Forcing, r, poles: PoleSpec,
                     cfg: BromwichConfig | None = None) -> Solution:
    """Residue-expansion solve: Bromwich part from L(J)/f, residue
    polynomials from the Laurent coefficients of r/f at the declared poles."""
    return solve(f, J, r=r, poles=poles, cfg=cfg)


def solve_classical_ivp(ivp: ClassicalIVP, cfg: BromwichConfig | None = None
                        ) -> tuple[Solution, GeneralizedIC]:
    """Solve a classical IVP and return the solution plus the constructed r0.

    r0(s) = f(s) * sum a_{j,i}/(s - omega_i)^j, the closed-form transform
    of the residue part times f.
    """
    return (solution := solve(ivp.f, ivp.forcing, poles=ivp.poles,
                              initial_values=ivp.initial_values, cfg=cfg)), solution.gic


def _rect_tuple(rect) -> tuple[float, float, float, float]:
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in rect)
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("rectangle must have positive width and height")
    if re_hi > 0:
        raise ValueError("rectangle must lie in Re(s) <= 0")
    return re_lo, re_hi, im_lo, im_hi


def _boundary_winding(f_eval: Callable, rect: tuple) -> int:
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

    vals = _values_on(f_eval, to_points(params))
    for _ in range(WINDING_REFINE_CAP):
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
        mvals = _values_on(f_eval, to_points(mids))
        params = np.concatenate([params, mids])
        order = np.argsort(params)
        params = params[order]
        vals = np.concatenate([vals, mvals])[order]
    raise ValueError("zero on or near the rectangle boundary; perturb the rectangle")


def _newton_refine(f_eval: Callable, z0: complex, multiplicity: int) -> complex:
    z = complex(z0)
    for _ in range(80):
        fz = complex(np.asarray(f_eval(np.complex128(z))))
        dfz = laurent_coefficients(f_eval, z, -1, 1e-3)[1]
        if dfz == 0:
            break
        step = multiplicity * fz / dfz
        z -= step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            break
    return z


def find_zeros(f, rect) -> list[tuple[complex, int]]:
    """Zeros of f (with multiplicities) inside a rectangle in Re(s) <= 0.

    A rational AnalyticSymbol answers from its census, the roots of its
    factors after common factors cancel (symbols.rational_roots).  For any
    other f, argument-principle counts on the boundary drive a
    quadrisection, and cells holding a single cluster are polished by
    multiplicity-aware Newton; that f must be analytic on the closed
    rectangle: a count is zeros minus poles, so a pole inside hides a zero.
    Either way a zero on the boundary is refused.
    """
    if not callable(f):
        raise ValueError("symbol must be an AnalyticSymbol or a callable")
    rect = _rect_tuple(rect)
    form = rational_form(f.expr) if isinstance(f, AnalyticSymbol) else None
    if form is not None:
        re_lo, re_hi, im_lo, im_hi = rect
        inside = []
        for zero, mult in rational_roots(form)[0]:
            pad = ROOT_MERGE_TOL * max(1.0, abs(zero))
            if re_lo - pad <= zero.real <= re_hi + pad and im_lo - pad <= zero.imag <= im_hi + pad:
                if min(zero.real - re_lo, re_hi - zero.real, zero.imag - im_lo, im_hi - zero.imag) <= pad:
                    raise ValueError("zero on or near the rectangle boundary; perturb the rectangle")
                inside.append((zero, mult))
        return sorted(inside, key=lambda zm: (zm[0].real, zm[0].imag))
    total = _boundary_winding(f, rect)
    if total == 0:
        return []
    if total > ZERO_COUNT_CAP:
        raise ValueError(f"zero count {total} exceeds the cap {ZERO_COUNT_CAP}")

    found: list[tuple[complex, int]] = []
    stack = [(rect, total, 0)]
    shifts = (0.0, 0.07, -0.05, 0.11)
    while stack:
        cell, count, depth = stack.pop()
        re_lo, re_hi, im_lo, im_hi = cell
        diam = max(re_hi - re_lo, im_hi - im_lo)
        if count == 1 and diam <= 0.25 or diam <= 1e-4:
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            zero = _newton_refine(f, center, count)
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
                counts = [_boundary_winding(f, child) for child in children]
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
