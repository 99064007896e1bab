"""Independent verification paths for the solvers.

Polynomial symbols reduce to classical constant-coefficient ODEs, solved
here by fixed-step Runge-Kutta; analytic symbols act on analytic vectors
through the everywhere-convergent series f(d/dt) phi = sum f^(n)(0)/n!
phi^(n), truncated at order N with divergence detection.  residual_check
feeds a computed Solution back through that series and reports the
defect against the forcing, and derivatives_at_zero recovers a
solution's initial data by one-sided finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import Solution
from .symbols import AnalyticSymbol, taylor_coefficients
from .transforms import Forcing

SERIES_DEFAULT_N = 60
RK_MAX_STEP = 1e-3           # classical_ode_reference's largest Runge-Kutta step
FD_STEP = 1e-3               # derivatives_at_zero's stencil spacing for orders 0 and 1
_GROWTH_RUN = 6
_GROWTH_RATIO = 1.2


@dataclass(frozen=True)
class AnalyticVectorProfile:
    """A function with closed-form derivatives of every order.

    norm_bound(n) is the l^1 sequence c(n) dominating the n-th derivative;
    exponentials e^{-t/k} with k > 1 are the canonical family.
    """

    phi_eval: Callable
    derivative_rule: Callable
    norm_bound: Callable | None = None

    def nth_derivative(self, n: int, t):
        return self.derivative_rule(int(n), t)

    def __call__(self, t):
        return self.phi_eval(t)


def exponential_profile(k: float, scale: complex = 1.0) -> AnalyticVectorProfile:
    """phi(t) = scale * e^{-t/k}, with exact derivatives (-1/k)^n phi."""
    if k <= 0:
        raise ValueError("k must be positive")
    rate = -1.0 / k

    def phi(t):
        return scale * np.exp(rate * np.asarray(t, dtype=np.float64))

    def deriv(n, t):
        return rate ** n * phi(t)

    def bound(n):
        return abs(scale) * (1.0 / k) ** n

    return AnalyticVectorProfile(phi, deriv, bound)


def apply_truncated_series(f: AnalyticSymbol, phi, t, N: int = SERIES_DEFAULT_N):
    """Partial sum sum_{n<=N} f^(n)(0)/n! phi^(n)(t) over every nonzero coefficient.

    A small term says nothing about the next one (a zero coefficient or a
    derivative vanishing on the grid is not convergence), so no order is
    skipped; a sustained growth run in the term magnitudes raises
    ArithmeticError (phi is not an analytic vector for this symbol).
    """
    coeffs = taylor_coefficients(f, N)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    partial = np.zeros(ts.shape, dtype=np.complex128)
    prev_mag = None
    growth_run = 0
    for n in np.flatnonzero(coeffs).tolist():
        term = coeffs[n] * np.asarray(phi.nth_derivative(n, ts), np.complex128)
        partial += term
        mag = float(np.max(np.abs(term)))
        scale = max(float(np.max(np.abs(partial))), 1e-300)
        if prev_mag is not None:
            # A sustained geometric increase of the term magnitudes is the
            # divergence signature; entire symbols produce x^n/n!-type runs
            # whose growth ratio drops below the threshold within a few
            # terms.  Ignore runs deep under the output scale (noise).
            growing = mag > _GROWTH_RATIO * prev_mag > 0
            growth_run = growth_run + 1 if growing else 0
            if growth_run >= _GROWTH_RUN and mag > 1e-10 * scale:
                # worded for residual_check, whose CLI reports and goldens carry it
                raise ArithmeticError(
                    f"truncated series diverges by term {n}; the residual check "
                    "does not apply to this symbol/solution pair"
                )
        prev_mag = mag
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(partial[0])
    return partial


def _polynomial_coefficients(f: AnalyticSymbol, probe_order: int = 20) -> np.ndarray:
    coeffs = taylor_coefficients(f, probe_order)
    mags = np.abs(coeffs)
    top = float(np.max(mags))
    if top == 0.0:
        raise ValueError("symbol is identically zero")
    degree = int(np.max(np.nonzero(mags > 1e-12 * top)[0]))
    tail = mags[degree + 1:]
    if tail.size and float(np.max(tail)) > 1e-12 * top:
        raise ValueError("symbol is not a polynomial within the probe order")
    return coeffs[:degree + 1]


def classical_ode_reference(f: AnalyticSymbol, J: Forcing, initial, t_grid) -> np.ndarray:
    """Runge-Kutta reference for a polynomial symbol of degree m.

    Integrates the order-m linear ODE sum c_n phi^(n) = J with the given m
    initial derivatives at 0, in steps of at most RK_MAX_STEP, landing
    exactly on the requested grid.
    Degree 0 is the algebraic case phi = J/c_0.
    """
    grid = np.asarray(t_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("t_grid must be strictly increasing and start at t >= 0")
    coeffs = _polynomial_coefficients(f)
    m = coeffs.size - 1
    if m == 0:
        return np.asarray(J.j_eval(grid), np.complex128) / coeffs[0]
    if len(initial) != m:
        raise ValueError(f"initial must have length {m}")

    companion = np.zeros((m, m), dtype=np.complex128)
    companion[:-1, 1:] = np.eye(m - 1)
    companion[-1, :] = -coeffs[:m] / coeffs[m]
    j_scale = 1.0 / coeffs[m]

    def rhs(tau, state):
        drive = np.zeros(m, dtype=np.complex128)
        drive[-1] = j_scale * complex(np.asarray(J.j_eval(tau)).reshape(()))
        return companion @ state + drive

    state = np.asarray(initial, dtype=np.complex128).copy()
    out = np.empty(grid.size, dtype=np.complex128)
    t_now = 0.0
    for idx, t_target in enumerate(grid):
        span = t_target - t_now
        if span > 0:
            n_sub = max(1, int(math.ceil(span / RK_MAX_STEP)))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = rhs(t_now, state)
                k2 = rhs(t_now + 0.5 * h, state + 0.5 * h * k1)
                k3 = rhs(t_now + 0.5 * h, state + 0.5 * h * k2)
                k4 = rhs(t_now + h, state + h * k3)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t_now += h
            t_now = float(t_target)
        out[idx] = state[0]
    return out


def derivatives_at_zero(fn: Callable, orders) -> list[complex]:
    """One-sided derivatives at 0+ from values on {h, 2h, ...}, 4th order.

    Stencil weights come from a small Vandermonde solve on nodes k*h,
    k = 1..n+4, exact through degree n+3.  h is FD_STEP for n <= 1 and 10
    FD_STEP above, to keep the h^{-n} noise amplification in check.  Every
    order's stencil points go to fn in one call; an fn that does not return
    one value per point is called point by point.
    """
    weights, stencils = [], []
    for n in orders:
        n = int(n)
        step = FD_STEP if n <= 1 else FD_STEP * 10.0
        m = n + 4
        ks = np.arange(1, m + 1, dtype=np.float64)
        V = np.vander(ks, m, increasing=True).T  # V[p, j] = k_j^p
        e = np.zeros(m)
        e[n] = math.factorial(n)
        weights.append(np.linalg.solve(V, e) / step ** n)
        stencils.append(ks * step)
    if not stencils:
        return []
    ts = np.concatenate(stencils)
    vals = np.asarray(fn(ts), np.complex128)
    if vals.shape != ts.shape:
        vals = np.array([fn(float(t)) for t in ts], np.complex128)
    splits = np.cumsum([w.size for w in weights])[:-1]
    return [complex(np.sum(w * v)) for w, v in zip(weights, np.split(vals, splits))]


def residual_check(f: AnalyticSymbol, solution, J: Forcing, t_grid,
                   N: int = SERIES_DEFAULT_N, tol: float = 1e-6) -> dict:
    """Apply f(d/dt) to a solution through the truncated series and report
    the sup defect against J on the grid.

    Accepts a Solution (residue derivatives exact, Bromwich derivatives
    from moment-weighted line integrals) or any object with
    nth_derivative(n, t).  If the transform's decay cannot support all N
    derivative orders, the series degrades to the supported order with a
    warning; if it supports none, ArithmeticError is raised.
    """
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    notes: list[str] = []
    n_used = N
    if isinstance(solution, Solution) and solution.line is not None:
        if np.any(ts <= 0):
            raise ValueError("residual grid must be strictly positive for a Bromwich part")
        supported = solution.line.certified_order
        significant = np.flatnonzero(taylor_coefficients(f, N))
        needed = int(significant[-1]) if significant.size else 0
        if supported < min(N, needed):
            if supported < 0:
                raise ArithmeticError("the transform certifies no derivative order; "
                                      "the residual check does not apply")
            n_used = supported
            notes.append(
                f"derivative orders truncated at {supported}; "
                f"the transform smoothness cannot support order {min(N, needed)}"
            )
            warnings.warn(notes[-1], stacklevel=2)
    applied = apply_truncated_series(f, solution, ts, N=n_used)
    defect = applied - np.asarray(J.j_eval(ts), np.complex128)
    sup = float(np.max(np.abs(defect)))
    return {
        "sup_residual": sup,
        "ok": sup <= tol,
        "tol": tol,
        "N_requested": N,
        "N_used": n_used,
        "n_points": int(ts.size),
        "warnings": notes,
    }
