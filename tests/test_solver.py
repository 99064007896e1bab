"""Tests for the generalized solver, classical IVPs, and zero finding."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import nlode
import nlode.cli
import test_acceptance
from nlode import solver, symbols, transforms
from nlode.oracles import classical_ode_reference, derivatives_at_zero, residual_check
from nlode.solver import (
    ClassicalIVP,
    GeneralizedIC,
    HypothesisError,
    PoleSpec,
    ResiduePolynomials,
    assemble_ivp_system,
    decay_fit,
    find_zeros,
    hypothesis_gates,
    laurent_coefficients,
    predict_derivative_at_zero,
    residue_derivative_values,
    solve,
    solve_classical_ivp,
    solve_generalized,
    solve_with_poles,
    zero_ic,
)
from nlode.symbols import eval_symbol, parse_symbol
from nlode.transforms import HARDY_NODES, BromwichConfig, LineSampler, forcing_from_text

GAUSSIAN_SYMBOL = "exp(2*(s^2 + 0.5*s))*(s^2 + 0.5*s - 1) + 2"
# zeros at -1 and -2 as (s + 1)*(s + 2) has, but with J = e^{-3t} its
# L(J)/f is transcendental, so its classical IVP lays line nodes
NODED_SYMBOL = "(s + 1)*(s + 2)*exp(1/(s + 5))"


def eigen_problem(symbol_text: str, k: float):
    """J and r for which e^{-t/k} solves f(d/dt) phi = J."""
    f = parse_symbol(symbol_text)
    lam = complex(np.exp(-1.0 / k)) if symbol_text == "exp(s)" else None
    if lam is None:
        from nlode.symbols import eval_symbol
        lam = complex(eval_symbol(f, -1.0 / k))
    J = forcing_from_text(f"{lam.real!r}*exp(-{1.0 / k!r}*t)")
    r = parse_symbol(f"(({symbol_text}) - {lam.real!r})/(s + {1.0 / k!r})")
    return f, J, GeneralizedIC(r, "user-supplied")


def expm_ivp_oracle(f, J, data, ts, dps: int = 40) -> np.ndarray:
    """phi(t) of a polynomial f(d/dt) phi = J, J a sum of c e^{at}, from
    the matrix exponential of the state (phi, ..., phi^(d-1), the J terms)
    in mpmath at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    coeffs = np.trim_zeros(nlode.taylor_coefficients(f, 20), "b")
    terms = transforms.poly_exp_terms(J.j_eval.expr)
    assert all(m == 0 for m, _ in terms), "the oracle takes sums of c e^{at}"
    d = coeffs.size - 1
    with mpmath.workdps(dps):
        A = mpmath.zeros(d + len(terms))
        for n in range(d - 1):
            A[n, n + 1] = 1
        for n in range(d):
            A[d - 1, n] = -mpmath.mpc(coeffs[n]) / mpmath.mpc(coeffs[d])
        for k, ((_, a), c) in enumerate(terms.items()):
            A[d - 1, d + k] = mpmath.mpc(c) / mpmath.mpc(coeffs[d])
            A[d + k, d + k] = mpmath.mpc(a)
        x0 = mpmath.matrix([mpmath.mpc(v) for v in data] + [1] * len(terms))
        return np.array([complex((mpmath.expm(A * mpmath.mpf(float(t))) * x0)[0])
                         for t in ts])


class TestDataStructures:
    def test_pole_spec_validation(self):
        with pytest.raises(ValueError):
            PoleSpec(((1.0, 1),))
        with pytest.raises(ValueError):
            PoleSpec(((-1.0, 0),))
        with pytest.raises(ValueError):
            PoleSpec(((-1.0, 1), (-1.0, 2)))
        spec = PoleSpec(((-1.0, 2), (-2.0 + 1.0j, 1)))
        assert spec.K == 3
        assert spec.omegas == (-1.0 + 0j, -2.0 + 1.0j)

    @pytest.mark.parametrize("omega", [-math.inf, complex(-1.0, math.inf), math.nan],
                             ids=["-inf", "inf-imag", "nan"])
    def test_non_finite_pole_refused_by_name(self, omega):
        # -inf passed PoleSpec, and the conditioning row then overflowed in
        # complex exponentiation
        f, J = parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)")
        poles = ((omega, 1), (-2.0, 1))
        with pytest.raises(ValueError, match=r"pole .* is not finite"):
            PoleSpec(poles)
        rows = hypothesis_gates(f, J, poles=poles, initial_values=(1.0, 0.0))
        status = {name: (st, detail) for name, st, detail, _ in rows}
        assert status["pole-constraints"][0] == "FAIL"
        assert "is not finite" in status["pole-constraints"][1]
        assert status["conditioning"][0] == "SKIP"
        with pytest.raises(HypothesisError, match=r"pole .* is not finite"):
            solve(f, J, poles=poles, initial_values=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_initial_value_refused_by_name(self, bad):
        # nan was solved to an all-NaN phi, with NaN errors and no warning
        f, J = parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)")
        poles = ((-1.0, 1), (-2.0, 1))
        with pytest.raises(ValueError, match=re.escape(r"initial value phi^(1)(0) = ")):
            solve(f, J, poles=poles, initial_values=(1.0, bad))
        with pytest.raises(ValueError, match="is not finite"):
            hypothesis_gates(f, J, poles=poles, initial_values=(bad, 0.0))

    def test_gic_provenance(self):
        with pytest.raises(ValueError):
            GeneralizedIC(parse_symbol("s"), "guessed")
        assert zero_ic().is_zero

    def test_ivp_length_mismatch(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        with pytest.raises(ValueError):
            ClassicalIVP(f, forcing_from_text("0"), PoleSpec(((-1.0, 1),)), (1.0, 2.0))

    def test_residue_sum(self):
        poles = PoleSpec(((-1.0, 2),))
        # P(t) = a_1 + a_2 t with a = (2, 3)
        rp = ResiduePolynomials(((2.0, 3.0),))
        ts = np.array([0.0, 1.0])
        vals = residue_derivative_values(rp, poles, 0, ts)
        assert np.allclose(vals, (2.0 + 3.0 * ts) * np.exp(-ts))

    def test_residue_derivative(self):
        poles = PoleSpec(((-2.0, 1),))
        rp = ResiduePolynomials(((1.5,),))
        ts = np.linspace(0.0, 2.0, 5)
        d3 = residue_derivative_values(rp, poles, 3, ts)
        assert np.allclose(d3, 1.5 * (-2.0) ** 3 * np.exp(-2.0 * ts))

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_bad_derivative_order_refused(self, n):
        # by the residue part and by a solution, before any line work
        message = f"order must be a nonnegative integer, got n = {n}"
        rp, poles = ResiduePolynomials(((1.5,),)), PoleSpec(((-2.0, 1),))
        with pytest.raises(ValueError, match=message):
            residue_derivative_values(rp, poles, n, [1.0])
        sol, _ = solve_classical_ivp(ClassicalIVP(
            parse_symbol(NODED_SYMBOL), forcing_from_text("exp(-3*t)"),
            PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0)))
        with pytest.raises(ValueError, match=message):
            sol.nth_derivative(n, [40.0])
        assert list(sol.line.diagnostics()["budgets"]) == [1.0]


class TestDecayFit:
    def test_rational_decay(self):
        fit = decay_fit(lambda s: (s + 3.0) / ((s + 1.0) * (s + 2.0)))
        assert abs(fit["q"] - 1.0) < 0.05

    def test_entire_symbol_ratio(self):
        # r/f for the eigen pair of exp(s) decays like 1/s in the right
        # half-plane even though it grows to the left
        f, J, gic = eigen_problem("exp(s)", 2.0)
        from nlode.symbols import eval_symbol
        fit = decay_fit(lambda s: gic.eval(s) / eval_symbol(f, s))
        assert fit["q"] > 0.5

    def test_no_decay(self):
        fit = decay_fit(lambda s: s / (s + 1.0))
        assert fit["q"] < 0.05

    @pytest.mark.parametrize("r", ["exp(s*s)", "exp(2*s)"])
    def test_overflowing_ratio_is_growth(self, r):
        # r/f overflows on the positive real axis: growth, not a missing
        # probe.  Dropping those probes passed exp(s*s) with q = 0.997 from
        # 6 of 24, and exp(2*s) only to fail later at line-quadrature
        args = dict(f=parse_symbol("s + 2"), J=forcing_from_text("exp(-t)"), r=parse_symbol(r))
        message = "decay check failed: r/f overflows at large |s| in Re(s) >= 0"
        rows = [row[:3] for row in hypothesis_gates(**args)]
        assert ("decay-of-r-over-f", "FAIL", message) in rows
        assert rows[-1][:2] == ("line-quadrature", "SKIP")
        with pytest.raises(HypothesisError) as info:
            solve(**args)
        assert str(info.value) == message


class TestSolveGeneralized:
    def test_exponential_eigenfunction(self):
        f, J, gic = eigen_problem("exp(s)", 2.0)
        sol = solve_generalized(f, J, gic)
        ts = np.linspace(0.0, 10.0, 101)
        assert np.max(np.abs(sol(ts) - np.exp(-0.5 * ts))) < 1e-6

    def test_gaussian_symbol_eigenfunction(self):
        f, J, gic = eigen_problem(GAUSSIAN_SYMBOL, 2.0)
        sol = solve_generalized(f, J, gic)
        ts = np.linspace(0.0, 10.0, 101)
        assert np.max(np.abs(sol(ts) - np.exp(-0.5 * ts))) < 1e-6

    def test_one_sided_value_at_zero(self):
        # phi(0) is the one-sided limit, not the line integral's jump midpoint
        f, J, gic = eigen_problem("exp(s)", 2.0)
        sol = solve_generalized(f, J, gic)
        assert abs(sol(0.0) - 1.0) < 1e-12

    def test_scalar_call(self):
        f, J, gic = eigen_problem("exp(s)", 2.0)
        sol = solve_generalized(f, J, gic)
        assert isinstance(sol(1.0), complex)

    def test_vanishing_symbol_on_contour(self):
        f = parse_symbol("s - 1")
        with pytest.raises(HypothesisError, match="vanishes"):
            solve_generalized(f, forcing_from_text("exp(-1*t)"), zero_ic())

    def test_growing_polynomial_does_not_vanish_on_contour(self):
        # |f| of (s + 1)...(s + 6) spans 5040 to 6.4e13 on |y| <= 200, yet f
        # has no zero near the line; phi is the partial-fraction sum of
        # 1/((s + 1)...(s + 7))
        f = parse_symbol("*".join(f"(s + {k})" for k in range(1, 7)))
        sol = solve(f, forcing_from_text("exp(-7*t)"))
        assert ("contour-nonvanishing", "PASS") in [row[:2] for row in sol.diagnostics["gates"]]
        ts = np.linspace(0.0, 10.0, 201)
        roots = -np.arange(1.0, 8.0)
        exact = sum(np.exp(p * ts) / np.prod([p - q for q in roots if q != p]) for p in roots)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-12

    def test_hardy_gate_failure_reported(self):
        # L(J)/f = 1/s for f = 1 is not in H^2 (pole at the origin)
        f = parse_symbol("0*s + 1")
        with pytest.raises(HypothesisError):
            solve_generalized(f, forcing_from_text("1"), zero_ic())

    def test_forcing_growing_past_contour_rejected(self):
        # L(J) = 1/(s - 0.8) has its pole right of the contour Re(s) = 0.5
        f = parse_symbol("(s + 1)*(s + 2)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        with pytest.raises(HypothesisError, match="does not decay"):
            solve_generalized(f, forcing_from_text("exp(0.8*t)"), gic, BromwichConfig(sigma=0.5))

    def test_forcing_growing_inside_contour_solved(self):
        # phi'' + 3 phi' + 2 phi = e^{0.8 t}, phi(0) = 1, phi'(0) = 0
        f = parse_symbol("(s + 1)*(s + 2)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        sol = solve_generalized(f, forcing_from_text("exp(0.8*t)"), gic, BromwichConfig(sigma=1.5))
        ts = np.linspace(0.0, 3.0, 7)
        A = 1.0 / (1.8 * 2.8)
        c1, c2 = np.linalg.solve([[1.0, 1.0], [-1.0, -2.0]], [1.0 - A, -0.8 * A])
        exact = c1 * np.exp(-ts) + c2 * np.exp(-2.0 * ts) + A * np.exp(0.8 * ts)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-7

    def test_polynomial_times_exponential_forcing(self):
        # the forcing gate accepts t^5 e^{-t}, whose t^5 factor outlives e^{-t}
        f = parse_symbol("s + 2")
        J = forcing_from_text("t^5*exp(-1*t)")
        ts = np.linspace(0.0, 4.0, 41)
        ref = classical_ode_reference(f, J, [0.0], ts)
        assert np.max(np.abs(solve_generalized(f, J, None)(ts) - ref)) < 1e-10

    def test_zeta_symbol_past_height_cap_warns(self):
        # the reference fit samples |Im s| up to 100 y_max: at the default
        # y_max = 200 that ends at the cap, beyond it zeta warns
        f, J, gic = eigen_problem("zeta(s + 3)", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert abs(solve_generalized(f, J, gic)(1.0) - math.exp(-0.5)) < 1e-9
        with pytest.warns(RuntimeWarning, match="height cap"):
            solve_generalized(f, J, gic, BromwichConfig(y_max=300.0))(1.0)

    def test_diagnostics_populated(self):
        f, J, gic = eigen_problem("exp(s)", 2.0)
        sol = solve_generalized(f, J, gic)
        assert "hardy" in sol.diagnostics
        assert sol.diagnostics["r_over_f_decay"]["q"] > 0.05


class TestSolveWithPoles:
    def test_agrees_with_generalized(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        poles = PoleSpec(((-1.0, 1), (-2.0, 1)))
        ts = np.linspace(0.0, 10.0, 101)
        sp = solve_with_poles(f, J, gic, poles)
        sg = solve_generalized(f, J, gic)
        assert np.max(np.abs(sp(ts) - sg(ts))) < 1e-6

    def test_exact_solution(self):
        # f(d/dt) phi = e^{-3t} with r = s + 3 solves to
        # (5/2) e^{-t} - 2 e^{-2t} + (1/2) e^{-3t}
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        sol = solve_with_poles(f, J, gic, PoleSpec(((-1.0, 1), (-2.0, 1))))
        ts = np.linspace(0.0, 10.0, 51)
        exact = 2.5 * np.exp(-ts) - 2.0 * np.exp(-2 * ts) + 0.5 * np.exp(-3 * ts)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-7

    def test_residue_coefficients(self):
        # Laurent data of r/f = (s+3)/((s+1)(s+2)): residues 2 at -1, -1 at -2
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        sol = solve_with_poles(f, J, gic, PoleSpec(((-1.0, 1), (-2.0, 1))))
        blocks = sol.residue.coefficients
        assert abs(blocks[0][0] - 2.0) < 1e-9
        assert abs(blocks[1][0] - (-1.0)) < 1e-9

    def test_misdeclared_pole_rejected(self):
        # -4 is not a zero of f, so r/f cannot have a pole there
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        with pytest.raises(HypothesisError, match="zero of the"):
            solve_with_poles(f, J, gic, PoleSpec(((-4.0, 1),)))

    def test_overstated_pole_order_rejected(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        gic = GeneralizedIC(parse_symbol("s + 3"), "user-supplied")
        with pytest.raises(HypothesisError, match="zero of the"):
            solve_with_poles(f, J, gic, PoleSpec(((-1.0, 2), (-2.0, 1))))

    def test_zero_r_gives_zero_residues(self):
        # r = 0 with declared poles: zero residue blocks, and phi is its
        # Bromwich part, e^{-3t}/((s + 1)(s + 2)) inverted
        sol = solve(parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)"),
                    poles=((-1.0, 1), (-2.0, 1)))
        assert sol.diagnostics["mode"] == "poles-given"
        assert sol.residue.coefficients == ((0j,), (0j,))
        ts = np.linspace(0.0, 4.0, 9)
        bro, res = sol.eval_parts(ts)
        assert np.array_equal(sol(ts), bro) and not np.any(res)
        exact = 0.5 * np.exp(-ts) - np.exp(-2 * ts) + 0.5 * np.exp(-3 * ts)
        assert np.max(np.abs(bro - exact)) < 1e-12


class TestGateFailures:
    """Rows whose FAIL only a malformed problem reaches: hypothesis_gates
    reports it, and solve raises the first FAIL of the same rows."""

    def test_a_forcing_without_transform_fails_one_row(self):
        # the Hardy row skips after it, as the line row does
        rows = hypothesis_gates(parse_symbol("s + 2"), transforms.Forcing(lambda t: np.exp(-t)))
        assert [row[0] for row in rows if row[1] == "FAIL"] == ["forcing-transform"]
        assert ("hardy-membership", "SKIP") in [row[:2] for row in rows]

    @pytest.mark.parametrize("f,J,name,message", [
        (lambda s: np.full(np.shape(s), np.inf, np.complex128), forcing_from_text("exp(-t)"),
         "contour-nonvanishing", "symbol is not finite anywhere on the contour line"),
        (parse_symbol("s + 2"), transforms.Forcing(lambda t: np.exp(-t)),
         "forcing-transform", "forcing needs a closed-form transform on the contour line"),
        (parse_symbol("s + 2"), forcing_from_text("0"),
         "hardy-membership", "both J and r vanish; the solution is identically zero"),
    ], ids=["f-infinite-on-the-line", "forcing-without-transform", "J-and-r-zero"])
    def test_fail_row(self, f, J, name, message):
        rows = [row[:3] for row in hypothesis_gates(f, J)]
        assert (name, "FAIL", message) in rows
        with pytest.raises(HypothesisError) as info:
            solve(f, J)
        assert str(info.value) == next(detail for _, status, detail in rows if status == "FAIL")


class TestLaurent:
    def test_simple_pole(self):
        coeffs = laurent_coefficients(lambda s: (s + 3) / ((s + 1) * (s + 2)),
                                      -1.0, 1, radius=0.3)
        assert abs(coeffs[0] - 2.0) < 1e-10

    def test_double_pole(self):
        # (s+2)/(s+1)^2 about -1: 1/(s+1)^2 + 1/(s+1)
        coeffs = laurent_coefficients(lambda s: (s + 2) / (s + 1) ** 2,
                                      -1.0, 2, radius=0.4)
        assert np.allclose(coeffs, [1.0, 1.0], atol=1e-10)

    def test_doubling_samples_each_node_once(self):
        # the pole at -2 lies 1.0 from the centre, so a radius-0.9 ring
        # settles only after several doublings
        def g(s):
            return (s + 3) / ((s + 1) * (s + 2))

        seen = []
        coeffs = laurent_coefficients(lambda s: seen.append(s) or g(s), -1.0, 2, radius=0.9)
        n = 64 * 2 ** (len(seen) - 1)
        assert len(seen) >= 3
        assert sum(z.size for z in seen) == n
        assert np.unique(np.concatenate(seen)).size == n
        # the same bits as one trapezoid sum over the settled ring
        ring = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
        ks = np.arange(1, 3)
        direct = (0.9 ** ks / n) * (ring[:, None] ** ks * g(-1.0 + 0.9 * ring)[:, None]).sum(axis=0)
        assert np.array_equal(coeffs, direct)
        assert abs(coeffs[0] - 2.0) < 1e-10 and abs(coeffs[1]) < 1e-10


class TestRingResidues:
    """A transcendental r/f takes its residues, and f its Taylor
    coefficients at a declared pole, on the ring of laurent_coefficients."""

    J0 = forcing_from_text("0")

    @pytest.mark.parametrize("symbol, r, pole", [
        ("exp(s)*(s + 1)", "exp(s)", -1.0),
        ("zeta(s + 3)", "zeta(s + 3)/(s + 5)", -5.0),
    ], ids=["exp", "zeta"])
    def test_residue_on_the_ring(self, symbol, r, pole, monkeypatch):
        # r/f = 1/(s - pole) near the pole: phi = e^{pole t}
        rings = []
        ring = solver.laurent_coefficients
        monkeypatch.setattr(solver, "laurent_coefficients",
                            lambda *args: rings.append(args[3]) or ring(*args))
        f, r = parse_symbol(symbol), parse_symbol(r)
        sol = solve(f, self.J0, r=r, poles=((pole, 1),))
        assert sol.diagnostics["mode"] == "poles-given" and len(rings) == 2
        # a replay takes the stored pass's residues, bit for bit
        again = solve(f, self.J0, r=r, poles=((pole, 1),))
        assert again.diagnostics["gates_reused"] and again.residue == sol.residue
        assert len(rings) == 2
        assert abs(sol.residue.coefficients[0][0] - 1.0) < 1e-15
        ts = np.linspace(0.0, 10.0, 21)
        assert np.max(np.abs(sol(ts) - np.exp(pole * ts))) < 1e-15
        assert np.max(np.abs(sol(ts) - solve(f, self.J0, r=r)(ts))) < 1e-10

    def test_a_pole_of_the_symbol_cancels_its_zero(self):
        # zeta(s + 3)(s + 2) tends to 1 at -2: its Taylor coefficient c_0 on
        # the ring is not negligible
        with pytest.raises(HypothesisError, match="zero of the symbol"):
            solve(parse_symbol("zeta(s + 3)*(s + 2)"), self.J0, r=parse_symbol("zeta(s + 3)"),
                  poles=((-2.0, 1),))


_CFG = BromwichConfig()
_FIT = np.geomspace(_CFG.y_max, 100.0 * _CFG.y_max, 128)
# the Hardy gate's lines and the reference fit's window
TRANSFORM_POINTS = [x + 1j * np.linspace(-_CFG.y_max, _CFG.y_max, HARDY_NODES)
                    for x in (0.01, 0.1, 1.0)]
TRANSFORM_POINTS.append(_CFG.sigma + 1j * np.concatenate([-_FIT[::-1], _FIT]))


def assert_composed_match_quotients(f, f_eval, J, gic):
    """F = (L(J) + r)/f, F0 = L(J)/f and g = r/f as built for the solves
    give the bits of separate evaluations of each part."""
    def quotient(num):
        def q(s):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return np.asarray(num(s), np.complex128) / np.asarray(f_eval(s), np.complex128)
        return q

    F, g = solver._transforms(f, J, gic, split=False)
    F0, g0 = solver._transforms(f, J, gic, split=True)
    pairs = [(F, quotient(lambda s: np.asarray(J.laplace(s), np.complex128)
                          + np.asarray(gic.eval(s), np.complex128))),
             (F0, quotient(J.laplace)), (g, quotient(gic.eval)), (g0, quotient(gic.eval))]
    for composed, separate in pairs:
        for s in TRANSFORM_POINTS:
            assert np.array_equal(composed(s), separate(s))
        assert composed(1.0 + 2.0j) == separate(1.0 + 2.0j)


class TestComposedTransforms:
    @pytest.mark.parametrize("text", ["zeta(s + 3)", "exp(s)"])
    def test_matches_two_call_quotient(self, text):
        f, J, gic = test_acceptance.eigen_problem(text, 2.0)
        assert_composed_match_quotients(f, lambda s: eval_symbol(f, s), J, gic)

    def test_callable_parts(self):
        lam = math.exp(-0.5)
        J = forcing_from_text(f"{lam!r}*exp(-0.5*t)")
        gic = GeneralizedIC(lambda s: (np.exp(s) - lam) / (s + 0.5))
        assert_composed_match_quotients(np.exp, np.exp, J, gic)

    def test_each_zeta_point_once_per_evaluation(self, monkeypatch):
        f, J, gic = test_acceptance.eigen_problem("zeta(s + 3)", 2.0)
        calls: list = []       # one set of zeta arguments per eval_symbol call
        inside = [False]
        points = [0]
        inner_zeta, inner_eval = symbols.zeta, symbols.eval_symbol

        def zeta(z):
            points[0] += int(np.size(z))
            if inside[0]:
                key = np.asarray(z).tobytes()
                assert key not in calls[-1], "zeta evaluated twice at the same points"
                calls[-1].add(key)
            return inner_zeta(z)

        def recording_eval(f, s):
            calls.append(set())
            inside[0] = True
            try:
                return inner_eval(f, s)
            finally:
                inside[0] = False

        monkeypatch.setattr(symbols, "zeta", zeta)
        for module in (symbols, transforms):
            monkeypatch.setattr(module, "eval_symbol", recording_eval)
        ts = np.linspace(0.0, 10.0, 201)
        assert np.max(np.abs(solve_generalized(f, J, gic)(ts) - np.exp(-0.5 * ts))) < 1e-6
        assert sum(1 for keys in calls if keys) >= 10
        assert points[0] < 18_000


class TestSolve:
    """One solve: the data select the path; its gates are hypothesis_gates'."""

    F2, J2 = "(s + 1)*(s + 2)", "exp(-3*t)"

    def args(self, **data):
        return {"f": parse_symbol(self.F2), "J": forcing_from_text(self.J2),
                "cfg": BromwichConfig(), **data}

    @pytest.mark.parametrize("data,mode", [
        ({"r": GeneralizedIC(parse_symbol("s + 3"))}, "generalized"),
        ({"r": GeneralizedIC(parse_symbol("s + 3")), "poles": ((-1 + 0j, 1), (-2 + 0j, 1))},
         "poles-given"),
        ({"poles": ((-1 + 0j, 1), (-2 + 0j, 1)), "initial_values": (1.0, 0.0)},
         "classical-ivp"),
    ], ids=["generalized", "poles-given", "classical-ivp"])
    def test_gates_are_hypothesis_gates(self, data, mode):
        args = self.args(**data)
        rows = [row[:3] for row in hypothesis_gates(**args)]
        sol = solve(**args)
        assert sol.diagnostics["gates"] == rows
        assert sol.diagnostics["mode"] == mode
        ts = np.linspace(0.0, 4.0, 9)
        exact = 2.5 * np.exp(-ts) - 2.0 * np.exp(-2 * ts) + 0.5 * np.exp(-3 * ts)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-7

    @pytest.mark.parametrize("data", [
        {"r": GeneralizedIC(parse_symbol("s + 3")), "poles": ((-1 + 0j, 1), (-2 + 0j, 1)),
         "initial_values": (1.0, 0.0)},
        {"initial_values": (1.0, 0.0)},
    ], ids=["r-with-initial-values", "initial-values-without-poles"])
    def test_rejects_conflicting_data(self, data):
        with pytest.raises(ValueError, match="initial values need declared poles and no r"):
            solve(**self.args(**data))
        with pytest.raises(ValueError, match="initial values need declared poles and no r"):
            list(hypothesis_gates(**self.args(**data)))

    def test_data_arguments_are_keywords(self):
        args = self.args()
        for entry in (solve, hypothesis_gates):
            with pytest.raises(TypeError):
                entry(args["f"], args["J"], args["cfg"])

    def test_warning_names_the_caller(self):
        # r/f = (s + 3)/((s + 1)(s + 2)) has a simple pole where f has a
        # double zero; the warning points at the line that called the solver
        f = parse_symbol("(s + 1)^2*(s + 2)")
        r = GeneralizedIC(parse_symbol("(s + 1)*(s + 3)"))
        poles = ((-1 + 0j, 2), (-2 + 0j, 1))
        with pytest.warns(UserWarning, match="may be overstated") as caught:
            solve_with_poles(f, forcing_from_text(self.J2), r, poles)
        with pytest.warns(UserWarning, match="may be overstated") as caught_solve:
            solve(f, forcing_from_text(self.J2), r=r, poles=poles)
        assert [w.filename for w in (*caught, *caught_solve)] == [__file__, __file__]


class TestClassicalIVP:
    F2 = "(s + 1)*(s + 2)"

    def make(self, initial, forcing="exp(-3*t)", symbol=F2):
        f = parse_symbol(symbol)
        return ClassicalIVP(f, forcing_from_text(forcing),
                            PoleSpec(((-1.0, 1), (-2.0, 1))), tuple(initial))

    def test_matches_rk4(self):
        ivp = self.make((1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        ts = np.linspace(0.0, 10.0, 81)
        ref = classical_ode_reference(ivp.f, ivp.forcing, ivp.initial_values, ts)
        assert np.max(np.abs(sol(ts) - ref)) < 1e-6

    def test_reproduces_initial_data(self):
        sol, _ = solve_classical_ivp(self.make((0.7, -0.4)))
        got = derivatives_at_zero(sol.eval, [0, 1])
        assert abs(got[0] - 0.7) < 1e-6
        assert abs(got[1] + 0.4) < 1e-5

    def test_constructed_gic_closes_loop(self):
        # solving again with the constructed r must give the same function,
        # also for a pole of order 3, whose r0/f has a term 1/(s + 1)^3
        triple = ClassicalIVP(parse_symbol("(s + 1)^3*(s + 2)"), forcing_from_text("0"),
                              PoleSpec(((-1.0, 3), (-2.0, 1))), (1.0, 0.5, -0.3, 0.2))
        for ivp in (self.make((1.0, 0.0)), triple):
            sol, gic = solve_classical_ivp(ivp)
            assert gic.provenance == "constructed-from-IVP"
            sol2 = solve_generalized(ivp.f, ivp.forcing, gic)
            ts = np.linspace(0.0, 8.0, 33)
            assert np.max(np.abs(sol(ts) - sol2(ts))) < 1e-6

    def test_zero_forcing(self):
        # unforced: phi = 2 e^{-t} - e^{-2t} for data (1, 0)
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0), forcing="0"))
        ts = np.linspace(0.0, 10.0, 51)
        exact = 2.0 * np.exp(-ts) - np.exp(-2.0 * ts)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-12

    def test_zero_forcing_zero_data(self):
        # r0/f is identically 0: nothing to fit, and phi = 0 exactly; any
        # warning fails the test (filterwarnings = error)
        sol, gic = solve_classical_ivp(self.make((0.0, 0.0), forcing="0"))
        assert gic.is_zero and gic.provenance == "constructed-from-IVP"
        assert sol.diagnostics["r0_over_f_decay"]["q"] == math.inf
        assert np.array_equal(sol(np.linspace(0.0, 10.0, 51)), np.zeros(51))

    def test_triple_pole_block(self):
        f = parse_symbol("(s + 1)^2*(s + 2)")
        ivp = ClassicalIVP(f, forcing_from_text("0"),
                           PoleSpec(((-1.0, 2), (-2.0, 1))), (1.0, 0.5, -0.3))
        sol, _ = solve_classical_ivp(ivp)
        got = derivatives_at_zero(sol.eval, [0, 1, 2])
        assert abs(got[0] - 1.0) < 1e-7
        assert abs(got[1] - 0.5) < 1e-6
        assert abs(got[2] + 0.3) < 1e-4

    def test_smoothness_gate(self):
        # |zeta(s + 3)| is flat on the contour line, so L(J)/f only decays
        # like 1/|s|: the line sampler cannot sum its truncation tail, let
        # alone certify the moments of two initial values
        f = parse_symbol("zeta(s + 3)")
        ivp = ClassicalIVP(f, forcing_from_text("exp(-1*t)"),
                           PoleSpec(((-5.0, 1), (-7.0, 1))), (1.0, 0.0))
        with pytest.raises(HypothesisError, match="truncation tail is not summable") as info:
            solve_classical_ivp(ivp)
        assert info.value.report["gates"][-1][:2] == ("line-quadrature", "FAIL")

    @pytest.mark.parametrize("symbol, poles, forcing", [
        ("zeta(s + 3)", (-5.0, -7.0), "exp(-1*t)"),
        ("zeta(s + 3)", (-5.0, -7.0), "exp(-3*t)"),
        ("zeta(s + 3)", (-5.0, -7.0, -9.0), "t*exp(-1*t)"),
        ("zeta(s + 2)", (-4.0, -6.0), "exp(-1*t)"),
    ])
    def test_moment_refusals_at_line_quadrature(self, symbol, poles, forcing):
        # the sampler that computes the moments L_0 .. L_{K-1} is the one
        # judge of them: solve and the gates refuse these at its row
        args = dict(f=parse_symbol(symbol), J=forcing_from_text(forcing),
                    poles=tuple((w, 1) for w in poles),
                    initial_values=(1.0,) + (0.0,) * (len(poles) - 1))
        with pytest.raises(HypothesisError) as info:
            solve(**args)
        failed = [row[:3] for row in hypothesis_gates(**args) if row[1] == "FAIL"]
        assert info.value.report["gates"][-1][:2] == ("line-quadrature", "FAIL")
        assert failed[0] == info.value.report["gates"][-1]

    def test_gates_recorded_in_order(self):
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        assert [row[:2] for row in sol.diagnostics["gates"]] == [
            ("analytic-right-half-plane", "PASS"),
            ("contour-nonvanishing", "PASS"),
            ("forcing-transform", "PASS"),
            ("hardy-membership", "PASS"),
            ("decay-of-r-over-f", "SKIP"),
            ("pole-constraints", "PASS"),
            ("conditioning", "PASS"),
            ("line-quadrature", "PASS"),
        ]

    def test_one_sampler_per_solve(self, monkeypatch):
        # the line-quadrature gate builds the one sampler; the moments, the
        # values on t <= 10 and the residual check's derivatives all come
        # from it, grown on demand
        builds = []
        build = LineSampler.__init__

        def counted(sampler, *args, **kwargs):
            builds.append(args)
            build(sampler, *args, **kwargs)

        monkeypatch.setattr(LineSampler, "__init__", counted)
        ts = np.linspace(0.0, 10.0, 201)
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0), symbol=NODED_SYMBOL))
        assert sol.line.y_nodes.size > 0
        sol(ts)
        residual_check(sol.f, sol, sol.forcing, ts[1:], N=sol.line.certified_order)
        assert len(builds) == 1
        sol = solve_generalized(*eigen_problem("exp(s)", 2.0))
        assert len(builds) == 2 and sol.line is not None
        sol(ts)
        assert len(builds) == 2
        # after a FAIL the gates build none
        rows = list(hypothesis_gates(parse_symbol("1/(s)"), forcing_from_text("exp(-1*t)"),
                                     r=parse_symbol("1/(s + 1)")))
        assert rows[0][1] == "FAIL" and rows[-1][:2] == ("line-quadrature", "SKIP")
        assert len(builds) == 2

    K6 = "*".join(f"(s + {k})" for k in range(1, 7))
    K6_POLES = tuple((-float(k), 1) for k in range(1, 7))

    def test_uncertified_moments_fail_at_the_gate(self):
        # K = 6 initial values need the moments L_0 .. L_5, but the sampler
        # of this transcendental L(J)/f certifies only order 4
        f = parse_symbol(self.K6 + "*exp(1/(s + 8))")
        with pytest.raises(HypothesisError, match="certified moment order 4 is below K - 1 = 5"):
            solve(f, forcing_from_text("exp(-7*t)"), poles=self.K6_POLES,
                  initial_values=(1.0,) + (0.0,) * 5, cfg=BromwichConfig(y_max=100.0))

    def test_six_rational_moments_are_exact(self):
        # the same problem without the exp factor is rational: its L(J)/f
        # is the closed form at the six poles and -7, and phi is exact
        f = parse_symbol(self.K6)
        J = forcing_from_text("exp(-7*t)")
        data = (1.0,) + (0.0,) * 5
        sol = solve(f, J, poles=self.K6_POLES, initial_values=data,
                    cfg=BromwichConfig(y_max=100.0))
        assert sol.diagnostics["gates"][-1] == ("line-quadrature", "PASS",
                                                "closed form at 7 poles, 0 nodes")
        ts = np.linspace(0.0, 10.0, 41)
        ref = expm_ivp_oracle(f, J, data, ts)
        assert np.max(np.abs(sol(ts) - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the moment system's columns reach 6^5: 2.7e-12 here
        assert max(sol.diagnostics["initial_value_errors"]) < 1e-10

    def test_kernel_counts(self):
        # the initial-value check takes the moments, not t-samples; a
        # 201-point grid is one chirp-z evaluation
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0), symbol=NODED_SYMBOL))
        sol(np.linspace(0.0, 10.0, 201))
        assert sol.line.diagnostics()["t_evaluations"] == {"chirp_z": 1, "blocked": 0}

    def test_a_wrong_fit_still_warns(self, monkeypatch):
        # the initial-value check is independent of the coefficients the
        # fit solves for: coefficients off by 0.01 each miss phi'(0) by
        # 0.01 (1 + 2) at the poles -1 and -2, and warn
        solve_linear = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: solve_linear(m, b) + 0.01)
        with pytest.warns(UserWarning, match="reproduced to only 3.00e-02") as caught:
            sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        assert np.allclose(sol.diagnostics["initial_value_errors"], [0.02, 0.03])
        assert [w.filename for w in caught] == [__file__]

    def test_derivative_prediction(self):
        ivp = self.make((1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        predicted = predict_derivative_at_zero(sol.poles, sol.residue, 2,
                                               sol.line.moment(2))
        fd = derivatives_at_zero(sol.eval, [2])[0]
        assert abs(predicted - fd) < 1e-3


class TestClosedFormLine:
    """For a rational L(J)/f the line sampler is the sum of its principal
    parts at every pole of the census, exact at every t, with no nodes."""

    LARGE_T = np.array([10.0, 20.0, 30.0, 40.0])

    def solve_loudly(self, symbol, forcing, poles, data):
        f, J = parse_symbol(symbol), forcing_from_text(forcing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, _ = solve_classical_ivp(ClassicalIVP(f, J, PoleSpec(poles), data))
            return sol, sol(self.LARGE_T), expm_ivp_oracle(f, J, data, self.LARGE_T)

    @pytest.mark.parametrize("problem", [p for p in test_acceptance.IVP_CORPUS
                                         if "zeta" not in p[0]], ids=lambda p: p[0])
    def test_rational_corpus_at_large_t(self, problem):
        # the first is the damped config's IVP, off by 0.379 at t = 40 on
        # the line; each point is now within 1e-13 of its own size
        sol, got, want = self.solve_loudly(*problem)
        assert sol.line.y_nodes.size == 0
        assert sol.diagnostics["gates"][-1][2] == \
            f"closed form at {len(sol.line.poles)} poles, 0 nodes"
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_resonance_adds_the_orders(self):
        # J = e^{-t} meets the declared pole -1: L(J)/f = 1/((s + 1)^2 (s + 2))
        sol, got, want = self.solve_loudly("(s + 1)*(s + 2)", "exp(-1*t)",
                                           ((-1.0, 1), (-2.0, 1)), (1.0, 0.0))
        assert sol.line.poles == ((-1.0, 2), (-2.0, 1))
        assert sol.line.diagnostics()["coefficient_error"] <= 1e-13
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_an_omitted_zero_is_in_the_census(self):
        # -2 is a zero of f but not declared: the census of L(J)/f still
        # finds its pole there, so the sampler is the closed form at -1, -2
        # and -3, and phi = 1.5 e^{-t} - e^{-2t} + 0.5 e^{-3t} (phi(40) read
        # -0.325 + 0.195i on the line)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, _ = solve_classical_ivp(ClassicalIVP(
                parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)"),
                PoleSpec(((-1.0, 1),)), (1.0,)))
            got = sol(self.LARGE_T)
        assert sol.line.y_nodes.size == 0
        assert sol.diagnostics["gates"][-1][2] == "closed form at 3 poles, 0 nodes"
        heaviside = 1.5 * np.exp(-self.LARGE_T) - np.exp(-2.0 * self.LARGE_T) \
            + 0.5 * np.exp(-3.0 * self.LARGE_T)
        assert np.all(np.abs(got - heaviside) <= 1e-13 * np.abs(heaviside))

    def damped(self, data, forcing="exp(-3*t)"):
        return ClassicalIVP(parse_symbol("(s + 1)*(s + 2)"), forcing_from_text(forcing),
                            PoleSpec(((-1.0, 1), (-2.0, 1))), data)

    def test_the_memo_hands_out_the_one_closed_form(self):
        first, _ = solve_classical_ivp(self.damped((1.0, 0.0)))
        second, _ = solve_classical_ivp(self.damped((0.5, -1.0)))
        assert second.diagnostics["gates_reused"] and second.line is first.line
        assert second.diagnostics["Ln"] == first.diagnostics["Ln"]

    @pytest.mark.parametrize("data, q, C", [((1.0, -1.0), 1.0, 1.0), ((0.0, 1.0), 2.0, 1.0),
                                            ((0.0, 0.0), math.inf, 0.0)])
    def test_r0_decay_in_closed_form(self, data, q, C):
        # unforced, phi = e^{-t}, e^{-t} - e^{-2t} and 0: r0/f is 1/(s + 1),
        # 1/((s + 1)(s + 2)) and 0
        sol, _ = solve_classical_ivp(self.damped(data, forcing="0"))
        decay = sol.diagnostics["r0_over_f_decay"]
        assert decay["q"] == q and decay["C"] == pytest.approx(C, rel=1e-14)

    def test_t_of_two_dimensions_is_refused_by_name(self):
        sol, _ = solve_classical_ivp(self.damped((1.0, 0.0)))
        ts = np.array([[0.1, 0.2], [0.3, 0.4]])
        for invert in (sol, lambda t: transforms.bromwich_invert(lambda s: 1 / (s + 1), t)):
            with pytest.raises(ValueError, match=r"1-D array of t, got an array of shape \(2, 2\)"):
                invert(ts)


class TestPoleCensus:
    """A rational f and F are decided from their coefficients: the gate rows
    from the roots of their factors, and the sampler is the closed form of
    F's principal parts, with or without declared poles."""

    LARGE_T = np.array([10.0, 20.0, 30.0, 40.0])

    def test_undeclared_poles_are_exact_at_large_t(self):
        # off by 0.379 at t = 40 when this problem laid 4075 nodes
        f, J = parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(f, J)
            got = sol(self.LARGE_T)
        assert sol.diagnostics["gates"][-1][2] == "closed form at 3 poles, 0 nodes"
        heaviside = 0.5 * np.exp(-self.LARGE_T) - np.exp(-2.0 * self.LARGE_T) \
            + 0.5 * np.exp(-3.0 * self.LARGE_T)
        assert np.all(np.abs(got - heaviside) <= 1e-13 * np.abs(heaviside))

    @pytest.mark.parametrize("symbol, forcing", [
        ("(s + 1)*(s + 2)", "t^5*exp(-1*t)"),
        ("s + 2", "t^6*exp(-1*t)"),
    ])
    def test_power_forcings_are_in_h2(self, symbol, forcing):
        # L(J)/f has a pole of order 7 at -1: in every H^p, though its line
        # means are large near the axis; the sampled rule refused both
        f, J = parse_symbol(symbol), forcing_from_text(forcing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(f, J)
            ts = np.linspace(0.0, 10.0, 41)
            got = sol(ts)
        assert sol.line.poles[0] == (-1.0, 7)
        degree = len(nlode.taylor_coefficients(f, 4).nonzero()[0]) - 1
        ref = classical_ode_reference(f, J, [0.0] * degree, ts)
        assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize("symbol, sigma, names, row", [
        ("(s - 1)*(s + 2)", 0.5, "s = 1", "hardy-membership"),
        ("(s - 1.05)^2 + 0.09", 1.0, "s = 1.05-0.3j, 1.05+0.3j", "hardy-membership"),
        ("(s - 1)^2 + 0.09", 1.0, "s = 1-0.3j, 1+0.3j", "contour-nonvanishing"),
    ], ids=["zero-right-of-the-contour", "pair-right-of-the-contour", "pair-on-the-contour"])
    def test_zeros_on_or_right_of_the_contour_are_refused(self, symbol, sigma, names, row,
                                                          tmp_path, capsys):
        args = dict(f=parse_symbol(symbol), J=forcing_from_text("exp(-1*t)"),
                    cfg=BromwichConfig(sigma=sigma))
        failed = [r[:3] for r in hypothesis_gates(**args) if r[1] == "FAIL"]
        assert failed[0][0] == row and names in failed[0][2]
        with pytest.raises(HypothesisError, match=re.escape(names)) as info:
            solve(**args)
        assert info.value.report["gates"][-1] == failed[0]
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"mode = diagnose\nsymbol = {symbol}\nforcing = exp(-1*t)\n"
                       f"sigma = {sigma}\n")
        assert nlode.cli.diagnose(str(cfg)) == 2
        assert names in capsys.readouterr().out

    def test_pole_of_f_in_the_right_half_plane_is_named(self):
        rows = hypothesis_gates(parse_symbol("1/(s - 0.5)"), forcing_from_text("exp(-1*t)"))
        assert rows[0][:3] == ("analytic-right-half-plane", "FAIL",
                               "symbol has a pole in Re(s) >= 0 at s = 0.5")

    def test_a_common_factor_leaves_no_part(self):
        # r = ((s - 3)(s + 2) - 1)/(s + 3) makes L(J) + r vanish at 3, the
        # zero of f right of the contour: F = (s - 3)(s + 2)/((s + 3)(s - 3)(s + 1))
        # has no pole there, and phi is the sum of its parts at -1 and -3
        f = parse_symbol("(s - 3)*(s + 1)")
        r = parse_symbol("((s - 3)*(s + 2) - 1)/(s + 3)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(f, forcing_from_text("exp(-3*t)"), r=r)
            got = sol(self.LARGE_T)
        assert [w for w, _ in sol.line.poles] == [-1.0, -3.0]
        want = 0.5 * np.exp(-self.LARGE_T) + 0.5 * np.exp(-3.0 * self.LARGE_T)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_a_pole_of_r_over_f_the_declared_poles_omit_is_refused(self, tmp_path, capsys):
        # r/f = (s + 3)/((s + 1)(s + 2)) has a residue at -2 as well; with -1
        # declared alone, every gate passed and phi(0.5) read 1.26001, not 0.892133
        args = dict(f=parse_symbol("(s + 1)*(s + 2)"), J=forcing_from_text("exp(-3*t)"),
                    r=parse_symbol("s + 3"), poles=((-1.0, 1),))
        message = "r/f has a pole of order 1 at s = -2 that the declared poles omit"
        rows = [row[:3] for row in hypothesis_gates(**args)]
        assert ("pole-constraints", "FAIL", message) in rows
        with pytest.raises(HypothesisError, match=re.escape(message)):
            solve(**args)
        cfg = tmp_path / "omitted.cfg"
        cfg.write_text("mode = diagnose\nsymbol = (s + 1)*(s + 2)\nforcing = exp(-3*t)\n"
                       "gic = s + 3\n[poles]\n-1 0 1\n")
        assert nlode.cli.diagnose(str(cfg)) == 2
        assert message in capsys.readouterr().out
        both = solve(**{**args, "poles": ((-1.0, 1), (-2.0, 1))})
        assert abs(both(0.5) - 0.892133) < 1e-6

    @pytest.mark.parametrize("rate, sigma", [(0.05, 1.0), (0.1, 1.0), (0.5, 1.0), (0.8, 1.5)])
    def test_parts_between_the_axis_and_the_contour_pass_by_census(self, rate, sigma,
                                                                   monkeypatch):
        # the sampled rule passed e^{0.05 t} and e^{0.5 t} but failed
        # e^{0.1 t}, whose line x = 0.1 meets the pole; the census passes all
        # and reports ||F(sigma + .)||_{H^2}, the line mean on the contour
        f, J = parse_symbol("(s + 1)*(s + 2)"), forcing_from_text(f"exp({rate}*t)")
        cfg = BromwichConfig(sigma=sigma)
        want = transforms.hardy_norm(lambda s: 1 / ((s - rate) * (s + 1) * (s + 2)), 2.0, sigma)

        def refuse(*args, **kwargs):
            raise AssertionError("sampled the Hardy lines")

        monkeypatch.setattr(transforms, "hardy_norm", refuse)
        row = next(row for row in hypothesis_gates(f, J, cfg=cfg) if row[0] == "hardy-membership")
        assert row[1] == "PASS" and f"poles right of the axis at s = {rate:g}" in row[2]
        assert row[3]["sup"] == pytest.approx(want, rel=1e-9)
        ts = np.linspace(0.0, 10.0, 11)
        exact = np.exp(rate * ts) / ((rate + 1) * (rate + 2)) - np.exp(-ts) / (1 + rate) \
            + np.exp(-2.0 * ts) / (2 + rate)
        assert np.max(np.abs(solve(f, J, cfg=cfg)(ts) - exact) / np.abs(exact)) < 1e-12

    def test_h2_norm_is_plancherel(self):
        # ||1/((s + 1)(s + 2)(s + 3))||_{H^2}^2 = 1/120, the integral of
        # (e^{-t}/2 - e^{-2t} + e^{-3t}/2)^2; the sampled mu_2(0) agrees
        sol, _ = solve_classical_ivp(ClassicalIVP(
            parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)"),
            PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0)))
        norm = sol.diagnostics["hardy"]["sup"]
        assert norm == pytest.approx(math.sqrt(1 / 120), rel=1e-14)
        F = lambda s: 1 / ((s + 1) * (s + 2) * (s + 3))  # noqa: E731
        assert transforms.hardy_norm(F, 2.0, 0.0) == pytest.approx(norm, rel=1e-10)

    def test_callable_f_keeps_the_sampled_path(self):
        # the constructed r0 is f times the residue transform, with f a Call leaf
        sol = solve(lambda s: (s + 1) * (s + 2), forcing_from_text("exp(-3*t)"),
                    poles=((-1, 1), (-2, 1)), initial_values=(1.0, 0.0))
        assert sol.line.y_nodes.size > 0 and sol.line.poles == ()
        assert isinstance(sol.gic.r.expr.left, symbols.Call)
        ts = np.linspace(0.0, 10.0, 201)
        exact = 2.5 * np.exp(-ts) - 2.0 * np.exp(-2.0 * ts) + 0.5 * np.exp(-3.0 * ts)
        assert np.max(np.abs(sol(ts) - exact)) < 1e-10

    def test_a_rational_problem_samples_nothing(self, monkeypatch):
        # neither the Hardy lines nor the ring, in either module that binds
        # it: the census decides every row and gives r/f's residues, and
        # the exp(s) eigenfunction still samples its Hardy lines
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a rational problem")

        for module in (symbols, solver):
            monkeypatch.setattr(module, "laurent_coefficients", refuse)
        monkeypatch.setattr(transforms, "hardy_norm", refuse)
        f, J = parse_symbol("(s + 1)*(s + 2)"), forcing_from_text("exp(-3*t)")
        for args in ({"poles": ((-1.0, 1), (-2.0, 1)), "initial_values": (1.0, 0.0)},
                     {"r": parse_symbol("s + 3")}, {"poles": ((-1.0, 1),), "initial_values": (1.0,)},
                     {"r": parse_symbol("s + 3"), "poles": ((-1.0, 1), (-2.0, 1))}):
            sol = solve(f, J, **args)
            assert sol.line.y_nodes.size == 0
        assert sol.residue.coefficients == ((2 + 0j,), (-1 + 0j,))
        # an overstated order: the census part at -1 is one term, padded with 0
        with pytest.warns(UserWarning, match="may be overstated"):
            sol = solve(parse_symbol("(s + 1)^2*(s + 2)"), J, r=parse_symbol("(s + 1)*(s + 3)"),
                        poles=((-1.0, 2), (-2.0, 1)))
        assert sol.line.y_nodes.size == 0 and sol.residue.coefficients[0][1] == 0
        with pytest.raises(AssertionError, match="sampled a rational problem"):
            solve_generalized(*eigen_problem("exp(s)", 2.0))

    def test_the_classical_path_imports_no_fft(self, tmp_path):
        # nor does `nlode solve` on the zeta config, whose residual check
        # takes zeta(s + 3)'s Taylor series on the ring
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys\n"
                "import numpy as np\n"
                "import nlode.cli\n"
                "from nlode import ClassicalIVP, PoleSpec, forcing_from_text, parse_symbol, "
                "solve_classical_ivp\n"
                "sol, _ = solve_classical_ivp(ClassicalIVP(parse_symbol('(s + 1)*(s + 2)'), "
                "forcing_from_text('exp(-3*t)'), PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0)))\n"
                "sol(np.linspace(0.0, 10.0, 201))\n"
                "print('numpy.fft' in sys.modules)\n"
                f"assert nlode.cli.run({os.path.join(root, 'configs', 'zeta_symbol_ivp.cfg')!r}) == 0\n"
                "print('numpy.fft' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=env, timeout=120, check=True)
        assert out.stdout.split() == ["False", "wrote", "zeta_symbol_ivp.csv", "False"]
        assert "residual_sup: n/a (truncated series diverges by term 7" in \
            (tmp_path / "zeta_symbol_ivp.report.txt").read_text()


class TestAssemble:
    def test_vandermonde_for_simple_poles(self):
        f = parse_symbol("(s + 1)*(s + 2)*(s + 3)")
        poles = PoleSpec(((-1.0, 1), (-2.0, 1), (-3.0, 1)))
        ivp = ClassicalIVP(f, forcing_from_text("0"), poles, (1.0, 0.0, 0.0))
        matrix, _ = assemble_ivp_system(ivp, np.zeros(3, np.complex128))
        nodes = np.array([-1.0, -2.0, -3.0])
        vander = np.vander(nodes, 3, increasing=True).T
        assert np.max(np.abs(matrix - vander)) < 1e-12

    def test_matrix_is_the_residue_derivatives_at_zero(self):
        # row n of the system applied to the coefficients is the n-th
        # derivative at 0 of the residue part they define
        f = parse_symbol("(s + 1)*(s + 2)^2*(s + 3)^3*(s^2 + 2*s + 5)")
        poles = PoleSpec(((-1.0, 1), (-2.0, 2), (-3.0, 3), (-1 + 2j, 1), (-1 - 2j, 1)))
        ivp = ClassicalIVP(f, forcing_from_text("0"), poles, (0.0,) * poles.K)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(poles.K) + 1j * rng.standard_normal(poles.K)
        splits = np.cumsum([order for _, order in poles.poles])[:-1]
        rp = ResiduePolynomials(tuple(map(tuple, np.split(a, splits))))
        rows = assemble_ivp_system(ivp, np.zeros(poles.K))[0] @ a
        for n in range(poles.K):
            value = residue_derivative_values(rp, poles, n, 0.0)[0]
            assert abs(rows[n] - value) <= 1e-13 * max(1.0, abs(value))

    def test_moment_count_checked(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        ivp = ClassicalIVP(f, forcing_from_text("0"),
                           PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0))
        with pytest.raises(ValueError):
            assemble_ivp_system(ivp, np.zeros(3, np.complex128))


class TestDerivativesAtZero:
    def test_polynomial_exact(self):
        got = derivatives_at_zero(lambda t: 1.0 + 2.0 * t + 1.5 * t ** 2, [0, 1, 2])
        assert abs(got[0] - 1.0) < 1e-10
        assert abs(got[1] - 2.0) < 1e-9
        assert abs(got[2] - 3.0) < 1e-7

    def test_exponential(self):
        got = derivatives_at_zero(lambda t: np.exp(-2.0 * t), [0, 1, 2, 3])
        expect = [1.0, -2.0, 4.0, -8.0]
        tols = [1e-10, 1e-8, 1e-5, 1e-3]
        for g, e, tol in zip(got, expect, tols):
            assert abs(g - e) < tol

    def test_one_call_for_every_order(self):
        # the stencils of all orders go to fn together; a solution's value
        # at a time does not depend on the other times in the call, so each
        # order is bit for bit what a call for that order alone gives
        sol, _ = solve_classical_ivp(TestClassicalIVP().make((1.0, 0.0)))
        calls = []

        def counting(t):
            calls.append(np.size(t))
            return sol.eval(t)

        got = derivatives_at_zero(counting, [0, 1, 2])
        assert calls == [4 + 5 + 6]
        assert got == [derivatives_at_zero(sol.eval, [n])[0] for n in (0, 1, 2)]

    def test_scalar_only_fn_is_called_point_by_point(self):
        def scalar_only(t):
            return math.exp(-2.0 * t) if np.ndim(t) == 0 else 0.0

        got = derivatives_at_zero(scalar_only, [0, 1])
        assert abs(got[0] - 1.0) < 1e-10 and abs(got[1] + 2.0) < 1e-8


class TestFindZeros:
    def test_double_and_simple(self):
        f = parse_symbol("(s + 1)^2*(s + 2)")
        zeros = find_zeros(f, (-3.0, -0.1, -1.0, 1.0))
        got = sorted(((z.real, m) for z, m in zeros))
        assert len(got) == 2
        assert abs(got[0][0] + 2.0) < 1e-8 and got[0][1] == 1
        assert abs(got[1][0] + 1.0) < 1e-8 and got[1][1] == 2

    def test_zeta_trivial_zero(self):
        f = parse_symbol("zeta(s + 3)")
        zeros = find_zeros(f, (-6.0, -4.0, -1.0, 1.0))
        assert len(zeros) == 1
        z, m = zeros[0]
        assert abs(z - (-5.0)) < 1e-6 and m == 1

    def test_complex_conjugate_pair(self):
        f = parse_symbol("s^2 + 2*s + 2")
        zeros = find_zeros(f, (-2.0, -0.1, -2.0, 2.0))
        got = sorted((complex(z) for z, _ in zeros), key=lambda z: z.imag)
        assert abs(got[0] - (-1.0 - 1.0j)) < 1e-8
        assert abs(got[1] - (-1.0 + 1.0j)) < 1e-8

    def test_empty_rectangle(self):
        f = parse_symbol("(s + 5)*(s + 6)")
        assert find_zeros(f, (-2.0, -0.1, -1.0, 1.0)) == []

    def test_a_pole_hides_no_zero_of_a_rational_symbol(self):
        assert find_zeros(parse_symbol("(s + 1)/(s + 2)"), (-3.0, -0.5, -1.0, 1.0)) == [(-1.0, 1)]

    @pytest.mark.parametrize("f", [parse_symbol("(s + 1)*(s + 3)"),
                                   lambda s: (s + 1) * (s + 3)], ids=["rational", "callable"])
    def test_zero_on_the_boundary_rejected(self, f):
        with pytest.raises(ValueError, match="zero on or near the rectangle boundary"):
            find_zeros(f, (-2.0, -1.0, -1.0, 1.0))

    def test_right_half_plane_rejected(self):
        with pytest.raises(ValueError):
            find_zeros(parse_symbol("s - 1"), (0.5, 1.5, -1.0, 1.0))

    def test_gaussian_symbol_zero_pair(self):
        # frozen by tests/oracle_scripts/entire_symbol_zeros.py
        f = parse_symbol(GAUSSIAN_SYMBOL)
        zeros = find_zeros(f, (-1.5, -0.25, -1.0, 1.0))
        got = sorted((complex(z) for z, _ in zeros), key=lambda z: z.imag)
        ref = complex(-1.1181843232722837, 0.2477119605114248)
        assert len(got) == 2
        assert abs(got[1] - ref) < 1e-9
        assert abs(got[0] - ref.conjugate()) < 1e-9


class TestSolutionObject:
    def test_parts_sum(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        ivp = ClassicalIVP(f, forcing_from_text("exp(-3*t)"),
                           PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        ts = np.array([0.5, 1.0, 2.0])
        bro, res = sol.eval_parts(ts)
        assert np.allclose(bro + res, sol(ts))

    def test_nth_derivative_matches_exact(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        ivp = ClassicalIVP(f, forcing_from_text("0"),
                           PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        ts = np.linspace(0.5, 4.0, 8)
        # phi = 2 e^{-t} - e^{-2t}
        d2 = 2.0 * np.exp(-ts) - 4.0 * np.exp(-2.0 * ts)
        assert np.max(np.abs(sol.nth_derivative(2, ts) - d2)) < 1e-10

    def test_requires_custom_config(self):
        f, J, gic = eigen_problem("exp(s)", 2.0)
        sol = solve_generalized(f, J, gic, BromwichConfig(sigma=2.0))
        assert sol.config.sigma == 2.0
        ts = np.linspace(0.0, 5.0, 21)
        assert np.max(np.abs(sol(ts) - np.exp(-0.5 * ts))) < 1e-6


class TestCheckedProblemMemo:
    """Gate rows and the line sampler depend on (f, J, r, poles, cfg, K),
    not on the initial values: a solve replays the last stored pass."""

    F2, J2 = "(s + 1)*(s + 2)", "exp(-3*t)"
    TS = np.linspace(0.0, 10.0, 201)
    # the memo tests of the line work need a problem that lays nodes

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = LineSampler.__init__

        def counted(sampler, *args, **kwargs):
            built.append(args)
            build(sampler, *args, **kwargs)

        monkeypatch.setattr(LineSampler, "__init__", counted)
        return built

    def ivp(self, data, forcing=J2):
        return ClassicalIVP(parse_symbol(NODED_SYMBOL), forcing_from_text(forcing),
                            PoleSpec(((-1.0, 1), (-2.0, 1))), tuple(data))

    def test_ten_draws_build_one_sampler(self, builds):
        draws = np.random.default_rng(7).uniform(-2.0, 2.0, (10, 2))
        warm = [solve_classical_ivp(self.ivp(data))[0] for data in draws]
        assert len(builds) == 1
        assert [sol.diagnostics["gates_reused"] for sol in warm] == [False] + [True] * 9
        for sol, data in zip(warm, draws):
            solver._checked.clear()
            cold, _ = solve_classical_ivp(self.ivp(data))
            assert not cold.diagnostics["gates_reused"]
            assert np.array_equal(sol(self.TS), cold(self.TS))
            for key in ("Ln", "initial_value_errors", "gates"):
                assert sol.diagnostics[key] == cold.diagnostics[key]

    def test_ten_draws_share_the_line_work(self, monkeypatch):
        # the cold draw settles at budget 1 and extends to 16 once; every
        # replay shares that sampler, its states, moments and grid values
        settled, chirps = [], []
        settle, chirp_z = LineSampler._settle, transforms._chirp_z

        def counted_settle(sampler, state, budget):
            settled.append(budget)
            return settle(sampler, state, budget)

        def counted_chirp_z(*args):
            chirps.append(args[-1])
            return chirp_z(*args)

        monkeypatch.setattr(LineSampler, "_settle", counted_settle)
        monkeypatch.setattr(transforms, "_chirp_z", counted_chirp_z)
        draws = np.random.default_rng(7).uniform(-2.0, 2.0, (10, 2))
        lines = []
        for data in draws:
            sol, _ = solve_classical_ivp(self.ivp(data))
            sol(self.TS)
            lines.append(sol.line)
        assert all(line is lines[0] for line in lines)
        diag = lines[0].diagnostics()
        assert diag["t_evaluations"] == {"chirp_z": 1, "blocked": 0}
        assert list(diag["budgets"]) == [1.0, 16.0]
        assert settled == [1.0, 16.0]
        assert chirps == [self.TS.size]

    def test_ten_draws_share_one_moment_system(self, monkeypatch):
        # the ten draws of criterion 02: the stored pass builds the moment
        # matrix and takes L_0 and L_1 once, and each draw is one 2 x 2
        # solve against them
        assembled, moments = [], []
        assemble, moment = solver.assemble_ivp_system, LineSampler.moment

        def counted_assemble(*args):
            assembled.append(args)
            return assemble(*args)

        def counted_moment(sampler, n):
            moments.append(n)
            return moment(sampler, n)

        monkeypatch.setattr(solver, "assemble_ivp_system", counted_assemble)
        monkeypatch.setattr(LineSampler, "moment", counted_moment)
        f, J = parse_symbol(self.F2), forcing_from_text(self.J2)
        poles = PoleSpec(((-1.0, 1), (-2.0, 1)))
        rng = np.random.default_rng(7)
        sols = [solve_classical_ivp(ClassicalIVP(f, J, poles, tuple(rng.uniform(-2.0, 2.0, 2))))[0]
                for _ in range(10)]
        assert len(assembled) == 1 and moments == [0, 1]
        assert all(sol.diagnostics["Ln"] == sols[0].diagnostics["Ln"] for sol in sols)
        assert max(max(sol.diagnostics["initial_value_errors"]) for sol in sols) < 1e-14

    def test_values_depend_on_the_times_alone(self):
        # a replay that first evaluates t = 40 gives, at t <= 10, the bits
        # of a cold solve that never went past t = 10
        sol, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        sol(40.0)
        values = sol(self.TS)
        solver._checked.clear()
        cold, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        assert np.array_equal(values, cold(self.TS))

    def test_replays_match_cold_solves(self):
        # replays of one stored pass share its sampler and run interleaved:
        # b's t <= 10 values come from the budget-16 state, not a's
        # budget-64 one, and c reads b's states and grid values.  Each step
        # of each draw equals a cold solve that makes its calls, with the
        # same state at each budget that cold solve reached.
        early, late = np.linspace(0.0, 1.0, 41), np.array([40.0])
        data = {"a": (1.0, 0.0), "b": (0.5, -1.0), "c": (-1.0, 2.0)}
        calls = [("a", late), ("b", early), ("b", self.TS), ("c", self.TS), ("a", self.TS),
                 ("b", late), ("c", early), ("b", self.TS), ("c", late), ("a", early)]
        warm = {name: solve_classical_ivp(self.ivp(d))[0] for name, d in data.items()}

        def step(sol, ts):
            return sol(ts), sol.line.diagnostics()["budgets"]

        got = [step(warm[name], ts) for name, ts in calls]
        assert warm["a"].line is warm["b"].line is warm["c"].line
        assert list(warm["c"].line.diagnostics()["budgets"]) == [1.0, 16.0, 64.0]
        for name in data:
            solver._checked.clear()
            cold, _ = solve_classical_ivp(self.ivp(data[name]))
            mine = [(ts, values) for (who, ts), values in zip(calls, got) if who == name]
            for ts, (values, budgets) in mine:
                want, want_budgets = step(cold, ts)
                assert np.array_equal(values, want)
                assert {b: budgets[b] for b in want_budgets} == want_budgets

    def test_returned_values_are_the_callers(self):
        # the slot keeps its own copy of the last evaluation: 12 calls, of
        # which the 8 repeats run no kernel
        first, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        second, _ = solve_classical_ivp(self.ivp((0.5, -1.0)))
        kept = {}
        for sol in (first, second):
            for name, evaluate in (("sol", sol), ("line", sol.line.values)):
                for _ in range(3):
                    values = evaluate(self.TS)
                    assert np.array_equal(values, kept.setdefault((id(sol), name), values.copy()))
                    values[:] = 0.0
        assert second.line.diagnostics()["t_evaluations"] == {"chirp_z": 4, "blocked": 0}
        assert np.array_equal(kept[id(first), "line"], kept[id(second), "line"])

    def test_threads_racing_on_the_line_work(self, monkeypatch):
        # two replays enter the extension and the grid evaluation together,
        # so both compute and both publish; each gets the cold values
        first, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        values, results = first(self.TS), []
        solver._checked.clear()
        solve_classical_ivp(self.ivp((1.0, 0.0)))
        together = threading.Barrier(2, timeout=30.0)
        settle, chirp_z = LineSampler._settle, transforms._chirp_z

        def paired_settle(*args):
            together.wait()
            return settle(*args)

        def paired_chirp_z(*args):
            together.wait()
            return chirp_z(*args)

        monkeypatch.setattr(LineSampler, "_settle", paired_settle)
        monkeypatch.setattr(transforms, "_chirp_z", paired_chirp_z)

        def replay():
            sol, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
            results.append((sol(self.TS), sol.line))

        threads = [threading.Thread(target=replay) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
        assert len(results) == 2 and results[0][1] is results[1][1]
        for got, _ in results:
            assert np.array_equal(got, values)
        line = results[0][1]
        assert line.diagnostics()["t_evaluations"] == {"chirp_z": 2, "blocked": 0}
        assert list(line.diagnostics()["budgets"]) == [1.0, 16.0]
        monkeypatch.undo()
        third, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        assert np.array_equal(third(self.TS), values)
        assert third.line is line
        assert line.diagnostics()["t_evaluations"] == {"chirp_z": 2, "blocked": 0}

    @pytest.mark.parametrize("case", ["callable-f", "call-leaf", "callable-r", "hand-built-J"])
    def test_callables_are_never_keys(self, builds, case):
        f, J = parse_symbol(self.F2), forcing_from_text(self.J2)
        r = GeneralizedIC(parse_symbol("s + 3"))
        if case == "callable-f":
            f = np.polynomial.Polynomial([2.0, 3.0, 1.0])
        elif case == "call-leaf":
            f = symbols.AnalyticSymbol(symbols.Mul(symbols.Call(lambda s: s + 1),
                                                   parse_symbol("s + 2").expr))
        elif case == "callable-r":
            r = GeneralizedIC(lambda s: s + 3)
        else:
            J = transforms.Forcing(lambda t: np.exp(-3 * np.asarray(t)) + 0j,
                                   parse_symbol("1/(s + 3)"))
        exact = 2.5 * np.exp(-self.TS) - 2.0 * np.exp(-2 * self.TS) + 0.5 * np.exp(-3 * self.TS)
        for n in (1, 2):
            sol = solve(f, J, r=r)
            assert len(builds) == n and not sol.diagnostics["gates_reused"]
            assert np.max(np.abs(sol(self.TS) - exact)) < 1e-7

    def test_text_forcings_compare_equal(self):
        assert forcing_from_text(self.J2) == forcing_from_text(self.J2)
        assert hash(forcing_from_text(self.J2)) == hash(forcing_from_text(self.J2))
        assert forcing_from_text(self.J2) == forcing_from_text("exp( -3*t )")
        assert hash(forcing_from_text(self.J2)) == hash(forcing_from_text("exp( -3*t )"))
        assert forcing_from_text(self.J2) != forcing_from_text("exp(-2*t)")

    def test_texts_of_one_tree_share_a_pass(self):
        reused = [solve_classical_ivp(self.ivp((1.0, 0.0), text))[0].diagnostics["gates_reused"]
                  for text in (self.J2, "exp( -3*t )")]
        assert reused == [False, True]

    def test_solutions_do_not_alias(self):
        first, _ = solve_classical_ivp(self.ivp((1.0, 0.0)))
        second, _ = solve_classical_ivp(self.ivp((0.5, -1.0)))
        assert second.diagnostics["gates_reused"]
        values = second(self.TS)
        first(40.0)
        assert first.line is second.line and 64.0 in first.line.diagnostics()["budgets"]
        assert np.array_equal(second(self.TS), values)
        hardy = {**second.diagnostics["hardy"],
                 "mu_values": list(second.diagnostics["hardy"]["mu_values"])}
        first.diagnostics["hardy"]["mu_values"].append(1.0)
        first.diagnostics["hardy"]["sup"] = -1.0
        third, _ = solve_classical_ivp(self.ivp((0.5, -1.0)))
        assert second.diagnostics["hardy"] == hardy == third.diagnostics["hardy"]
        assert np.array_equal(third(self.TS), values)

    def test_a_warning_is_never_hidden(self):
        f, J, gic = eigen_problem("zeta(s + 3)", 2.0)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="zeta evaluated above the height cap"):
                sol = solve_generalized(f, J, gic, BromwichConfig(y_max=300.0))
            assert not sol.diagnostics["gates_reused"]

    def test_module_filters_reach_the_gate_warnings(self):
        # zeta warns its caller in nlode.symbols, in a solve as in a direct
        # evaluation, so a filter on that module silences both
        f, J, gic = eigen_problem("zeta(s + 3)", 2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"nlode\.symbols")
            solve_generalized(f, J, gic, BromwichConfig(y_max=300.0))
        assert not [w for w in caught if "height cap" in str(w.message)]

    def test_another_threads_warning_is_not_the_pass(self, monkeypatch):
        paused, resume, solved = threading.Event(), threading.Event(), []
        check = solver.verify_forcing

        def pausing(*args, **kwargs):
            paused.set()
            resume.wait(30.0)
            return check(*args, **kwargs)

        monkeypatch.setattr(solver, "verify_forcing", pausing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cold = threading.Thread(
                target=lambda: solved.append(solve_classical_ivp(self.ivp((1.0, 0.0)))[0]))
            cold.start()
            assert paused.wait(30.0)
            other = threading.Thread(target=nlode.zeta, args=(2 + 3e4j,))
            other.start()
            other.join()
            resume.set()
            cold.join()
            warm, _ = solve_classical_ivp(self.ivp((0.5, -1.0)))
        assert len(solved) == 1 and not solved[0].diagnostics["gates_reused"]
        assert warm.diagnostics["gates_reused"]
        assert len([w for w in caught if "height cap" in str(w.message)]) == 1

    def test_gates_then_solve_build_one_sampler(self, builds):
        args = dict(f=parse_symbol(self.F2), J=forcing_from_text(self.J2),
                    poles=((-1.0, 1), (-2.0, 1)), initial_values=(1.0, 0.0))
        rows = list(hypothesis_gates(**args))
        sol = solve(**args)
        assert len(builds) == 1 and sol.diagnostics["gates_reused"]
        assert sol.diagnostics["gates"] == [row[:3] for row in rows]
        with pytest.raises(ValueError):
            solve(**{**args, "initial_values": ("one", 0.0)})

    def test_refused_solve_raises_the_same_error(self, builds):
        args = dict(f=parse_symbol("zeta(s + 3)"), J=forcing_from_text("exp(-1*t)"),
                    poles=((-5.0, 1), (-7.0, 1)), initial_values=(1.0, 0.0))
        errors = []
        for _ in range(2):
            with pytest.raises(HypothesisError) as info:
                solve(**args)
            errors.append((str(info.value), info.value.report["gates"]))
        assert errors[0] == errors[1] and len(builds) == 2
        list(hypothesis_gates(**args))
        with pytest.raises(HypothesisError) as info:
            solve(**args)
        assert (str(info.value), info.value.report["gates"]) == errors[0]
        assert info.value.report["gates_reused"]
