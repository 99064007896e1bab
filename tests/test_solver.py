"""Tests for the generalized solver, classical IVPs, and zero finding."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from nlode.oracles import classical_ode_reference, residual_check
from nlode.solver import (
    ClassicalIVP,
    GeneralizedIC,
    HypothesisError,
    PoleSpec,
    ResiduePolynomials,
    assemble_ivp_system,
    decay_fit,
    derivatives_at_zero,
    find_zeros,
    laurent_coefficients,
    predict_derivative_at_zero,
    residue_derivative_values,
    residue_sum_eval,
    solve_classical_ivp,
    solve_generalized,
    solve_with_poles,
    zero_ic,
)
from nlode.symbols import parse_symbol
from nlode.transforms import BromwichConfig, LineSampler, forcing_from_text

GAUSSIAN_SYMBOL = "exp(2*(s^2 + 0.5*s))*(s^2 + 0.5*s - 1) + 2"


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
        vals = residue_sum_eval(rp, poles, ts)
        assert np.allclose(vals, (2.0 + 3.0 * ts) * np.exp(-ts))

    def test_residue_derivative(self):
        poles = PoleSpec(((-2.0, 1),))
        rp = ResiduePolynomials(((1.5,),))
        ts = np.linspace(0.0, 2.0, 5)
        d3 = residue_derivative_values(rp, poles, 3, ts)
        assert np.allclose(d3, 1.5 * (-2.0) ** 3 * np.exp(-2.0 * ts))


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


class TestClassicalIVP:
    F2 = "(s + 1)*(s + 2)"

    def make(self, initial, forcing="exp(-3*t)"):
        f = parse_symbol(self.F2)
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
        # solving again with the constructed r must give the same function
        ivp = self.make((1.0, 0.0))
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
        # like 1/|s|: one initial value is supportable, two are not
        f = parse_symbol("zeta(s + 3)")
        ivp = ClassicalIVP(f, forcing_from_text("exp(-1*t)"),
                           PoleSpec(((-5.0, 1), (-7.0, 1))), (1.0, 0.0))
        with pytest.raises(HypothesisError, match="smoothness"):
            solve_classical_ivp(ivp)

    def test_gates_recorded_in_order(self):
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        assert [row[:2] for row in sol.diagnostics["gates"]] == [
            ("analytic-right-half-plane", "PASS"),
            ("contour-nonvanishing", "PASS"),
            ("forcing-transform", "PASS"),
            ("hardy-membership", "PASS"),
            ("decay-of-r-over-f", "SKIP"),
            ("smoothness-order", "PASS"),
            ("pole-constraints", "PASS"),
            ("conditioning", "PASS"),
        ]

    def test_one_sampler_per_solve(self, monkeypatch):
        # the moments, the values on t <= 10 and the residual check's
        # derivatives all come from one sampler, grown on demand
        builds = []
        build = LineSampler.__init__

        def counted(sampler, *args, **kwargs):
            builds.append(args)
            build(sampler, *args, **kwargs)

        monkeypatch.setattr(LineSampler, "__init__", counted)
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        ts = np.linspace(0.0, 10.0, 201)
        sol(ts)
        residual_check(sol.f, sol, sol.forcing, ts[1:])
        assert len(builds) == 1

    def test_kernel_counts(self):
        # the initial-value check samples a short stencil once per order
        # (dense kernel); a 201-point grid is one chirp-z evaluation
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        sol(np.linspace(0.0, 10.0, 201))
        assert sol.sampler().diagnostics()["t_evaluations"] == {"chirp_z": 1, "dense": 2}

    def test_derivative_prediction(self):
        ivp = self.make((1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        predicted = predict_derivative_at_zero(sol.poles, sol.residue, 2,
                                               sol.sampler().moment(2))
        fd = derivatives_at_zero(sol.eval, [2])[0]
        assert abs(predicted - fd) < 1e-3


class TestAssemble:
    def test_vandermonde_for_simple_poles(self):
        f = parse_symbol("(s + 1)*(s + 2)*(s + 3)")
        poles = PoleSpec(((-1.0, 1), (-2.0, 1), (-3.0, 1)))
        ivp = ClassicalIVP(f, forcing_from_text("0"), poles, (1.0, 0.0, 0.0))
        matrix, _ = assemble_ivp_system(ivp, np.zeros(3, np.complex128))
        nodes = np.array([-1.0, -2.0, -3.0])
        vander = np.vander(nodes, 3, increasing=True).T
        assert np.max(np.abs(matrix - vander)) < 1e-12

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
