"""Tests for the independent verification paths."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlode.oracles import (
    AnalyticVectorProfile,
    apply_truncated_series,
    classical_ode_reference,
    exponential_profile,
    residual_check,
)
from nlode.solver import ClassicalIVP, GeneralizedIC, PoleSpec, solve_classical_ivp, solve_generalized
from nlode.symbols import eval_symbol, parse_symbol
from nlode.transforms import BromwichConfig, forcing_from_text

ZETA_2_5 = 1.3414872572509173


class TestExponentialProfile:
    def test_derivatives(self):
        prof = exponential_profile(2.0)
        ts = np.array([0.0, 1.0])
        assert np.allclose(prof(ts), np.exp(-0.5 * ts))
        assert np.allclose(prof.nth_derivative(3, ts), -0.125 * np.exp(-0.5 * ts))

    def test_bound(self):
        prof = exponential_profile(2.0, scale=3.0)
        assert prof.norm_bound(2) == pytest.approx(0.75)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            exponential_profile(0.0)


class TestTruncatedSeries:
    # zero coefficients and vanishing terms must not end the series
    @pytest.mark.parametrize("text", ["exp(s)", "1 + s^3", "exp(s^2)"])
    def test_eigenvalue_identity_exp(self, text):
        # f(d/dt) e^{-t/k} = f(-1/k) e^{-t/k} for entire f
        f = parse_symbol(text)
        prof = exponential_profile(2.0)
        ts = np.linspace(0.0, 10.0, 21)
        got = apply_truncated_series(f, prof, ts)
        expect = eval_symbol(f, -0.5) * np.exp(-0.5 * ts)
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_shift_operator_on_sine(self):
        # exp(d/dt) sin is sin(t + 1); the even derivatives at t = 0 vanish
        sine = AnalyticVectorProfile(np.sin,
                                     lambda n, t: np.sin(np.asarray(t) + 0.5 * n * math.pi))
        got = apply_truncated_series(parse_symbol("exp(s)"), sine, 0.0)
        assert abs(got - math.sin(1.0)) < 1e-14

    def test_eigenvalue_identity_zeta(self):
        # zeta(s + 3) at s = -1/2 on the k = 2 exponential
        f = parse_symbol("zeta(s + 3)")
        prof = exponential_profile(2.0)
        ts = np.linspace(0.0, 10.0, 21)
        got = apply_truncated_series(f, prof, ts)
        assert np.max(np.abs(got - ZETA_2_5 * np.exp(-0.5 * ts))) < 1e-7

    @pytest.mark.parametrize("rate, tol", [(1.2, 1e-12), (0.8, 1e-14)])
    def test_zeta_series_inside_its_disk(self, rate, tol):
        # e^{-rate t} lies inside zeta(s + 3)'s Taylor disk (radius 2), so the
        # N = 60 series converges to zeta(3 - rate) e^{-rate t}; with rounding
        # noise in c_j it read "diverges by term 44" at rate 1.2 and was off
        # by 2.2e-5 at rate 0.8
        mpmath = pytest.importorskip("mpmath")
        ts = np.linspace(0.0, 10.0, 21)
        got = apply_truncated_series(parse_symbol("zeta(s + 3)"),
                                     exponential_profile(1.0 / rate), ts, N=60)
        expect = float(mpmath.zeta(3.0 - rate)) * np.exp(-rate * ts)
        assert np.max(np.abs(got - expect)) < tol

    def test_scalar_input(self):
        f = parse_symbol("exp(s)")
        out = apply_truncated_series(f, exponential_profile(2.0), 1.0)
        assert isinstance(out, complex)

    def test_divergence_detected(self):
        # e^{-t/k} with k < 1 leaves the Taylor disk of zeta(s + 3)
        # (radius 2): term magnitudes grow geometrically
        f = parse_symbol("zeta(s + 3)")
        prof = exponential_profile(0.25)
        with pytest.raises(ArithmeticError, match="diverges"):
            apply_truncated_series(f, prof, np.array([1.0]), N=40)

    def test_polynomial_terminates_exactly(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        prof = exponential_profile(2.0)
        ts = np.array([0.5, 2.0])
        got = apply_truncated_series(f, prof, ts)
        expect = (-0.5 + 1) * (-0.5 + 2) * np.exp(-0.5 * ts)
        assert np.max(np.abs(got - expect)) < 1e-14


class TestClassicalReference:
    def test_unforced_second_order(self):
        # phi'' + 3 phi' + 2 phi = 0, data (1, 0): phi = 2 e^{-t} - e^{-2t}
        f = parse_symbol("(s + 1)*(s + 2)")
        ts = np.linspace(0.0, 5.0, 11)
        got = classical_ode_reference(f, forcing_from_text("0"), (1.0, 0.0), ts)
        expect = 2.0 * np.exp(-ts) - np.exp(-2.0 * ts)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_forced_particular_solution(self):
        # forcing e^{-3t}, zero data: phi = (1/2)e^{-3t} - e^{-2t} + (1/2)e^{-t}
        f = parse_symbol("(s + 1)*(s + 2)")
        ts = np.linspace(0.0, 5.0, 11)
        got = classical_ode_reference(f, forcing_from_text("exp(-3*t)"), (0.0, 0.0), ts)
        expect = 0.5 * np.exp(-3 * ts) - np.exp(-2 * ts) + 0.5 * np.exp(-ts)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_degree_zero(self):
        f = parse_symbol("0*s + 2")
        ts = np.linspace(0.0, 2.0, 5)
        got = classical_ode_reference(f, forcing_from_text("exp(-1*t)"), (), ts)
        assert np.allclose(got, 0.5 * np.exp(-ts))

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError):
            classical_ode_reference(parse_symbol("exp(s)"), forcing_from_text("0"),
                                    (1.0,), np.linspace(0.0, 1.0, 3))

    def test_wrong_initial_count(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        with pytest.raises(ValueError):
            classical_ode_reference(f, forcing_from_text("0"), (1.0,),
                                    np.linspace(0.0, 1.0, 3))


class TestResidualCheck:
    def test_classical_solution_passes(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        ivp = ClassicalIVP(f, J, PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        out = residual_check(f, sol, J, np.linspace(0.5, 8.0, 16), N=24, tol=1e-6)
        assert out["ok"], out
        assert out["sup_residual"] < 1e-9

    def test_degrades_to_supported_order(self):
        # entire symbol on a solution with a Bromwich part: the series
        # wants every order but the transform only certifies a few
        ftext = "exp(s)"
        lam = math.exp(-0.5)
        f = parse_symbol(ftext)
        J = forcing_from_text(f"{lam!r}*exp(-0.5*t)")
        r = parse_symbol(f"(exp(s) - {lam!r})/(s + 0.5)")
        sol = solve_generalized(f, J, GeneralizedIC(r, "user-supplied"))
        with pytest.warns(UserWarning, match="truncated"):
            out = residual_check(f, sol, J, np.linspace(0.5, 5.0, 9), N=24, tol=1e-6)
        assert out["N_used"] < out["N_requested"]
        # the defect is the honest truncation error of the short series
        n_used = out["N_used"]
        tail = sum(0.5 ** n / math.factorial(n) for n in range(n_used + 1, 40))
        assert out["sup_residual"] < 2.0 * tail

    def test_no_certified_order_is_loud(self):
        # a loose quad_tol lets e^{-s}/(s + 1)^2 through with no certified
        # moment order; with J = 0 an empty series would read as a pass
        f = parse_symbol("exp(s)*(s + 1)^2")
        J = forcing_from_text("0")
        sol = solve_generalized(f, J, GeneralizedIC(parse_symbol("1 + 0*s"), "user-supplied"),
                                BromwichConfig(sigma=1.0, y_max=50.0, quad_tol=1e-2))
        assert sol.line.certified_order == -1
        with pytest.raises(ArithmeticError, match="no derivative order"):
            residual_check(f, sol, J, np.linspace(0.5, 5.0, 9), N=24)

    def test_positive_grid_required(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        J = forcing_from_text("exp(-3*t)")
        ivp = ClassicalIVP(f, J, PoleSpec(((-1.0, 1), (-2.0, 1))), (1.0, 0.0))
        sol, _ = solve_classical_ivp(ivp)
        with pytest.raises(ValueError):
            residual_check(f, sol, J, np.linspace(0.0, 8.0, 16))

    def test_divergent_pair_flagged(self):
        # phi = e^{-5t} decays too fast for the Taylor disk of zeta(s + 3)
        f = parse_symbol("zeta(s + 3)")
        ivp = ClassicalIVP(f, forcing_from_text("0"), PoleSpec(((-5.0, 1),)), (1.0,))
        sol, _ = solve_classical_ivp(ivp)
        with pytest.raises(ArithmeticError, match="diverges"):
            residual_check(f, sol, forcing_from_text("0"),
                           np.linspace(0.5, 5.0, 9), N=24)

    def test_zeta_eigen_solution_passes(self):
        f = parse_symbol("zeta(s + 3)")
        ivp = ClassicalIVP(f, forcing_from_text("0"), PoleSpec(((-0.5, 1),)), (1.0,))
        # -0.5 is not a zero of zeta(s + 3); go through the residue route
        # directly instead: phi = e^{-t/2} as analytic vector
        del ivp
        prof = exponential_profile(2.0)
        ts = np.linspace(0.5, 5.0, 9)
        got = apply_truncated_series(f, prof, ts)
        assert np.max(np.abs(got - ZETA_2_5 * np.exp(-0.5 * ts))) < 1e-7
