"""Tests for the generalized solver, classical IVPs, and zero finding."""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np
import pytest

import nlode
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
        vals = residue_derivative_values(rp, poles, 0, ts)
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
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
        sol(ts)
        residual_check(sol.f, sol, sol.forcing, ts[1:])
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

    def test_uncertified_moments_fail_at_the_gate(self):
        # K = 6 initial values need the moments L_0 .. L_5, but the sampler
        # of this L(J)/f certifies only order 4
        K = 6
        f = parse_symbol("*".join(f"(s + {k})" for k in range(1, K + 1)))
        poles = tuple((-float(k), 1) for k in range(1, K + 1))
        with pytest.raises(HypothesisError, match="certified moment order 4 is below K - 1 = 5"):
            solve(f, forcing_from_text("exp(-7*t)"), poles=poles,
                  initial_values=(1.0,) + (0.0,) * (K - 1), cfg=BromwichConfig(y_max=100.0))

    def test_kernel_counts(self):
        # the initial-value check takes the moments, not t-samples; a
        # 201-point grid is one chirp-z evaluation
        sol, _ = solve_classical_ivp(self.make((1.0, 0.0)))
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
        return ClassicalIVP(parse_symbol(self.F2), forcing_from_text(forcing),
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
        nodes = second.line.y_nodes.size
        first(40.0)
        assert first.line.y_nodes.size > nodes
        assert second.line.y_nodes.size == nodes
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
