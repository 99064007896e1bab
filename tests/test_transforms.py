"""Tests for forcings, the contour-line sampler, and Hardy diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlode.transforms import (
    BromwichConfig,
    MATCHED_MOMENT_ORDER,
    bromwich_invert,
    builtin_forcing,
    LineSampler,
    compute_Ln,
    forcing_from_text,
    hardy_membership,
    hardy_norm,
    laplace_forward,
    smoothness_order,
    verify_forcing,
)


class TestBromwichConfig:
    def test_defaults(self):
        cfg = BromwichConfig()
        assert cfg.sigma == 1.0 and cfg.y_max == 200.0

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"sigma": -1.0}, {"y_max": 0.0},
        {"y_max": math.inf}, {"quad_tol": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BromwichConfig(**kwargs)


class TestForcing:
    def test_exp_decay_closed_form(self):
        J = forcing_from_text("exp(-3*t)")
        assert J.laplace(1.0) == pytest.approx(0.25)
        assert J.decay_hint == pytest.approx(3.0)
        assert not J.is_zero

    def test_zero(self):
        J = forcing_from_text("0")
        assert J.is_zero
        assert np.all(J.j_eval(np.array([0.0, 1.0])) == 0)

    def test_polynomial_times_exponential(self):
        # t^2 e^{-2t} has transform 2/(s+2)^3
        J = forcing_from_text("t^2*exp(-2*t)")
        s = 1.5 + 0.5j
        assert J.laplace(s) == pytest.approx(2.0 / (s + 2) ** 3)

    def test_sine_via_complex_exponentials(self):
        J = forcing_from_text("(exp(i*t) - exp(-i*t))/(2*i)")
        ts = np.linspace(0.0, 5.0, 21)
        assert np.max(np.abs(J.j_eval(ts) - np.sin(ts))) < 1e-14
        s = 2.0
        assert J.laplace(s) == pytest.approx(1.0 / (s ** 2 + 1))

    def test_nonlinear_exponent_rejected(self):
        with pytest.raises(ValueError):
            forcing_from_text("exp(-t^2)")

    def test_division_by_t_rejected(self):
        with pytest.raises(ValueError):
            forcing_from_text("1/t")

    def test_builtin_zero_and_exp(self):
        assert builtin_forcing("zero").is_zero
        J = builtin_forcing("exp_decay", rate=2.0)
        assert J.laplace(0.0) == pytest.approx(0.5)

    def test_builtin_indicator(self):
        J = builtin_forcing("indicator", a=0.0, b=1.0)
        vals = J.j_eval(np.array([0.5, 1.5]))
        assert vals[0] == 1.0 and vals[1] == 0.0
        s = 2.0
        assert J.laplace(s) == pytest.approx((1 - math.exp(-2.0)) / 2.0)

    def test_builtin_unknown(self):
        with pytest.raises(ValueError):
            builtin_forcing("sawtooth")

    def test_forward_transform_agrees(self):
        J = forcing_from_text("exp(-1*t) + 0.5*t*exp(-2*t)")
        for s in (1.0, 2.0 + 1.0j):
            num = laplace_forward(J, s)
            assert abs(num - J.laplace(s)) < 1e-8

    def test_verify_forcing(self):
        out = verify_forcing(forcing_from_text("exp(-2*t)"))
        assert out["ok"]
        assert out["max_error"] < 1e-8

    def test_forcing_that_overflows_before_it_decays_fails_fast(self):
        # e^{-st} J(t) falls only like e^{-0.01 t} at Re(s) = 0.7, so J
        # overflows long before the integrand drops below the tolerance
        with pytest.raises(ValueError, match="overflows"):
            verify_forcing(forcing_from_text("exp(0.69*t)"))


class TestBromwichInvert:
    def test_scalar_and_array(self):
        v = bromwich_invert(lambda s: 1.0 / (s + 1.0), 1.0)
        assert isinstance(v, complex)
        assert abs(v - math.exp(-1.0)) < 1e-9
        ts = np.array([0.5, 1.0, 2.0])
        vals = bromwich_invert(lambda s: 1.0 / (s + 1.0), ts)
        assert np.max(np.abs(vals - np.exp(-ts))) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bromwich_invert(lambda s: 1.0 / (s + 1.0), -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match=f"t = {bad}"):
            bromwich_invert(lambda s: 1.0 / (s + 1.0), [0.5, bad])

    def test_second_order_pole(self):
        ts = np.linspace(0.1, 8.0, 25)
        vals = bromwich_invert(lambda s: 1.0 / (s + 1.0) ** 2, ts)
        assert np.max(np.abs(vals - ts * np.exp(-ts))) < 1e-9

    def test_oscillatory(self):
        # (s+1)/((s+1)^2 + 4) -> e^{-t} cos(2t)
        ts = np.linspace(0.1, 10.0, 34)
        vals = bromwich_invert(lambda s: (s + 1) / ((s + 1) ** 2 + 4), ts)
        assert np.max(np.abs(vals - np.exp(-ts) * np.cos(2 * ts))) < 1e-8

    def test_branch_cut_free_log(self):
        # log((s+2)/(s+1)) -> (e^{-t} - e^{-2t})/t
        ts = np.linspace(0.2, 6.0, 13)
        vals = bromwich_invert(lambda s: np.log((s + 2) / (s + 1)), ts)
        assert np.max(np.abs(vals - (np.exp(-ts) - np.exp(-2 * ts)) / ts)) < 1e-8

    def test_sigma_independent(self):
        ts = np.linspace(0.1, 5.0, 9)
        base = bromwich_invert(lambda s: 1.0 / ((s + 1) * (s + 2)), ts)
        for sigma in (0.5, 2.0):
            v = bromwich_invert(lambda s: 1.0 / ((s + 1) * (s + 2)), ts,
                                BromwichConfig(sigma=sigma))
            assert np.max(np.abs(v - base)) < 1e-9

    def test_t_zero_is_jump_midpoint(self):
        v = bromwich_invert(lambda s: 1.0 / (s + 1.0), 0.0)
        assert abs(v - 0.5) < 1e-6


class TestLineSampler:
    CFG = BromwichConfig()

    def test_moments_of_exponential(self):
        # low orders are quadrature-accurate; the top certified order
        # carries the reference-fit noise and is only good to ~1e-6
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG, 1.0)
        for n in range(MATCHED_MOMENT_ORDER + 1):
            tol = 1e-8 if n <= 2 else 1e-5
            assert abs(sampler.moment(n) - (-1.0) ** n) < tol

    def test_moment_order_gate(self):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG, 1.0)
        assert sampler.certified_order == MATCHED_MOMENT_ORDER
        with pytest.raises(ValueError, match="certified order"):
            sampler.moment(MATCHED_MOMENT_ORDER + 1)

    def test_compute_Ln_third_derivative(self):
        # phi = t^3 e^{-t} / 6 has phi'''(0) = 1
        out = compute_Ln(lambda s: 1.0 / (s + 1.0) ** 4, [0, 1, 2, 3])
        assert np.max(np.abs(np.array(out) - [0.0, 0.0, 0.0, 1.0])) < 1e-8

    def test_derivative_values(self):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG, 4.0)
        ts = np.linspace(0.5, 4.0, 8)
        d2 = sampler.derivative_values(2, ts)
        assert np.max(np.abs(d2 - np.exp(-ts))) < 1e-7

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("F", [
        lambda s: 1 / (s + 1),
        lambda s: 1 / ((s + 1) ** 2 + 1),
        lambda s: np.log((s + 2) / (s + 1)),
    ], ids=["pole", "damped-sine", "log-ratio"])
    def test_extension_matches_fresh_build(self, F, sigma):
        # evaluating past the budget grows the grid to the one a fresh
        # build at the larger budget (16 for t <= 10) lays, and no finer
        cfg = BromwichConfig(sigma=sigma)
        ts = np.linspace(0.0, 10.0, 201)
        grown = LineSampler(F, cfg, 1.0)
        vals = grown.values(ts)
        fresh = LineSampler(F, cfg, 16.0)
        assert grown.diagnostics()["n_nodes"] == fresh.diagnostics()["n_nodes"]
        assert np.max(np.abs(vals - fresh.values(ts))) <= cfg.quad_tol

    def test_one_sided_value_at_zero(self):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG)
        assert abs(sampler.derivative_values(0, [0.0])[0] - 1.0) < 1e-12
        assert abs(sampler.values([0.0])[0] - 0.5) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG)
        for evaluate in (sampler.values, lambda ts: sampler.derivative_values(1, ts)):
            with pytest.raises(ValueError, match=f"t = {bad}"):
                evaluate([0.5, bad])
        assert sampler.t_max == 1.0
        with pytest.raises(ValueError, match=f"t_max = {bad}"):
            LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG, bad)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_node_count(self, sigma):
        sampler = LineSampler(lambda s: 1 / (s + 1), BromwichConfig(sigma=sigma), 10.0)
        assert sampler.diagnostics()["n_nodes"] <= 10_000

    def test_unsettled_quadrature_rejected(self):
        # a pole 1e-6 left of the line needs a step far below what the
        # node budget allows
        with pytest.raises(ValueError, match="did not settle"):
            LineSampler(lambda s: 1.0 / (s - 0.999999), self.CFG, 1.0)

    def test_diagnostics_keys(self):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), self.CFG, 1.0)
        diag = sampler.diagnostics()
        for key in ("atom_matched", "certified_order", "remainder_decay_exponent",
                    "tail_estimate", "est_quad_error", "n_nodes", "reference_pole"):
            assert key in diag

    def test_non_decaying_rejected(self):
        with pytest.raises(ValueError, match="non-decaying"):
            LineSampler(lambda s: s / (s + 1.0), self.CFG, 1.0)

    def test_non_summable_tail_rejected(self):
        with pytest.raises(ValueError, match="not summable"):
            LineSampler(lambda s: (s + 1.0) ** -0.5, self.CFG, 1.0)

    def test_values_unaffected_by_reference_fit_noise(self):
        # far-window fits put noise into the high-order reference
        # coefficients; the added-back reference terms and the quadrature
        # of the remainder must cancel that noise exactly
        ts = np.linspace(0.1, 3.0, 7)
        for F, exact in [
            (lambda s: 1.0 / (s + 0.5), np.exp(-0.5 * ts)),
            (lambda s: 1.0 / (s + 0.5 - 1j), np.exp((-0.5 + 1j) * ts)),
        ]:
            vals = bromwich_invert(F, ts)
            assert np.max(np.abs(vals - exact)) < 1e-9


class TestHardy:
    def test_mu2_closed_form(self):
        # mu_2(1/(s+1), 0)^2 = arctan(y_max) / pi
        got = hardy_norm(lambda s: 1.0 / (s + 1.0), x=0.0)
        expect = math.sqrt(math.atan(200.0) / math.pi)
        assert abs(got - expect) < 5e-3

    def test_p_validation(self):
        with pytest.raises(ValueError):
            hardy_norm(lambda s: 1.0 / (s + 1.0), p=3.0)
        with pytest.raises(ValueError):
            hardy_norm(lambda s: 1.0 / (s + 1.0), p=1.0)
        with pytest.raises(ValueError):
            hardy_norm(lambda s: 1.0 / (s + 1.0), x=-0.1)

    def test_pole_next_to_line(self):
        with pytest.raises(ValueError, match="pole adjacent"):
            hardy_norm(lambda s: 1.0 / (s - 0.001), x=0.0)

    def test_slow_decay_rejected(self):
        with pytest.raises(ValueError, match="decay exponent"):
            hardy_norm(lambda s: (s + 1.0) ** -0.5, x=0.0)

    def test_membership_bounded(self):
        out = hardy_membership(lambda s: 1.0 / (s + 1.0))
        assert out["bounded"]
        assert out["sup"] < 1.0

    def test_membership_unbounded_pole_at_origin(self):
        out = hardy_membership(lambda s: 1.0 / s)
        assert not out["bounded"]


class TestSmoothnessOrder:
    def test_power_decay(self):
        assert smoothness_order(lambda s: 1.0 / (s + 1.0)) == 0
        assert smoothness_order(lambda s: 1.0 / (s + 1.0) ** 3) == 1
        assert smoothness_order(lambda s: 1.0 / (s + 1.0) ** 5) == 3

    def test_entire_decay_hits_cap(self):
        # |exp(0.001 s^2)| = exp(0.001 (sigma^2 - y^2)) on the line
        assert smoothness_order(lambda s: np.exp(0.001 * s ** 2), n_cap=6) == 6

    def test_cap_respected(self):
        assert smoothness_order(lambda s: 1.0 / (s + 1.0) ** 9, n_cap=4) == 4
