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
from test_acceptance import INVERSION_PAIRS

EPS = np.finfo(np.float64).eps


class TestBromwichConfig:
    def test_defaults(self):
        cfg = BromwichConfig()
        assert cfg.sigma == 1.0 and cfg.y_max == 200.0

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"sigma": -1.0}, {"y_max": 0.0},
        {"y_max": math.inf}, {"quad_tol": 0.0}, {"sigma": math.inf}, {"quad_tol": math.inf},
    ])
    def test_validation(self, kwargs):
        # each bad value is rejected by name, before any quadrature runs
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            BromwichConfig(**kwargs)


class TestForcing:
    def test_exp_decay_closed_form(self):
        J = forcing_from_text("exp(-3*t)")
        assert J.laplace(1.0) == pytest.approx(0.25)
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
        # a t^n factor outlives the e^{-t} tail, and a slow decay runs far
        for text, re_min in [("exp(-2*t)", 0.7), ("t^5*exp(-1*t)", 0.7),
                             ("t^5*exp(-1*t)", 1.0), ("t^3*exp(-0.001*t)", 0.7)]:
            out = verify_forcing(forcing_from_text(text), re_min=re_min)
            assert out["ok"], text
            assert out["max_error"] < 1e-8

    @pytest.mark.parametrize("text,re_min", [
        ("exp(0.6*t)", 0.7), ("exp(0.65*t)", 0.7), ("exp(0.67*t)", 0.7),
        ("exp(0.8*t)", 1.5), ("exp(-1000*t)", 0.7),
    ])
    def test_verify_forcing_accepts(self, text, re_min):
        assert verify_forcing(forcing_from_text(text), re_min=re_min)["ok"]

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.5, 2.0)])
    def test_verify_indicator_with_jumps_on_panel_edges(self, a, b):
        assert verify_forcing(builtin_forcing("indicator", a=a, b=b))["ok"]

    @pytest.mark.parametrize("text,match", [
        ("exp(0.68*t)", "overflows"), ("exp(2*t)", "does not decay"),
    ])
    def test_verify_forcing_refuses(self, text, match):
        with pytest.raises(ValueError, match=match):
            verify_forcing(forcing_from_text(text), re_min=0.7)

    def test_forward_rule_bounded_by_t_cap(self):
        # e^{-st} J(t) = e^{-0.05 t} at s = 1 needs a horizon near 460
        J = forcing_from_text("exp(0.95*t)")
        assert abs(laplace_forward(J, 1.0) - 20.0) < 1e-8
        with pytest.raises(ValueError, match="tail truncation"):
            laplace_forward(J, 1.0, t_cap=400.0)

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


def dense_line_values(sampler, n, ts, midpoint_at_zero=False):
    """The inverse transform with its line sum formed as one dense
    exp(i t y) matmul, operation for operation as the dense kernel does."""
    sn = (sampler.sigma + 1j * sampler.y_nodes) ** n if n else 1.0
    wg = sampler.h * sn * sampler.g_vals
    out = np.exp(1j * ts[:, None] * sampler.y_nodes[None, :]) @ wg
    out *= np.exp(sampler.sigma * ts) / (2.0 * math.pi)
    out += sampler._atom_inverse(n, ts, midpoint_at_zero)
    return out


def line_rounding(sampler, n, ts):
    """eps e^{sigma t} h sum |(sigma + iy)^n g| / 2 pi, the rounding scale of
    the line sum at t."""
    mass = sampler.h * np.sum(np.abs((sampler.sigma + 1j * sampler.y_nodes) ** n
                                     * sampler.g_vals))
    return EPS * np.exp(sampler.sigma * ts) * mass / (2.0 * math.pi)


def without_reference_terms(sampler, monkeypatch):
    """Leave the sampler's values as the bare scaled line sum."""
    monkeypatch.setattr(sampler, "_atom_inverse",
                        lambda n, ts, midpoint_at_zero: np.zeros(ts.shape, np.complex128))
    return sampler


class TestLineKernels:
    """The chirp-z kernel on uniform grids against the dense line sum."""

    CFG = BromwichConfig()
    UNIFORM = np.linspace(0.05, 10.0, 200)
    # the chirp-z sum differs from the dense one by rounding alone: at most
    # about 3.5 times the scale over the corpus; a convolution shifted to
    # start at the lowest node index instead of k = 0 reaches about 950
    BOUND = 8.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_chirp_z_matches_dense_sum(self, sigma, monkeypatch):
        for F, _ in INVERSION_PAIRS:
            sampler = LineSampler(F, BromwichConfig(sigma=sigma), 10.0)
            got = without_reference_terms(sampler, monkeypatch).values(self.UNIFORM)
            assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 1, "dense": 0}
            dense = dense_line_values(sampler, 0, self.UNIFORM)
            assert np.max(np.abs(got - dense) / line_rounding(sampler, 0, self.UNIFORM)) \
                <= self.BOUND

    @pytest.mark.parametrize("n, budget, ts", [
        (0, 16.0, np.linspace(2.0, 7.0, 101)),      # grid starting past 0
        (1, 16.0, UNIFORM),
        (2, 16.0, UNIFORM),
        (3, 16.0, UNIFORM),
        (4, 16.0, UNIFORM),
        (0, 1.0, UNIFORM),                          # budget grown by _cover
        (2, 1.0, np.linspace(0.5, 30.0, 60)),
    ])
    def test_chirp_z_cases(self, n, budget, ts, monkeypatch):
        sampler = LineSampler(lambda s: 1.0 / ((s + 1.0) ** 2 + 1.0), self.CFG, budget)
        got = without_reference_terms(sampler, monkeypatch).derivative_values(n, ts)
        assert sampler.diagnostics()["t_evaluations"]["chirp_z"] == 1
        dense = dense_line_values(sampler, n, ts)
        assert np.max(np.abs(got - dense) / line_rounding(sampler, n, ts)) <= self.BOUND

    def test_chirp_z_without_nodes(self):
        # an exactly matched transform keeps no line nodes at all
        with np.errstate(over="ignore"):
            sampler = LineSampler(lambda s: 0.0 * s, self.CFG)
        assert sampler.atom_exact and sampler.y_nodes.size == 0
        assert np.array_equal(sampler.values(self.UNIFORM), np.zeros(self.UNIFORM.size))
        assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 1, "dense": 0}

    @pytest.mark.parametrize("ts", [
        np.linspace(0.0, 10.0, 17),                 # the residual sample's size
        np.linspace(0.1, 3.0, 31),                  # one short of the chirp-z minimum
        np.arange(1.0, 7.0) * 1e-3,                 # a derivative stencil at 0+
        np.geomspace(0.01, 10.0, 64),
        np.linspace(0.05, 10.0, 200) + np.where(np.arange(200) == 100, 1e-9, 0.0),
        np.linspace(10.0, 0.05, 200),               # decreasing
    ], ids=["short", "below-minimum", "stencil", "geometric", "perturbed", "decreasing"])
    def test_dense_kernel_is_pinned(self, ts):
        # every t set the chirp-z kernel does not take keeps the dense bits
        sampler = LineSampler(lambda s: 1.0 / ((s + 1.0) ** 2 + 1.0), self.CFG, 16.0)
        assert np.array_equal(sampler.values(ts), dense_line_values(sampler, 0, ts, True))
        positive = ts[ts > 0]
        assert np.array_equal(sampler.derivative_values(2, positive),
                              dense_line_values(sampler, 2, positive))
        assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 0, "dense": 2}


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
