"""Tests for forcings, the contour-line sampler, and Hardy diagnostics."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from nlode import transforms
from nlode.transforms import (
    BromwichConfig,
    MATCHED_MOMENT_ORDER,
    bromwich_invert,
    builtin_forcing,
    LineSampler,
    forcing_from_text,
    hardy_membership,
    hardy_norm,
    laplace_forward,
    verify_forcing,
    N_ATOMS,
    Forcing,
    _blocked_sums,
    _power_fit,
)
from nlode.symbols import parse_symbol
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

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.5, 2.0), (0.3, 1.7), (0.3, 300.0)])
    def test_verify_indicator_with_jumps_on_panel_edges(self, a, b):
        # the indicator's jumps are its breakpoints, so they fall on panel
        # edges wherever they are; one past the horizon lays no panel
        out = verify_forcing(builtin_forcing("indicator", a=a, b=b))
        assert out["ok"] and out["max_error"] < 1e-14

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

    # e^{-st} J(t) decays like e^{-(Re s - 0.65) t}, so the probes reach the
    # horizons 460, 230 and 154, and the jumps at 200.5 and 300.25 fall
    # between them
    SLOW_JUMPS = Forcing(lambda t: np.exp(0.65 * np.asarray(t, np.float64))
                         * (1.0 + (np.asarray(t) >= 200.5) - 0.5 * (np.asarray(t) >= 300.25)),
                         breakpoints=(0.3, 1.7, 200.5, 300.25))

    @pytest.mark.parametrize("J", [
        forcing_from_text("exp(-3*t)"),
        forcing_from_text("t^3*exp(-t/2)"),
        builtin_forcing("indicator", a=0.3, b=1.7),
        SLOW_JUMPS,
    ], ids=["exp", "poly-exp", "indicator", "slow-with-jumps"])
    def test_forward_transform_of_many_s_is_the_scalar_calls(self, J):
        # one panel set out to the largest horizon, each s summed over its
        # own prefix: bit for bit the rule that s gets alone
        ss = np.array([0.7, 0.75, 0.8, 1.3 - 2j, 2.0 + 0.5j])
        many = laplace_forward(J, ss)
        assert many.shape == ss.shape
        assert np.array_equal(many, [laplace_forward(J, s) for s in ss])

    @pytest.mark.parametrize("re_min", [1.0, 0.5, 2.0])
    def test_closed_form_of_many_s_is_the_scalar_calls(self, re_min):
        # verify_forcing's probes in one call: a symbol's value must not
        # depend on how it is batched (numpy's scalar z*z rounds otherwise)
        J = forcing_from_text("t^5*exp(-t) + 2*t*exp(-0.3*t)")
        ss = np.array([re_min + 0.3 * k + 1j * (0.5 * k - 2.25) for k in range(10)])
        assert np.array_equal(J.laplace(ss), [J.laplace(s) for s in ss])

    def test_forward_transform_evaluates_forcing_once_on_its_nodes(self):
        J = forcing_from_text("t^3*exp(-t/2)")
        sizes = []

        def counting(t):
            sizes.append(np.size(t))
            return J.j_eval(t)

        out = verify_forcing(Forcing(counting, J.closed_form_laplace))
        assert out["ok"] and out["probes"] == 10
        assert len([n for n in sizes if n > 2]) == 1   # the rest are horizon probes

    @pytest.mark.parametrize("ss,match", [
        ([0.7, 0.5], "overflows"), ([0.5, 0.7], "does not decay"),
        ([1.0, -0.5, 0.5], "requires Re"),
    ])
    def test_forward_transform_refuses_the_first_failing_s(self, ss, match):
        with pytest.raises(ValueError, match=match):
            laplace_forward(forcing_from_text("exp(0.68*t)"), np.array(ss))

    def test_tabulated_gauss_legendre_rule_is_leggauss(self):
        # laplace_forward's panel rule, tabulated so that nlode never
        # imports numpy.polynomial
        from numpy.polynomial.legendre import leggauss
        for got, want in zip(transforms._GL20, leggauss(20)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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

    def test_moment_third_derivative(self):
        # phi = t^3 e^{-t} / 6 has phi'''(0) = 1
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0) ** 4, self.CFG)
        out = [sampler.moment(n) for n in range(4)]
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

    def test_calls_share_the_line_work(self, monkeypatch):
        # one sampler serves every caller, and is its own deep copy: each
        # call equals that call on a fresh sampler, whatever ran before it,
        # each budget's state is settled once, and only the repeat of the
        # last call, values at ts across the two rounds, runs no kernel
        F = lambda s: 1 / ((s + 1) ** 2 + 1)
        ts, late = np.linspace(0.0, 10.0, 201), np.array([40.0])
        calls = [("moment", 2), ("values", ts), ("moment", 2), ("derivative_values", 0, ts),
                 ("derivative_values", 1, ts[1:]), ("derivative_values", 2, ts[1:]),
                 ("values", late), ("values", ts), ("moment", 2)]
        shared, settled = LineSampler(F, self.CFG), []
        settle = LineSampler._settle

        def counted_settle(sampler, state, budget):
            settled.append((sampler, budget))
            return settle(sampler, state, budget)

        monkeypatch.setattr(LineSampler, "_settle", counted_settle)
        assert copy.deepcopy(shared) is shared
        for _ in range(2):
            for name, *args in calls:
                got = getattr(shared, name)(*args)
                assert np.array_equal(got, getattr(LineSampler(F, self.CFG), name)(*args))
        assert [budget for sampler, budget in settled if sampler is shared] == [16.0, 64.0]
        diag = shared.diagnostics()
        assert list(diag["budgets"]) == [1.0, 16.0, 64.0]
        assert diag["t_evaluations"] == {"chirp_z": 9, "blocked": 2}

    @pytest.mark.parametrize("F", [
        lambda s: np.log((s + 2) / (s + 1)),
        lambda s: 1 / ((s + 1) ** 2 + 1),
    ], ids=["log-ratio", "damped-sine"])
    def test_values_depend_on_the_times_alone(self, F):
        # a sampler that first evaluates t = 40 gives, at t <= 10, the bits
        # of a fresh one, and its moments too
        ts = np.linspace(0.0, 10.0, 201)
        seasoned, fresh = LineSampler(F, self.CFG), LineSampler(F, self.CFG)
        seasoned.values(np.array([40.0]))
        assert np.array_equal(seasoned.values(ts), fresh.values(ts))
        assert np.array_equal(seasoned.derivative_values(1, ts[1:]),
                              fresh.derivative_values(1, ts[1:]))
        assert seasoned.moment(1) == fresh.moment(1)

    @pytest.mark.parametrize("n", [-1, 1.5])
    @pytest.mark.parametrize("F, exact", [
        (lambda s: 1 / ((s + 1) ** 2 * ((s + 1) ** 2 + 1)), False),
        (parse_symbol("1/((s + 1)^2*((s + 1)^2 + 1))"), True),
    ], ids=["noded", "closed-form"])
    def test_bad_derivative_order_refused(self, n, F, exact):
        # before any line work: the refused call builds no state
        sampler = LineSampler(F, self.CFG)
        assert sampler.atom_exact == exact and copy.deepcopy(sampler) is sampler
        message = f"order must be a nonnegative integer, got n = {n}"
        for evaluate in (lambda: sampler.derivative_values(n, [40.0]),
                         lambda: sampler.moment(n)):
            with pytest.raises(ValueError, match=message):
                evaluate()
        assert list(sampler.diagnostics()["budgets"]) == [1.0]

    def test_derivative_at_zero_refused(self):
        # a derivative of order n > 0 is one-sided at 0; its value there is
        # the moment, not a sample
        sampler = LineSampler(lambda s: 1 / (s + 1), self.CFG)
        with pytest.raises(ValueError, match="derivative sampling requires t > 0"):
            sampler.derivative_values(1, [0.0, 1.0])
        assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 0, "blocked": 0}

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
                    "tail_estimate", "est_quad_error", "n_nodes", "reference_pole", "budgets"):
            assert key in diag
        # one entry per budget's state; n_nodes and est_quad_error are the
        # largest budget's
        assert list(diag["budgets"]) == [1.0]
        sampler.values(np.linspace(0.0, 10.0, 201))
        diag = sampler.diagnostics()
        assert list(diag["budgets"]) == [1.0, 16.0]
        assert diag["budgets"][16.0] == {"n_nodes": diag["n_nodes"],
                                         "est_quad_error": diag["est_quad_error"]}
        assert diag["budgets"][1.0]["n_nodes"] == sampler.y_nodes.size
        assert "reused" not in diag

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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_reference_terms_within_rounding(self, sigma):
        # one division per node and products of powers of s + b stay
        # within a few eps of the extended-precision sum of the terms,
        # scaled by sum_k |gamma_k| |s + b|^-k (about 4 on the corpus)
        for F, _ in INVERSION_PAIRS:
            sampler = LineSampler(F, BromwichConfig(sigma=sigma), 10.0)
            s = sigma + 1j * np.concatenate([sampler.y_nodes, np.linspace(-200.0, 200.0, 513)])
            w = s.astype(np.clongdouble) + sampler.b
            gammas = sampler.gammas.astype(np.clongdouble)
            exact = sum(gammas[k - 1] / w ** k for k in range(1, N_ATOMS + 1))
            scale = sum(np.abs(sampler.gammas[k - 1]) * np.abs(s + sampler.b) ** -k
                        for k in range(1, N_ATOMS + 1))
            err = np.abs(sampler._reference(s) - exact).astype(np.float64)
            assert np.max(err / scale) <= 8.0 * EPS


def dense_line_values(sampler, n, ts, midpoint_at_zero=False):
    """The inverse transform with its line sum formed naively in float64:
    one exp(i t y) per node and time, then one matmul."""
    state = sampler._state(ts)   # the state that the values at ts read
    sn = (sampler.sigma + 1j * state.y_nodes) ** n if n else 1.0
    wg = state.h * sn * state.g_vals
    out = np.exp(1j * ts[:, None] * state.y_nodes[None, :]) @ wg
    out *= np.exp(sampler.sigma * ts) / (2.0 * math.pi)
    out += sampler._atom_inverse(n, ts, midpoint_at_zero)
    return out


def extended_line_values(sampler, n, ts):
    """The bare scaled line sum e^{sigma t}/2pi sum h (sigma + iy)^n g e^{ity}
    in extended precision (np.clongdouble), on the grid nodes y = h k."""
    state = sampler._state(ts)
    k = np.rint(state.y_nodes / state.h).astype(np.longdouble)
    y = np.longdouble(state.h) * k
    w = np.longdouble(state.h) * (sampler.sigma + 1j * y) ** n \
        * state.g_vals.astype(np.clongdouble)
    t = np.asarray(ts, dtype=np.longdouble)
    sums = np.exp(1j * t[:, None] * y[None, :]) @ w
    return sums * np.exp(sampler.sigma * t) / (2.0 * np.pi)


def line_rounding(sampler, n, ts):
    """eps e^{sigma t} h sum |(sigma + iy)^n g| / 2 pi, the rounding scale of
    the line sum at t."""
    state = sampler._state(ts)
    mass = state.h * np.sum(np.abs((sampler.sigma + 1j * state.y_nodes) ** n * state.g_vals))
    return EPS * np.exp(sampler.sigma * ts) * mass / (2.0 * math.pi)


class TestPowerFit:
    def test_agrees_with_least_squares(self):
        rng = np.random.default_rng(5)
        for alpha, c, noise in [(2.0, 3.0, 0.0), (1.3, 0.02, 0.1), (7.5, 1e40, 0.5)]:
            xs = np.geomspace(1.0, 1e3, 64)
            ms = c * xs ** -alpha * np.exp(noise * rng.standard_normal(xs.size))
            design = np.stack([np.log(xs), np.ones(xs.size)], axis=1)
            (slope, intercept), *_ = np.linalg.lstsq(design, np.log(ms), rcond=None)
            resid = np.max(np.abs(design @ np.array([slope, intercept]) - np.log(ms)))
            got_alpha, got_c, got_resid = _power_fit(xs, ms)
            assert abs(got_alpha + slope) <= 1e-12 * max(1.0, abs(slope))
            assert abs(math.log(got_c) - intercept) <= 1e-12 * max(1.0, abs(intercept))
            assert abs(got_resid - resid) <= 1e-12

    @pytest.mark.parametrize("xs,ms", [
        (np.full(8, 3.0), np.geomspace(1.0, 2.0, 8)),              # a single x
        (np.arange(1.0, 9.0), np.array([1.0, 0.5, np.nan, np.inf, 0.0, -1.0, 0.1, 0.0])),
    ], ids=["constant-x", "three-finite"])
    def test_degenerate_data_gives_no_fit(self, xs, ms):
        alpha, c, resid = _power_fit(xs, ms)
        assert math.isnan(alpha) and math.isnan(c) and resid == math.inf


def without_reference_terms(sampler, monkeypatch):
    """Leave the sampler's values as the bare scaled line sum."""
    monkeypatch.setattr(sampler, "_atom_inverse",
                        lambda n, ts, midpoint_at_zero: np.zeros(ts.shape, np.complex128))
    return sampler


class TestLineKernels:
    """The chirp-z kernel on uniform grids against the dense line sum, and
    the blocked kernel on every other t set against an extended-precision
    line sum."""

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
            assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 1, "blocked": 0}
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
        # an exactly matched transform keeps no line nodes at all, and its
        # closed form runs neither kernel
        with np.errstate(over="ignore"):
            sampler = LineSampler(lambda s: 0.0 * s, self.CFG)
        assert sampler.atom_exact and sampler.y_nodes.size == 0
        assert np.array_equal(sampler.values(self.UNIFORM), np.zeros(self.UNIFORM.size))
        assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 0, "blocked": 0}

    T_SETS = [
        np.linspace(0.0, 10.0, 17),                 # the residual sample's size
        np.linspace(0.1, 3.0, 31),                  # one short of the chirp-z minimum
        np.arange(1.0, 7.0) * 1e-3,                 # a derivative stencil at 0+
        np.geomspace(0.01, 10.0, 64),
        np.linspace(0.05, 10.0, 200) + np.where(np.arange(200) == 100, 1e-9, 0.0),
        np.linspace(10.0, 0.05, 200),               # decreasing
    ]
    T_IDS = ["short", "below-minimum", "stencil", "geometric", "perturbed", "decreasing"]

    @pytest.mark.parametrize("ts", T_SETS, ids=T_IDS)
    def test_blocked_kernel_accuracy(self, ts, monkeypatch):
        # every t set the chirp-z kernel does not take is within a few
        # rounding scales of the extended-precision line sum (about 2.8 at
        # most over these sets, on this transform and the corpus at sigma = 1)
        sampler = LineSampler(lambda s: 1.0 / ((s + 1.0) ** 2 + 1.0), self.CFG, 16.0)
        without_reference_terms(sampler, monkeypatch)
        positive = ts[ts > 0]
        for n, t in ((0, ts), (2, positive)):
            got = sampler.values(t) if n == 0 else sampler.derivative_values(n, t)
            err = np.abs(got - extended_line_values(sampler, n, t)).astype(np.float64)
            assert np.max(err / line_rounding(sampler, n, t)) <= self.BOUND
        assert sampler.diagnostics()["t_evaluations"] == {"chirp_z": 0, "blocked": 2}

    @pytest.mark.parametrize("n", [0, 2])
    def test_blocked_kernel_beats_naive_sum(self, n, monkeypatch):
        # up to t = 16 the exactly reduced phases keep the blocked kernel
        # no further from the extended-precision sum than one float64
        # exp(i t y) per node, which rounds t y; blocking with unreduced
        # phases is several times further
        ts = np.linspace(1.0, 16.0, 16)
        for F, _ in INVERSION_PAIRS:
            sampler = LineSampler(F, self.CFG, 16.0)
            got = without_reference_terms(sampler, monkeypatch).derivative_values(n, ts)
            exact = extended_line_values(sampler, n, ts)
            naive = dense_line_values(sampler, n, ts)
            assert np.max(np.abs(got - exact)) <= np.max(np.abs(naive - exact))

    @pytest.mark.parametrize("k", [
        np.zeros(0, np.int64),                      # no nodes
        np.array([7]),                              # a single node
        np.arange(-2037, 2038, 2),                  # odd k only: one settle level
        np.arange(-2036, 2037, 2),                  # even k only: the coarse prefix
        np.arange(-300, 0),                         # all negative
    ], ids=["empty", "single", "odd", "even", "negative"])
    def test_blocked_kernel_edges(self, k):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        c = np.array([0.0, 1.0, 2.5, 16.0]) / 128.0   # t h/2pi with h = pi/64, t = 0 first
        got = _blocked_sums(k, w, c)
        turns = c.astype(np.longdouble)[:, None] * k.astype(np.longdouble)[None, :]
        exact = np.exp(2j * np.pi * turns) @ w.astype(np.clongdouble)
        assert np.max(np.abs(got - exact), initial=0.0) <= 8.0 * EPS * np.sum(np.abs(w))

    @pytest.mark.parametrize("cap", [1, 200])
    def test_blocked_kernel_chunks_keep_bits(self, cap, monkeypatch):
        # memory stays bounded by chunking the t axis, and a time's value
        # does not depend on which other times share its chunk
        sampler = LineSampler(lambda s: 1.0 / ((s + 1.0) ** 2 + 1.0), self.CFG, 16.0)
        ts = np.geomspace(0.01, 10.0, 64)
        whole = sampler.derivative_values(1, ts)
        monkeypatch.setattr(transforms, "PHASE_TABLE_CAP", cap)
        assert np.array_equal(sampler.derivative_values(1, ts), whole)
        assert np.array_equal(sampler.derivative_values(1, ts[5:6]), whole[5:6])


class TestNodeCounts:
    """Node counts the settle loop reached while its probe sums were dense
    exp(i t y) sums; the settle decisions rest on those sums, so a decision
    flipped by the blocked kernel's rounding shows here."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_inversion_corpus(self, sigma):
        counts = [LineSampler(F, BromwichConfig(sigma=sigma), 10.0).diagnostics()["n_nodes"]
                  for F, _ in INVERSION_PAIRS]
        assert counts == [4075] * len(INVERSION_PAIRS)

    @pytest.mark.parametrize("budget, nodes", [(1.0, 4075), (16.0, 4075), (64.0, 16297)])
    def test_budgets(self, budget, nodes):
        sampler = LineSampler(lambda s: 1.0 / (s + 1.0), BromwichConfig(), budget)
        assert sampler.diagnostics()["n_nodes"] == nodes


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
