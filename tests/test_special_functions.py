"""Tests for the zeta and log-gamma building blocks."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nlode import special_functions
from nlode.special_functions import (
    HEIGHT_CAP,
    ZetaShift,
    gamma_ln,
    inverse_zeta_bound_check,
    mobius_values,
    zeta,
    zeta_em,
    zeta_shift_eval,
)

# Frozen by tests/oracle_scripts/zeta_constants.py (Dirichlet partial sum
# of 10^6 terms plus integral tail; cross-checked against mpmath).
ZETA_2 = 1.6449340668482264
ZETA_3 = 1.2020569031595942
ZETA_1_5 = 2.6123753486854886
ZETA_2_5 = 1.3414872572509173
ZETA_3_PLUS_10I = complex(1.0995639043266732, -0.0491986732154643)
ZETA_PRIME_3 = -0.1981262429007202


class TestZeta:
    def test_reference_points(self):
        assert abs(zeta(2.0) - ZETA_2) < 1e-13
        assert abs(zeta(3.0) - ZETA_3) < 1e-13
        assert abs(zeta(2.5) - ZETA_2_5) < 1e-13
        assert abs(zeta(1.5) - ZETA_1_5) < 1e-12

    def test_riemann_identity_pi_squared(self):
        assert abs(zeta(2.0) - math.pi ** 2 / 6.0) < 1e-13

    def test_complex_argument(self):
        assert abs(zeta(3 + 10j) - ZETA_3_PLUS_10I) < 1e-12

    def test_vectorized(self):
        zs = np.array([2.0, 3.0, 2.5], dtype=np.complex128)
        vals = zeta(zs)
        assert vals.shape == (3,)
        assert np.max(np.abs(vals - [ZETA_2, ZETA_3, ZETA_2_5])) < 1e-13

    def test_functional_equation_continuation(self):
        # zeta(-1) = -1/12 and zeta(-2) = 0 via the reflection formula
        assert abs(zeta(-1.0) - (-1.0 / 12.0)) < 1e-12
        assert abs(zeta(-2.0)) < 1e-12
        assert abs(zeta(-4.0)) < 1e-12

    def test_zero_free_region_re_gt_one(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(1.1, 5.0, 64) + 1j * rng.uniform(-40.0, 40.0, 64)
        assert np.min(np.abs(zeta(zs))) > 0.1

    def test_pole_at_one_raises(self):
        with pytest.raises(ValueError):
            zeta(1.0)

    @pytest.mark.parametrize("height", [math.nan, math.inf])
    def test_non_finite_height_raises(self, height):
        with pytest.raises(ValueError, match="finite Im z"):
            zeta_em(complex(3.0, height))

    def test_derivative_at_three(self):
        h = 1e-5
        dz = (zeta(3 + h) - zeta(3 - h)) / (2 * h)
        assert abs(dz - ZETA_PRIME_3) < 1e-9

    def test_height_cap_warns_not_fails(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = zeta(2.0 + 1j * (HEIGHT_CAP * 2))
        assert np.isfinite(val)
        assert any("height" in str(w.message).lower() for w in caught)

    @pytest.mark.parametrize("x", [0.6, 1.5, 4.0])
    def test_accurate_up_to_height_cap(self, x):
        mpmath = pytest.importorskip("mpmath")
        zs = x + 1j * np.geomspace(1e3, HEIGHT_CAP, 12)
        with mpmath.workdps(20):
            ref = np.array([complex(mpmath.zeta(complex(z))) for z in zs])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = zeta(zs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10

    def test_cut_depends_only_on_the_point(self):
        # each point sums up to its own height, whatever else is in the batch
        low = 3.0 + 1.0j
        assert zeta_em([low, 3.0 + 2e4j])[0] == zeta_em(low)
        grid = 3.01 + 1j * np.linspace(-200.0, 200.0, 4097)
        batch = zeta_em(grid)
        for i in range(0, grid.size, 64):
            assert batch[i] == zeta_em(grid[i])

    def test_memory_bounded_per_point(self, monkeypatch):
        # a row longer than _CHUNK terms is summed in column blocks: its
        # value moves only by summation order, and the peak follows the
        # block size, not the height; a row within one block keeps its bits
        zs = np.array([2.0 + 2e4j, 0.6 - 1.2e4j, 3.0 + 1.0j, 3.0 + 900.0j])
        ref = zeta_em(zs)
        monkeypatch.setattr(special_functions, "_CHUNK", 1024)
        tracemalloc.start()
        try:
            got = zeta_em(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
        assert np.array_equal(got[2:], ref[2:])
        # about 40 bytes per term of the longest row, 0.8 MB unblocked
        assert peak < 128 * 1024

    def test_em_term_count_scales_accuracy(self):
        # the Euler-Maclaurin cutoff must grow with the height to stay
        # accurate; spot-check a moderately high point against the
        # alternating Dirichlet eta series (converges for Re > 0)
        z = 2.0 + 800.0j
        n = np.arange(1, 400001)
        eta = np.sum((-1.0) ** (n + 1) * n ** (-z))
        ref = eta / (1.0 - 2.0 ** (1.0 - z))
        assert abs(zeta_em(z) - ref) < 1e-9


class TestGammaLn:
    def test_factorials(self):
        for n in range(1, 10):
            assert abs(gamma_ln(n + 1).real - math.log(math.factorial(n))) < 1e-12

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert abs(gamma_ln(0.5) - math.log(math.sqrt(math.pi))) < 1e-13

    def test_reflection(self):
        z = 0.3 + 0.7j
        lhs = gamma_ln(z) + gamma_ln(1 - z)
        rhs = np.log(np.pi / np.sin(np.pi * z))
        assert abs(np.exp(lhs) - np.exp(rhs)) < 1e-12

    def test_recurrence(self):
        z = 2.5 + 1.5j
        assert abs(np.exp(gamma_ln(z + 1)) - z * np.exp(gamma_ln(z))) < 1e-11

    def test_vectorized(self):
        zs = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
        vals = np.exp(gamma_ln(zs))
        assert np.max(np.abs(vals - [1.0, 1.0, 2.0, 6.0])) < 1e-12


class TestZetaShift:
    def test_shift_evaluation(self):
        zs = ZetaShift(3.0)
        assert abs(zeta_shift_eval(zs, -0.5) - ZETA_2_5) < 1e-13
        assert abs(zeta_shift_eval(zs, 0.0) - ZETA_3) < 1e-13

    def test_trivial_zero(self):
        # zeta(s + 3) vanishes where s + 3 = -2, i.e. s = -5
        zs = ZetaShift(3.0)
        assert abs(zeta_shift_eval(zs, -5.0)) < 1e-12

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            ZetaShift(0.5)

    def test_abscissa(self):
        zs = ZetaShift(2.0)
        assert zs.h == 2.0
        # the pole of zeta(s + 2) sits at s = -1
        with pytest.raises(ValueError):
            zeta_shift_eval(zs, -1.0)


class TestMobius:
    def test_first_values(self):
        # mu(1..10) = 1, -1, -1, 0, -1, 1, -1, 0, 0, 1
        mu = mobius_values(10)
        assert list(mu[1:]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mertens_bound_small(self):
        mu = mobius_values(1000)
        mertens = np.cumsum(mu[1:])
        # |M(n)| <= sqrt(n) holds well below the first known violation
        assert np.all(np.abs(mertens) <= np.sqrt(np.arange(1, 1001)))

    def test_dirichlet_inverse_of_zeta(self):
        # sum mu(n)/n^3 should equal 1/zeta(3)
        mu = mobius_values(200000)
        n = np.arange(1, mu.size, dtype=np.float64)
        total = np.sum(mu[1:] / n ** 3)
        assert abs(total - 1.0 / ZETA_3) < 1e-10


class TestInverseZetaBound:
    def test_bound_holds_on_grid(self):
        ys = np.linspace(-50.0, 50.0, 101)
        for h in (2.0, 3.0):
            for sigma in (0.25, 1.0, 4.0):
                out = inverse_zeta_bound_check(ZetaShift(h), sigma, ys)
                assert out["ok"], (h, sigma, out)
                assert out["violations"] == []
                assert out["n_points"] == 101
                assert out["max_inverse_modulus"] <= out["bound"] + 1e-12

    def test_bound_value(self):
        out = inverse_zeta_bound_check(ZetaShift(3.0), 1.0, np.array([0.0]))
        # bound is (sigma + h) / (sigma + h - 1) = 4/3
        assert abs(out["bound"] - 4.0 / 3.0) < 1e-15

    def test_mobius_series_agrees(self):
        out = inverse_zeta_bound_check(ZetaShift(3.0), 1.0,
                                       np.linspace(-5.0, 5.0, 11))
        assert out["mobius_max_error"] < 1e-3
