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
    gamma_ln,
    inverse_zeta_bound_check,
    mobius_values,
    uniform_step,
    zeta,
    zeta_em,
)
from nlode.symbols import eval_symbol, parse_symbol

# Frozen by tests/oracle_scripts/zeta_constants.py (Dirichlet partial sum
# of 10^6 terms plus integral tail; cross-checked against mpmath).
ZETA_2 = 1.6449340668482264
ZETA_3 = 1.2020569031595942
ZETA_1_5 = 2.6123753486854886
ZETA_2_5 = 1.3414872572509173
ZETA_3_PLUS_10I = complex(1.0995639043266732, -0.0491986732154643)
ZETA_PRIME_3 = -0.1981262429007202

# real parts right of 1/2 where the Euler-Maclaurin cut shrinks with Re z
RIGHT_OF_HALF = [0.6, 1.1, 1.5, 2.0, 3.01, 4.0, 6.0, 10.0]


@pytest.fixture
def cuts_of(monkeypatch):
    """The Dirichlet cut of each point of a zeta_em batch, read off the
    direct-sum kernel."""
    seen = []
    kernel = special_functions._direct_sums

    def recorded(flat, cuts):
        seen.append(cuts.copy())
        return kernel(flat, cuts)

    monkeypatch.setattr(special_functions, "_direct_sums", recorded)

    def cuts(zs):
        seen.clear()
        zeta_em(np.asarray(zs, dtype=np.complex128))
        return seen[0]

    return cuts


def height_cut(zs):
    """The cut max(64, ceil|Im z|), sized for the critical line."""
    return np.maximum(np.ceil(np.abs(np.imag(zs))), 64).astype(np.int64)


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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_real_part_is_nan(self, x, cuts_of):
        with np.errstate(all="ignore"):
            assert cuts_of([complex(x, 5e3)]).tolist() == [64]
            assert np.isnan(zeta_em(complex(x, 5e3)))

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

    @pytest.mark.parametrize("x", RIGHT_OF_HALF)
    def test_accurate_up_to_height_cap(self, x):
        mpmath = pytest.importorskip("mpmath")
        zs = x + 1j * np.geomspace(1e2, HEIGHT_CAP, 12)
        with mpmath.workdps(20):
            ref = np.array([complex(mpmath.zeta(complex(z))) for z in zs])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = zeta(zs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10

    def test_cut_depends_only_on_the_point(self):
        # each point sums up to its own cut, whatever else is in the batch
        low = 3.0 + 1.0j
        assert zeta_em([low, 3.0 + 2e4j])[0] == zeta_em(low)
        grid = 3.01 + 1j * np.linspace(-200.0, 200.0, 4097)
        batch = zeta_em(grid)
        for i in range(0, grid.size, 64):
            assert batch[i] == zeta_em(grid[i])
        rng = np.random.default_rng(5)
        heights = rng.choice([-1, 1], 96) * np.geomspace(1.0, HEIGHT_CAP, 96)
        mixed = rng.choice(RIGHT_OF_HALF + [0.5], 96) + 1j * heights
        batch = zeta_em(mixed)
        for i in range(mixed.size):
            assert batch[i] == zeta_em(mixed[i])

    def test_cut_is_the_height_on_the_critical_line_and_low_down(self, cuts_of):
        ys = np.array([0.0, 1.0, -40.0, 63.5, 64.0, 64.2, -100.0, 999.5, 1e4, -HEIGHT_CAP])
        assert np.array_equal(cuts_of(0.5 + 1j * ys), height_cut(1j * ys))
        low = np.add.outer(RIGHT_OF_HALF + [-2.0], 1j * np.linspace(-64.0, 64.0, 33)).ravel()
        assert np.all(cuts_of(low) == 64)

    def test_cut_never_exceeds_the_height(self, cuts_of):
        rng = np.random.default_rng(3)
        heights = rng.choice([-1, 1], 400) * np.geomspace(1.0, 1e5, 400)
        zs = rng.uniform(-3.0, 12.0, 400) + 1j * heights
        cuts = cuts_of(zs)
        assert np.all((cuts >= 64) & (cuts <= height_cut(zs)))
        assert np.all(cuts[zs.real <= 0.5] == height_cut(zs[zs.real <= 0.5]))

    def test_cut_is_the_shortest_that_matches_the_critical_line(self, cuts_of):
        # in logs, the model remainder (T / 2 pi N)^{2m+1} N^{-x} at N = cut
        # is at most that of N = T at x = 1/2, and at N = cut - 1 above it
        x = np.repeat([0.6, 1.5, 4.0, 10.0], 50)
        t = np.tile(np.geomspace(1e3, HEIGHT_CAP, 50), 4)
        cuts = cuts_of(x + 1j * t)
        assert np.all(cuts > 64)
        q = 2 * special_functions.DEFAULT_EM_ORDER + 1

        def excess(n):
            return q * np.log(t / n) - x * np.log(n) + 0.5 * np.log(t)

        assert np.all(excess(cuts) <= 1e-12)
        assert np.all(excess(cuts - 1.0) > 0.0)

    def test_fit_window_term_count(self, cuts_of):
        # the reference fit of a zeta(s + 3) line sampler at sigma = 1:
        # geomspace(y_max, 100 y_max, 128) and its mirror, y_max = 200;
        # 1,112,282 terms when every point cut at its height
        ys = np.geomspace(200.0, 2e4, 128)
        cuts = cuts_of(4.0 + 1j * np.concatenate([-ys[::-1], ys]))
        assert int(np.sum(cuts - 1)) == 252_418

    def test_memory_bounded_per_point(self, monkeypatch, cuts_of):
        # a row longer than _CHUNK terms is summed in column blocks: its
        # value moves only by summation order, and the peak follows the
        # block size, not the height; a row within one block keeps its bits
        zs = np.array([2.0 + 2e4j, 0.6 - 1.2e4j, 3.0 + 1.0j, 3.0 + 900.0j])
        ref = zeta_em(zs)
        monkeypatch.setattr(special_functions, "_CHUNK", 1024)
        assert np.all(cuts_of(zs[:2]) > 1024)
        tracemalloc.start()
        try:
            got = zeta_em(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
        assert np.array_equal(got[2:], ref[2:])
        # about 40 bytes per term of the longest row, 0.45 MB unblocked
        assert peak < 128 * 1024

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.3])
    def test_reflection_accurate_at_height(self, x):
        # left of Re z = 1/2 the sine of the functional equation would
        # overflow above |Im z| ~ 451 and the product turn NaN
        mpmath = pytest.importorskip("mpmath")
        ys = np.geomspace(1e2, HEIGHT_CAP, 8)
        zs = x + 1j * np.concatenate([ys, -ys])
        with mpmath.workdps(20):
            ref = np.array([complex(mpmath.zeta(complex(z))) for z in zs])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = zeta(zs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10

    def test_em_term_count_scales_accuracy(self):
        # the Euler-Maclaurin cutoff must grow with the height to stay
        # accurate; spot-check a moderately high point against the
        # alternating Dirichlet eta series (converges for Re > 0)
        z = 2.0 + 800.0j
        n = np.arange(1, 400001)
        eta = np.sum((-1.0) ** (n + 1) * n ** (-z))
        ref = eta / (1.0 - 2.0 ** (1.0 - z))
        assert abs(zeta_em(z) - ref) < 1e-9


class TestZetaRuns:
    """The blocked kernel for runs x + i(y_0 + k dy) against zeta_em."""

    STEP = math.pi / 64        # a trapezoid step h of the line sampler
    ODD = np.arange(1, math.floor(200.0 / STEP) + 1, 2)

    @pytest.fixture
    def run_calls(self, monkeypatch):
        calls = []
        kernel = special_functions._run_sums

        def counted(flat, cuts, step):
            calls.append(flat.size)
            return kernel(flat, cuts, step)

        monkeypatch.setattr(special_functions, "_run_sums", counted)
        return calls

    @pytest.mark.parametrize("zs", [
        3.01 + 1j * np.linspace(-200.0, 200.0, 4097),                  # Hardy line
        4.0 + 1j * STEP * np.concatenate([-ODD[::-1], ODD]),            # odd sampler level
        4.0 + 1j * np.linspace(-200.0, 200.0, 513),                     # contour probes
        1.5 + 1j * np.linspace(2000.0, -2000.0, 1001),                  # decreasing run
        1.5 + 1j * np.linspace(100.0, 1900.0, 200),                     # wide ragged part
    ], ids=["hardy", "odd-level", "probes", "decreasing", "ragged"])
    def test_matches_direct_sums(self, zs, run_calls):
        got = zeta(zs)
        assert run_calls == [zs.size]
        ref = zeta_em(zs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    def test_reflected_run_is_decreasing(self, run_calls):
        zs = -0.5 + 1j * np.linspace(-300.0, 300.0, 257)
        got = zeta(zs)
        assert run_calls == [zs.size]
        w = zs
        pref = np.exp(w * math.log(2.0) + (w - 1.0) * math.log(math.pi) + gamma_ln(1.0 - w))
        ref = pref * np.sin(0.5 * np.pi * w) * zeta_em(1.0 - w)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("zs", [
        1.5 + 1j * np.linspace(-200.0, 200.0, 63),                      # one short of a block
        4.0 + 1j * np.geomspace(1.0, 2e4, 256),                         # geometric fit window
        np.linspace(3.0, 4.0, 100) + 1j * np.linspace(-200.0, 200.0, 100),  # mixed real parts
        1.5 + 1j * (np.linspace(-200.0, 200.0, 100) + 1e-9 * (np.arange(100) == 50)),
    ], ids=["63-points", "geomspace", "mixed-real", "one-moved"])
    def test_other_batches_keep_direct_bits(self, zs, run_calls):
        assert np.array_equal(zeta(zs), zeta_em(zs))
        assert run_calls == []

    @pytest.mark.parametrize("x", RIGHT_OF_HALF)
    def test_run_accurate_up_to_height_cap(self, x, run_calls):
        mpmath = pytest.importorskip("mpmath")
        zs = x + 1j * np.linspace(-HEIGHT_CAP, HEIGHT_CAP, 129)
        got = zeta(zs)
        assert run_calls == [zs.size]
        pick = np.r_[0:zs.size:11, zs.size - 1]
        with mpmath.workdps(20):
            ref = np.array([complex(mpmath.zeta(complex(z))) for z in zs[pick]])
        assert np.max(np.abs(got[pick] - ref) / np.abs(ref)) <= 1e-10

    def test_memory_bounded_per_block(self, monkeypatch):
        # the n range is summed in column blocks: the peak follows _CHUNK,
        # not the height (41 MB at the default _CHUNK, which takes 2e4 in
        # one block)
        zs = 1.5 + 1j * np.linspace(-2e4, 2e4, 4097)
        ref = zeta(zs)
        monkeypatch.setattr(special_functions, "_CHUNK", 1 << 15)
        tracemalloc.start()
        try:
            got = zeta(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
        # about 1.4 MB, 0.8 MB of it the batch-sized arrays of the tail
        assert peak < 2 * 1024 * 1024

    def test_uniform_step(self):
        ys = np.linspace(-200.0, 200.0, 4097)
        assert uniform_step(ys, 64) == 400.0 / 4096
        assert uniform_step(self.STEP * np.concatenate([-self.ODD[::-1], self.ODD]), 64) is not None
        assert uniform_step(ys[:63], 64) is None
        assert uniform_step(ys[::-1], 64) is None
        moved = ys.copy()
        moved[100] += 1e-9
        assert uniform_step(moved, 64) is None


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
        f = parse_symbol("zeta(s + 3)")
        assert abs(eval_symbol(f, -0.5) - ZETA_2_5) < 1e-13
        assert abs(eval_symbol(f, 0.0) - ZETA_3) < 1e-13

    def test_trivial_zero(self):
        # zeta(s + 3) vanishes where s + 3 = -2, i.e. s = -5
        f = parse_symbol("zeta(s + 3)")
        assert abs(eval_symbol(f, -5.0)) < 1e-12


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

    def test_sieve_sized_to_limit(self):
        assert mobius_values(0).tolist() == [0]
        assert mobius_values(1).tolist() == [0, 1]
        assert mobius_values(30).tolist() == mobius_values(1000)[:31].tolist()

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mobius_values(-5)


class TestInverseZetaBound:
    def test_bound_holds_on_grid(self):
        ys = np.linspace(-50.0, 50.0, 101)
        for h in (2.0, 3.0):
            for sigma in (0.25, 1.0, 4.0):
                out = inverse_zeta_bound_check(h, sigma, ys)
                assert out["ok"], (h, sigma, out)
                assert out["violations"] == []
                assert out["n_points"] == 101
                assert out["max_inverse_modulus"] <= out["bound"] + 1e-12

    @pytest.mark.parametrize("h", [0.5, 1.0])
    def test_shift_must_exceed_one(self, h):
        with pytest.raises(ValueError, match="shift must exceed 1"):
            inverse_zeta_bound_check(h, 1.0, np.array([0.0]))

    def test_bound_value(self):
        out = inverse_zeta_bound_check(3.0, 1.0, np.array([0.0]))
        # bound is (sigma + h) / (sigma + h - 1) = 4/3
        assert abs(out["bound"] - 4.0 / 3.0) < 1e-15

    def test_mobius_series_agrees(self):
        out = inverse_zeta_bound_check(3.0, 1.0,
                                       np.linspace(-5.0, 5.0, 11))
        assert out["mobius_max_error"] < 1e-3
