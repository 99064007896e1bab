"""Riemann zeta and log-gamma evaluation for complex arguments.

The zeta evaluator combines a truncated Dirichlet sum with Euler-Maclaurin
corrections for Re(z) >= 1/2 and switches to the reflection functional
equation on the left.  Each point z = x + iT cuts its Dirichlet sum at
N = max(64, ceil(T rho)), rho = min(1, max(T, 1)^{-(x - 1/2)/(2m + 1 + x)})
for Euler-Maclaurin order m: the shortest cut whose order-m remainder,
about (|z|/2 pi N)^{2m+1} N^{-x} (Edwards, Riemann's Zeta Function, 6.4),
is no larger than that of N = T on the critical line at the same height.
So the cut is max(64, ceil T) at x = 1/2 and shrinks as x grows, and the
cost and value of a point depend on that point alone.

The Dirichlet sums have two kernels.  A batch that is a run of at least
_RUN_BLOCK points x + i(y_0 + k dy) with one real part (a Hardy line, the
contour probes, a trapezoid level of the line sampler; decreasing runs,
which the reflection makes, too) is summed by _run_sums: per block of
_RUN_BLOCK points, one exp per term for the block's first point and a
matrix-vector product with a table n^{-i l dy} shared by the whole call,
the idea behind Odlyzko and Schoenhage's evaluation of one Dirichlet sum
at many equally spaced heights.  Every other batch (single points, the
geometric fit window, mixed real parts) takes zeta_em's direct sums, one
exp per term.  The cut is the same in both, and a value on a run matches
zeta_em to rounding, not bit for bit.  Against mpmath the relative error
stays below 1e-10 up to the height cap |Im z| = 2e4 (at Re z from 0.6 to
10, and left of 1/2 at Re z = -2, -0.5 and 0.3); zeta warns above it.
A Moebius sieve backs the inverse-zeta bound check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

HEIGHT_CAP = 2.0e4          # largest |Im z| verified against mpmath; above it zeta warns
DEFAULT_EM_TERMS = 64
DEFAULT_EM_ORDER = 8
MOBIUS_LIMIT = 10**6

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
_CHUNK = 1 << 22            # matrix entries per Dirichlet-sum block
_SINE_HEIGHT = 64.0         # above this |Im z| the reflection takes sin(pi z/2) by its exponent
_RUN_BLOCK = 64             # points per block of the run kernel; shorter runs sum directly

# B_2, B_4, ..., B_20
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _as_flat(z) -> tuple[np.ndarray, bool, tuple[int, ...]]:
    arr = np.asarray(z, dtype=np.complex128)
    return arr.ravel(), arr.ndim == 0, arr.shape


def gamma_ln(z):
    """Principal-branch log-gamma via the Lanczos approximation.

    The reflected region Re(z) < 1/2 is computed through the sine
    reflection; off the real axis its imaginary part may differ from the
    principal branch by a multiple of 2*pi*i, which is harmless for the
    exp(gamma_ln(...)) uses in this package.
    """
    flat, scalar, shape = _as_flat(z)
    if flat.size == 0:
        return np.empty(shape, dtype=np.complex128)
    on_pole = (flat.imag == 0) & (flat.real <= 0) & (flat.real == np.round(flat.real))
    if np.any(on_pole):
        raise ValueError(f"log-gamma pole at nonpositive integer z = {flat[on_pole][0]}")
    out = np.empty_like(flat)
    left = flat.real < 0.5
    if np.any(left):
        w = flat[left]
        out[left] = _LNPI - np.log(np.sin(np.pi * w)) - _lanczos_core(1.0 - w)
    if np.any(~left):
        out[~left] = _lanczos_core(flat[~left])
    return complex(out[0]) if scalar else out.reshape(shape)


def _lanczos_core(w: np.ndarray) -> np.ndarray:
    # valid for Re(w) >= 0.5
    acc = np.full(w.shape, _LANCZOS[0], dtype=np.complex128)
    for i in range(1, len(_LANCZOS)):
        acc = acc + _LANCZOS[i] / (w - 1.0 + i)
    t = w + _LANCZOS_G - 0.5
    return 0.5 * math.log(2.0 * math.pi) + (w - 0.5) * np.log(t) - t + np.log(acc)


def uniform_step(xs: np.ndarray, min_points: int) -> float | None:
    """The step of an increasing run of at least min_points values that lies
    within 8 eps max|x| of x_0 + j*step; None for any other set of values."""
    if xs.size < min_points:
        return None
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    if not step > 0:
        return None
    drift = np.max(np.abs(xs - (xs[0] + step * np.arange(xs.size))))
    return step if drift <= 8.0 * np.finfo(np.float64).eps * np.max(np.abs(xs)) else None


def zeta_em(z, n_terms: int = DEFAULT_EM_TERMS, em_order: int = DEFAULT_EM_ORDER):
    """Euler-Maclaurin continuation, valid for Re(z) > 1 - 2*em_order.

    Each point sums its own Dirichlet terms n < N = max(n_terms, ceil(|Im z| rho), 2),
    with rho <= 1 the factor of the module docstring (1 at Re z <= 1/2), so
    the correction terms keep shrinking at height, a low point costs no
    more than its own cut, and a value does not depend on the rest of its
    batch.  Points sharing a cut are summed together, in blocks of at most
    _CHUNK matrix entries; a point whose row alone is longer sums it in
    column blocks of _CHUNK terms, so memory does not grow with height.
    """
    flat, scalar, shape = _as_flat(z)
    if flat.size == 0:
        return np.empty(shape, dtype=np.complex128)
    out = _euler_maclaurin(flat, n_terms, em_order, None)
    return complex(out[0]) if scalar else out.reshape(shape)


def _euler_maclaurin(flat: np.ndarray, n_terms: int, em_order: int,
                     step: float | None) -> np.ndarray:
    """zeta_em on a flat batch: each point's cut, the direct Dirichlet sums
    when step is None, else those of the run x + i(y_0 + k*step) by
    _run_sums, then the tail."""
    if np.any(np.abs(flat - 1.0) < 1e-14):
        raise ValueError("zeta pole at z = 1")
    if not np.all(np.isfinite(flat.imag)):
        raise ValueError(f"zeta needs a finite Im z, got z = {flat[~np.isfinite(flat.imag)][0]}")
    # the order-m remainder at cut N is about (|z|/2 pi N)^{2m+1} N^{-Re z};
    # N = |Im z| rho makes it no larger than that of N = |Im z| at Re z = 1/2
    # (fmax: a non-finite Re z gives rho NaN and a NaN value at any cut)
    height = np.abs(flat.imag)
    x = np.maximum(flat.real, 0.5)
    rho = np.maximum(height, 1.0) ** ((0.5 - x) / (2 * em_order + 1 + x))
    cuts = np.fmax(np.ceil(height * rho), max(int(n_terms), 2)).astype(np.int64)
    out = _direct_sums(flat, cuts) if step is None else _run_sums(flat, cuts, step)
    groups, member = np.unique(cuts, return_inverse=True)
    nf = cuts.astype(np.float64)
    # math.log, not np.log: the two round a few log N apart, and the
    # goldens under tests/golden were written with math.log
    ln_nf = np.array([math.log(n) for n in groups.tolist()])[member]
    tail_pow = np.exp(-flat * ln_nf)                 # N^{-z}
    out += tail_pow * nf / (flat - 1.0) + 0.5 * tail_pow
    rising = flat.copy()                             # z(z+1)...(z+2k-2)
    npow = tail_pow / nf                             # N^{-z-2k+1}
    fact = 2.0                                       # (2k)!
    for k in range(1, em_order + 1):
        out += (_BERNOULLI[k - 1] / fact) * rising * npow
        if k < em_order:
            rising = rising * (flat + (2 * k - 1)) * (flat + 2 * k)
            npow = npow / (nf * nf)
            fact *= (2 * k + 1) * (2 * k + 2)
    return out


def _direct_sums(flat: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """sum_{n < cut} n^{-z} for each point, one exp per term."""
    groups, member = np.unique(cuts, return_inverse=True)
    ln_n = np.log(np.arange(1, min(int(groups[-1]), _CHUNK + 1), dtype=np.float64))
    out = np.empty_like(flat)
    for g, n_cut in enumerate(groups):
        rows = np.flatnonzero(member == g)
        if n_cut - 1 > _CHUNK:
            # a row longer than one block is summed in column blocks, each
            # with its own logarithms, so memory stays bounded at any height
            for r in rows:
                out[r] = 0.0
                for c0 in range(1, int(n_cut), _CHUNK):
                    ln_block = np.log(np.arange(c0, min(c0 + _CHUNK, n_cut), dtype=np.float64))
                    out[r] += np.exp(-flat[r] * ln_block).sum()
            continue
        block = max(1, _CHUNK // int(n_cut))
        for i0 in range(0, rows.size, block):
            r = rows[i0:i0 + block]
            out[r] = np.exp(-flat[r, None] * ln_n[None, :n_cut - 1]).sum(axis=1)
    return out


def _run_sums(flat: np.ndarray, cuts: np.ndarray, step: float) -> np.ndarray:
    """sum_{n < cut_k} n^{-z_k} on a run z_k = x + i(y_0 + k*step), k < K.

    The run splits into blocks of _RUN_BLOCK points.  For the block that
    starts at z_b, n^{-z_(b+l)} = n^{-z_b} * n^{-i l step}: one base row
    n^{-z_b} per block and one table T[l, n] = n^{-i l step} per call turn
    the block's sums into a matrix-vector product, T @ base over the terms
    that every point of the block takes, plus T masked to each point's own
    cut over the rest.  Every factor comes straight from exp, so nothing
    drifts along the run.  The n range is cut into column blocks so that T
    and its masked copy hold at most _CHUNK entries together.
    """
    starts = np.arange(0, flat.size, _RUN_BLOCK)
    lows = np.minimum.reduceat(cuts, starts) - 1     # terms every point of a block takes
    highs = np.maximum.reduceat(cuts, starts) - 1    # terms its longest point takes
    lag = step * np.arange(_RUN_BLOCK)
    width = max(1, _CHUNK // (2 * _RUN_BLOCK))
    top = int(highs.max())
    out = np.zeros_like(flat)
    for c0 in range(0, top, width):
        # column c holds the term n = c + 1
        c1 = min(c0 + width, top)
        ln_n = np.log(np.arange(c0 + 1, c1 + 1, dtype=np.float64))
        table = np.exp(-1j * np.multiply.outer(lag, ln_n))
        for k0, lo, hi in zip(starts.tolist(), lows.tolist(), highs.tolist()):
            if hi <= c0:
                continue
            rows = slice(k0, k0 + _RUN_BLOCK)
            m = flat[rows].size
            end = min(hi, c1) - c0                   # this block's columns
            mid = min(max(lo - c0, 0), end)          # of which every point takes mid
            base = np.exp(-flat[k0] * ln_n[:end])
            acc = table[:m, :mid] @ base[:mid]
            if mid < end:
                n = np.arange(c0 + mid + 1, c0 + end + 1)
                ragged = np.where(n < cuts[rows, None], table[:m, mid:end], 0.0)
                acc += ragged @ base[mid:]
            out[rows] += acc
    return out


def zeta(z):
    """Riemann zeta on C \\ {1}: Euler-Maclaurin for Re(z) >= 1/2, reflection left of it.

    The points right of 1/2, and the reflected points 1 - z of those left
    of it, go to zeta_em's Euler-Maclaurin sum.  Where either set is a run
    x + i(y_0 + k*dy) of at least _RUN_BLOCK = 64 points with one real part,
    increasing or decreasing, its Dirichlet sums come from the blocked
    products of _run_sums; any other set takes zeta_em's direct sums.
    Either way each point sums n < max(64, ceil(|Im z| rho)), the cut of
    the module docstring, which depends on the point alone, and a value on
    a run matches zeta_em to rounding, not bit for bit.
    """
    flat, scalar, shape = _as_flat(z)
    if flat.size == 0:
        return np.empty(shape, dtype=np.complex128)
    if np.any(np.abs(flat - 1.0) < 1e-14):
        raise ValueError("zeta pole at z = 1")
    if np.max(np.abs(flat.imag)) > HEIGHT_CAP:
        warnings.warn(
            f"zeta evaluated above the height cap |Im z| = {HEIGHT_CAP:g}; "
            "accuracy degrades with height",
            RuntimeWarning,
            stacklevel=2,
        )
    out = np.empty_like(flat)
    at_zero = flat == 0
    left = (flat.real < 0.5) & ~at_zero
    right = ~left & ~at_zero
    out[at_zero] = -0.5
    if np.any(left):
        w = flat[left]
        log_pref = w * _LN2 + (w - 1.0) * _LNPI + gamma_ln(1.0 - w)
        factor = np.empty_like(w)
        low = np.abs(w.imag) <= _SINE_HEIGHT
        factor[low] = np.exp(log_pref[low]) * np.sin(0.5 * np.pi * w[low])
        # higher up, sin(pi w/2) = e^{-i c pi w/2} i c/2 with c = sign(Im w),
        # to double precision; its exponent joins pref's, where the two
        # cancel, instead of the sine overflowing (|Im w| > 451) against
        # pref's underflow
        c = np.sign(w.imag[~low])
        factor[~low] = np.exp(log_pref[~low] - 0.5j * np.pi * c * w[~low] + (0.5j * np.pi * c - _LN2))
        out[left] = factor * _zeta_em_picked(1.0 - w)
    if np.any(right):
        out[right] = _zeta_em_picked(flat[right])
    return complex(out[0]) if scalar else out.reshape(shape)


def _zeta_em_picked(w: np.ndarray) -> np.ndarray:
    """zeta_em(w) for Re w >= 1/2, summed by _run_sums where w is a run; a
    decreasing run is reversed, summed and put back."""
    if np.all(w.real == w.real[0]):
        for order in (slice(None), slice(None, None, -1)):
            step = uniform_step(w.imag[order], _RUN_BLOCK)
            if step is not None:
                out = np.empty_like(w)
                out[order] = _euler_maclaurin(w[order], DEFAULT_EM_TERMS, DEFAULT_EM_ORDER, step)
                return out
    return _euler_maclaurin(w, DEFAULT_EM_TERMS, DEFAULT_EM_ORDER, None)


def mobius_values(limit: int) -> np.ndarray:
    """mu(0), mu(1), ..., mu(limit), by a sieve up to limit."""
    if limit < 0:
        raise ValueError(f"Moebius limit must be nonnegative, got {limit}")
    if limit > MOBIUS_LIMIT:
        raise ValueError(f"Moebius sieve capped at {MOBIUS_LIMIT}")
    mu = np.ones(limit + 1, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, limit + 1):
        if not is_prime[p]:
            continue
        sq = p * p
        if sq <= limit:
            is_prime[sq::p] = False
            mu[sq::sq] = 0
        mu[p::p] *= -1
    mu[0] = 0
    return mu


def inverse_zeta_bound_check(h: float, sigma: float, y_grid, mobius_n: int = 10**4) -> dict:
    """Check |1/zeta(sigma+iy+h)| <= (sigma+h)/(sigma+h-1) on a grid.

    The shift h must exceed 1.  Also cross-checks 1/zeta against the
    truncated Moebius series, whose tail is bounded by the integral of
    n^{-(sigma+h)}.
    """
    if not h > 1:
        raise ValueError("shift must exceed 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ys = np.asarray(list(y_grid), dtype=np.float64)
    a = sigma + h
    bound = a / (a - 1.0)
    report: dict = {
        "bound": bound,
        "n_points": int(ys.size),
        "violations": [],
        "max_inverse_modulus": 0.0,
        "mobius_max_error": 0.0,
        "mobius_tail_bound": 0.0,
        "ok": True,
    }
    if ys.size == 0:
        return report
    vals = np.asarray(zeta((sigma + 1j * ys) + h), dtype=np.complex128)
    inv = 1.0 / vals
    mods = np.abs(inv)
    report["max_inverse_modulus"] = float(np.max(mods))
    bad = mods > bound
    report["violations"] = [(float(y), float(m)) for y, m in zip(ys[bad], mods[bad])]

    mu = mobius_values(mobius_n)[1:].astype(np.float64)
    ln_n = np.log(np.arange(1, mobius_n + 1, dtype=np.float64))
    z_line = (sigma + h) + 1j * ys
    block = max(1, _CHUNK // mobius_n)
    partial = np.empty_like(inv)
    for i0 in range(0, z_line.size, block):
        zz = z_line[i0:i0 + block, None]
        partial[i0:i0 + block] = (mu[None, :] * np.exp(-zz * ln_n[None, :])).sum(axis=1)
    tail = mobius_n ** (1.0 - a) / (a - 1.0)
    err = float(np.max(np.abs(inv - partial)))
    report["mobius_max_error"] = err
    report["mobius_tail_bound"] = float(tail)
    report["ok"] = (not report["violations"]) and err <= tail + 1e-9
    return report
