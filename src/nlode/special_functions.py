"""Riemann zeta and log-gamma evaluation for complex arguments.

The zeta evaluator combines a truncated Dirichlet sum with Euler-Maclaurin
corrections for Re(z) >= 1/2 and switches to the reflection functional
equation on the left.  Each point cuts its Dirichlet sum at its own height,
max(64, ceil|Im z|), so its cost and its value depend on that point alone.
Against mpmath the relative error stays below 1e-10 up to the height cap
|Im z| = 2e4 (at Re z = 0.6, 1.5 and 4); zeta warns above it.  A Moebius
sieve backs the inverse-zeta bound check.
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


def zeta_em(z, n_terms: int = DEFAULT_EM_TERMS, em_order: int = DEFAULT_EM_ORDER):
    """Euler-Maclaurin continuation, valid for Re(z) > 1 - 2*em_order.

    Each point sums its own Dirichlet terms n < N = max(n_terms, ceil|Im z|, 2),
    so the correction terms keep shrinking at height, a low point costs no
    more than its own cut, and a value does not depend on the rest of its
    batch.  Points sharing a cut are summed together, in blocks of at most
    _CHUNK matrix entries; a point whose row alone is longer sums it in
    column blocks of _CHUNK terms, so memory does not grow with height.
    """
    flat, scalar, shape = _as_flat(z)
    if flat.size == 0:
        return np.empty(shape, dtype=np.complex128)
    if np.any(np.abs(flat - 1.0) < 1e-14):
        raise ValueError("zeta pole at z = 1")
    if not np.all(np.isfinite(flat.imag)):
        raise ValueError(f"zeta needs a finite Im z, got z = {flat[~np.isfinite(flat.imag)][0]}")
    cuts = np.maximum(np.ceil(np.abs(flat.imag)), max(int(n_terms), 2)).astype(np.int64)
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
    return complex(out[0]) if scalar else out.reshape(shape)


def zeta(z):
    """Riemann zeta on C \\ {1}: Euler-Maclaurin for Re(z) >= 1/2, reflection left of it."""
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
        pref = np.exp(w * _LN2 + (w - 1.0) * _LNPI + gamma_ln(1.0 - w))
        out[left] = pref * np.sin(0.5 * np.pi * w) * zeta_em(1.0 - w)
    if np.any(right):
        out[right] = zeta_em(flat[right])
    return complex(out[0]) if scalar else out.reshape(shape)


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
