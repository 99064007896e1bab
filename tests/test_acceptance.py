"""Acceptance gate: every shipped guarantee, one verdict line per criterion.

Each test prints `criterion NN <label>: PASS|FAIL (detail)`; run with
`pytest tests/test_acceptance.py -s` to see the lines as they execute.
Tolerances are the contractual ones, not what the implementation happens
to achieve on a good day.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from nlode.cli import diagnose, load_config, run
from nlode.oracles import (
    apply_truncated_series,
    classical_ode_reference,
    derivatives_at_zero,
    exponential_profile,
)
from nlode.solver import (
    ClassicalIVP,
    GeneralizedIC,
    PoleSpec,
    assemble_ivp_system,
    find_zeros,
    predict_derivative_at_zero,
    solve_classical_ivp,
    solve_generalized,
    solve_with_poles,
)
from nlode.special_functions import inverse_zeta_bound_check
from nlode.symbols import DataSequence, build_r_series, eval_symbol, parse_symbol
from nlode.transforms import (
    BromwichConfig,
    bromwich_invert,
    forcing_from_text,
    hardy_norm,
)

GAUSSIAN_SYMBOL = "exp(2*(s^2 + 0.5*s))*(s^2 + 0.5*s - 1) + 2"
CONFIG_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "configs"))
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def eigen_problem(symbol_text: str, k: float):
    """J and r for which e^{-t/k} solves f(d/dt) phi = J."""
    f = parse_symbol(symbol_text)
    lam = complex(eval_symbol(f, -1.0 / k))
    J = forcing_from_text(f"{lam.real!r}*exp(-{1.0 / k!r}*t)")
    r = parse_symbol(f"(({symbol_text}) - {lam.real!r})/(s + {1.0 / k!r})")
    return f, J, GeneralizedIC(r, "user-supplied")


@pytest.fixture(scope="module")
def zeta_eigen():
    """Shared zeta(s + 3) eigenfunction solve (criteria 1 and 6)."""
    f, J, gic = eigen_problem("zeta(s + 3)", 2.0)
    sol = solve_generalized(f, J, gic)
    ts = np.linspace(0.0, 10.0, 201)
    err = float(np.max(np.abs(sol(ts) - np.exp(-0.5 * ts))))
    return f, J, sol, ts, err


def test_criterion_01_eigenfunction_round_trip(zeta_eigen):
    ts = np.linspace(0.0, 10.0, 201)
    errs = {}
    for label, text in (("exp", "exp(s)"), ("gaussian", GAUSSIAN_SYMBOL)):
        f, J, gic = eigen_problem(text, 2.0)
        sol = solve_generalized(f, J, gic)
        errs[label] = float(np.max(np.abs(sol(ts) - np.exp(-0.5 * ts))))
    errs["zeta"] = zeta_eigen[4]
    worst = max(errs.values())
    verdict(1, "eigenfunction round trip", worst < 1e-6,
            f"sup errors {', '.join(f'{k}={v:.2e}' for k, v in errs.items())}, tol 1e-6")


def test_criterion_02_classical_equivalence():
    f = parse_symbol("(s + 1)*(s + 2)")
    J = forcing_from_text("exp(-3*t)")
    poles = PoleSpec(((-1.0, 1), (-2.0, 1)))
    ts = np.linspace(0.0, 10.0, 201)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        data = tuple(rng.uniform(-2.0, 2.0, 2))
        sol, _ = solve_classical_ivp(ClassicalIVP(f, J, poles, data))
        ref = classical_ode_reference(f, J, data, ts)
        worst = max(worst, float(np.max(np.abs(sol(ts) - ref))))
    verdict(2, "classical-ODE equivalence", worst < 1e-6,
            f"sup error {worst:.2e} over 10 random draws, tol 1e-6")


IVP_CORPUS = (
    ("(s + 1)*(s + 2)", "exp(-3*t)",
     ((-1.0, 1), (-2.0, 1)), (1.0, 0.0)),
    ("(s + 1)^2*(s + 2)", "exp(-3*t)",
     ((-1.0, 2), (-2.0, 1)), (1.0, -0.5, 0.25)),
    ("s^2 + 2*s + 2", "exp(-3*t)",
     ((-1.0 + 1.0j, 1), (-1.0 - 1.0j, 1)), (0.3, 0.7)),
    ("zeta(s + 3)", "0",
     ((-5.0, 1),), (1.0,)),
)


def test_criterion_03_ivp_data_reproduction():
    worst_iv, worst_pred = 0.0, 0.0
    for symbol_text, forcing_text, poles, data in IVP_CORPUS:
        ivp = ClassicalIVP(parse_symbol(symbol_text), forcing_from_text(forcing_text),
                           PoleSpec(poles), data)
        sol, _ = solve_classical_ivp(ivp)
        K = ivp.poles.K
        fd = derivatives_at_zero(sol.eval, list(range(K + 1)))
        worst_iv = max(worst_iv,
                       max(abs(fd[n] - complex(data[n])) for n in range(K)))
        LK = 0j if sol.line is None else sol.line.moment(K)
        predicted = predict_derivative_at_zero(sol.poles, sol.residue, K, LK)
        worst_pred = max(worst_pred, abs(predicted - fd[K]))
    ok = worst_iv < 1e-4 and worst_pred < 1e-3
    verdict(3, "IVP data reproduction", ok,
            f"initial-data error {worst_iv:.2e} (tol 1e-4), "
            f"order-K prediction error {worst_pred:.2e} (tol 1e-3)")


RESIDUE_SPLIT_CORPUS = (
    ("(s + 1)*(s + 2)", "s + 3", ((-1.0, 1), (-2.0, 1))),
    ("(s + 1)^2*(s + 2)", "s^2 + 3*s + 3", ((-1.0, 2), (-2.0, 1))),
    ("s^2 + 2*s + 2", "s + 2", ((-1.0 + 1.0j, 1), (-1.0 - 1.0j, 1))),
)


def test_criterion_04_residue_split_consistency():
    ts = np.linspace(0.0, 10.0, 201)
    J = forcing_from_text("exp(-3*t)")
    worst = 0.0
    for symbol_text, r_text, poles in RESIDUE_SPLIT_CORPUS:
        f = parse_symbol(symbol_text)
        gic = GeneralizedIC(parse_symbol(r_text), "user-supplied")
        direct = solve_generalized(f, J, gic)
        split = solve_with_poles(f, J, gic, PoleSpec(poles))
        worst = max(worst, float(np.max(np.abs(direct(ts) - split(ts)))))
    verdict(4, "residue-split consistency", worst < 1e-6,
            f"sup disagreement {worst:.2e} over 3 problems, tol 1e-6")


def test_criterion_05_inverse_zeta_bound():
    ys = np.linspace(-50.0, 50.0, 101)
    total_violations = 0
    bounds_ok = True
    for h in (2.0, 3.0):
        for sigma in (0.25, 1.0, 4.0):
            out = inverse_zeta_bound_check(h, sigma, ys)
            total_violations += len(out["violations"])
            bounds_ok &= abs(out["bound"] - (sigma + h) / (sigma + h - 1)) < 1e-12
    ok = total_violations == 0 and bounds_ok
    verdict(5, "inverse zeta line bound", ok,
            f"{total_violations} violations over 6 (h, sigma) grids of 101 points")


def test_criterion_06_zeta_eigenfunction(zeta_eigen):
    f, J, _, ts, solve_err = zeta_eigen
    profile = exponential_profile(2.0)
    applied = apply_truncated_series(f, profile, ts)
    series_err = float(np.max(np.abs(applied - J.j_eval(ts))))
    ok = solve_err < 1e-6 and series_err < 1e-7
    verdict(6, "zeta eigenfunction", ok,
            f"solve error {solve_err:.2e} (tol 1e-6), "
            f"series cross-check {series_err:.2e} (tol 1e-7)")


def test_criterion_07_hardy_atom_bound():
    omega = -1.0 - 1.0j
    xs = (0.01, 0.1, 1.0, 10.0)
    ok = True
    details = []
    for n in (0, 1, 2):
        def atom(s, n=n):
            return math.factorial(n) / (s - omega) ** (n + 1)
        mus = [hardy_norm(atom, 2.0, x) for x in xs]
        finite = all(math.isfinite(m) for m in mus)
        monotone = all(mus[i + 1] <= mus[i] + 1e-10 for i in range(len(mus) - 1))
        ok &= finite and monotone
        details.append(f"n={n} max {max(mus):.3f}")
    verdict(7, "Hardy atom bound", ok,
            "mu_2 finite and nonincreasing in x: " + ", ".join(details))


INVERSION_PAIRS = (
    (lambda s: 1 / (s + 1), lambda t: np.exp(-t)),
    (lambda s: 1 / (s + 1) ** 2, lambda t: t * np.exp(-t)),
    (lambda s: 2 / (s + 2) ** 3, lambda t: t ** 2 * np.exp(-2 * t)),
    (lambda s: 1 / (s + 0.5 - 1j), lambda t: np.exp((-0.5 + 1j) * t)),
    (lambda s: 1 / ((s + 1) ** 2 + 1), lambda t: np.exp(-t) * np.sin(t)),
    (lambda s: (s + 1) / ((s + 1) ** 2 + 4), lambda t: np.exp(-t) * np.cos(2 * t)),
    (lambda s: 1 / ((s + 1) * (s + 2)), lambda t: np.exp(-t) - np.exp(-2 * t)),
    (lambda s: np.log((s + 2) / (s + 1)),
     lambda t: (np.exp(-t) - np.exp(-2 * t)) / t),
)


def test_criterion_08_inversion_corpus():
    ts = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0])
    worst = 0.0
    worst_spread = 0.0
    for F, exact in INVERSION_PAIRS:
        per_sigma = []
        for sigma in (0.5, 1.0, 2.0):
            got = bromwich_invert(F, ts, BromwichConfig(sigma=sigma))
            per_sigma.append(got)
        worst = max(worst, float(np.max(np.abs(per_sigma[1] - exact(ts)))))
        spread = max(float(np.max(np.abs(a - b)))
                     for a in per_sigma for b in per_sigma)
        worst_spread = max(worst_spread, spread)
    ok = worst < 1e-7 and worst_spread < 1e-6
    verdict(8, "inverse Laplace corpus", ok,
            f"sup error {worst:.2e} (tol 1e-7), "
            f"sigma spread {worst_spread:.2e} (tol 1e-6)")


def test_criterion_09_vandermonde_specialization():
    nodes = (-1.0, -2.0, -3.0)
    ivp = ClassicalIVP(parse_symbol("(s + 1)*(s + 2)*(s + 3)"),
                       forcing_from_text("0"),
                       PoleSpec(tuple((w, 1) for w in nodes)),
                       (1.0, 0.0, 0.0))
    matrix, _ = assemble_ivp_system(ivp, [0j, 0j, 0j])
    vander = np.vander(np.array(nodes), 3, increasing=True).T
    err = float(np.max(np.abs(matrix - vander)))
    verdict(9, "Vandermonde specialization", err < 1e-12,
            f"elementwise gap {err:.2e}, tol 1e-12")


def test_criterion_10_zero_finding():
    zeros = sorted(find_zeros(parse_symbol("(s + 1)^2*(s + 2)"),
                              (-3.0, -0.1, -1.0, 1.0)),
                   key=lambda zm: -zm[0].real)
    poly_ok = (len(zeros) == 2
               and zeros[0][1] == 2 and abs(zeros[0][0] + 1.0) < 1e-8
               and zeros[1][1] == 1 and abs(zeros[1][0] + 2.0) < 1e-8)
    trivial = find_zeros(parse_symbol("zeta(s + 3)"), (-6.0, -4.0, -1.0, 1.0))
    zeta_ok = len(trivial) == 1 and abs(trivial[0][0] + 5.0) < 1e-6
    verdict(10, "zero finding", poly_ok and zeta_ok,
            f"(s+1)^2(s+2) multiplicities {[m for _, m in zeros]}, "
            f"zeta trivial zero at {trivial[0][0].real:.8f}" if trivial
            else "zeta zero not found")


def test_criterion_11_r_series_convergence():
    f = parse_symbol("exp(s)")
    data = DataSequence.geometric(-0.5)
    points = [radius * np.exp(2j * math.pi * m / 5)
              for radius in (0.125, 0.25, 0.375, 0.5) for m in range(5)]
    worst = 0.0
    for s in points:
        got = build_r_series(f, data, s, n_trunc=60)
        closed = (np.exp(s) - math.exp(-0.5)) / (s + 0.5)
        worst = max(worst, abs(got - closed))
    with pytest.raises(ArithmeticError):
        build_r_series(f, DataSequence.geometric(2.0), 0.1, n_trunc=60)
    verdict(11, "r-series convergence", worst < 1e-8,
            f"closed-form gap {worst:.2e} at 20 points (tol 1e-8), "
            "divergent data flagged")


GOLDEN_CONFIGS = ("damped_oscillator_ivp", "exp_symbol_eigenfunction", "zeta_symbol_ivp")
EPS = float(np.finfo(np.float64).eps)


def golden_drift(fresh: str, frozen: str, sigma: float) -> float:
    """Worst |fresh - frozen| / (eps e^{sigma t}) over the numeric CSV columns.

    The header, the row count and the t column must match character for
    character; any difference there gives inf.  A NaN anywhere gives NaN.
    """
    new_rows = [row.split(",") for row in fresh.splitlines()]
    old_rows = [row.split(",") for row in frozen.splitlines()]
    if new_rows[0] != old_rows[0] or len(new_rows) != len(old_rows) or any(
            len(a) != len(b) or a[0] != b[0] for a, b in zip(new_rows, old_rows)):
        return math.inf
    new = np.array(new_rows[1:], dtype=np.float64)
    old = np.array(old_rows[1:], dtype=np.float64)
    bound = EPS * np.exp(sigma * old[:, :1])
    return float(np.max(np.abs(new[:, 1:] - old[:, 1:]) / bound))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_12_cli_goldens(tmp_path, monkeypatch):
    # The goldens may be compared on another machine.  The Bromwich part of
    # the phi and bromwich columns is a BLAS sum over ~4k contour nodes
    # scaled by e^{sigma t}/2pi, and BLAS builds do not fix the order in
    # which they add, so the last bits move by up to about eps e^{sigma t}
    # (summing in another order moves the damped case by up to 4e-14).  At
    # t = 0 the Bromwich value is one such sum plus the one-sided limit of
    # the reference terms, so the bound is no tighter there than elsewhere.
    # This is a rounding bound, not an accuracy contract: TestGoldenAccuracy
    # in test_cli.py and criteria 1-11 check accuracy, and
    # test_rerun_is_byte_identical checks that repeated runs in one
    # environment are byte-identical.
    monkeypatch.chdir(tmp_path)
    drift = {}
    for name in GOLDEN_CONFIGS:
        cfg_path = os.path.join(CONFIG_DIR, f"{name}.cfg")
        code = run(cfg_path)
        assert code == 0, name
        fresh = (tmp_path / f"{name}.csv").read_text()
        with open(os.path.join(GOLDEN_DIR, f"{name}.csv")) as fh:
            frozen = fh.read()
        drift[name] = golden_drift(fresh, frozen, load_config(cfg_path).sigma)
    codes = (
        diagnose(os.path.join(CONFIG_DIR, "damped_oscillator_ivp.cfg")),
        diagnose(os.path.join(CONFIG_DIR, "diagnose_pole_at_origin.cfg")),
        diagnose(os.path.join(CONFIG_DIR, "broken_missing_symbol.cfg")),
    )
    ok = all(ratio <= 1.0 for ratio in drift.values()) and codes == (0, 2, 1)
    worst = ", ".join(f"{name} {ratio:.3g}" for name, ratio in drift.items())
    verdict(12, "CLI goldens", ok,
            f"worst |fresh - frozen|/(eps e^(sigma t)) per CSV: {worst} (bound 1); "
            f"diagnose exit codes {codes} (want (0, 2, 1))")
