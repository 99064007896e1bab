"""The four benchmark workloads: inputs drawn from a seed, problems, checks.

A workload is a list of problems solved one after another through
nlode's public API.  Each problem has a `solve` step, which calls into
nlode and returns an array; an `exact` step, which gives that array from
a closed form; and a `check` step, which compares an answer with the
exact one and returns a failure message or None.  One problem is one
operation: it fails if solving raises or the check misses its tolerance.

Inputs are plain JSON values made by `make_inputs` from the seed, so the
parent process can hand them to a fresh worker process unchanged.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nlode
import nlode.cli

WORKLOADS = ("cli_configs", "zeta_eigen", "classical_batch", "inversion_corpus")

T_GRID = (0.0, 10.0, 201)
SOLVE_TOL = 1e-6
INVERSION_TOL = 1e-7
SIGMA_SPREAD_TOL = 1e-6

# shipped solve configs and the closed form of each phi column
CLI_SOLVES = {
    "damped_oscillator_ivp":
        lambda t: 2.5 * np.exp(-t) - 2.0 * np.exp(-2.0 * t) + 0.5 * np.exp(-3.0 * t),
    "exp_symbol_eigenfunction": lambda t: np.exp(-0.5 * t),
    "zeta_symbol_ivp": lambda t: np.exp(-5.0 * t),
}
# diagnose configs and the exit code each must give
CLI_DIAGNOSES = {
    "damped_oscillator_ivp": 0,
    "diagnose_pole_at_origin": 2,
    "broken_missing_symbol": 1,
}

INVERSION_TS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0)
INVERSION_SIGMAS = (0.5, 1.0, 2.0)
# (transform, exact inverse) pairs; each is one problem over three sigmas
INVERSION_PAIRS = (
    (lambda s: 1 / (s + 1), lambda t: np.exp(-t)),
    (lambda s: 1 / (s + 1) ** 2, lambda t: t * np.exp(-t)),
    (lambda s: 2 / (s + 2) ** 3, lambda t: t ** 2 * np.exp(-2 * t)),
    (lambda s: 1 / (s + 0.5 - 1j), lambda t: np.exp((-0.5 + 1j) * t)),
    (lambda s: 1 / ((s + 1) ** 2 + 1), lambda t: np.exp(-t) * np.sin(t)),
    (lambda s: (s + 1) / ((s + 1) ** 2 + 4), lambda t: np.exp(-t) * np.cos(2 * t)),
    (lambda s: 1 / ((s + 1) * (s + 2)), lambda t: np.exp(-t) - np.exp(-2 * t)),
    (lambda s: np.log((s + 2) / (s + 1)), lambda t: (np.exp(-t) - np.exp(-2 * t)) / t),
)

CLASSICAL_DRAWS = 10


@dataclass(frozen=True)
class Problem:
    label: str
    solve: Callable[[], np.ndarray]
    exact: Callable[[], np.ndarray]
    check: Callable[[np.ndarray, np.ndarray], "str | None"]


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a pass needs from the seed, as JSON values."""
    rng = np.random.default_rng(seed)
    if workload == "cli_configs":
        return {"solves": [str(n) for n in rng.permutation(sorted(CLI_SOLVES))],
                "diagnoses": [str(n) for n in rng.permutation(sorted(CLI_DIAGNOSES))]}
    if workload == "zeta_eigen":
        # a single fixed problem: the seed has nothing to vary
        return {}
    if workload == "classical_batch":
        return {"data": rng.uniform(-2.0, 2.0, (CLASSICAL_DRAWS, 2)).tolist()}
    if workload == "inversion_corpus":
        return {"order": [[int(i), rng.permutation(INVERSION_SIGMAS).tolist()]
                          for i in rng.permutation(len(INVERSION_PAIRS))]}
    raise ValueError(f"unknown workload {workload!r}")


def sup_error(got, want, tol: float, what: str) -> "str | None":
    """Failure message if got misses want by more than tol (NaN misses)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, want {want.shape}"
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol:
        return f"{what}: sup error {err:.3e} exceeds {tol:g}"
    return None


def _t_grid() -> np.ndarray:
    return np.linspace(*T_GRID)


def _check_phi(got, want):
    return sup_error(got, want, SOLVE_TOL, "phi")


def _check_inversion(rows, exact_rows):
    """sigma = 1 against the exact values, and every sigma against the others."""
    at_one = INVERSION_SIGMAS.index(1.0)
    spread = np.abs(rows[:, None, :] - rows[None, :, :])
    return (sup_error(rows[at_one], exact_rows[at_one], INVERSION_TOL, "sigma=1")
            or sup_error(spread, np.zeros_like(spread), SIGMA_SPREAD_TOL, "sigma spread"))


def _cli_problems(inputs: dict, config_dir: str) -> list[Problem]:
    problems = []
    for name in inputs["solves"]:
        def solve(name=name):
            path = os.path.join(config_dir, f"{name}.cfg")
            code = nlode.cli.run(path)
            if code != 0:
                raise RuntimeError(f"nlode solve exited with {code}")
            table = np.loadtxt(f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
            if sup_error(table[:, 0], _t_grid(), 0.0, "t column"):
                raise RuntimeError("CSV t column is not the configured grid")
            return table[:, 1] + 1j * table[:, 2]

        problems.append(Problem(f"solve {name}", solve,
                                lambda name=name: CLI_SOLVES[name](_t_grid()), _check_phi))
    for name in inputs["diagnoses"]:
        def solve(name=name):
            return np.array([float(nlode.cli.diagnose(os.path.join(config_dir, f"{name}.cfg")))])

        problems.append(Problem(f"diagnose {name}", solve,
                                lambda name=name: np.array([float(CLI_DIAGNOSES[name])]),
                                lambda got, want: sup_error(got, want, 0.0, "exit code")))
    return problems


def _zeta_eigen_problems(inputs: dict) -> list[Problem]:
    def solve():
        f = nlode.parse_symbol("zeta(s + 3)")
        lam = complex(nlode.eval_symbol(f, -0.5)).real
        J = nlode.forcing_from_text(f"{lam!r}*exp(-0.5*t)")
        r = nlode.parse_symbol(f"((zeta(s + 3)) - {lam!r})/(s + 0.5)")
        sol = nlode.solve_generalized(f, J, nlode.GeneralizedIC(r, "user-supplied"))
        return sol(_t_grid())

    return [Problem("zeta(s + 3) eigenfunction", solve,
                    lambda: np.exp(-0.5 * _t_grid()), _check_phi)]


def classical_closed_form(data, t):
    """phi'' + 3 phi' + 2 phi = e^{-3t} with phi(0), phi'(0) = data."""
    a, b = data
    return (2 * a + b + 0.5) * np.exp(-t) - (a + b + 1) * np.exp(-2 * t) + 0.5 * np.exp(-3 * t)


def _classical_problems(inputs: dict) -> list[Problem]:
    problems = []
    for i, data in enumerate(inputs["data"]):
        def solve(data=data):
            ivp = nlode.ClassicalIVP(
                nlode.parse_symbol("(s + 1)*(s + 2)"),
                nlode.forcing_from_text("exp(-3*t)"),
                nlode.PoleSpec(((-1.0, 1), (-2.0, 1))),
                tuple(data),
            )
            sol, _ = nlode.solve_classical_ivp(ivp)
            return sol(_t_grid())

        problems.append(Problem(f"draw {i} {data}", solve,
                                lambda data=data: classical_closed_form(data, _t_grid()),
                                _check_phi))
    return problems


def _inversion_problems(inputs: dict) -> list[Problem]:
    ts = np.array(INVERSION_TS)
    problems = []
    for index, sigmas in inputs["order"]:
        F, exact = INVERSION_PAIRS[index]

        def solve(F=F, sigmas=sigmas):
            got = {s: nlode.bromwich_invert(F, ts, nlode.BromwichConfig(sigma=s)) for s in sigmas}
            return np.array([got[s] for s in INVERSION_SIGMAS])

        problems.append(Problem(f"transform {index}", solve,
                                lambda exact=exact: np.array([exact(ts)] * len(INVERSION_SIGMAS)),
                                _check_inversion))
    return problems


def problems_for(workload: str, inputs: dict, config_dir: str) -> list[Problem]:
    """The problems of one pass; building them calls nothing in nlode."""
    if workload == "cli_configs":
        return _cli_problems(inputs, config_dir)
    if workload == "zeta_eigen":
        return _zeta_eigen_problems(inputs)
    if workload == "classical_batch":
        return _classical_problems(inputs)
    if workload == "inversion_corpus":
        return _inversion_problems(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(problems: list[Problem]) -> dict:
    """Solve and check every problem; time from the first solve to the last check."""
    failures = []
    start = time.perf_counter()
    for problem in problems:
        try:
            message = problem.check(problem.solve(), problem.exact())
        except Exception as exc:  # a raised error is a failed operation, not a crash
            message = f"{type(exc).__name__}: {exc}"
        if message:
            failures.append(f"{problem.label}: {message}")
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "ops_total": len(problems),
            "ops_failed": len(failures), "failures": failures}
