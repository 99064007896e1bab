"""Tests for config parsing and the command-line entry points."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nlode
from nlode.cli import (
    ConfigError,
    _build_forcing,
    _load_problem,
    _parse_grid,
    diagnose,
    main,
    parse_config_text,
    run,
)
from nlode.solver import HypothesisError, hypothesis_gates, solve

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_path(name: str) -> str:
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


FULL_TEXT = """\
# comment line
mode = classical-ivp
symbol = (s + 1)*(s + 2)
forcing = exp(-3*t)
sigma = 0.5
y_max = 150
quad_tol = 1e-8
grid = 0:4:9
output_csv = out.csv
output_report = out.report.txt

[poles]
-1 0 1
-2 0 1

[initial_values]
1
0 0.25
"""


class TestGrid:
    def test_parse(self):
        assert _parse_grid("0:10:201") == (0.0, 10.0, 201)

    @pytest.mark.parametrize("bad", ["0:10", "a:b:c", "5:1:10", "0:10:1", "-1:10:5",
                                     "nan:10:5", "0:inf:5"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config_text(FULL_TEXT)
        assert cfg.mode == "classical-ivp"
        assert cfg.symbol_text == "(s + 1)*(s + 2)"
        assert cfg.sigma == 0.5
        assert cfg.y_max == 150.0
        assert cfg.quad_tol == 1e-8
        assert cfg.grid == (0.0, 4.0, 9)
        assert cfg.poles == ((-1.0, 0.0, 1), (-2.0, 0.0, 1))
        assert cfg.initial_values == (1.0 + 0j, 0.25j)

    def test_defaults(self):
        cfg = parse_config_text("mode = diagnose\nsymbol = exp(s)\n")
        assert cfg.sigma == 1.0 and cfg.y_max == 200.0 and cfg.grid == (0.0, 10.0, 201)

    @pytest.mark.parametrize("text,fragment", [
        ("symbol = s\n", "mode"),
        ("mode = classical-ivp\n", "symbol"),
        ("mode = bogus\nsymbol = s\n", "mode must be one of"),
        ("mode = diagnose\nsymbol = s\ncolor = red\n", "unknown key"),
        ("mode = diagnose\nsymbol = s\n[weights]\n", "unknown section"),
        ("mode = diagnose\nsymbol = s\njust words\n", "key = value"),
        ("mode = diagnose\nsymbol = s\n[poles]\n-1 0\n", "re im order"),
        ("mode = diagnose\nsymbol = s\n[poles]\na b c\n", "not numeric"),
        ("mode = diagnose\nsymbol = s\n[initial_values]\n1 2 3\n", "re"),
        ("mode = diagnose\nsymbol = s\nsigma = 2\nsigma = 0.5\n",
         r"'sigma' given twice \(line 4\)"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(text)

    @pytest.mark.parametrize("text,fragment", [
        ("mode = generalized\nsymbol = s\noutput_csv = x.csv\n", "gic"),
        ("mode = poles-given\nsymbol = s\ngic = s\noutput_csv = x.csv\n", "poles"),
        ("mode = classical-ivp\nsymbol = s\noutput_csv = x.csv\n"
         "[initial_values]\n1\n", "poles"),
        ("mode = classical-ivp\nsymbol = s\noutput_csv = x.csv\n"
         "[poles]\n-1 0 1\n", "initial_values"),
        ("mode = classical-ivp\nsymbol = s\noutput_csv = x.csv\n"
         "[poles]\n-1 0 2\n[initial_values]\n1\n", "initial_values must supply"),
        ("mode = generalized\nsymbol = s\ngic = s\n", "output_csv"),
        ("mode = generalized\nsymbol = s\ngic = s\noutput_csv = x.csv\n"
         "[poles]\n-1 0 1\n", r"generalized mode does not take a \[poles\]"),
        ("mode = generalized\nsymbol = s\ngic = s\noutput_csv = x.csv\n"
         "[initial_values]\n1\n", r"generalized mode does not take an \[initial_values\]"),
        ("mode = poles-given\nsymbol = s\ngic = s\noutput_csv = x.csv\n"
         "[poles]\n-1 0 1\n[initial_values]\n1\n",
         r"poles-given mode does not take an \[initial_values\]"),
        ("mode = classical-ivp\nsymbol = s\ngic = s\noutput_csv = x.csv\n"
         "[poles]\n-1 0 1\n[initial_values]\n1\n",
         "classical-ivp mode does not take the field: gic"),
    ])
    def test_mode_field_requirements(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(text)


class TestBuildForcing:
    def test_expression(self):
        J = _build_forcing("exp(-3*t)")
        assert abs(J.j_eval(np.array([1.0]))[0] - np.exp(-3.0)) < 1e-15

    def test_builtin(self):
        J = _build_forcing("builtin exp_decay rate=3")
        assert abs(J.j_eval(np.array([1.0]))[0] - np.exp(-3.0)) < 1e-15

    def test_builtin_zero(self):
        J = _build_forcing("builtin zero")
        assert J.is_zero

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            _build_forcing("builtin sawtooth")

    def test_bad_builtin_params(self):
        with pytest.raises(ConfigError, match="key=value"):
            _build_forcing("builtin exp_decay rate")


def write_cfg(tmp_path, text: str) -> str:
    path = tmp_path / "problem.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


FAST_IVP = """\
mode = classical-ivp
symbol = (s + 1)*(s + 2)
forcing = exp(-3*t)
grid = 0:2:9
output_csv = fast.csv
output_report = fast.report.txt

[poles]
-1 0 1
-2 0 1

[initial_values]
1
0
"""


class TestRun:
    def test_solve_writes_csv_and_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(write_cfg(tmp_path, FAST_IVP))
        assert code == 0
        assert "wrote fast.csv" in capsys.readouterr().out
        rows = (tmp_path / "fast.csv").read_text().splitlines()
        assert rows[0] == "t,phi_re,phi_im,bromwich_re,bromwich_im,residue_re,residue_im"
        assert len(rows) == 10
        first = [float(x) for x in rows[1].split(",")]
        assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-7
        report = (tmp_path / "fast.report.txt").read_text()
        assert "status: ok" in report
        assert "mode: classical-ivp" in report
        assert "initial_value_errors:" in report
        assert "residual_sup:" in report

    def test_solution_matches_closed_form(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(write_cfg(tmp_path, FAST_IVP)) == 0
        data = np.genfromtxt(tmp_path / "fast.csv", delimiter=",", skip_header=1)
        ts = data[:, 0]
        expect = 2.5 * np.exp(-ts) - 2.0 * np.exp(-2 * ts) + 0.5 * np.exp(-3 * ts)
        assert np.max(np.abs(data[:, 1] - expect)) < 1e-7
        assert np.max(np.abs(data[:, 2])) < 1e-9

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, FAST_IVP)
        assert run(cfg) == 0
        first = (tmp_path / "fast.csv").read_bytes()
        assert run(cfg) == 0
        assert (tmp_path / "fast.csv").read_bytes() == first

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.cfg")) == 1
        assert "config error" in capsys.readouterr().err

    def test_broken_config_is_exit_1(self, capsys):
        assert run(config_path("broken_missing_symbol.cfg")) == 1
        assert "config error" in capsys.readouterr().err

    def test_hypothesis_failure_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # the declared pole -4 is not a zero of (s + 1)*(s + 2)
        text = FAST_IVP.replace("-2 0 1", "-4 0 1")
        monkeypatch.chdir(tmp_path)
        assert run(write_cfg(tmp_path, text)) == 2
        assert "hypothesis failure" in capsys.readouterr().err

    def test_grid_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(write_cfg(tmp_path, FAST_IVP), {"grid": "0:2:5"})
        assert code == 0
        rows = (tmp_path / "fast.csv").read_text().splitlines()
        assert len(rows) == 6


class TestDiagnose:
    def test_healthy_problem_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert diagnose(write_cfg(tmp_path, FAST_IVP)) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "FAIL" not in out

    def test_axis_pole_fails(self, capsys):
        assert diagnose(config_path("diagnose_pole_at_origin.cfg")) == 2
        out = capsys.readouterr().out
        assert "result: FAIL" in out

    def test_duplicate_pole_fails(self, tmp_path, capsys):
        text = ("mode = diagnose\nsymbol = (s + 1)*(s + 2)\nforcing = exp(-3*t)\n"
                "[poles]\n-1 0 1\n-1 0 1\n")
        assert diagnose(write_cfg(tmp_path, text)) == 2
        out = capsys.readouterr().out
        assert "pairwise distinct" in out

    @pytest.mark.parametrize("gic", ["s + 3", "2*s + 9"], ids=["consistent", "contradicting"])
    def test_r_with_initial_values_fails(self, tmp_path, capsys, gic):
        # initial values fix the residues themselves: solve refuses r with
        # them, and diagnose reports that rather than passing the gates
        text = ("mode = diagnose\nsymbol = (s + 1)*(s + 2)\nforcing = exp(-3*t)\n"
                f"gic = {gic}\n[poles]\n-1 0 1\n-2 0 1\n[initial_values]\n1\n0\n")
        assert diagnose(write_cfg(tmp_path, text)) == 2
        captured = capsys.readouterr()
        assert "result: PASS" not in captured.out
        assert "initial values need declared poles and no r" in captured.err

    def test_broken_config_is_exit_1(self, tmp_path, capsys):
        assert diagnose(str(tmp_path / "nope.cfg")) == 1
        assert "config error" in capsys.readouterr().err


ZERO_R = """\
mode = generalized
symbol = (s + 1)*(s + 2)
forcing = exp(-3*t)
gic = 0
grid = 0:2:9
output_csv = out.csv
"""

# r/f = 1/(s + 0.005) has its pole next to the axis; solve_with_poles
# takes it by residues, so only L(J)/f (here zero) needs the Hardy gate
POLE_NEAR_AXIS = """\
mode = poles-given
symbol = (s + 0.005)*(s + 2)
forcing = 0
gic = s + 2
grid = 0:2:9
output_csv = out.csv

[poles]
-0.005 0 1
"""

EXP_EIGEN = """\
mode = generalized
symbol = exp(s)
forcing = 0.60653065971263342*exp(-0.5*t)
gic = (exp(s) - 0.60653065971263342)/(s + 0.5)
grid = 0:2:9
output_csv = out.csv
output_report = out.report.txt
"""


class TestSolveAndDiagnoseAgree:
    @pytest.mark.parametrize("text", [ZERO_R, POLE_NEAR_AXIS], ids=["zero-r", "pole-near-axis"])
    def test_both_pass(self, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, text)
        assert diagnose(path) == 0
        assert run(path) == 0

    def test_pole_near_axis_solution(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(write_cfg(tmp_path, POLE_NEAR_AXIS)) == 0
        data = np.genfromtxt(tmp_path / "out.csv", delimiter=",", skip_header=1)
        assert np.max(np.abs(data[:, 1] - np.exp(-0.005 * data[:, 0]))) < 1e-9

    @pytest.mark.parametrize("line,bad", [
        ("forcing = exp(-3*t)", "forcing = exp(-3*t"),
        ("gic = 0", "gic = s + * 3"),
    ], ids=["forcing", "gic"])
    @pytest.mark.parametrize("command", [run, diagnose], ids=["solve", "diagnose"])
    def test_syntax_error_is_exit_1(self, tmp_path, monkeypatch, capsys, command, line, bad):
        monkeypatch.chdir(tmp_path)
        assert command(write_cfg(tmp_path, ZERO_R.replace(line, bad))) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("name", ["damped_oscillator_ivp", "exp_symbol_eigenfunction",
                                      "zeta_symbol_ivp"])
    @pytest.mark.filterwarnings("ignore:derivative orders truncated")
    def test_diagnose_prints_the_report_gates(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert diagnose(config_path(f"{name}.cfg")) == 0
        printed = capsys.readouterr().out.splitlines()
        assert run(config_path(f"{name}.cfg")) == 0
        report = (tmp_path / f"{name}.report.txt").read_text().splitlines()
        gates = report[report.index("gates:") + 1:]
        assert printed[1:-1] == [line[2:] for line in gates]
        _, args = _load_problem(config_path(f"{name}.cfg"), None)
        assert len(gates) == len(list(hypothesis_gates(**args)))
        assert all(line.startswith("  ") for line in gates)

    def test_report_flags_truncated_residual(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.warns(UserWarning, match="truncated"):
            assert run(write_cfg(tmp_path, EXP_EIGEN)) == 0
        lines = (tmp_path / "out.report.txt").read_text().splitlines()
        assert "residual_ok: no" in lines
        notes = [line for line in lines if line.startswith("residual_notes:")]
        assert notes and "derivative orders truncated at 4" in notes[0]
        gates = [line.split()[:2] for line in lines[lines.index("gates:") + 1:]]
        assert ["hardy-membership", "PASS"] in gates
        assert ["decay-of-r-over-f", "PASS"] in gates


# transforms that pass every hypothesis check but that the line quadrature
# cannot invert: zeta(s + 3) is flat on the line, so L(J)/f decays only
# like L(J), and the indicator's e^{-as} - e^{-bs} oscillates along it
LINE_REFUSED = {
    "zeta-exp": ("zeta(s + 3)", "exp(-1*t)", "truncation tail is not summable"),
    "zeta-t-exp": ("zeta(s + 3)", "t*exp(-1*t)", "truncation-tail estimate 2.321e-04"),
    "zeta-t3-exp": ("zeta(s + 3)", "t^3*exp(-1*t)", "truncation-tail estimate 1.656e-08"),
    "indicator": ("s + 2", "builtin indicator a=0.3 b=1.7", "truncation-tail estimate 2.289e-03"),
}


class TestDiagnoseAgreesWithSolve:
    """diagnose refuses exactly what solve refuses, with the same detail,
    and whatever it passes evaluates."""

    @staticmethod
    def check(path, capsys):
        _, args = _load_problem(path, None)
        rows = list(hypothesis_gates(**args))
        code = diagnose(path)
        printed = capsys.readouterr().out.splitlines()
        failed = [row for row in rows if row[1] == "FAIL"]
        if not failed:
            assert code == 0
            values = solve(**args)(np.linspace(0.0, 10.0, 201))
            assert np.all(np.isfinite(values))
            return None
        name, _, detail, _ = failed[0]
        with pytest.raises(HypothesisError) as info:
            solve(**args)
        assert str(info.value) == detail
        assert info.value.report["gates"][-1] == failed[0][:3]
        assert code == 2
        assert any(line.split()[:2] == [name, "FAIL"] and line.endswith("  " + detail)
                   for line in printed)
        return failed[0]

    @pytest.mark.parametrize("case", sorted(LINE_REFUSED))
    def test_line_quadrature_refusal(self, case, tmp_path, capsys):
        symbol, forcing, message = LINE_REFUSED[case]
        path = write_cfg(tmp_path, f"mode = diagnose\nsymbol = {symbol}\nforcing = {forcing}\n")
        name, _, detail, _ = self.check(path, capsys)
        assert name == "line-quadrature" and detail.startswith(message)

    @pytest.mark.parametrize("symbol", ["0*s", "exp(-1000*s)*(s + 1)"])
    def test_zero_on_the_whole_line(self, symbol, tmp_path, capsys):
        # each sample of |f| on the line is 0, and so are its neighbours
        path = write_cfg(tmp_path, f"mode = diagnose\nsymbol = {symbol}\nforcing = exp(-t)\n")
        name, _, detail, _ = self.check(path, capsys)
        assert name == "contour-nonvanishing" and "vanishes" in detail

    @pytest.mark.parametrize("name", ["damped_oscillator_ivp", "exp_symbol_eigenfunction",
                                      "zeta_symbol_ivp", "diagnose_pole_at_origin"])
    def test_shipped_config(self, name, capsys):
        failed = self.check(config_path(f"{name}.cfg"), capsys)
        assert (failed is None) == (name != "diagnose_pole_at_origin")


# a numeric literal: digits with an optional fraction and exponent
NUMBER = re.compile(r"\d+(\.\d*)?([eE][-+]?\d+)?")


@pytest.mark.parametrize("name", ["damped_oscillator_ivp", "exp_symbol_eigenfunction",
                                  "zeta_symbol_ivp"])
@pytest.mark.filterwarnings("ignore:derivative orders truncated")
def test_golden_reports_current(name, tmp_path, monkeypatch):
    # the frozen report has the keys, words, gate names and statuses of a
    # fresh one; its numbers may differ in the last bits across machines
    monkeypatch.chdir(tmp_path)
    assert run(config_path(f"{name}.cfg")) == 0
    fresh = (tmp_path / f"{name}.report.txt").read_text()
    golden_path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.report.txt")
    with open(golden_path, encoding="utf-8") as fh:
        golden = fh.read()
    assert NUMBER.sub("#", fresh).splitlines() == NUMBER.sub("#", golden).splitlines()


class TestGoldenAccuracy:
    """The frozen CSVs are not just stable; they are right."""

    def load(self, name):
        path = os.path.join(os.path.dirname(__file__), "golden", name)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        return data[:, 0], data[:, 1] + 1j * data[:, 2]

    def test_damped_oscillator(self):
        ts, phi = self.load("damped_oscillator_ivp.csv")
        exact = 2.5 * np.exp(-ts) - 2.0 * np.exp(-2 * ts) + 0.5 * np.exp(-3 * ts)
        assert np.max(np.abs(phi - exact)) < 1e-12

    def test_exp_symbol_eigenfunction(self):
        ts, phi = self.load("exp_symbol_eigenfunction.csv")
        assert np.max(np.abs(phi - np.exp(-0.5 * ts))) < 1e-12

    def test_zeta_symbol_ivp(self):
        ts, phi = self.load("zeta_symbol_ivp.csv")
        assert np.max(np.abs(phi - np.exp(-5.0 * ts))) < 1e-12

    @pytest.mark.parametrize("name, closed_form", [
        ("damped_oscillator_ivp",
         lambda t: 2.5 * np.exp(-t) - 2.0 * np.exp(-2 * t) + 0.5 * np.exp(-3 * t)),
        ("exp_symbol_eigenfunction", lambda t: np.exp(-0.5 * t)),
    ])
    @pytest.mark.filterwarnings("ignore:derivative orders truncated")
    def test_fresh_solve(self, name, closed_form, tmp_path, monkeypatch):
        # what the program writes now, on its 0:10:201 grid, is right too
        monkeypatch.chdir(tmp_path)
        assert run(config_path(f"{name}.cfg")) == 0
        data = np.genfromtxt(tmp_path / f"{name}.csv", delimiter=",", skip_header=1)
        ts, phi = data[:, 0], data[:, 1] + 1j * data[:, 2]
        assert ts.size == 201 and ts[-1] == 10.0
        assert np.max(np.abs(phi - closed_form(ts))) < 1e-12


class TestMain:
    def test_solve_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, FAST_IVP)
        assert main(["solve", cfg, "--grid", "0:2:5"]) == 0
        assert len((tmp_path / "fast.csv").read_text().splitlines()) == 6

    def test_diagnose_subcommand(self, capsys):
        assert main(["diagnose", config_path("diagnose_pole_at_origin.cfg")]) == 2
        assert "result: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--sigma", "--ymax", "--tol"])
    def test_non_finite_override_is_config_error(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", write_cfg(tmp_path, FAST_IVP), flag, "inf"]) == 1
        assert "must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "fast.csv").exists()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# a zeta solve, `nlode solve` on a shipped config and the indicator's
# forcing check, in one fresh interpreter
FRESH_SOLVES = """
import sys
import numpy as np
import nlode, nlode.cli
from nlode.transforms import builtin_forcing, verify_forcing
f = nlode.parse_symbol("zeta(s + 3)")
lam = complex(nlode.eval_symbol(f, -0.5)).real
J = nlode.forcing_from_text(f"{lam!r}*exp(-0.5*t)")
r = nlode.parse_symbol(f"(zeta(s + 3) - {lam!r})/(s + 0.5)")
ts = np.linspace(0.0, 10.0, 21)
phi = nlode.solve_generalized(f, J, nlode.GeneralizedIC(r, "user-supplied"))(ts)
assert np.max(np.abs(phi - np.exp(-0.5 * ts))) < 1e-6
assert nlode.cli.run(sys.argv[1]) == 0
assert verify_forcing(builtin_forcing("indicator", a=0.3, b=1.7))["ok"]
print("numpy.ma" in sys.modules)
"""


def test_solves_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process 7-15 ms on its first import, which
    # np.median, np.union1d and a plain np.unique pull in
    path = [os.path.dirname(os.path.dirname(nlode.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", FRESH_SOLVES, config_path("damped_oscillator_ivp.cfg")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "damped_oscillator_ivp.csv").exists()
    assert out.stdout.splitlines()[-1] == "False"
