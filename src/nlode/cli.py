"""Batch front-end: read a problem config, solve, emit CSV and a report.

Config files are flat key = value text with two optional sections,
[poles] (one "re im order" triple per line) and [initial_values] (one
"re im" pair per line).  Exit status: 0 success, 1 I/O or parse error,
2 hypothesis failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .oracles import residual_check
from .solver import (ClassicalIVP, GeneralizedIC, HypothesisError, PoleSpec, hypothesis_gates,
                     solve_classical_ivp, solve_generalized, solve_with_poles)
from .symbols import parse_symbol
from .transforms import BromwichConfig, builtin_forcing, forcing_from_text

# The data fields each mode takes, as ProblemConfig attributes.  A solve
# mode requires every field it takes and rejects the others; diagnose
# takes any of them and checks them as solve would.
_MODE_FIELDS = {
    "generalized": ("gic_text",),
    "classical-ivp": ("poles", "initial_values"),
    "poles-given": ("gic_text", "poles"),
    "diagnose": ("gic_text", "poles", "initial_values"),
}
MODES = tuple(_MODE_FIELDS)
_FIELD_NAMES = {"gic_text": "the field: gic", "poles": "a [poles] section",
                "initial_values": "an [initial_values] section"}
# config key: the ProblemConfig field it sets
_KEYS = {"mode": "mode", "symbol": "symbol_text", "forcing": "forcing_text",
         "gic": "gic_text", "sigma": "sigma", "y_max": "y_max", "quad_tol": "quad_tol",
         "grid": "grid", "output_csv": "output_csv", "output_report": "output_report"}
# section header: what one line holds, its shape, its field counts, its parse
_SECTIONS = {
    "[poles]": ("pole", "'re im order'", (3,),
                lambda p: (float(p[0]), float(p[1]), int(p[2]))),
    "[initial_values]": ("initial value", "'re [im]'", (1, 2),
                         lambda p: complex(float(p[0]), float(p[1]) if len(p) == 2 else 0.0)),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemConfig:
    """A parsed config; a key it does not give takes the field default."""

    mode: str
    symbol_text: str
    forcing_text: str = "0"
    gic_text: str | None = None
    sigma: float = BromwichConfig.sigma
    y_max: float = BromwichConfig.y_max
    quad_tol: float = BromwichConfig.quad_tol
    grid: tuple = (0.0, 10.0, 201)
    output_csv: str | None = None
    output_report: str | None = None
    poles: tuple = ()
    initial_values: tuple = ()


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be t0:t1:n, got {text!r}")
    try:
        t0, t1, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be t0:t1:n with numeric fields: {exc}") from None
    if not (0 <= t0 < t1 < math.inf) or n < 2:
        raise ConfigError("grid needs finite 0 <= t0 < t1 and n >= 2")
    return t0, t1, n


def parse_config_text(text: str) -> ProblemConfig:
    values: dict = {}
    rows: dict = {header: [] for header in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in _SECTIONS:
                raise ConfigError(f"unknown section {line} (line {lineno})")
            section = line
            continue
        if section is not None:
            what, shape, counts, parse = _SECTIONS[section]
            parts = line.split()
            if len(parts) not in counts:
                raise ConfigError(f"{what} line needs {shape} (line {lineno})")
            try:
                rows[section].append(parse(parts))
            except ValueError:
                raise ConfigError(f"{what} line is not numeric (line {lineno})") from None
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key = value (line {lineno})")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in values:
            raise ConfigError(f"key {key!r} given twice (line {lineno})")
        values[key] = value

    if "mode" not in values:
        raise ConfigError("missing required key: mode")
    mode = values["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if "symbol" not in values:
        raise ConfigError("missing required key: symbol")

    convert = {"sigma": float, "y_max": float, "quad_tol": float, "grid": _parse_grid}
    given = {_KEYS[key]: convert.get(key, str)(value) for key, value in values.items()}
    cfg = ProblemConfig(**given, poles=tuple(rows["[poles]"]),
                        initial_values=tuple(rows["[initial_values]"]))
    _validate_mode_fields(cfg)
    return cfg


def _validate_mode_fields(cfg: ProblemConfig) -> None:
    if cfg.mode == "diagnose":
        return
    for name, text in _FIELD_NAMES.items():
        given = getattr(cfg, name) not in (None, ())
        if given and name not in _MODE_FIELDS[cfg.mode]:
            raise ConfigError(f"{cfg.mode} mode does not take {text}")
        if not given and name in _MODE_FIELDS[cfg.mode]:
            raise ConfigError(f"{cfg.mode} mode requires {text}")
    k = sum(order for _, _, order in cfg.poles)
    if cfg.initial_values and len(cfg.initial_values) != k:
        raise ConfigError(
            f"initial_values must supply K = {k} entries, got {len(cfg.initial_values)}"
        )
    if cfg.output_csv is None:
        raise ConfigError(f"{cfg.mode} mode requires the field: output_csv")


def load_config(path: str) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _build_forcing(text: str):
    parts = text.split()
    if parts and parts[0] == "builtin":
        if len(parts) < 2:
            raise ConfigError("builtin forcing needs a name")
        params = {}
        for item in parts[2:]:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"builtin forcing parameter must be key=value, got {item!r}")
            params[key] = float(value)
        return builtin_forcing(parts[1], **params)
    return forcing_from_text(text)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: str, ts: np.ndarray, bro: np.ndarray, res: np.ndarray) -> None:
    lines = ["t,phi_re,phi_im,bromwich_re,bromwich_im,residue_re,residue_im"]
    phi = bro + res
    for i, t in enumerate(ts):
        lines.append(",".join([
            _fmt(float(t)),
            _fmt(phi[i].real), _fmt(phi[i].imag),
            _fmt(bro[i].real), _fmt(bro[i].imag),
            _fmt(res[i].real), _fmt(res[i].imag),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _gate_table(rows) -> list[str]:
    width = max(len(row[0]) for row in rows)
    return [f"{name:<{width}}  {status:<4}  {detail}" for name, status, detail, *_ in rows]


def _report_lines(cfg: ProblemConfig, diagnostics: dict, extra: dict) -> list[str]:
    hardy = diagnostics.get("hardy")
    decay = diagnostics.get("r_over_f_decay") or diagnostics.get("r0_over_f_decay")
    ive = diagnostics.get("initial_value_errors")
    lines = [
        "nlode solve report",
        f"status: {extra.get('status', 'ok')}",
        f"mode: {cfg.mode}",
        f"symbol: {cfg.symbol_text}",
        f"forcing: {cfg.forcing_text}",
        f"gic: {cfg.gic_text if cfg.gic_text is not None else 'n/a'}",
        f"sigma: {cfg.sigma:g}",
        f"y_max: {cfg.y_max:g}",
        f"quad_tol: {cfg.quad_tol:g}",
        f"grid: {cfg.grid[0]:g}:{cfg.grid[1]:g}:{cfg.grid[2]}",
        f"hardy_sup: {hardy['sup']:.6e}" if hardy else "hardy_sup: n/a",
        f"hardy_bounded: {'yes' if hardy and hardy['bounded'] else 'no' if hardy else 'n/a'}",
        f"condition_number: {diagnostics['condition_number']:.6e}"
        if "condition_number" in diagnostics else "condition_number: n/a",
        f"decay_q: {decay['q']:.4f}" if decay else "decay_q: n/a",
        "initial_value_errors: " + ", ".join(f"{e:.3e}" for e in ive)
        if ive is not None else "initial_value_errors: n/a",
        f"residual_sup: {extra['residual_sup']}",
        f"residual_N_used: {extra['residual_N_used']}",
        f"residual_ok: {extra['residual_ok']}",
        f"residual_notes: {extra['residual_notes']}",
        "gates:",
    ]
    return lines + ["  " + row for row in _gate_table(diagnostics["gates"])]


def _load_problem(config_path: str, overrides: dict | None):
    """The config and the arguments of solve and hypothesis_gates it
    names: every data field present, parsed; a syntax error in any of
    them is a ConfigError."""
    try:
        cfg = _with_overrides(load_config(config_path), overrides)
        args = {"f": parse_symbol(cfg.symbol_text), "J": _build_forcing(cfg.forcing_text),
                "cfg": BromwichConfig(sigma=cfg.sigma, y_max=cfg.y_max, quad_tol=cfg.quad_tol)}
        if cfg.gic_text is not None:
            args["r"] = GeneralizedIC(parse_symbol(cfg.gic_text), "user-supplied")
        if cfg.poles:
            args["poles"] = tuple((complex(re, im), order) for re, im, order in cfg.poles)
        if cfg.initial_values:
            args["initial_values"] = cfg.initial_values
        return cfg, args
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _print_gates(args: dict) -> int:
    """Print the PASS/FAIL/SKIP table of the problem's hypothesis gates."""
    try:
        rows = hypothesis_gates(**args)
    except ValueError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    print("nlode diagnose report")
    for line in _gate_table(rows):
        print(line)
    failed = any(status == "FAIL" for _, status, _, _ in rows)
    print(f"result: {'FAIL' if failed else 'PASS'}")
    return 2 if failed else 0


def _solve(mode: str, args: dict):
    """solve(**args), entered through the named solver of the mode; those
    three names are the solver layer's boundary in perfbench/tracer.py."""
    if mode == "classical-ivp":
        ivp = ClassicalIVP(args["f"], args["J"], PoleSpec(args["poles"]), args["initial_values"])
        return solve_classical_ivp(ivp, args["cfg"])[0]
    return (solve_generalized if mode == "generalized" else solve_with_poles)(**args)


def run(config_path: str, overrides: dict | None = None) -> int:
    """Solve the configured problem; write CSV and report."""
    try:
        cfg, args = _load_problem(config_path, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if cfg.mode == "diagnose":
        return _print_gates(args)

    try:
        solution = _solve(cfg.mode, args)
        t0, t1, n = cfg.grid
        ts = np.linspace(t0, t1, n)
        bro, res = solution.eval_parts(ts)

        positive = ts[ts > 0]
        # distinct indices, sorted as np.unique gives, without its numpy.ma import
        picks = sorted(set(np.linspace(0, positive.size - 1, 17).astype(int).tolist()))
        sample = positive[picks] if positive.size else positive
        try:
            rep = residual_check(args["f"], solution, args["J"], sample, N=24, tol=1e-4)
            residual = {"residual_sup": f"{rep['sup_residual']:.6e}",
                        "residual_N_used": str(rep["N_used"]),
                        "residual_ok": "yes" if rep["ok"] else "no",
                        "residual_notes": "; ".join(rep["warnings"]) or "none"}
        except ArithmeticError as exc:
            residual = {"residual_sup": f"n/a ({exc})", "residual_N_used": "n/a",
                        "residual_ok": "n/a", "residual_notes": "none"}
    except (HypothesisError, ArithmeticError, ValueError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2

    try:
        _write_csv(cfg.output_csv, ts, bro, res)
        if cfg.output_report:
            lines = _report_lines(cfg, solution.diagnostics, {"status": "ok", **residual})
            with open(cfg.output_report, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {cfg.output_csv}")
    return 0


def diagnose(config_path: str, overrides: dict | None = None) -> int:
    """Run only the hypothesis gates of the configured solve and print a
    PASS/FAIL/SKIP table."""
    try:
        _, args = _load_problem(config_path, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return _print_gates(args)


def _with_overrides(cfg: ProblemConfig, overrides: dict | None) -> ProblemConfig:
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    updates = {name: float(given[k]) for k, name in
               (("sigma", "sigma"), ("ymax", "y_max"), ("tol", "quad_tol")) if k in given}
    if "grid" in given:
        updates["grid"] = _parse_grid(given["grid"])
    return replace(cfg, **updates)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlode",
        description="Laplace-transform solver for nonlocal equations f(d/dt) phi = J",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("solve", "solve the configured problem"),
                           ("diagnose", "run hypothesis checks only")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("config", help="path to the problem config file")
        sp.add_argument("--sigma", type=float, default=None,
                        help="override the contour abscissa")
        sp.add_argument("--ymax", type=float, default=None,
                        help="override the truncation half-width")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the quadrature tolerance")
        sp.add_argument("--grid", default=None, metavar="T0:T1:N",
                        help="override the output grid")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"sigma": args.sigma, "ymax": args.ymax, "tol": args.tol, "grid": args.grid}
    if args.command == "diagnose":
        return diagnose(args.config, overrides)
    return run(args.config, overrides)


if __name__ == "__main__":
    raise SystemExit(main())
