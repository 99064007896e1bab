"""Batch front-end: read a problem config, solve, emit CSV and a report.

Config files are flat key = value text with two optional sections,
[poles] (one "re im order" triple per line) and [initial_values] (one
"re im" pair per line).  Exit status: 0 success, 1 I/O or parse error,
2 hypothesis failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from .oracles import residual_check
from .solver import (
    ClassicalIVP,
    GeneralizedIC,
    HypothesisError,
    PoleSpec,
    hypothesis_gates,
    solve_classical_ivp,
    solve_generalized,
    solve_with_poles,
)
from .symbols import parse_symbol
from .transforms import BromwichConfig, builtin_forcing, forcing_from_text

MODES = ("generalized", "classical-ivp", "poles-given", "diagnose")
_KEYS = ("mode", "symbol", "forcing", "gic", "sigma", "y_max", "quad_tol",
         "grid", "output_csv", "output_report")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemConfig:
    mode: str
    symbol_text: str
    forcing_text: str = "0"
    gic_text: str | None = None
    sigma: float = 1.0
    y_max: float = 200.0
    quad_tol: float = 1e-9
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
    if t0 < 0 or t1 <= t0 or n < 2:
        raise ConfigError("grid needs 0 <= t0 < t1 and n >= 2")
    return t0, t1, n


def parse_config_text(text: str) -> ProblemConfig:
    values: dict = {}
    poles: list = []
    initial: list = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[poles]":
                section = "poles"
            elif line == "[initial_values]":
                section = "initial_values"
            else:
                raise ConfigError(f"unknown section {line} (line {lineno})")
            continue
        if section == "poles":
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(f"pole line needs 're im order' (line {lineno})")
            try:
                poles.append((float(parts[0]), float(parts[1]), int(parts[2])))
            except ValueError:
                raise ConfigError(f"pole line is not numeric (line {lineno})") from None
            continue
        if section == "initial_values":
            parts = line.split()
            if len(parts) not in (1, 2):
                raise ConfigError(f"initial value line needs 're [im]' (line {lineno})")
            try:
                re = float(parts[0])
                im = float(parts[1]) if len(parts) == 2 else 0.0
            except ValueError:
                raise ConfigError(f"initial value line is not numeric (line {lineno})") from None
            initial.append(complex(re, im))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key = value (line {lineno})")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        values[key] = value

    if "mode" not in values:
        raise ConfigError("missing required key: mode")
    mode = values["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if "symbol" not in values:
        raise ConfigError("missing required key: symbol")

    cfg = ProblemConfig(
        mode=mode,
        symbol_text=values["symbol"],
        forcing_text=values.get("forcing", "0"),
        gic_text=values.get("gic"),
        sigma=float(values.get("sigma", 1.0)),
        y_max=float(values.get("y_max", 200.0)),
        quad_tol=float(values.get("quad_tol", 1e-9)),
        grid=_parse_grid(values.get("grid", "0:10:201")),
        output_csv=values.get("output_csv"),
        output_report=values.get("output_report"),
        poles=tuple(poles),
        initial_values=tuple(initial),
    )
    _validate_mode_fields(cfg)
    return cfg


def _validate_mode_fields(cfg: ProblemConfig) -> None:
    if cfg.mode == "generalized" and cfg.gic_text is None:
        raise ConfigError("generalized mode requires the field: gic")
    if cfg.mode == "poles-given":
        if cfg.gic_text is None:
            raise ConfigError("poles-given mode requires the field: gic")
        if not cfg.poles:
            raise ConfigError("poles-given mode requires a [poles] section")
    if cfg.mode == "classical-ivp":
        if not cfg.poles:
            raise ConfigError("classical-ivp mode requires a [poles] section")
        if not cfg.initial_values:
            raise ConfigError("classical-ivp mode requires an [initial_values] section")
        k = sum(order for _, _, order in cfg.poles)
        if len(cfg.initial_values) != k:
            raise ConfigError(
                f"initial_values must supply K = {k} entries, got {len(cfg.initial_values)}"
            )
    if cfg.mode in ("generalized", "poles-given", "classical-ivp") and cfg.output_csv is None:
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


def _pole_pairs(cfg: ProblemConfig) -> tuple:
    return tuple((complex(re, im), order) for re, im, order in cfg.poles)


def _bromwich_config(cfg: ProblemConfig) -> BromwichConfig:
    return BromwichConfig(sigma=cfg.sigma, y_max=cfg.y_max, quad_tol=cfg.quad_tol)


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
        f"smoothness_order_M: {diagnostics.get('smoothness_order') if diagnostics.get('smoothness_order') is not None else 'n/a'}",
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
    """The config and its parsed symbol, forcing, generalized initial
    condition (None if absent) and contour settings; a syntax error in any
    of them is a ConfigError."""
    try:
        cfg = _with_overrides(load_config(config_path), overrides)
        symbol = parse_symbol(cfg.symbol_text)
        forcing = _build_forcing(cfg.forcing_text)
        gic = None if cfg.gic_text is None else \
            GeneralizedIC(parse_symbol(cfg.gic_text), "user-supplied")
        return cfg, (symbol, forcing, gic, _bromwich_config(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run(config_path: str, overrides: dict | None = None) -> int:
    """Solve the configured problem; write CSV and report."""
    try:
        cfg, (symbol, forcing, gic, bcfg) = _load_problem(config_path, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if cfg.mode == "diagnose":
        return diagnose(config_path, overrides)

    try:
        if cfg.mode == "generalized":
            solution = solve_generalized(symbol, forcing, gic, bcfg)
        elif cfg.mode == "poles-given":
            solution = solve_with_poles(symbol, forcing, gic, PoleSpec(_pole_pairs(cfg)), bcfg)
        else:
            ivp = ClassicalIVP(symbol, forcing, PoleSpec(_pole_pairs(cfg)), cfg.initial_values)
            solution, _ = solve_classical_ivp(ivp, bcfg)

        t0, t1, n = cfg.grid
        ts = np.linspace(t0, t1, n)
        bro, res = solution.eval_parts(ts)

        positive = ts[ts > 0]
        sample = positive[np.unique(np.linspace(0, positive.size - 1, 17).astype(int))] \
            if positive.size else positive
        try:
            rep = residual_check(symbol, solution, forcing, sample, N=24, tol=1e-4)
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
        cfg, (symbol, forcing, gic, bcfg) = _load_problem(config_path, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # a solve mode checks only the fields its solver takes
    poles = _pole_pairs(cfg) or None
    initial = cfg.initial_values or None
    if cfg.mode == "generalized":
        poles, initial = None, None
    elif cfg.mode == "poles-given":
        initial = None
    elif cfg.mode == "classical-ivp":
        gic = None
    rows = list(hypothesis_gates(symbol, forcing, bcfg, r=gic, poles=poles,
                                 initial_values=initial))
    print("nlode diagnose report")
    for line in _gate_table(rows):
        print(line)
    failed = any(status == "FAIL" for _, status, _, _ in rows)
    print(f"result: {'FAIL' if failed else 'PASS'}")
    return 2 if failed else 0


def _with_overrides(cfg: ProblemConfig, overrides: dict | None) -> ProblemConfig:
    if not overrides:
        return cfg
    updates = {}
    if overrides.get("sigma") is not None:
        updates["sigma"] = float(overrides["sigma"])
    if overrides.get("ymax") is not None:
        updates["y_max"] = float(overrides["ymax"])
    if overrides.get("tol") is not None:
        updates["quad_tol"] = float(overrides["tol"])
    if overrides.get("grid") is not None:
        updates["grid"] = _parse_grid(overrides["grid"])
    return replace(cfg, **updates) if updates else cfg


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
