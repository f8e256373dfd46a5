"""Command-line interface.

Subcommands: ``spectrum`` (one spectrum), ``sweep-phi`` (modulation-phase
sweep), ``phase-diagram`` (gamma-omega grid), ``effective-compare``
(extended quasi-energies against the Bessel-rescaled static chain),
``pt-threshold`` (gain/loss threshold bisection) and ``validate``
(round-trip check of emitted CSV files).

Angle-valued flags accept ``pi`` literals (``0.8pi``, ``45pi``); grid
flags use ``start:stop:count``.  Values merge in the order defaults <
preset < config file < flags.  Exit codes: 0 success, 1 solver failure,
2 configuration error; a sweep setting that no grid point could use is a
configuration error, found before any point is solved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import TOL_IM, ZERO_TOL_FACTOR, classify_pt, gamma_pt_threshold
from .effective import compare_floquet_effective
from .errors import ParameterError, SolverError
from .floquet import Method, compute_spectrum, converge_nf
from .model import ModelParams
from .svgplot import spectrum_svg
from .sweep import SweepSpec, run_phase_diagram, run_sweep, spectrum_rows

_SPECTRUM_FIELDS = ("phi", "omega", "gamma", "kappa", "mode", "re_eps",
                    "im_eps", "edge_weight", "phase", "method", "n_floquet")
_PHASE_FIELDS = ("phi", "omega", "gamma", "kappa", "max_im",
                 "zero_mode_count", "phase", "method", "n_floquet")
SPECTRUM_HEADER = ",".join(_SPECTRUM_FIELDS)
PHASE_HEADER = ",".join(_PHASE_FIELDS)

_FIG1_BASE = {
    "n_sites": 40, "tunneling": 1.0, "lambda": 0.4,
    "gamma": 0.2, "impurity_site": 2,
}
PRESETS = {
    "fig1-static": {**_FIG1_BASE, "kappa": 0.0, "omega": 1.0, "method": "static"},
    "fig1-lowfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 0.2 * math.pi,
                     "method": "extended"},
    "fig1-midfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 0.8 * math.pi,
                     "method": "extended"},
    "fig1-highfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 45 * math.pi,
                      "method": "extended"},
    "fig1-highfreq-alt": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 4 * math.pi,
                          "method": "extended"},
}

_MODEL_KEYS = ("n_sites", "tunneling", "lambda", "phi_dim", "gamma",
               "impurity_site", "omega", "phase0", "n0_rule")
_CONFIG_KEYS = _MODEL_KEYS + ("kappa", "kappa_omega", "method", "n_floquet",
                              "n_steps")


def parse_angle(text: str) -> float:
    """Parse a float or a pi-suffixed literal like '0.8pi' or '-pi'."""
    s = str(text).strip().lower()
    try:
        if s.endswith("pi"):
            head = s[:-2].strip()
            if head in ("", "+"):
                factor = 1.0
            elif head == "-":
                factor = -1.0
            else:
                factor = float(head)
            return factor * math.pi
        return float(s)
    except ValueError:
        raise ParameterError(f"cannot parse angle value {text!r}") from None


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (angles allowed) or a scalar as 1-point grid."""
    s = str(text).strip()
    if ":" not in s:
        return np.array([parse_angle(s)])
    parts = s.split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be start:stop:count, got {text!r}")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ParameterError(f"grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise ParameterError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def fmt(value: float) -> str:
    """Serialize a float with 17 significant digits (bit round-trips)."""
    return f"{value:.17g}"


def _cell(value) -> str:
    """CSV form of one field: floats through fmt, ints and labels as str."""
    return fmt(value) if isinstance(value, float) else str(value)


@dataclass
class RunConfig:
    """Merged model + solver settings for one CLI invocation."""

    params: ModelParams
    kappa_omega: float | None
    method: Method
    n_floquet: int | None
    nf_tol: float
    n_steps: int | None
    tol_im: float


def _merge_layers(args) -> RunConfig:
    values: dict = {
        "n_sites": 40, "tunneling": 1.0, "lambda": 0.0, "phi_dim": 0.0,
        "gamma": 0.0, "impurity_site": 1, "omega": 1.0, "phase0": 0.0,
        "n0_rule": None, "method": None, "n_floquet": None, "n_steps": None,
    }
    drive: tuple[str, float] = ("kappa", 0.0)

    def absorb(layer: dict):
        nonlocal drive
        for key, val in layer.items():
            if val is None:
                continue
            if key == "kappa":
                drive = ("kappa", float(val))
            elif key == "kappa_omega":
                drive = ("kappa_omega", float(val))
            else:
                values[key] = val

    preset_name = getattr(args, "preset", None)
    if preset_name:
        if preset_name not in PRESETS:
            raise ParameterError(f"unknown preset {preset_name!r}; "
                                 f"choices: {', '.join(sorted(PRESETS))}")
        absorb(PRESETS[preset_name])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "kappa" in file_values and "kappa_omega" in file_values:
            file_values = dict(file_values)
            file_values.pop("kappa_omega")  # direct kappa wins
        absorb(file_values)

    if getattr(args, "kappa", None) is not None and getattr(args, "kappa_omega", None) is not None:
        raise ParameterError("set at most one of --kappa and --kappa-omega")
    flag_layer = {
        "n_sites": getattr(args, "n_sites", None),
        "tunneling": getattr(args, "tunneling", None),
        "lambda": _maybe_angle(getattr(args, "lam", None)),
        "phi_dim": _maybe_angle(getattr(args, "phi", None)),
        "gamma": getattr(args, "gamma", None),
        "impurity_site": getattr(args, "impurity_site", None),
        "omega": _maybe_angle(getattr(args, "omega", None)),
        "phase0": _maybe_angle(getattr(args, "phase0", None)),
        "n0_rule": getattr(args, "n0_rule", None),
        "kappa": getattr(args, "kappa", None),
        "kappa_omega": getattr(args, "kappa_omega", None),
        "method": getattr(args, "method", None),
        "n_floquet": getattr(args, "n_floquet", None),
        "n_steps": getattr(args, "n_steps", None),
    }
    absorb(flag_layer)

    omega = float(values["omega"])
    if drive[0] == "kappa_omega":
        kappa_omega: float | None = drive[1]
        kappa = drive[1] / omega
    else:
        kappa_omega = None
        kappa = drive[1]
    rule = values["n0_rule"]
    if isinstance(rule, str):
        rule = rule.replace("-", "_")
    params = ModelParams.from_dict({
        "n_sites": values["n_sites"],
        "tunneling": float(values["tunneling"]),
        "lambda": float(values["lambda"]),
        "phi_dim": float(values["phi_dim"]),
        "gamma": float(values["gamma"]),
        "impurity_site": values["impurity_site"],
        "kappa": kappa,
        "omega": omega,
        "phase0": float(values["phase0"]),
        "n0_rule": rule,
    })
    method_name = values["method"]
    if method_name is None:
        method_name = "static" if params.kappa == 0.0 else "extended"
    try:
        method = Method(method_name)
    except ValueError:
        raise ParameterError(f"unknown method {method_name!r}") from None
    return RunConfig(
        params=params,
        kappa_omega=kappa_omega,
        method=method,
        n_floquet=values["n_floquet"],
        nf_tol=float(getattr(args, "nf_tol", 1e-8)),
        n_steps=values["n_steps"],
        tol_im=float(getattr(args, "tol_im", TOL_IM)),
    )


def _maybe_angle(value):
    return None if value is None else parse_angle(value)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def rows_csv(rows, fields) -> str:
    lines = [",".join(fields)]
    lines.extend(",".join(_cell(getattr(r, name)) for name in fields) for r in rows)
    return "\n".join(lines) + "\n"


def rows_json(rows, fields) -> str:
    payload = [{name: getattr(r, name) for name in fields} for r in rows]
    return json.dumps(payload, indent=1) + "\n"


def _write_rows(args, rows, fields):
    _write_text(args.output, rows_csv(rows, fields))
    if args.json:
        _write_text(args.json, rows_json(rows, fields))


def _sweep_spec(config: RunConfig, axes) -> SweepSpec:
    return SweepSpec(
        base=config.params,
        axes=tuple((name, tuple(float(v) for v in grid)) for name, grid in axes),
        method=config.method,
        kappa_omega=config.kappa_omega,
        n_floquet=config.n_floquet,
        nf_tol=config.nf_tol,
        n_steps=config.n_steps,
        tol_im=config.tol_im,
    )


def _report_failures(result):
    for failure in result.failures:
        print(f"  failed point {failure.point}: [{failure.code}] {failure.message}",
              file=sys.stderr)


def cmd_spectrum(args) -> int:
    config = _merge_layers(args)
    spectrum = compute_spectrum(config.params, config.method,
                                n_floquet=config.n_floquet, n_steps=config.n_steps,
                                nf_tol=config.nf_tol)
    point = classify_pt(spectrum, config.tol_im)
    rows = spectrum_rows(spectrum, config.params, point.phase, 0)
    _write_rows(args, rows, _SPECTRUM_FIELDS)
    print(f"phase: {point.phase.value} (max|Im eps| = {point.max_im:.6g})")
    print(f"zero modes: {len(point.zero_modes)}")
    for zm in point.zero_modes:
        print(f"  mode {zm.mode}: Re = {zm.re_eps:.6g}  Im = {zm.im_eps:.6g}  "
              f"edge_weight = {zm.edge_weight:.4f}")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


def cmd_sweep_phi(args) -> int:
    config = _merge_layers(args)
    spec = _sweep_spec(config, (("phi_dim", parse_grid(args.phi_grid)),))
    result = run_sweep(spec)
    _write_rows(args, result.rows, _SPECTRUM_FIELDS)
    if args.plot:
        _write_text(args.plot, _sweep_svg(result, config))
        print(f"wrote {args.plot}")
    n_broken = sum(1 for r in result.rows if r.phase == "broken") \
        // max(config.params.n_sites, 1)
    print(f"wrote {args.output} ({len(result.rows)} rows, "
          f"{len(result.failures)} failed points, ~{n_broken} broken points)")
    _report_failures(result)
    return 0


def _sweep_svg(result, config: RunConfig) -> str:
    rows = result.rows
    xs = sorted({r.phi for r in rows})
    index = {x: i for i, x in enumerate(xs)}
    n_modes = max(r.mode for r in rows) + 1
    series = [[math.nan] * len(xs) for _ in range(n_modes)]
    zero_tol = ZERO_TOL_FACTOR * abs(config.params.tunneling)
    zero_points = []
    for r in rows:
        series[r.mode][index[r.phi]] = r.re_eps
        if abs(r.re_eps) < zero_tol and r.edge_weight > 0.5:
            zero_points.append((r.phi, r.re_eps))
    return spectrum_svg(xs, series, zero_points, x_label="Phi",
                        y_label="Re eps", title=f"method: {config.method.value}")


def cmd_phase_diagram(args) -> int:
    config = _merge_layers(args)
    gamma_grid = parse_grid(args.gamma_grid)
    omega_grid = parse_grid(args.omega_grid)
    if np.any(omega_grid <= 0):
        raise ParameterError("omega grid values must be positive")
    if np.any(gamma_grid < 0):
        raise ParameterError("gamma grid values must be nonnegative")
    spec = _sweep_spec(config, (("gamma", gamma_grid), ("omega", omega_grid)))
    result = run_phase_diagram(spec)
    _write_rows(args, result.rows, _PHASE_FIELDS)
    print(f"wrote {args.output} ({len(result.rows)} rows, "
          f"{len(result.failures)} failed points)")
    _report_failures(result)
    return 0


def cmd_effective_compare(args) -> int:
    config = _merge_layers(args)
    nf = config.n_floquet
    if nf is None:
        nf = converge_nf(config.params, config.nf_tol)
    comparison = compare_floquet_effective(config.params, nf)
    print(f"t_eff = {comparison.t_eff:.12g}")
    print(f"max quasi-energy deviation = {comparison.max_quasi_energy_deviation:.6g}")
    print(f"n_floquet = {nf}")
    if args.output:
        payload = {
            "t_eff": comparison.t_eff,
            "max_quasi_energy_deviation": comparison.max_quasi_energy_deviation,
            "per_mode_deviation": [float(v) for v in comparison.per_mode_deviation],
            "omega": comparison.omega,
            "n_floquet": nf,
        }
        _write_text(args.output, json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.output}")
    return 0


def cmd_pt_threshold(args) -> int:
    config = _merge_layers(args)
    method = Method(args.threshold_method)
    result = gamma_pt_threshold(
        config.params, gamma_max=args.gamma_max, tol_gamma=args.tol_gamma,
        method=method, n_floquet=config.n_floquet, n_steps=config.n_steps,
        tol_im=config.tol_im, nf_tol=config.nf_tol)
    print(f"gamma_pt = {result.value:.12g}")
    print(f"status: {result.status}")
    if not result.monotone:
        print("warning: pre-scan saw non-monotonic breaking in gamma",
              file=sys.stderr)
    if args.output:
        payload = {
            "gamma_pt": result.value,
            "status": result.status,
            "monotone": result.monotone,
            "scan": [{"gamma": g, "broken": b} for g, b in result.scan],
        }
        _write_text(args.output, json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.output}")
    return 0


def _parse_csv_field(header_name: str, text: str):
    if header_name in ("mode", "n_floquet", "zero_mode_count"):
        return int(text)
    if header_name in ("phase", "method"):
        return text
    return float(text)


def cmd_validate(args) -> int:
    try:
        with open(args.from_csv, encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {args.from_csv}: {exc}") from exc
    lines = content.splitlines()
    if not lines:
        raise ParameterError("empty CSV file")
    header = lines[0]
    if header == SPECTRUM_HEADER:
        fields = _SPECTRUM_FIELDS
    elif header == PHASE_HEADER:
        fields = _PHASE_FIELDS
    else:
        raise ParameterError(f"unrecognized CSV header: {header!r}")
    diffs = 0
    rebuilt = [header]
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(fields):
            print(f"line {lineno}: expected {len(fields)} fields, got {len(cells)}",
                  file=sys.stderr)
            diffs += 1
            rebuilt.append(line)
            continue
        out_cells = []
        for name, cell in zip(fields, cells):
            try:
                value = _parse_csv_field(name, cell)
            except ValueError:
                print(f"line {lineno}: field {name} unparseable: {cell!r}",
                      file=sys.stderr)
                diffs += 1
                out_cells.append(cell)
                continue
            out_cells.append(_cell(value))
        rebuilt_line = ",".join(out_cells)
        if rebuilt_line != line:
            diffs += 1
            print(f"line {lineno}: round-trip mismatch", file=sys.stderr)
        rebuilt.append(rebuilt_line)
    if "\n".join(rebuilt) + "\n" != content:
        diffs = max(diffs, 1)
    print(f"{args.from_csv}: {len(lines) - 1} rows, {diffs} diffs")
    return 0 if diffs == 0 else 1


def _add_model_arguments(parser: argparse.ArgumentParser, grid_axes: tuple = ()):
    """Shared model/solver flags; names in grid_axes become grid-typed."""
    group = parser.add_argument_group("model parameters")
    group.add_argument("--preset", help="named parameter preset "
                       f"({', '.join(sorted(PRESETS))})")
    group.add_argument("--config", help="JSON config file (flags override it)")
    group.add_argument("--n-sites", dest="n_sites", type=int)
    group.add_argument("--tunneling", type=float)
    group.add_argument("--lambda", dest="lam", metavar="LAMBDA",
                       help="dimerization strength")
    group.add_argument("--phi", dest="phi", help="modulation phase Phi (pi literals ok)")
    if "gamma" in grid_axes:
        group.add_argument("--gamma", dest="gamma_grid", required=True,
                           metavar="START:STOP:COUNT", help="gain/loss grid")
    else:
        group.add_argument("--gamma", type=float, help="gain/loss strength")
    group.add_argument("--impurity-site", dest="impurity_site", type=int)
    group.add_argument("--kappa", type=float, help="dimensionless drive strength")
    group.add_argument("--kappa-omega", dest="kappa_omega", type=float,
                       help="drive amplitude kappa*omega (kappa is derived)")
    if "omega" in grid_axes:
        group.add_argument("--omega", dest="omega_grid", required=True,
                           metavar="START:STOP:COUNT",
                           help="frequency grid (pi literals ok)")
    else:
        group.add_argument("--omega", help="drive frequency (pi literals ok)")
    group.add_argument("--phase0", help="initial drive phase (pi literals ok)")
    group.add_argument("--n0-rule", dest="n0_rule",
                       choices=["even", "odd", "centered"])
    solver = parser.add_argument_group("solver")
    solver.add_argument("--method", choices=[m.value for m in Method])
    solver.add_argument("--n-floquet", dest="n_floquet", type=int)
    solver.add_argument("--nf-tol", dest="nf_tol", type=float, default=1e-8)
    solver.add_argument("--n-steps", dest="n_steps", type=int)
    solver.add_argument("--tol-im", dest="tol_im", type=float, default=TOL_IM)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-ssh",
        description="Quasi-energy spectra and PT-phase maps of a driven "
                    "gain/loss SSH chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="compute one spectrum")
    _add_model_arguments(p_spec)
    p_spec.add_argument("--output", "-o", default="spectrum.csv")
    p_spec.add_argument("--json", help="also write rows as JSON")
    p_spec.set_defaults(func=cmd_spectrum)

    p_phi = sub.add_parser("sweep-phi", help="sweep the modulation phase")
    _add_model_arguments(p_phi)
    p_phi.add_argument("--phi-grid", dest="phi_grid", default="0:2pi:201",
                       help="start:stop:count (default 0:2pi:201)")
    p_phi.add_argument("--output", "-o", default="sweep_phi.csv")
    p_phi.add_argument("--json", help="also write rows as JSON")
    p_phi.add_argument("--plot", help="write an SVG of Re eps vs Phi")
    p_phi.set_defaults(func=cmd_sweep_phi)

    p_pd = sub.add_parser("phase-diagram", help="gamma-omega phase map")
    _add_model_arguments(p_pd, grid_axes=("gamma", "omega"))
    p_pd.add_argument("--output", "-o", default="phase_diagram.csv")
    p_pd.add_argument("--json", help="also write rows as JSON")
    p_pd.set_defaults(func=cmd_phase_diagram)

    p_eff = sub.add_parser("effective-compare",
                           help="compare quasi-energies to the effective chain")
    _add_model_arguments(p_eff)
    p_eff.add_argument("--output", "-o", help="write comparison JSON")
    p_eff.set_defaults(func=cmd_effective_compare)

    p_thr = sub.add_parser("pt-threshold", help="bisect the PT threshold in gamma")
    _add_model_arguments(p_thr)
    p_thr.add_argument("--gamma-max", dest="gamma_max", type=float, default=1.0)
    p_thr.add_argument("--tol-gamma", dest="tol_gamma", type=float, default=1e-4)
    p_thr.add_argument("--threshold-method", dest="threshold_method",
                       choices=["static", "extended", "propagator"],
                       default="static")
    p_thr.add_argument("--output", "-o", help="write threshold JSON")
    p_thr.set_defaults(func=cmd_pt_threshold)

    p_val = sub.add_parser("validate", help="round-trip check a CSV written by this CLI")
    p_val.add_argument("--from-csv", dest="from_csv", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
