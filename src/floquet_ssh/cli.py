"""Command-line interface.

Subcommands: ``spectrum`` (one spectrum), ``sweep-phi`` (modulation-phase
sweep), ``phase-diagram`` (gamma-omega grid), ``effective-compare``
(extended quasi-energies against the Bessel-rescaled static chain),
``pt-threshold`` (gain/loss threshold bisection) and ``validate``
(round-trip check of emitted CSV files).

``_SETTINGS`` is the one list of settings: each config-file key with its
flag and its parser.  A subcommand registers only the flags it reads:
``sweep-phi`` has no ``--phi`` (its grid replaces it), ``pt-threshold``
no ``--gamma`` (the bisection replaces it) and no ``--method`` (its route
is ``--threshold-method``), and ``effective-compare`` no ``--method``,
``--n-steps`` or ``--tol-im``.  Flags are never abbreviated, so an
unread or abbreviated flag is a usage error (exit 2).

Values merge in the order defaults < preset < config file < flags, and
every layer's values go through the same parsers, so a config value
means what the same text means as a flag.  Angle-valued settings accept
``pi`` literals (``0.8pi``, ``45pi``); grid flags use
``start:stop:count``.  Exit codes: 0 success, 1 solver failure, 2
configuration error; a sweep setting that no grid point could use is a
configuration error, found before any point is solved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .analysis import TOL_IM, ZERO_TOL_FACTOR, classify_pt, gamma_pt_threshold
from .effective import compare_floquet_effective
from .errors import ParameterError, SolverError
from .floquet import Method, compute_spectrum, converge_nf
from .model import ModelParams, N0Rule
from .svgplot import spectrum_svg
from .sweep import (PhaseRow, SpectrumRow, SweepSpec, run_phase_diagram, run_sweep,
                    spectrum_rows)

# CSV columns are the row fields minus grid_index; validate parses them
# back with the field types.
_FIELD_TYPES = {**get_type_hints(SpectrumRow), **get_type_hints(PhaseRow)}
_SPECTRUM_FIELDS, _PHASE_FIELDS = (
    tuple(name for name in get_type_hints(row) if name != "grid_index")
    for row in (SpectrumRow, PhaseRow))
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


def _parse_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    return float(value)


def _parse_int(value) -> int:
    """Parse 6, 6.0 or '6'; fractions, '6.0' and booleans are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


# Config-file key -> (flag, parser, help).  The flag's argparse dest is the
# key, and every layer's value goes through the parser.
_SETTINGS = {
    "n_sites": ("--n-sites", _parse_int, "number of sites N"),
    "tunneling": ("--tunneling", _parse_float, "tunneling T"),
    "lambda": ("--lambda", parse_angle, "dimerization strength"),
    "phi_dim": ("--phi", parse_angle, "modulation phase Phi (pi literals ok)"),
    "gamma": ("--gamma", _parse_float, "gain/loss strength"),
    "impurity_site": ("--impurity-site", _parse_int, "gain site j (loss at N-j+1)"),
    "kappa": ("--kappa", _parse_float, "dimensionless drive strength"),
    "kappa_omega": ("--kappa-omega", _parse_float,
                    "drive amplitude kappa*omega (kappa is derived)"),
    "omega": ("--omega", parse_angle, "drive frequency (pi literals ok)"),
    "phase0": ("--phase0", parse_angle, "initial drive phase (pi literals ok)"),
    "n0_rule": ("--n0-rule", N0Rule, "|".join(r.value for r in N0Rule)),
    "method": ("--method", Method, "|".join(m.value for m in Method)),
    "n_floquet": ("--n-floquet", _parse_int, "Floquet cutoff N_F (default: converged)"),
    "n_steps": ("--n-steps", _parse_int, "propagator steps per period"),
}


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
    """Merge defaults < preset < config file < flags through each key's parser."""
    flags = {key: getattr(args, key, None) for key in _SETTINGS}
    if flags["kappa"] is not None and flags["kappa_omega"] is not None:
        raise ParameterError("set at most one of --kappa and --kappa-omega")
    values: dict = {"n_sites": 40}
    for layer in (_preset_layer(args.preset), _file_layer(args.config), flags):
        layer = {key: value for key, value in layer.items() if value is not None}
        if layer.keys() & {"kappa", "kappa_omega"}:  # a layer's drive replaces earlier ones
            values.pop("kappa", None)
            values.pop("kappa_omega", None)
            if "kappa" in layer:
                layer.pop("kappa_omega", None)  # a direct kappa wins
        for key, value in layer.items():
            flag, parse, _ = _SETTINGS[key]
            try:
                values[key] = parse(value)
            except (TypeError, ValueError):
                raise ParameterError(f"bad value {value!r} for {key} ({flag})") from None
    method = values.pop("method", None)
    n_floquet = values.pop("n_floquet", None)
    n_steps = values.pop("n_steps", None)
    kappa_omega = values.pop("kappa_omega", None)
    if kappa_omega is not None:
        values["kappa"] = kappa_omega / values.get("omega", 1.0)
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    params = ModelParams(**values)
    if method is None:
        method = Method.STATIC if params.kappa == 0.0 else Method.EXTENDED
    return RunConfig(params=params, kappa_omega=kappa_omega, method=method,
                     n_floquet=n_floquet, nf_tol=float(args.nf_tol), n_steps=n_steps,
                     tol_im=float(getattr(args, "tol_im", TOL_IM)))


def _preset_layer(name) -> dict:
    if name and name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; "
                             f"choices: {', '.join(sorted(PRESETS))}")
    return PRESETS[name] if name else {}


def _file_layer(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(values) - set(_SETTINGS)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return values


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def rows_csv(rows, fields) -> str:
    lines = [",".join(fields)]
    lines.extend(",".join(_cell(getattr(r, name)) for name in fields) for r in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=1) + "\n"


def rows_json(rows, fields) -> str:
    return _json_text([{name: getattr(r, name) for name in fields} for r in rows])


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
        _write_text(args.output, _json_text(payload))
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
        _write_text(args.output, _json_text(payload))
        print(f"wrote {args.output}")
    return 0


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
                value = _FIELD_TYPES[name](cell)
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


def _add_model_arguments(parser: argparse.ArgumentParser, omit=(), grid_axes=()):
    """The settings flags a subcommand reads: _SETTINGS plus --nf-tol and
    --tol-im, minus the dests in omit.  A key in grid_axes becomes a
    required start:stop:count flag with dest KEY_grid."""
    group = parser.add_argument_group("model and solver settings")
    group.add_argument("--preset", help="named parameter preset "
                       f"({', '.join(sorted(PRESETS))})")
    group.add_argument("--config", help="JSON config file (flags override it)")
    for key, (flag, _, help_text) in _SETTINGS.items():
        if key in grid_axes:
            group.add_argument(flag, dest=f"{key}_grid", required=True,
                               metavar="START:STOP:COUNT", help=f"{help_text}, grid")
        elif key not in omit:
            group.add_argument(flag, dest=key, help=help_text)
    group.add_argument("--nf-tol", dest="nf_tol", type=float, default=1e-8)
    if "tol_im" not in omit:
        group.add_argument("--tol-im", dest="tol_im", type=float, default=TOL_IM)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-ssh", allow_abbrev=False,
        description="Quasi-energy spectra and PT-phase maps of a driven "
                    "gain/loss SSH chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_spec = command("spectrum", cmd_spectrum, "compute one spectrum")
    _add_model_arguments(p_spec)
    p_spec.add_argument("--output", "-o", default="spectrum.csv")
    p_spec.add_argument("--json", help="also write rows as JSON")

    p_phi = command("sweep-phi", cmd_sweep_phi, "sweep the modulation phase")
    _add_model_arguments(p_phi, omit=("phi_dim",))
    p_phi.add_argument("--phi-grid", dest="phi_grid", default="0:2pi:201",
                       help="start:stop:count (default 0:2pi:201)")
    p_phi.add_argument("--output", "-o", default="sweep_phi.csv")
    p_phi.add_argument("--json", help="also write rows as JSON")
    p_phi.add_argument("--plot", help="write an SVG of Re eps vs Phi")

    p_pd = command("phase-diagram", cmd_phase_diagram, "gamma-omega phase map")
    _add_model_arguments(p_pd, grid_axes=("gamma", "omega"))
    p_pd.add_argument("--output", "-o", default="phase_diagram.csv")
    p_pd.add_argument("--json", help="also write rows as JSON")

    p_eff = command("effective-compare", cmd_effective_compare,
                    "compare quasi-energies to the effective chain")
    _add_model_arguments(p_eff, omit=("method", "n_steps", "tol_im"))
    p_eff.add_argument("--output", "-o", help="write comparison JSON")

    p_thr = command("pt-threshold", cmd_pt_threshold, "bisect the PT threshold in gamma")
    _add_model_arguments(p_thr, omit=("method", "gamma"))
    p_thr.add_argument("--gamma-max", dest="gamma_max", type=float, default=1.0)
    p_thr.add_argument("--tol-gamma", dest="tol_gamma", type=float, default=1e-4)
    p_thr.add_argument("--threshold-method", dest="threshold_method",
                       choices=["static", "extended", "propagator"],
                       default="static")
    p_thr.add_argument("--output", "-o", help="write threshold JSON")

    p_val = command("validate", cmd_validate, "round-trip check a CSV written by this CLI")
    p_val.add_argument("--from-csv", dest="from_csv", required=True)
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
