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
is ``--threshold-method``), and ``effective-compare`` no ``--method``
or ``--n-steps``.  Flags are never abbreviated, so an unread or
abbreviated flag is a usage error (exit 2).

Values merge in the order defaults < preset < config file < flags, and
every layer's values go through the same parsers, so a config value
means what the same text means as a flag.  The merged settings are a
zero-axis ``SweepSpec``, which checks them; the sweeps add their axes
to it.  Angle-valued settings accept ``pi`` literals (``0.8pi``,
``45pi``); grid flags use ``start:stop:count``.  Exit codes: 0 success,
1 solver failure, 2 configuration error; a sweep setting that no grid
point could use, or a grid value that gives invalid parameters, is a
configuration error, found before any point is solved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from .analysis import TOL_GAMMA, classify_pt, gamma_pt_threshold, is_zero_mode
from .errors import ParameterError, SolverError
from .floquet import NF_TOL, Method, compare_with_effective, compute_spectrum
from .model import ModelParams
from .svgplot import spectrum_svg
from .sweep import (MAX_GRID_POINTS, ROW_BYTES, PhaseRow, SpectrumRow, SweepSpec,
                    require_rows_within_budget, run_phase_diagram, run_sweep, spectrum_rows)

# CSV columns are the row fields minus grid_index; validate parses them
# back with the field types.
_FIELD_TYPES = {**get_type_hints(SpectrumRow), **get_type_hints(PhaseRow)}
_SPECTRUM_FIELDS, _PHASE_FIELDS = (
    tuple(name for name in get_type_hints(row) if name != "grid_index")
    for row in (SpectrumRow, PhaseRow))
SPECTRUM_HEADER = ",".join(_SPECTRUM_FIELDS)
PHASE_HEADER = ",".join(_PHASE_FIELDS)

#: Peak bytes that writing a row as streamed, indented JSON adds to its
#: ROW_BYTES (tracemalloc, static sweep-phi and phase-diagram at N = 10 and
#: 40: 500-739 B per row with CSV and JSON, 412-586 B without).
_JSON_ROW_BYTES = 300

_FIG1_BASE = {
    "n_sites": 40, "tunneling": 1.0, "lambda": 0.4,
    "gamma": 0.2, "impurity_site": 2,
}
PRESETS = {
    "fig1-static": {**_FIG1_BASE, "kappa": 0.0, "omega": 1.0},
    "fig1-lowfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 0.2 * math.pi},
    "fig1-midfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 0.8 * math.pi},
    "fig1-highfreq": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 45 * math.pi},
    "fig1-highfreq-alt": {**_FIG1_BASE, "kappa_omega": 0.05, "omega": 4 * math.pi},
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
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ParameterError(f"grid count must be between 1 and {MAX_GRID_POINTS}, got {count}")
    return np.linspace(start, stop, count)


def fmt(value: float) -> str:
    """Serialize a float with 17 significant digits (bit round-trips)."""
    return f"{value:.17g}"


def _cell(value) -> str:
    """CSV form of one field: floats through fmt, ints and labels as str."""
    return fmt(value) if isinstance(value, float) else str(value)


def _merge_layers(args, method: Method | None = None) -> SweepSpec:
    """Merge defaults < preset < config file < flags through each key's parser.

    The result is a zero-axis SweepSpec: its base point and the solver
    settings.  ``method`` overrides the merged route; without either the
    route is static iff kappa = 0.
    """
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
    settings = {key: values.pop(key, None)
                for key in ("method", "kappa_omega", "n_floquet", "n_steps")}
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    params = ModelParams(**values)
    if settings["kappa_omega"] is not None:
        params = replace(params, kappa=settings["kappa_omega"] / params.omega)
    settings["method"] = method or settings["method"] or (
        Method.STATIC if params.kappa == 0.0 else Method.EXTENDED)
    return SweepSpec(base=params, axes=(), nf_tol=float(args.nf_tol), **settings)


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


def _write_json(path: str, payload):
    """Write ``payload`` as indented JSON and a final newline, streamed to the file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _require_output_within_budget(args, n_rows: int):
    """With ``--json``, check ``n_rows`` rows against the budget at their JSON cost."""
    if args.json:
        require_rows_within_budget(n_rows, ROW_BYTES + _JSON_ROW_BYTES)


def _write_rows(args, rows, fields):
    _write_text(args.output, rows_csv(rows, fields))
    if args.json:
        _write_json(args.json, [{name: getattr(r, name) for name in fields} for r in rows])


def _with_axes(spec: SweepSpec, *axes) -> SweepSpec:
    """``spec`` over the (name, grid) ``axes``; each grid value must give valid params."""
    spec = replace(spec, axes=tuple((name, tuple(float(v) for v in grid))
                                    for name, grid in axes))
    for name, grid in spec.axes:
        for value in grid:
            spec.params_at({name: value})
    return spec


def _report_failures(result):
    for failure in result.failures:
        print(f"  failed point {failure.point}: [{failure.code}] {failure.message}",
              file=sys.stderr)


def cmd_spectrum(args) -> int:
    spec = _merge_layers(args)
    spectrum = compute_spectrum(spec.base, spec.method, n_floquet=spec.n_floquet,
                                n_steps=spec.n_steps, nf_tol=spec.nf_tol)
    point = classify_pt(spectrum)
    rows = spectrum_rows(spectrum, point, 0)
    _write_rows(args, rows, _SPECTRUM_FIELDS)
    print(f"phase: {point.phase.value} (max|Im eps| = {point.max_im:.6g})")
    print(f"zero modes: {len(point.zero_modes)}")
    for zm in point.zero_modes:
        print(f"  mode {zm.mode}: Re = {zm.re_eps:.6g}  Im = {zm.im_eps:.6g}  "
              f"edge_weight = {zm.edge_weight:.4f}")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


def cmd_sweep_phi(args) -> int:
    spec = _with_axes(_merge_layers(args), ("phi_dim", parse_grid(args.phi_grid)))
    _require_output_within_budget(args, spec.n_spectrum_rows())
    result = run_sweep(spec)
    _write_rows(args, result.rows, _SPECTRUM_FIELDS)
    if args.plot:
        _write_text(args.plot, _sweep_svg(result, spec))
        print(f"wrote {args.plot}")
    n_broken = sum(1 for r in result.rows if r.phase == "broken") \
        // max(spec.base.n_sites, 1)
    print(f"wrote {args.output} ({len(result.rows)} rows, "
          f"{len(result.failures)} failed points, ~{n_broken} broken points)")
    _report_failures(result)
    return 0


def _sweep_svg(result, spec: SweepSpec) -> str:
    rows = result.rows
    xs = sorted({r.phi for r in rows})
    index = {x: i for i, x in enumerate(xs)}
    n_modes = max(r.mode for r in rows) + 1
    series = [[math.nan] * len(xs) for _ in range(n_modes)]
    zero_points = []
    for r in rows:
        series[r.mode][index[r.phi]] = r.re_eps
        if is_zero_mode(r.re_eps, r.edge_weight, spec.base.tunneling):
            zero_points.append((r.phi, r.re_eps))
    return spectrum_svg(xs, series, zero_points, x_label="Phi",
                        y_label="Re eps", title=f"method: {spec.method.value}")


def cmd_phase_diagram(args) -> int:
    spec = _with_axes(_merge_layers(args), ("gamma", parse_grid(args.gamma_grid)),
                      ("omega", parse_grid(args.omega_grid)))
    _require_output_within_budget(args, spec.n_points())
    result = run_phase_diagram(spec)
    _write_rows(args, result.rows, _PHASE_FIELDS)
    print(f"wrote {args.output} ({len(result.rows)} rows, "
          f"{len(result.failures)} failed points)")
    _report_failures(result)
    return 0


def cmd_effective_compare(args) -> int:
    spec = _merge_layers(args, Method.EXTENDED)
    spectrum = compute_spectrum(spec.base, spec.method, n_floquet=spec.n_floquet,
                                nf_tol=spec.nf_tol)
    nf = spectrum.n_floquet
    comparison = compare_with_effective(spectrum)
    print(f"t_eff = {comparison.t_eff:.12g}")
    print(f"max quasi-energy deviation = {comparison.max_quasi_energy_deviation:.6g}")
    print(f"n_floquet = {nf}")
    if args.output:
        payload = {
            "t_eff": comparison.t_eff,
            "max_quasi_energy_deviation": comparison.max_quasi_energy_deviation,
            "per_mode_deviation": [float(v) for v in comparison.per_mode_deviation],
            "omega": spec.base.omega,
            "n_floquet": nf,
        }
        _write_json(args.output, payload)
        print(f"wrote {args.output}")
    return 0


def cmd_pt_threshold(args) -> int:
    spec = _merge_layers(args, Method(args.threshold_method))
    result = gamma_pt_threshold(
        spec.base, gamma_max=args.gamma_max, tol_gamma=args.tol_gamma,
        method=spec.method, n_floquet=spec.n_floquet, n_steps=spec.n_steps,
        nf_tol=spec.nf_tol)
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
        _write_json(args.output, payload)
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
    fields = {SPECTRUM_HEADER: _SPECTRUM_FIELDS, PHASE_HEADER: _PHASE_FIELDS}.get(lines[0])
    if fields is None:
        raise ParameterError(f"unrecognized CSV header: {lines[0]!r}")
    diffs = 0
    for lineno, line in enumerate(lines[1:], start=2):
        problem = _round_trip_problem(line, fields)
        if problem is not None:
            print(f"line {lineno}: {problem}", file=sys.stderr)
            diffs += 1
    if "\n".join(lines) + "\n" != content:  # line endings or a missing final newline
        diffs = max(diffs, 1)
    print(f"{args.from_csv}: {len(lines) - 1} rows, {diffs} diffs")
    return 0 if diffs == 0 else 1


def _round_trip_problem(line: str, fields) -> str | None:
    """The first reason ``line`` does not round-trip through the field types, or None."""
    cells = line.split(",")
    if len(cells) != len(fields):
        return f"expected {len(fields)} fields, got {len(cells)}"
    for name, cell in zip(fields, cells):
        try:
            value = _FIELD_TYPES[name](cell)
        except ValueError:
            return f"field {name} unparseable: {cell!r}"
        if _cell(value) != cell:
            return "round-trip mismatch"
    return None


def _add_model_arguments(parser: argparse.ArgumentParser, omit=(), grid_axes=()):
    """The settings flags a subcommand reads: _SETTINGS plus --nf-tol,
    minus the dests in omit.  A key in grid_axes becomes a required
    start:stop:count flag with dest KEY_grid."""
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
    group.add_argument("--nf-tol", dest="nf_tol", type=float, default=NF_TOL)


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
    _add_model_arguments(p_eff, omit=("method", "n_steps"))
    p_eff.add_argument("--output", "-o", help="write comparison JSON")

    p_thr = command("pt-threshold", cmd_pt_threshold, "bisect the PT threshold in gamma")
    _add_model_arguments(p_thr, omit=("method", "gamma"))
    p_thr.add_argument("--gamma-max", dest="gamma_max", type=float, default=1.0)
    p_thr.add_argument("--tol-gamma", dest="tol_gamma", type=float, default=TOL_GAMMA)
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
