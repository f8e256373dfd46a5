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
abbreviated flag is a usage error (exit 2).  The extended route solves
at ``--n-floquet`` or else at the N_F converged to ``floquet.NF_TOL``.

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
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from .analysis import TOL_GAMMA, classify_pt, gamma_pt_threshold, is_zero_mode
from .errors import ParameterError, SolverError, require_integer
from .floquet import Method, compare_with_effective, compute_spectrum
from .model import ModelParams
from .svgplot import spectrum_svg
from .sweep import (MAX_GRID_POINTS, PhaseRow, SpectrumRow, SweepSpec, run_phase_diagram,
                    run_sweep, spectrum_rows)

# CSV columns are the row fields minus grid_index; validate parses them
# back with the field types.
_FIELD_TYPES = {**get_type_hints(SpectrumRow), **get_type_hints(PhaseRow)}
_SPECTRUM_FIELDS, _PHASE_FIELDS = (
    tuple(name for name in get_type_hints(row) if name != "grid_index")
    for row in (SpectrumRow, PhaseRow))
SPECTRUM_HEADER = ",".join(_SPECTRUM_FIELDS)
PHASE_HEADER = ",".join(_PHASE_FIELDS)

#: Most rows ``sweep-phi --plot`` keeps: it draws the SVG after the last point.
MAX_PLOT_ROWS = 10**6

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
    """6, 6.0 or '6' as an int; '6.0', 6.5 and booleans raise ValueError (``require_integer``)."""
    return require_integer("value", int(value) if isinstance(value, str) else value)


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


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:count' (angles allowed) or a scalar as 1-point grid."""
    s = str(text).strip()
    if ":" not in s:
        return (parse_angle(s),)
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
    with np.errstate(over="ignore", invalid="ignore"):  # SweepSpec reports non-finite values
        return tuple(np.linspace(start, stop, count).tolist())


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
    return SweepSpec(base=params, axes=(), **settings)


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


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(fh, text: str):
    """Write ``text`` to the open file ``fh`` and flush it, so the file ends on whole lines."""
    fh.write(text)
    fh.flush()


def rows_csv(rows, fields, header: bool = True) -> str:
    lines = [",".join(fields) + "\n"] if header else []
    lines.extend(",".join(_cell(getattr(r, name)) for name in fields) + "\n" for r in rows)
    return "".join(lines)


def _write_file(path: str, text: str):
    with _open_output(path) as fh:
        _write_text(fh, text)
    print(f"wrote {path}")


class _RowFiles(contextlib.AbstractContextManager):
    """A command's CSV and ``--json`` files and ``--plot`` data, fed one grid point at a time.

    The files open when the first rows arrive and hold the bytes of
    ``rows_csv`` and ``json.dump(rows, indent=1)`` plus a newline; the
    JSON list is closed only if the command succeeds.
    """

    def __init__(self, args, fields):
        self.paths = [args.output, args.json] if args.json else [args.output]
        self.fields, self.files, self.n_rows, self.n_broken = fields, [], 0, 0
        self.plotted = [] if getattr(args, "plot", None) else None

    def __call__(self, rows):
        first = not self.files
        if first:  # extend keeps a file that opened before another failed, for __exit__
            self.files.extend(map(_open_output, self.paths))
        texts = [rows_csv(rows, self.fields, header=first)]
        if len(self.files) == 2:  # the list's items as json.dump writes them, one space in
            texts.append(("[\n" if first else ",\n") + json.dumps(
                [{name: getattr(r, name) for name in self.fields} for r in rows], indent=1)[2:-2])
        for fh, text in zip(self.files, texts):
            _write_text(fh, text)
        self.n_rows += len(rows)
        self.n_broken += sum(r.phase == "broken" for r in rows)
        if self.plotted is not None:
            self.plotted.extend((r.phi, r.mode, r.re_eps, r.edge_weight) for r in rows)

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and len(self.files) == 2:
            _write_text(self.files[1], "\n]\n")
        for fh in self.files:
            fh.close()


def _with_axes(spec: SweepSpec, *axes) -> SweepSpec:
    """``spec`` over the (name, grid) ``axes``; each grid value must give valid params.

    Only each axis's smallest and largest value are built.  The axes are
    phi_dim, gamma and omega, and every ModelParams check on them is
    monotone in the value: Phi must only be finite, which SweepSpec
    checks; gamma >= 0; omega > 0 with a finite Z_p and a finite
    kappa = kappa_omega/omega.
    """
    spec = replace(spec, axes=axes)
    for name, grid in spec.axes:
        for value in (min(grid), max(grid)):
            spec.params_at({name: value})
    return spec


def _report_failures(result):
    for failure in result.failures:
        print(f"  failed point {failure.point}: [{failure.code}] {failure.message}",
              file=sys.stderr)


def cmd_spectrum(args) -> int:
    spec = _merge_layers(args)
    spectrum = compute_spectrum(spec.base, spec.method, n_floquet=spec.n_floquet,
                                n_steps=spec.n_steps)
    point = classify_pt(spectrum)
    with _RowFiles(args, _SPECTRUM_FIELDS) as files:
        files(spectrum_rows(spectrum, point, 0))
    print(f"phase: {point.phase.value} (max|Im eps| = {point.max_im:.6g})")
    print(f"zero modes: {len(point.zero_modes)}")
    for zm in point.zero_modes:
        print(f"  mode {zm.mode}: Re = {zm.re_eps:.6g}  Im = {zm.im_eps:.6g}  "
              f"edge_weight = {zm.edge_weight:.4f}")
    print(f"wrote {args.output} ({files.n_rows} rows)")
    return 0


def cmd_sweep_phi(args) -> int:
    spec = _with_axes(_merge_layers(args), ("phi_dim", parse_grid(args.phi_grid)))
    if args.plot and spec.n_points() * spec.base.n_sites > MAX_PLOT_ROWS:
        raise ParameterError(f"--plot keeps every row; this sweep makes more than {MAX_PLOT_ROWS}")
    with _RowFiles(args, _SPECTRUM_FIELDS) as files:
        result = run_sweep(spec, files)
    if args.plot:
        _write_file(args.plot, _sweep_svg(files.plotted, spec))
    print(f"wrote {args.output} ({files.n_rows} rows, {len(result.failures)} failed points, "
          f"~{files.n_broken // spec.base.n_sites} broken points)")
    _report_failures(result)
    return 0


def _sweep_svg(plotted, spec: SweepSpec) -> str:
    """Re eps against Phi from (phi, mode, re_eps, edge_weight) tuples."""
    xs = sorted({phi for phi, _, _, _ in plotted})
    index = {x: i for i, x in enumerate(xs)}
    n_modes = max(mode for _, mode, _, _ in plotted) + 1
    series = [[math.nan] * len(xs) for _ in range(n_modes)]
    zero_points = []
    for phi, mode, re_eps, edge in plotted:
        series[mode][index[phi]] = re_eps
        if is_zero_mode(re_eps, edge, spec.base.tunneling):
            zero_points.append((phi, re_eps))
    return spectrum_svg(xs, series, zero_points, x_label="Phi",
                        y_label="Re eps", title=f"method: {spec.method.value}")


def cmd_phase_diagram(args) -> int:
    spec = _with_axes(_merge_layers(args), ("gamma", parse_grid(args.gamma_grid)),
                      ("omega", parse_grid(args.omega_grid)))
    with _RowFiles(args, _PHASE_FIELDS) as files:
        result = run_phase_diagram(spec, files)
    print(f"wrote {args.output} ({files.n_rows} rows, {len(result.failures)} failed points)")
    _report_failures(result)
    return 0


def cmd_effective_compare(args) -> int:
    spec = _merge_layers(args, Method.EXTENDED)
    spectrum = compute_spectrum(spec.base, spec.method, n_floquet=spec.n_floquet)
    nf = spectrum.n_floquet
    comparison = compare_with_effective(spectrum)
    print(f"t_eff = {comparison.t_eff:.12g}")
    print(f"max quasi-energy deviation = {comparison.max_quasi_energy_deviation:.6g}")
    print(f"n_floquet = {nf}")
    if args.output:
        _write_file(args.output, json.dumps({
            "t_eff": comparison.t_eff,
            "max_quasi_energy_deviation": comparison.max_quasi_energy_deviation,
            "per_mode_deviation": [float(v) for v in comparison.per_mode_deviation],
            "omega": spec.base.omega,
            "n_floquet": nf,
        }, indent=1) + "\n")
    return 0


def cmd_pt_threshold(args) -> int:
    spec = _merge_layers(args, Method(args.threshold_method))
    result = gamma_pt_threshold(
        spec.base, gamma_max=args.gamma_max, tol_gamma=args.tol_gamma,
        method=spec.method, n_floquet=spec.n_floquet, n_steps=spec.n_steps)
    print(f"gamma_pt = {result.value:.12g}")
    print(f"status: {result.status}")
    if not result.monotone:
        print("warning: pre-scan saw non-monotonic breaking in gamma",
              file=sys.stderr)
    if args.output:
        _write_file(args.output, json.dumps({
            "gamma_pt": result.value,
            "status": result.status,
            "monotone": result.monotone,
            "scan": [{"gamma": g, "broken": b} for g, b in result.scan],
        }, indent=1) + "\n")
    return 0


def cmd_validate(args) -> int:
    try:
        fh = open(args.from_csv, encoding="utf-8", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot read {args.from_csv}: {exc}") from exc
    fields, diffs, bad_ending, lineno = None, 0, False, 0
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\r\n")
            bad_ending = bad_ending or text + "\n" != line  # CRLF, CR or no final newline
            if lineno == 1:
                fields = {SPECTRUM_HEADER: _SPECTRUM_FIELDS, PHASE_HEADER: _PHASE_FIELDS}.get(text)
                if fields is None:
                    raise ParameterError(f"unrecognized CSV header: {text!r}")
            elif (problem := _round_trip_problem(text, fields)) is not None:
                print(f"line {lineno}: {problem}", file=sys.stderr)
                diffs += 1
    if lineno == 0:
        raise ParameterError("empty CSV file")
    diffs = max(diffs, int(bad_ending))
    print(f"{args.from_csv}: {lineno - 1} rows, {diffs} diffs")
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
    """The settings flags a subcommand reads: _SETTINGS minus the dests
    in omit.  A key in grid_axes becomes a required start:stop:count flag
    with dest KEY_grid."""
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
        # an output file that is a directory, lies in a missing one or is named by two
        # outputs fails before the first solve, so no other output file is opened
        outputs: dict[str, str] = {}
        for key in ("output", "json", "plot"):
            if not (path := getattr(args, key, None)):
                continue
            if os.path.isdir(path):
                raise ParameterError(f"cannot write {path}: Is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ParameterError(f"cannot write {path}: no directory {os.path.dirname(path)}")
            first = outputs.setdefault(os.path.realpath(path), key)
            if first != key:
                raise ParameterError(f"cannot write {path} for --{key}: --{first} writes it")
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
