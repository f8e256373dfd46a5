import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from floquet_ssh import (
    Method,
    ModelParams,
    compute_spectrum,
    effective_hamiltonian,
    eig_dense,
    matched_distance,
)
from floquet_ssh.cli import (
    _PHASE_FIELDS,
    _SETTINGS,
    _SPECTRUM_FIELDS,
    MAX_PLOT_ROWS,
    PHASE_HEADER,
    PRESETS,
    SPECTRUM_HEADER,
    fmt,
    main,
    parse_angle,
    parse_grid,
    rows_csv,
)
from floquet_ssh.errors import SolverError
from floquet_ssh.sweep import MAX_GRID_POINTS, SweepSpec, run_sweep


class TestParsing:
    def test_parse_angle(self):
        assert parse_angle("0.3") == 0.3
        assert parse_angle("0.8pi") == pytest.approx(0.8 * math.pi)
        assert parse_angle("45pi") == pytest.approx(45 * math.pi)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("-pi") == pytest.approx(-math.pi)
        assert parse_angle("-0.5pi") == pytest.approx(-0.5 * math.pi)

    def test_parse_angle_rejects_garbage(self):
        from floquet_ssh import ParameterError
        with pytest.raises(ParameterError):
            parse_angle("abcpi")
        with pytest.raises(ParameterError):
            parse_angle("")

    def test_parse_grid(self):
        grid = parse_grid("0:2pi:5")
        assert len(grid) == 5
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * math.pi)
        assert list(parse_grid("0.7")) == [0.7]

    def test_fmt_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt(float(x))) == float(x)


class TestPresets:
    def test_shared_base_parameters(self):
        for name, preset in PRESETS.items():
            assert preset["n_sites"] == 40, name
            assert preset["tunneling"] == 1.0, name
            assert preset["lambda"] == 0.4, name
            assert preset["gamma"] == 0.2, name
            assert preset["impurity_site"] == 2, name

    def test_drive_amplitudes_and_frequencies(self):
        assert PRESETS["fig1-static"]["kappa"] == 0.0
        for name, omega in (("fig1-lowfreq", 0.2 * math.pi),
                            ("fig1-midfreq", 0.8 * math.pi),
                            ("fig1-highfreq", 45 * math.pi),
                            ("fig1-highfreq-alt", 4 * math.pi)):
            assert PRESETS[name]["kappa_omega"] == 0.05, name
            assert PRESETS[name]["omega"] == pytest.approx(omega), name


    @pytest.mark.parametrize("argv, want", [
        (["--preset", "fig1-static", "--kappa", "0.3", "--omega", "3"], ("broken", "extended", "6")),
        (["--preset", "fig1-highfreq", "--kappa", "0"], ("unbroken", "static", "0")),
    ])
    def test_route_follows_the_drive_not_the_preset(self, tmp_path, argv, want):
        # A preset holds no method: kappa = 0 takes the static route, any
        # other kappa the extended one.
        out = tmp_path / "spec.csv"
        assert main(["spectrum", *argv, "--n-sites", "6", "-o", str(out)]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["phase"], r["method"], r["n_floquet"]) for r in rows} == {want}
        if want[0] == "broken":
            assert max(abs(float(r["im_eps"])) for r in rows) == pytest.approx(0.0448, abs=1e-4)


class TestSpectrumCommand:
    def test_two_site_chain(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--n-sites", "2", "--tunneling", "1",
                     "--lambda", "0", "--gamma", "0", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SPECTRUM_HEADER
        assert len(lines) == 3
        res = sorted(float(line.split(",")[5]) for line in lines[1:])
        assert res == pytest.approx([-1.0, 1.0])

    def test_fig1_static_preset_finds_zero_modes(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main(["spectrum", "--preset", "fig1-static", "--phi", "0.3",
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 41
        zero_rows = [line for line in lines[1:]
                     if abs(float(line.split(",")[5])) < 1e-3
                     and float(line.split(",")[7]) > 0.5]
        assert len(zero_rows) >= 2
        captured = capsys.readouterr()
        assert "zero modes: 2" in captured.out

    def test_conflicting_drive_flags_exit_2(self, tmp_path, capsys):
        code = main(["spectrum", "--n-sites", "4", "--kappa", "0.1",
                     "--kappa-omega", "0.05", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        config = {"n_sites": 4, "tunneling": 1.0, "lambda": 0.0, "gamma": 0.0}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--config", str(cfg), "--n-sites", "6",
                     "-o", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 7

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_sites": 4, "bogus": 1}))
        assert main(["spectrum", "--config", str(cfg),
                     "-o", str(tmp_path / "x.csv")]) == 2

    def test_n0_rule_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_sites": 4, "n0_rule": "even"}))
        assert main(["spectrum", "--config", str(cfg),
                     "-o", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys: ['n0_rule']" in capsys.readouterr().err

    def test_effective_route(self, tmp_path):
        out = tmp_path / "eff.csv"
        assert main(["spectrum", "--preset", "fig1-highfreq", "--phi", "0.3",
                     "--method", "effective", "-o", str(out)]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert {(r["method"], r["n_floquet"]) for r in rows} == {("effective", "0")}
        params = ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, gamma=0.2, impurity_site=2,
                             kappa=0.05 / (45 * math.pi), omega=45 * math.pi)
        assert {float(r["kappa"]) for r in rows} == {params.kappa}
        eps = np.array([complex(float(r["re_eps"]), float(r["im_eps"])) for r in rows])
        expected = eig_dense(effective_hamiltonian(params)).eigenvalues
        np.testing.assert_array_equal(
            eps, expected[np.lexsort((expected.imag, expected.real))])
        effective = compute_spectrum(params, Method.STATIC_EFFECTIVE)
        assert matched_distance(effective, compute_spectrum(params, Method.EXTENDED)) < 5e-3

    def test_degenerate_impurity_exit_2(self, tmp_path):
        code = main(["spectrum", "--n-sites", "5", "--impurity-site", "3",
                     "--gamma", "0.1", "-o", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("omega", ["0", "-1"])
    def test_kappa_omega_with_nonpositive_omega_exit_2(self, tmp_path, capsys, omega):
        # kappa is derived from kappa_omega after omega has been checked
        code = main(["spectrum", "--preset", "fig1-lowfreq", "--n-sites", "6",
                     "--omega", omega, "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "omega must be positive" in capsys.readouterr().err

    def test_nf_tol_below_rounding_exit_1(self, tmp_path, capsys):
        # at omega = 1e8 delta(N_F) stays near 1e-7, out of NF_TOL = 1e-8's reach,
        # so the search stops before its first solve
        start = time.perf_counter()
        code = main(["spectrum", "--preset", "fig1-highfreq", "--omega", "1e8",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert "N_F search cannot reach tol 1e-08" in err
        assert err.rstrip().endswith("set n_floquet (--n-floquet) to solve at a fixed N_F")

    def test_nf_search_stops_on_rounding_noise_exit_1(self, tmp_path, capsys, monkeypatch):
        # at omega = 1e7 delta(2) is about 1.3e-8: above NF_TOL, but inside the band
        # rounding alone reaches, so the search stops after its first probe
        import floquet_ssh.floquet as floquet

        solved = []
        original = floquet.quasi_energies_extended

        def counting(params, n_floquet):
            solved.append(n_floquet)
            return original(params, n_floquet)

        monkeypatch.setattr(floquet, "quasi_energies_extended", counting)
        start = time.perf_counter()
        code = main(["spectrum", "--preset", "fig1-highfreq", "--omega", "1e7",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert time.perf_counter() - start < 3
        assert solved == [2, 4]
        err = capsys.readouterr().err
        assert "N_F search cannot reach tol 1e-08: at N_F=2 delta = " in err
        assert "cannot be told from rounding noise" in err
        assert err.rstrip().endswith("set n_floquet (--n-floquet) to solve at a fixed N_F")

    def test_nf_search_stops_before_a_probe_over_the_cap_exit_1(self, tmp_path, capsys,
                                                                 monkeypatch):
        # N = 856: N_F = 2 fits in DIM_CAP = 7700 rows, but its partner N_F = 4 needs 7704
        import floquet_ssh.floquet as floquet

        solved = []

        def counting(params, n_floquet):
            solved.append(n_floquet)
            raise SolverError("no extended solve expected")

        monkeypatch.setattr(floquet, "quasi_energies_extended", counting)
        out = tmp_path / "x.csv"
        code = main(["spectrum", "--n-sites", "856", "--lambda", "0.4", "--impurity-site", "2",
                     "--kappa-omega", "0.05", "--omega", "0.2pi", "--gamma", "0.2",
                     "-o", str(out)])
        assert code == 1
        assert solved == []
        err = capsys.readouterr().err
        assert ("at N_F=2 the matrix at N_F+2 would have 7704 rows, "
                "more than DIM_CAP = 7700") in err
        assert err.rstrip().endswith("set n_floquet (--n-floquet) to solve at a fixed N_F")
        assert not out.exists()

    # the preset's N=40 at gamma=2.5: cond(V) = 2.4e10 from the gain/loss, far from any guard
    # on U's rounding, so only the even chain's relation check stops it
    @pytest.mark.parametrize("n_sites, gamma, message", [
        pytest.param("7", "20", "an eigenvalue of U is lost in its rounding", id="7-20"),
        pytest.param("41", "3", "an eigenvalue of U is lost in its rounding", id="41-3"),
        pytest.param("40", "2.5", "lacks the relation P conj(U) P = U^-1", id="40-2.5"),
    ])
    def test_propagator_eigenvalue_below_rounding_exit_1(self, tmp_path, capsys,
                                                         n_sites, gamma, message):
        out = tmp_path / "x.csv"
        code = main(["spectrum", "--preset", "fig1-lowfreq", "--n-sites", n_sites,
                     "--gamma", gamma, "--impurity-site", "1", "--phi", "0.35",
                     "--method", "propagator", "-o", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exit_1(self, capsys):
        # folding window too narrow for the effective spectrum -> aliasing
        code = main(["effective-compare", "--n-sites", "6", "--lambda", "0.4",
                     "--kappa", "0.1", "--omega", "1.0", "--n-floquet", "2"])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err


class TestSweepPhiCommand:
    def test_small_sweep_with_plot_and_json(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        js = tmp_path / "sweep.json"
        code = main(["sweep-phi", "--n-sites", "8", "--lambda", "0.4",
                     "--gamma", "0.1", "--impurity-site", "2",
                     "--phi-grid", "0:2pi:9", "-o", str(out),
                     "--plot", str(svg), "--json", str(js)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SPECTRUM_HEADER
        assert len(lines) == 1 + 9 * 8
        payload = json.loads(js.read_text())
        assert len(payload) == 72
        assert set(payload[0]) == set(SPECTRUM_HEADER.split(","))
        svg_text = svg.read_text()
        assert svg_text.startswith("<svg")
        assert "polyline" in svg_text

    @pytest.mark.parametrize("method", ["static", "extended", "propagator"])
    def test_single_point_grid_matches_spectrum(self, tmp_path, method):
        sweep_out = tmp_path / "sweep.csv"
        spec_out = tmp_path / "spec.csv"
        args = ["--n-sites", "6", "--lambda", "0.4", "--gamma", "0.1",
                "--impurity-site", "2", "--kappa", "0.3", "--omega", "2pi",
                "--method", method]
        assert main(["sweep-phi", *args, "--phi-grid", "0.7",
                     "-o", str(sweep_out)]) == 0
        assert main(["spectrum", *args, "--phi", "0.7", "-o", str(spec_out)]) == 0
        assert sweep_out.read_text() == spec_out.read_text()


_CHAIN = ["--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2"]
# (command, flags checked).  --nf-tol is not a flag: an N_F search always
# converges to floquet.NF_TOL, and a fixed N_F is --n-floquet.
_TOLERANCE_COMMANDS = (
    (["spectrum", "--kappa", "0.3", "--gamma", "0.1", "--omega", "2pi"],
     ("--nf-tol",)),
    (["sweep-phi", "--kappa", "0.3", "--gamma", "0.1", "--omega", "2pi",
      "--phi-grid", "0:pi:2"], ("--nf-tol",)),
    (["phase-diagram", "--kappa", "0.3", "--gamma", "0:0.1:2", "--omega", "2pi:4pi:2"],
     ("--nf-tol",)),
    (["pt-threshold", "--kappa", "0.3", "--threshold-method", "extended", "--omega", "2pi"],
     ("--nf-tol",)),
    (["spectrum"], ("--nf-tol",)),
    (["pt-threshold"], ("--nf-tol",)),
    (["effective-compare", "--preset", "fig1-highfreq", "--n-floquet", "2"], ("--nf-tol",)),
)


class TestToleranceFlags:
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(command, flag, value, id=f"command{i}-{value}-{flag}")
        for i, (command, flags) in enumerate(_TOLERANCE_COMMANDS)
        for flag in flags
        for value in ("nan", "0", "-1e-8", "inf")])
    def test_nan_or_nonpositive_tolerance_exit_2(self, tmp_path, capsys,
                                                 command, flag, value):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *_CHAIN, f"{flag}={value}", "-o", str(out)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1e-4", "inf"])
    def test_nan_or_nonpositive_tol_gamma_exit_2(self, capsys, value):
        assert main(["pt-threshold", "--preset", "fig1-static", "--phi", "0.3",
                     f"--tol-gamma={value}"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "gamma_pt" not in captured.out

    def test_infinite_gamma_max_exit_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pt-threshold", "--preset", "fig1-static", "--phi", "0.3",
                         "--gamma-max", "inf"]) == 2
        assert "gamma_max must be positive and finite, got inf" in capsys.readouterr().err


class TestSweepConfigErrors:
    @pytest.mark.parametrize("command", [
        ["sweep-phi", "--preset", "fig1-highfreq", "--n-floquet", "0",
         "--phi-grid", "0:pi:2"],
        ["phase-diagram", "--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2",
         "--kappa-omega", "0.05", "--gamma", "0:0.1:2", "--omega", "4pi:8pi:2",
         "--n-floquet", "-1"],
        ["sweep-phi", "--preset", "fig1-lowfreq", "--method", "propagator",
         "--n-steps", "10", "--phi-grid", "0:pi:2"],
        # the default step count is far above MAX_PROPAGATOR_STEPS
        ["spectrum", "--n-sites", "6", "--lambda", "0.4", "--method", "propagator",
         "--omega", "1e-300"],
        # ||H||_1 overflows, so the default step count is infinite
        ["spectrum", "--n-sites", "40", "--kappa", "1e307", "--omega", "3",
         "--method", "propagator"],
    ])
    def test_unusable_solver_size_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert main([*command, "-o", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["extended", "propagator"])
    def test_subnormal_omega_exit_2(self, tmp_path, capsys, method):
        # 2*pi/omega overflows: no finite drive period on either route
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--n-sites", "6", "--lambda", "0.4", "--kappa", "0.1",
                     "--omega", "1e-320", "--method", method, "-o", str(out)]) == 2
        assert "finite drive period" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grids, message", [
        (["--gamma", "0:0.1:2", "--omega=-1:1:3"], "omega must be positive"),
        (["--gamma=-0.1:0.1:3", "--omega", "4pi:8pi:2"], "gamma must be nonnegative"),
        # rejected before linspace allocates the grid
        (["--gamma", "0:0.1:1000000000000000", "--omega", "4pi:8pi:2"],
         f"grid count must be between 1 and {MAX_GRID_POINTS}"),
        # only each axis's extremes are checked: a bad last value, a subnormal smallest omega
        (["--gamma=0.1:-0.1:3", "--omega", "4pi:8pi:2"], "gamma must be nonnegative"),
        (["--gamma", "0:0.1:2", "--omega", "1e-320:1:2"], "finite drive period"),
    ])
    def test_invalid_grid_value_exit_2(self, tmp_path, capsys, grids, message):
        out = tmp_path / "out.csv"
        assert main(["phase-diagram", "--n-sites", "6", "--lambda", "0.4",
                     "--impurity-site", "2", "--kappa-omega", "0.05", *grids,
                     "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, axis", [
        (["sweep-phi", "--preset", "fig1-highfreq", "--phi-grid=-1e308:1e308:2"], "phi_dim"),
        (["phase-diagram", "--n-sites", "8", "--kappa", "0.1", "--omega", "1:2:2",
          "--gamma=-1e308:1e308:2"], "gamma"),
    ], ids=["sweep-phi", "phase-diagram"])
    def test_overflowing_grid_exit_2_without_warnings(self, tmp_path, capsys, argv, axis):
        # stop - start overflows inside linspace; the axis message is the only output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"configuration error: axis '{axis}' has non-finite "
                                f"grid values\n")

    @pytest.mark.parametrize("argv, n_axes", [
        (["sweep-phi", "--n-sites", "2", "--phi-grid", "0:2pi:1000"], 1),
        (["phase-diagram", "--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2",
          "--kappa-omega", "0.05", "--gamma", "0:0.4:100", "--omega", "0.2pi:45pi:100"], 2),
    ], ids=["sweep-phi", "phase-diagram"])
    def test_grid_check_builds_only_the_axis_extremes(self, tmp_path, monkeypatch, argv, n_axes):
        import floquet_ssh.cli as cli

        calls = []
        params_at = SweepSpec.params_at
        monkeypatch.setattr(SweepSpec, "params_at",
                            lambda spec, point: calls.append(point) or params_at(spec, point))

        def stop(spec, emit):
            raise SolverError("stopped before the first solve")

        monkeypatch.setattr(cli, "run_sweep", stop)
        monkeypatch.setattr(cli, "run_phase_diagram", stop)
        assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 1
        assert 0 < len(calls) <= 2 * n_axes

    def test_threads_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-phi", "--n-sites", "6", "--phi-grid", "0:pi:2",
                  "--threads", "2", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    def test_threads_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_sites": 6, "threads": 2}))
        assert main(["sweep-phi", "--config", str(cfg), "--phi-grid", "0:pi:2",
                     "-o", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys: ['threads']" in capsys.readouterr().err

    def test_drive_phase_config_key_exit_2(self, tmp_path, capsys):
        # the drive's start time is a Floquet gauge, not a setting
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"phase0": 0}))
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(cfg), "--n-sites", "6", "-o", str(out)]) == 2
        assert "unknown config keys: ['phase0']" in capsys.readouterr().err
        assert not out.exists()


# Config-file key -> flag, written out here so that a wrong flag name in
# the CLI's table shows up as a mismatch.
_FLAGS = {
    "n_sites": "--n-sites", "tunneling": "--tunneling", "lambda": "--lambda",
    "phi_dim": "--phi", "gamma": "--gamma", "impurity_site": "--impurity-site",
    "kappa": "--kappa", "kappa_omega": "--kappa-omega", "omega": "--omega",
    "method": "--method",
    "n_floquet": "--n-floquet", "n_steps": "--n-steps",
}
_DRIVEN_CHAIN = {"n_sites": 6, "lambda": 0.4, "gamma": 0.1, "impurity_site": 2,
                 "kappa": 0.3, "omega": 2 * math.pi}


def _as_flags(settings: dict) -> list[str]:
    return [arg for key, value in settings.items() for arg in (_FLAGS[key], str(value))]


def _spectrum_csv(tmp_path, name: str, argv: list[str], config: dict | None = None) -> str:
    out = tmp_path / f"{name}.csv"
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    assert main(["spectrum", *argv, "-o", str(out)]) == 0
    return out.read_text()


class TestSettingsTable:
    @pytest.mark.parametrize("argv", [
        ["effective-compare", "--method", "propagator"],
        ["effective-compare", "--n-steps", "400"],
        ["effective-compare", "--tol-im", "1e-6"],
        ["pt-threshold", "--method", "propagator"],
        ["pt-threshold", "--gamma", "0.3"],  # would abbreviate --gamma-max
        ["sweep-phi", "--phi", "0.7"],  # would abbreviate --phi-grid
        ["spectrum", "--n-sit", "6"],
        ["spectrum", "--n0-rule", "even"],
        ["spectrum", "--phase0", "0.3"],
        ["spectrum", "--tol-im", "1e-6"],
        ["sweep-phi", "--tol-im", "1e-6"],
        ["phase-diagram", "--gamma", "0:0.1:2", "--omega", "2pi:4pi:2", "--tol-im", "1e-6"],
        ["pt-threshold", "--tol-im", "1e-6"],
        ["spectrum", "--nf-tol", "1e-6"],
        ["sweep-phi", "--nf-tol", "1e-6"],
        ["phase-diagram", "--gamma", "0:0.1:2", "--omega", "2pi:4pi:2", "--nf-tol", "1e-6"],
        ["effective-compare", "--nf-tol", "1e-6"],
        ["pt-threshold", "--nf-tol", "1e-6"],
    ])
    def test_unread_or_abbreviated_flag_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--n-sites", "6", "--lambda", "0.4", "-o", str(out)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, size", [("extended", ("n_floquet", 4)),
                                              ("propagator", ("n_steps", 400))])
    def test_config_with_every_key_matches_flags(self, tmp_path, method, size):
        settings = {"n_sites": 6, "tunneling": 1.1, "lambda": 0.4, "phi_dim": "0.3pi",
                    "gamma": 0.05, "impurity_site": 2, "kappa": 0.3, "omega": "2pi",
                    "method": method,
                    "n_floquet": 4, "n_steps": 400}
        assert set(settings) | {"kappa_omega"} == set(_FLAGS)
        from_flags = _spectrum_csv(tmp_path, "flags", _as_flags(settings))
        # the file also holds kappa_omega, which its direct kappa beats
        from_file = _spectrum_csv(tmp_path, "file", [],
                                  {**settings, "kappa_omega": 5.0})
        assert from_file == from_flags
        assert f",{method}," in from_flags

    def test_flag_beats_config_beats_preset(self, tmp_path):
        layered = _spectrum_csv(tmp_path, "layered",
                                ["--preset", "fig1-static", "--gamma", "0.05"],
                                {"n_sites": 6, "gamma": 0.1, "phi_dim": 0.3})
        explicit = _spectrum_csv(tmp_path, "explicit", [
            "--n-sites", "6", "--tunneling", "1", "--lambda", "0.4", "--phi", "0.3",
            "--gamma", "0.05", "--impurity-site", "2", "--kappa", "0",
            "--omega", "1", "--method", "static"])
        assert layered == explicit

    def test_config_kappa_beats_config_kappa_omega(self, tmp_path):
        from_file = _spectrum_csv(tmp_path, "file", [],
                                  {**_DRIVEN_CHAIN, "kappa_omega": 5.0})
        assert from_file == _spectrum_csv(tmp_path, "flags", _as_flags(_DRIVEN_CHAIN))

    def test_kappa_flag_overrides_preset_kappa_omega(self, tmp_path):
        layered = _spectrum_csv(tmp_path, "layered", [
            "--preset", "fig1-highfreq", "--n-sites", "6", "--kappa", "0.01",
            "--n-floquet", "2"])
        explicit = _spectrum_csv(tmp_path, "explicit", [
            "--n-sites", "6", "--lambda", "0.4", "--gamma", "0.2", "--impurity-site", "2",
            "--kappa", "0.01", "--omega", "45pi", "--method", "extended",
            "--n-floquet", "2"])
        assert layered == explicit
        assert ",0.01,0," in layered  # the kappa column holds the flag's value


class TestConfigValues:
    @pytest.mark.parametrize("config", [{"gamma": "abc"}, {"n_sites": "x"},
                                        {"n_floquet": 2.5}, {"n_sites": 6.7},
                                        {"n_sites": True}, {"impurity_site": True},
                                        {"n_sites": "6.0"}, {"n_sites": [6]},
                                        {"n_sites": math.inf},  # JSON's Infinity
                                        "--n-sites=6.0"])  # a flag, not a config file
    def test_bad_value_exit_2(self, tmp_path, capsys, config):
        out = tmp_path / "out.csv"
        if isinstance(config, str):
            argv, config = [config], {"n_sites": "6.0"}
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg)]
        assert main(["spectrum", *argv, "-o", str(out)]) == 2
        (key, value), = config.items()
        assert capsys.readouterr().err == (f"configuration error: bad value {value!r} "
                                           f"for {key} ({_SETTINGS[key][0]})\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, flag_value", [
        ({"omega": "0.8pi"}, {"omega": "0.8pi"}),
        ({"n_floquet": "3"}, {"n_floquet": 3}),
        ({"n_sites": 6.0}, {"n_sites": 6}),  # an integral JSON number
        ({"n_sites": " 6 "}, {"n_sites": 6}),
    ])
    def test_value_parses_like_its_flag(self, tmp_path, value, flag_value):
        from_file = _spectrum_csv(tmp_path, "file", [], {**_DRIVEN_CHAIN, **value})
        flags = _as_flags({**_DRIVEN_CHAIN, **flag_value})
        assert from_file == _spectrum_csv(tmp_path, "flags", flags)


class TestPhaseDiagramCommand:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = main(["phase-diagram", "--n-sites", "6", "--lambda", "0.4",
                     "--impurity-site", "2", "--kappa-omega", "0.05",
                     "--gamma", "0:0.2:3", "--omega", "4pi:16pi:3",
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == PHASE_HEADER
        assert len(lines) == 1 + 9
        gamma_zero_rows = [line for line in lines[1:]
                           if float(line.split(",")[2]) == 0.0]
        assert gamma_zero_rows
        assert all(line.split(",")[6] == "unbroken" for line in gamma_zero_rows)


class TestEffectiveCompareCommand:
    def test_high_frequency_preset(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(["effective-compare", "--preset", "fig1-highfreq",
                     "--phi", "0.3", "--n-floquet", "3", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_quasi_energy_deviation"] < 5e-3
        assert len(payload["per_mode_deviation"]) == 40

    def test_converged_n_floquet_solved_once(self, monkeypatch, capsys):
        import floquet_ssh.floquet as floquet

        solved = []
        original = floquet.quasi_energies_extended

        def counting(params, n_floquet):
            solved.append(n_floquet)
            return original(params, n_floquet)

        monkeypatch.setattr(floquet, "quasi_energies_extended", counting)
        assert main(["effective-compare", "--preset", "fig1-highfreq", "--phi", "0.3"]) == 0
        assert "n_floquet = 2" in capsys.readouterr().out
        assert solved == [2, 4]


class TestPtThresholdCommand:
    def test_edge_impurity_reports_zero(self, capsys):
        code = main(["pt-threshold", "--preset", "fig1-static", "--phi", "0.3",
                     "--impurity-site", "1", "--gamma-max", "0.5"])
        assert code == 0
        captured = capsys.readouterr()
        assert "gamma_pt = 0" in captured.out
        assert "broken_at_zero" in captured.out


_STREAMED = (
    (["spectrum", "--n-sites", "6", "--lambda", "0.4", "--gamma", "0.1",
      "--impurity-site", "2", "--phi", "0.3"], None, _SPECTRUM_FIELDS),
    (["sweep-phi", "--n-sites", "6", "--lambda", "0.4", "--gamma", "0.1",
      "--impurity-site", "2", "--kappa-omega", "0.05", "--omega", "4pi",
      "--phi-grid", "0:2pi:9"], "run_sweep", _SPECTRUM_FIELDS),
    (["phase-diagram", "--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2",
      "--kappa-omega", "0.05", "--gamma", "0:0.2:3", "--omega", "4pi:8pi:2"],
     "run_phase_diagram", _PHASE_FIELDS),
)


class TestStreamedOutput:
    """Rows are written point by point, in the bytes of the whole-result formats."""

    @pytest.mark.parametrize("command, runner, fields", _STREAMED,
                             ids=[c[0][0] for c in _STREAMED])
    def test_files_equal_the_library_result(self, tmp_path, monkeypatch,
                                            command, runner, fields):
        import floquet_ssh.cli as cli
        import floquet_ssh.sweep as sweep

        solve = sweep.compute_spectrum
        failing_phi = float(parse_grid("0:2pi:9")[3])

        def fail_one_point(params, *args, **kwargs):
            if command[0] == "sweep-phi" and params.phi_dim == failing_phi:
                raise SolverError("injected failure")
            return solve(params, *args, **kwargs)

        monkeypatch.setattr(sweep, "compute_spectrum", fail_one_point)
        specs = []
        if runner is not None:
            run = getattr(cli, runner)

            def recording(spec, emit):
                specs.append(spec)
                return run(spec, emit)

            monkeypatch.setattr(cli, runner, recording)
        out, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert main([*command, "-o", str(out), "--json", str(js)]) == 0
        if runner is None:
            args = cli.build_parser().parse_args(command)
            result = run_sweep(cli._merge_layers(args))
        else:
            result = getattr(sweep, runner)(*specs)
        assert len(result.failures) == (command[0] == "sweep-phi")
        assert out.read_bytes() == rows_csv(result.rows, fields).encode()
        dicts = [{name: getattr(r, name) for name in fields} for r in result.rows]
        assert js.read_bytes() == (json.dumps(dicts, indent=1) + "\n").encode()

    def test_all_failed_sweep_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        import floquet_ssh.sweep as sweep

        def fail(*args, **kwargs):
            raise SolverError("injected failure")

        monkeypatch.setattr(sweep, "compute_spectrum", fail)
        out, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert main(["sweep-phi", "--n-sites", "6", "--phi-grid", "0:2pi:9",
                     "-o", str(out), "--json", str(js)]) == 1
        assert "all 9 grid points failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_size_is_not_bounded_by_its_rows(self, tmp_path, monkeypatch):
        # 8000000 rows, which no longer have to fit in memory
        import floquet_ssh.sweep as sweep

        class Solving(Exception):
            pass

        def solve(*args, **kwargs):
            raise Solving

        monkeypatch.setattr(sweep, "compute_spectrum", solve)
        with pytest.raises(Solving):
            main(["sweep-phi", "--n-sites", "40", "--phi-grid", "0:2pi:200000",
                  "-o", str(tmp_path / "out.csv")])

    def test_plot_row_cap_exit_2_before_solving(self, tmp_path, monkeypatch, capsys):
        import floquet_ssh.cli as cli

        class Solving(Exception):
            pass

        def run(spec, emit):
            raise Solving

        monkeypatch.setattr(cli, "run_sweep", run)
        argv = ["sweep-phi", "--n-sites", "40", "-o", str(tmp_path / "out.csv"),
                "--plot", str(tmp_path / "out.svg")]
        with pytest.raises(Solving):
            main([*argv, "--phi-grid", f"0:1:{MAX_PLOT_ROWS // 40}"])
        assert main([*argv, "--phi-grid", f"0:1:{MAX_PLOT_ROWS // 40 + 1}"]) == 2
        assert "--plot keeps every row" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_flat_in_grid_points(self, tmp_path):
        def peak(points: int) -> int:
            tracemalloc.start()
            try:
                assert main(["sweep-phi", "--n-sites", "2", "--phi-grid", f"0:2pi:{points}",
                             "-o", str(tmp_path / "out.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # imports and caches outside the measurement
        growth = (peak(2500) - peak(500)) / 2000
        # the stored axis value costs 32-40 B per point; rows held in memory cost ~1 kB
        assert growth < 200, f"{growth:.0f} B per grid point"


class TestOutputPaths:
    """An output file that cannot be written is a configuration error, not a traceback."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The compute_spectrum calls that the commands make, through any module."""
        import floquet_ssh.analysis as analysis
        import floquet_ssh.cli as cli
        import floquet_ssh.sweep as sweep

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return compute_spectrum(*args, **kwargs)

        for module in (cli, sweep, analysis):
            monkeypatch.setattr(module, "compute_spectrum", spy)
        return calls

    @pytest.mark.parametrize("argv, path", [
        (["spectrum", "--n-sites", "4", "--json", "missing_dir/b.json"], "missing_dir/b.json"),
        (["sweep-phi", "--n-sites", "4", "--phi-grid", "0:1:3", "--json", "missing_dir/b.json"],
         "missing_dir/b.json"),
        (["sweep-phi", "--n-sites", "4", "--phi-grid", "0:1:3", "--plot", "missing_dir/p.svg"],
         "missing_dir/p.svg"),
        (["pt-threshold", "--n-sites", "4", "-o", "missing_dir/t.json"], "missing_dir/t.json"),
    ], ids=["spectrum", "sweep-phi", "sweep-phi-plot", "pt-threshold"])
    def test_missing_directory_exit_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                      solves, argv, path):
        monkeypatch.chdir(tmp_path)
        if argv[0] != "pt-threshold":
            argv = [*argv, "-o", "out.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"configuration error: cannot write {path}: no directory missing_dir"]
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        assert solves == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", "-o", "out.csv", "--json", "a_dir"],
        ["sweep-phi", "--phi-grid", "0:1:3", "-o", "out.csv", "--json", "a_dir"],
        ["spectrum", "-o", "a_dir"],
        ["sweep-phi", "--phi-grid", "0:1:3", "-o", "a_dir"],
    ], ids=["spectrum-json", "sweep-phi-json", "spectrum-output", "sweep-phi-output"])
    def test_directory_path_exit_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                   solves, argv):
        (tmp_path / "a_dir").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--n-sites", "4"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: cannot write a_dir: Is a directory"]
        assert [path.name for path in tmp_path.iterdir()] == ["a_dir"]
        assert list((tmp_path / "a_dir").iterdir()) == []
        assert solves == []

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "-o", "x.csv", "--json", "x.csv"], "x.csv for --json: --output"),
        (["sweep-phi", "--phi-grid", "0:1:3", "-o", "x.csv", "--plot", "x.csv"],
         "x.csv for --plot: --output"),
        (["sweep-phi", "--phi-grid", "0:1:3", "-o", "out.csv", "--json", "x.csv",
          "--plot", "./x.csv"], "./x.csv for --plot: --json"),
    ], ids=["spectrum-output-json", "sweep-phi-output-plot", "sweep-phi-json-plot"])
    def test_two_outputs_on_one_file_exit_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                           solves, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--n-sites", "4"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot write {message} writes it"]
        assert list(tmp_path.iterdir()) == []
        assert solves == []

    def test_unopenable_path_exit_2(self, tmp_path, capsys):
        # an over-long file name passes the check and fails at open; the OSError becomes exit 2
        path = tmp_path / ("x" * 300)
        assert main(["spectrum", "--n-sites", "4", "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"configuration error: cannot write {path}: "
                                    f"File name too long"]


class TestValidateCommand:
    def test_round_trip_spectrum_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n-sites", "6", "--lambda", "0.4", "--gamma", "0.1",
              "--impurity-site", "2", "--phi", "0.3", "-o", str(out)])
        assert main(["validate", "--from-csv", str(out)]) == 0
        captured = capsys.readouterr()
        assert "0 diffs" in captured.out

    def test_round_trip_phase_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        main(["phase-diagram", "--n-sites", "6", "--lambda", "0.4",
              "--impurity-site", "2", "--kappa-omega", "0.05",
              "--gamma", "0:0.1:2", "--omega", "4pi:8pi:2", "-o", str(out)])
        assert main(["validate", "--from-csv", str(out)]) == 0

    def test_detects_corruption(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n-sites", "4", "-o", str(out)])
        content = out.read_text().splitlines()
        cells = content[1].split(",")
        cells[5] = "0.10000000000000000555112"  # not the canonical 17-digit form
        content[1] = ",".join(cells)
        out.write_text("\n".join(content) + "\n")
        assert main(["validate", "--from-csv", str(out)]) == 1

    def test_crlf_line_endings_exit_1(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n-sites", "4", "-o", str(out)]) == 0
        out.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["validate", "--from-csv", str(out)]) == 1
        assert f"{out}: 4 rows, 1 diffs" in capsys.readouterr().out

    def test_missing_final_newline_exit_1(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n-sites", "4", "-o", str(out)]) == 0
        out.write_bytes(out.read_bytes()[:-1])
        assert main(["validate", "--from-csv", str(out)]) == 1
        assert f"{out}: 4 rows, 1 diffs" in capsys.readouterr().out

    def test_unknown_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["validate", "--from-csv", str(bad)]) == 2


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env(**settings: str) -> dict[str, str]:
    """This process's environment without the BLAS thread variables, plus ``settings``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return {**env, **settings}


class TestBlasIdleTimeout:
    @pytest.mark.parametrize("settings, expected", [({}, "24"),
                                                    ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28")],
                             ids=["unset", "user-28"])
    def test_import_sets_the_timeout_unless_set(self, settings, expected):
        code = "import os, floquet_ssh; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
        result = subprocess.run([sys.executable, "-c", code], env=_child_env(**settings),
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == expected

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to bill")
    @pytest.mark.skipif("openblas" not in str(np.show_config(mode="dicts")
                                               ["Build Dependencies"]["blas"].get("name")),
                        reason="numpy's BLAS is not OpenBLAS")
    def test_propagator_spectrum_bills_about_one_core(self, tmp_path):
        # With OpenBLAS's default 2^28-cycle timeout the idle worker spins
        # beside the small serial products and cpu/wall reads about 1.7.
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "floquet_ssh", "spectrum", "--preset",
                                 "fig1-lowfreq", "--method", "propagator"],
                                cwd=tmp_path, env=_child_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        assert os.waitstatus_to_exitcode(status) == 0
        assert (usage.ru_utime + usage.ru_stime) / wall < 1.4


def test_cli_never_loads_scipy(tmp_path):
    # SciPy is a test dependency only: neither importing the CLI nor a solve may load it
    code = ("import sys\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import floquet_ssh.cli\n"
            "print('after import', loaded(), file=sys.stderr)\n"
            "status = floquet_ssh.cli.main(['spectrum', '--preset', 'fig1-lowfreq',"
            " '--n-sites', '6'])\n"
            "print('after spectrum', loaded(), file=sys.stderr)\n"
            "sys.exit(status)\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["after import []", "after spectrum []"]
    assert (tmp_path / "spectrum.csv").exists()
