import json
import math

import numpy as np
import pytest

from floquet_ssh.cli import (
    PHASE_HEADER,
    PRESETS,
    SPECTRUM_HEADER,
    fmt,
    main,
    parse_angle,
    parse_grid,
)


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

    def test_degenerate_impurity_exit_2(self, tmp_path):
        code = main(["spectrum", "--n-sites", "5", "--impurity-site", "3",
                     "--gamma", "0.1", "-o", str(tmp_path / "x.csv")])
        assert code == 2

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
        assert main(["sweep-phi", *args, "--phi", "0.7", "--phi-grid", "0.7",
                     "-o", str(sweep_out)]) == 0
        assert main(["spectrum", *args, "--phi", "0.7", "-o", str(spec_out)]) == 0
        assert sweep_out.read_text() == spec_out.read_text()


class TestToleranceFlags:
    @pytest.mark.parametrize("flag", ["--nf-tol", "--tol-im"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1e-8"])
    @pytest.mark.parametrize("command", [
        ["spectrum", "--gamma", "0.1", "--omega", "2pi"],
        ["sweep-phi", "--gamma", "0.1", "--omega", "2pi", "--phi-grid", "0:pi:2"],
        ["phase-diagram", "--gamma", "0:0.1:2", "--omega", "2pi:4pi:2"],
        ["pt-threshold", "--threshold-method", "extended", "--omega", "2pi"],
    ])
    def test_nan_or_nonpositive_tolerance_exit_2(self, tmp_path, capsys,
                                                 command, flag, value):
        out = tmp_path / "out.csv"
        assert main([*command, "--n-sites", "6", "--lambda", "0.4",
                     "--impurity-site", "2", "--kappa", "0.3",
                     f"{flag}={value}", "-o", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1e-4"])
    def test_nan_or_nonpositive_tol_gamma_exit_2(self, capsys, value):
        assert main(["pt-threshold", "--preset", "fig1-static", "--phi", "0.3",
                     f"--tol-gamma={value}"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "gamma_pt" not in captured.out


class TestSweepConfigErrors:
    @pytest.mark.parametrize("command", [
        ["sweep-phi", "--preset", "fig1-highfreq", "--n-floquet", "0",
         "--phi-grid", "0:pi:2"],
        ["phase-diagram", "--n-sites", "6", "--lambda", "0.4", "--impurity-site", "2",
         "--kappa-omega", "0.05", "--gamma", "0:0.1:2", "--omega", "4pi:8pi:2",
         "--n-floquet", "-1"],
        ["sweep-phi", "--preset", "fig1-lowfreq", "--method", "propagator",
         "--n-steps", "50", "--phi-grid", "0:pi:2"],
    ])
    def test_unusable_solver_size_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert main([*command, "-o", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

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


class TestPtThresholdCommand:
    def test_edge_impurity_reports_zero(self, capsys):
        code = main(["pt-threshold", "--preset", "fig1-static", "--phi", "0.3",
                     "--impurity-site", "1", "--gamma", "0", "--gamma-max", "0.5"])
        assert code == 0
        captured = capsys.readouterr()
        assert "gamma_pt = 0" in captured.out
        assert "broken_at_zero" in captured.out


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

    def test_unknown_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["validate", "--from-csv", str(bad)]) == 2
