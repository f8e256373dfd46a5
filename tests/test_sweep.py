import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floquet_ssh import (
    Method,
    ModelParams,
    ParameterError,
    SolverError,
    SweepSpec,
    classify_pt,
    compute_spectrum,
    run_phase_diagram,
    run_sweep,
)
from floquet_ssh.floquet import MAX_PROPAGATOR_STEPS
from floquet_ssh.sweep import MAX_GRID_POINTS, spectrum_rows


def _base(**overrides):
    defaults = dict(n_sites=10, tunneling=1.0, lam=0.4, phi_dim=0.3, gamma=0.1,
                    impurity_site=2, kappa=0.0, omega=2.0)
    defaults.update(overrides)
    return ModelParams(**defaults)


class TestSweepSpec:
    def test_axis_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("bogus", (1.0,)),))
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", ()),))
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)), ("omega", (1.0,)),
                                          ("phi_dim", (0.0,))))
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)), ("gamma", (0.2,))))
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(omega=3.0), axes=(("kappa", (0.1, 0.5, 0.9)),),
                      kappa_omega=0.3)
        for kappa_omega in (-0.5, math.nan, math.inf):
            with pytest.raises(ParameterError, match="kappa_omega"):
                SweepSpec(base=_base(), axes=(("phi_dim", (0.1, 0.2)),), kappa_omega=kappa_omega)
        SweepSpec(base=_base(), axes=(("phi_dim", (0.1, 0.2)),), kappa_omega=0.0)
        with pytest.raises(ParameterError, match=f"more than {MAX_GRID_POINTS}"):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,) * 1000),
                                          ("omega", (1.0,) * (MAX_GRID_POINTS // 1000 + 1))))

    def test_grid_of_one_row_per_point_within_budget(self):
        # a 400 x 400 phase diagram makes 160000 rows, about 0.1 GB
        spec = SweepSpec(base=_base(), axes=(("gamma", (0.1,) * 400), ("omega", (1.0,) * 400)))
        assert spec.n_points() == 160000

    @pytest.mark.parametrize("field", ["nf_tol"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1e-8, math.inf])
    def test_tolerance_validation(self, field, value):
        # no tolerance is a field: an N_F search always converges to
        # floquet.NF_TOL, and a fixed N_F is n_floquet
        with pytest.raises(TypeError, match=field):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),), **{field: value})

    @pytest.mark.parametrize("n_floquet", [0, -1])
    def test_extended_n_floquet_validation(self, n_floquet):
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                      method=Method.EXTENDED, n_floquet=n_floquet)
        # only the extended route uses n_floquet
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.PROPAGATOR, n_floquet=n_floquet)

    @pytest.mark.parametrize("n_steps", [10, 19, MAX_PROPAGATOR_STEPS + 1])
    def test_propagator_n_steps_validation(self, n_steps):
        with pytest.raises(ParameterError, match="n_steps must be between"):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                      method=Method.PROPAGATOR, n_steps=n_steps)
        # only the propagator route uses n_steps
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.EXTENDED, n_steps=n_steps)
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.PROPAGATOR, n_steps=20)

    def test_grid_points_row_major(self):
        spec = SweepSpec(base=_base(),
                         axes=(("gamma", (0.0, 0.1)), ("omega", (1.0, 2.0, 3.0))))
        points = list(spec.grid_points())
        assert len(points) == 6
        assert points[0] == {"gamma": 0.0, "omega": 1.0}
        assert points[1] == {"gamma": 0.0, "omega": 2.0}
        assert points[3] == {"gamma": 0.1, "omega": 1.0}

    def test_kappa_omega_rederives_kappa(self):
        spec = SweepSpec(base=_base(), axes=(("omega", (1.0, 2.0)),),
                         kappa_omega=0.1)
        p = spec.params_at({"omega": 2.0})
        assert p.kappa == pytest.approx(0.05)


class TestRunSweep:
    def test_single_point_matches_standalone(self):
        spec = SweepSpec(base=_base(), axes=(("phi_dim", (0.3,)),),
                         method=Method.STATIC)
        result = run_sweep(spec)
        standalone = compute_spectrum(_base(), Method.STATIC)
        assert len(result.rows) == 10
        assert_allclose([r.re_eps for r in result.rows],
                        standalone.quasi_energies.real, atol=1e-14)
        assert result.failures == ()

    def test_zero_axes_solve_the_base_point(self):
        spec = SweepSpec(base=_base(), axes=(), method=Method.STATIC)
        spectrum = compute_spectrum(_base(), Method.STATIC)
        want = spectrum_rows(spectrum, classify_pt(spectrum), 0)
        assert list(spec.grid_points()) == [{}]
        assert run_sweep(spec).rows == tuple(want)

    def test_rows_ordered_and_complete(self):
        grid = tuple(np.linspace(0, 2 * math.pi, 7))
        spec = SweepSpec(base=_base(), axes=(("phi_dim", grid),),
                         method=Method.STATIC)
        result = run_sweep(spec)
        assert len(result.rows) == 7 * 10
        indices = [r.grid_index for r in result.rows]
        assert indices == sorted(indices)
        modes = [r.mode for r in result.rows[:10]]
        assert modes == list(range(10))

    def test_points_solved_in_grid_order_on_calling_thread(self, monkeypatch):
        import floquet_ssh.sweep as sweep

        calls = []
        solve = sweep.compute_spectrum

        def recording(params, *args, **kwargs):
            calls.append((threading.get_ident(), params.phi_dim))
            return solve(params, *args, **kwargs)

        monkeypatch.setattr(sweep, "compute_spectrum", recording)
        grid = tuple(np.linspace(0, 2 * math.pi, 9))
        spec = SweepSpec(base=_base(), axes=(("phi_dim", grid),),
                         method=Method.STATIC)
        run_sweep(spec)
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        assert [phi for _, phi in calls] == list(grid)

    def test_per_point_failures_recorded(self):
        # gamma != 0 with centered impurity on odd chain fails per point
        base = ModelParams(n_sites=9, tunneling=1.0, lam=0.4, gamma=0.0,
                           impurity_site=5, omega=2.0)
        spec = SweepSpec(base=base, axes=(("gamma", (0.0, 0.2)),),
                         method=Method.STATIC)
        result = run_sweep(spec)
        assert len(result.failures) == 1
        assert result.failures[0].code == "ParameterError"
        assert len(result.rows) == 9  # the gamma=0 point survives

    def test_odd_and_even_chain_lengths_in_one_sweep(self):
        spec = SweepSpec(base=_base(n_sites=6, kappa=0.3, omega=2 * math.pi),
                         axes=(("n_sites", (6, 7, 8, 9)),), n_floquet=2)
        result = run_sweep(spec)
        assert result.failures == ()
        assert len({r.grid_index for r in result.rows}) == 4
        assert len(result.rows) == 6 + 7 + 8 + 9

    def test_fractional_integer_axis_value_fails_the_point(self):
        spec = SweepSpec(base=_base(n_sites=10), axes=(("n_sites", (10.0, 10.5)),),
                         method=Method.STATIC)
        result = run_sweep(spec)
        assert len(result.rows) == 10
        assert {r.grid_index for r in result.rows} == {0}
        (failure,) = result.failures
        assert (failure.grid_index, failure.code) == (1, "ParameterError")
        assert "n_sites must be an integer" in failure.message

    def test_all_points_failed_raises(self):
        base = ModelParams(n_sites=9, tunneling=1.0, lam=0.4, gamma=0.0,
                           impurity_site=5, omega=2.0)
        spec = SweepSpec(base=base, axes=(("gamma", (0.1, 0.2)),),
                         method=Method.STATIC)
        with pytest.raises(SolverError):
            run_sweep(spec)

    def test_extended_sweep_uses_shared_nf(self):
        omega = 8 * math.pi
        base = _base(kappa=0.05 / omega, omega=omega)
        spec = SweepSpec(base=base, axes=(("phi_dim", (0.0, 0.3)),),
                         method=Method.EXTENDED)
        result = run_sweep(spec)
        (nf,) = {r.n_floquet for r in result.rows}
        assert nf >= 2

    def test_auto_nf_sweep_solves_each_point_once(self, monkeypatch):
        import floquet_ssh.floquet as floquet

        solved = []
        solve = floquet.quasi_energies_extended

        def recording(params, n_floquet):
            solved.append((params, n_floquet))
            return solve(params, n_floquet)

        monkeypatch.setattr(floquet, "quasi_energies_extended", recording)
        spec = SweepSpec(
            base=_base(), axes=(("gamma", (0.0, 0.1)), ("omega", (4 * math.pi, 8 * math.pi))),
            method=Method.EXTENDED, kappa_omega=0.05)
        result = run_phase_diagram(spec)
        assert len(result.rows) == 4
        assert len(solved) == len(set(solved))
        (nf,) = {r.n_floquet for r in result.rows}
        grid_solves = {(spec.params_at(point), nf) for point in spec.grid_points()}
        assert grid_solves <= set(solved)


class TestRunPhaseDiagram:
    @pytest.mark.parametrize("method", [Method.EXTENDED, Method.PROPAGATOR])
    def test_phase_row_and_spectrum_rows_share_columns(self, method):
        spec = SweepSpec(base=_base(), axes=(("gamma", (0.1,)), ("omega", (4 * math.pi,))),
                         method=method, kappa_omega=0.05)
        (phase_row,) = run_phase_diagram(spec).rows
        spectrum_rows = run_sweep(spec).rows
        assert len(spectrum_rows) == spec.base.n_sites
        shared = ("grid_index", "phi", "omega", "gamma", "kappa", "phase", "method", "n_floquet")
        for row in spectrum_rows:
            assert [getattr(row, name) for name in shared] == \
                [getattr(phase_row, name) for name in shared]
        assert phase_row.method == method.value
        assert (phase_row.gamma, phase_row.omega) == (0.1, 4 * math.pi)
        assert phase_row.kappa == 0.05 / (4 * math.pi)

    def test_requires_gamma_omega_axes(self):
        spec = SweepSpec(base=_base(), axes=(("phi_dim", (0.3,)),))
        with pytest.raises(ParameterError):
            run_phase_diagram(spec)

    def test_row_per_point_and_gamma_zero_unbroken(self):
        omega_grid = (4 * math.pi, 8 * math.pi)
        spec = SweepSpec(
            base=_base(), axes=(("gamma", (0.0, 0.1)), ("omega", omega_grid)),
            method=Method.EXTENDED, kappa_omega=0.05)
        result = run_phase_diagram(spec)
        assert len(result.rows) == 4
        for row in result.rows:
            if row.gamma == 0.0:
                assert row.phase == "unbroken"
            assert row.kappa == pytest.approx(0.05 / row.omega)

    def test_restoration_at_high_frequency(self):
        # same gamma breaks at low frequency and survives at high frequency
        base = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.3,
                           gamma=0.2, impurity_site=2, omega=2.0)
        spec = SweepSpec(
            base=base,
            axes=(("gamma", (0.2,)), ("omega", (0.2 * math.pi, 45 * math.pi))),
            method=Method.PROPAGATOR, kappa_omega=0.05)
        result = run_phase_diagram(spec)
        phases = {row.omega: row.phase for row in result.rows}
        assert phases[0.2 * math.pi] == "broken"
        assert phases[45 * math.pi] == "unbroken"

