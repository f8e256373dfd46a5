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
    compute_spectrum,
    run_phase_diagram,
    run_sweep,
)


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
            SweepSpec(base=_base(), axes=())

    @pytest.mark.parametrize("field", ["nf_tol", "tol_im"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1e-8])
    def test_tolerance_validation(self, field, value):
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),), **{field: value})

    @pytest.mark.parametrize("n_floquet", [0, -1])
    def test_extended_n_floquet_validation(self, n_floquet):
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                      method=Method.EXTENDED, n_floquet=n_floquet)
        # only the extended route uses n_floquet
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.PROPAGATOR, n_floquet=n_floquet)

    @pytest.mark.parametrize("n_steps", [50, 99])
    def test_propagator_n_steps_validation(self, n_steps):
        with pytest.raises(ParameterError):
            SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                      method=Method.PROPAGATOR, n_steps=n_steps)
        # only the propagator route uses n_steps
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.EXTENDED, n_steps=n_steps)
        SweepSpec(base=_base(), axes=(("gamma", (0.1,)),),
                  method=Method.PROPAGATOR, n_steps=100)

    def test_grid_points_row_major(self):
        spec = SweepSpec(base=_base(),
                         axes=(("gamma", (0.0, 0.1)), ("omega", (1.0, 2.0, 3.0))))
        points = spec.grid_points()
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

