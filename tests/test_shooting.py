import math
from dataclasses import replace

import numpy as np
import pytest

import perspec as ps
from perspec import shooting
from perspec.errors import (EigenvalueProximityError, GridMismatchError,
                            IntegrationError, SolverError)
from perspec.shooting import (SolutionTrace, SolverConfig, compute_phi_at_pi,
                              extrapolate_endpoint, integrate_phi,
                              integrate_psi_normalized, mirror_audit,
                              wronskian_deviation)

PI = math.pi


class TestIntegratePhi:
    def test_lambda_zero_is_constant(self, sine_model):
        tr = integrate_phi(sine_model, 0.0)
        assert np.max(np.abs(tr.values - 1.0)) == 0.0
        assert np.max(np.abs(tr.quasi_derivatives)) == 0.0
        assert tr.branch == "phi"
        assert np.all(np.diff(tr.grid) > 0)

    def test_reintegration_residual_against_tighter_tolerance(self, sine_model):
        nodes = np.linspace(0.3, PI - 0.3, 17)
        loose = integrate_phi(sine_model, 1.0, SolverConfig(),
                              output_nodes=nodes, record_steps=False)
        tight = integrate_phi(sine_model, 1.0,
                              SolverConfig(rtol=1e-11, atol=1e-13),
                              output_nodes=nodes, record_steps=False)
        sel = np.searchsorted(loose.grid, nodes)
        diff = np.max(np.abs(loose.values[sel] - tight.values[np.searchsorted(tight.grid, nodes)]))
        assert diff < 1e-8

    def test_tolerance_halving_changes_endpoint_mildly(self, sine_model):
        a = compute_phi_at_pi(sine_model, 1.0, SolverConfig(rtol=1e-10, atol=1e-12))
        b = compute_phi_at_pi(sine_model, 1.0, SolverConfig(rtol=5e-11, atol=5e-13))
        assert abs(a - b) < 10 * 1e-10 * max(1.0, abs(a))

    def test_kinks_are_grid_nodes(self, tent_model):
        tr = integrate_phi(tent_model, 1.5)
        assert np.min(np.abs(tr.grid - PI / 2)) == 0.0

    def test_step_budget_failure_reports_reach(self, sine_model):
        with pytest.raises(IntegrationError) as exc:
            integrate_phi(sine_model, 1.0, SolverConfig(max_steps=40))
        assert exc.value.x_reached is not None
        assert 0.0 < exc.value.x_reached < PI

    def test_lookup_reads_nodes_and_refuses_others(self, sine_model):
        nodes = np.linspace(0.3, PI - 0.3, 17)
        tr = integrate_phi(sine_model, 1.0, output_nodes=nodes, record_steps=False)
        sel = np.searchsorted(tr.grid, nodes)
        for query in (nodes, nodes - 1e-13, nodes + 1e-13):
            vals, qds = tr.lookup(query)
            assert np.array_equal(vals, tr.values[sel])
            assert np.array_equal(qds, tr.quasi_derivatives[sel])
        with pytest.raises(GridMismatchError):
            tr.lookup([nodes[3], 0.5 * (nodes[3] + nodes[4])])

    def test_trace_is_readonly(self, sine_model):
        tr = integrate_phi(sine_model, 1.0)
        with pytest.raises(ValueError):
            tr.values[0] = 0.0


class TestConjugationSymmetry:
    def test_trace_at_negated_lambda_is_conjugate(self, sine_model):
        # for real lam the whole construction mirrors bit for bit
        nodes = np.linspace(0.2, 3.0, 9)
        up = integrate_phi(sine_model, 2.3, output_nodes=nodes, record_steps=False)
        dn = integrate_phi(sine_model, -2.3, output_nodes=nodes, record_steps=False)
        assert np.array_equal(dn.values, np.conj(up.values))
        assert np.array_equal(dn.quasi_derivatives, np.conj(up.quasi_derivatives))

    def test_boundary_value_conjugate(self, sine_model):
        a = compute_phi_at_pi(sine_model, 4.1)
        b = compute_phi_at_pi(sine_model, -4.1)
        assert b == np.conj(a)

    def test_phi_at_pi_real_on_imaginary_axis(self, sine_model):
        # lam = i tau is fixed by the conjugation map, so phi is real there
        val = compute_phi_at_pi(sine_model, 1j)
        assert abs(val.imag) < 1e-9 * abs(val)


class TestEndpointExtrapolation:
    def test_constant_trace_recovers_a_one(self, sine_model):
        tr = integrate_phi(sine_model, 0.0)
        end = extrapolate_endpoint(tr, sine_model, "plus-pi")
        assert end.regular_part == pytest.approx(1.0, abs=1e-14)
        assert abs(end.singular_part) < 1e-14

    def test_synthetic_singular_branch(self, sine_model):
        # u = (pi - x)^sigma solves the local model at lam = 0 exactly
        sigma = sine_model.sigma
        grid = np.array([PI - 4e-4, PI - 2e-4, PI - 1e-4])
        vals = (PI - grid) ** sigma + 0j
        tr = SolutionTrace(lam=0.0, grid=grid, values=vals,
                           quasi_derivatives=np.zeros(3, complex), branch="phi",
                           delta=1e-4, meta={})
        end = extrapolate_endpoint(tr, sine_model, "plus-pi")
        assert abs(end.regular_part) < 1e-10
        assert end.singular_part == pytest.approx(1.0, abs=1e-10)

    def test_stability_under_cutoff_halving(self, sine_model):
        a = compute_phi_at_pi(sine_model, 1.0, SolverConfig(delta=1e-4))
        b = compute_phi_at_pi(sine_model, 1.0, SolverConfig(delta=5e-5))
        assert abs(a - b) < 1e-6

    def test_ill_conditioned_fit_detected(self, sine_model):
        grid = np.array([PI - 1e-4 - 2e-13, PI - 1e-4 - 1e-13, PI - 1e-4])
        tr = SolutionTrace(lam=1.0, grid=grid, values=np.ones(3, complex),
                           quasi_derivatives=np.zeros(3, complex), branch="phi",
                           delta=1e-4, meta={})
        with pytest.raises(SolverError):
            extrapolate_endpoint(tr, sine_model, "plus-pi")


class TestPsi:
    def test_wronskian_constant_along_grid(self, sine_model):
        phi = integrate_phi(sine_model, 1.0, record_steps=True)
        psi = integrate_psi_normalized(sine_model, 1.0, phi)
        w = psi.meta["wronskian"]
        assert abs(w.value - 1.0) < 1e-15
        assert w.max_deviation < 1e-6
        again = wronskian_deviation(phi, psi)
        assert again.max_deviation < 1e-6

    def test_wronskian_sweep_at_several_lambdas(self, sine_model):
        for lam in (0.4, 2.0, 5.0, 8.3, 12.7, -0.4, -5.0):
            phi = integrate_phi(sine_model, lam, record_steps=True)
            psi = integrate_psi_normalized(sine_model, lam, phi)
            assert psi.meta["wronskian"].max_deviation < 1e-6

    def test_blowup_rate_at_origin(self, sine_model):
        phi = integrate_phi(sine_model, 1.0, record_steps=True)
        psi = integrate_psi_normalized(sine_model, 1.0, phi)
        assert psi.meta["origin_loglog_slope"] == pytest.approx(-sine_model.sigma, abs=1e-2)

    def test_vanishing_rate_at_pi(self, sine_model):
        phi = integrate_phi(sine_model, 1.0, record_steps=True)
        psi = integrate_psi_normalized(sine_model, 1.0, phi)
        g, v = psi.grid, np.abs(psi.values)
        sel = (g > PI - 0.02) & (g < PI - 1e-5)
        slope = np.polyfit(np.log(PI - g[sel]), np.log(v[sel]), 1)[0]
        assert slope == pytest.approx(sine_model.sigma, abs=1e-2)

    def test_regular_part_vanishes_at_pi(self, sine_model):
        phi = integrate_phi(sine_model, 1.0, record_steps=True)
        psi = integrate_psi_normalized(sine_model, 1.0, phi)
        end = extrapolate_endpoint(psi, sine_model, "plus-pi")
        scale = max(1.0, float(np.max(np.abs(psi.values))))
        assert abs(end.regular_part) / scale < 1e-8

    def test_wronskian_healthy_even_at_periodic_eigenvalues(self, sine_model,
                                                            reference_eigs):
        # the construction degenerates at eigenvalues through the
        # periodicity denominator, not through the Wronskian: psi
        # normalization must still succeed right on top of a root
        lam = float(reference_eigs[0])
        phi = integrate_phi(sine_model, lam, record_steps=True)
        psi = integrate_psi_normalized(sine_model, lam, phi)
        assert abs(psi.meta["prenorm_scale"]) < 1.0   # |W0| well above 1

    def test_collapsed_wronskian_guard_fires(self, sine_model, monkeypatch):
        phi = integrate_phi(sine_model, 2.0, record_steps=True)
        monkeypatch.setattr(shooting, "WRONSKIAN_FLOOR", 1e6)
        with pytest.raises(EigenvalueProximityError):
            integrate_psi_normalized(sine_model, 2.0, phi)


class TestMirrorAudit:
    @pytest.mark.parametrize("lam", [0.7, 2.0, 5.5])
    def test_direct_negative_side_matches_reflection(self, sine_model, lam):
        audit = mirror_audit(sine_model, lam)
        assert audit["max_relative_deviation"] < 1e-6

    def test_tent_model_audit(self, tent_model):
        audit = mirror_audit(tent_model, 1.3)
        assert audit["max_relative_deviation"] < 1e-6
