"""Batched shooting on a shared mesh against the scalar adaptive path."""

import math

import numpy as np
import pytest

from perspec import eigensolve, shooting
from perspec.eigensolve import dispersion, dispersion_batch, scan_and_refine
from perspec.errors import IntegrationError
from perspec.profiles import (OperatorModel, piecewise_linear_profile,
                              sine_profile, tabulated_profile)
from perspec.shooting import SolverConfig, shared_mesh

PI = math.pi


def _tabulated():
    x = np.linspace(0.0, PI, 41)
    return tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


PROFILES = {"sine": sine_profile, "piecewise-linear": piecewise_linear_profile,
            "tabulated": _tabulated}

# 20 lam of both signs, none at an eigenvalue of the sine profile at eps = 1
LAMS = np.linspace(0.3, 6.0, 20) * np.where(np.arange(20) % 2, -1.0, 1.0)


def _model(kind, eps=1.0):
    return OperatorModel(profile=PROFILES[kind](), epsilon=eps)


class TestAgreementWithScalarPath:
    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_dispersion(self, kind, eps):
        model = _model(kind, eps)
        mesh = shared_mesh(model, float(np.max(np.abs(LAMS))))
        at_mesh_cutoff = SolverConfig(delta=float(mesh.nodes[0]))
        for lam, got in zip(LAMS, dispersion_batch(model, LAMS, mesh)):
            want = dispersion(model, float(lam), at_mesh_cutoff)
            assert abs(got - want.D) <= 1e-8 * want.scale, (lam, got, want.D)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", PROFILES)
    def test_complex_lam_matches_scalar_dispersion(self, kind):
        # complex lam march as complex columns, not cast to their real parts
        model = _model(kind)
        lams = [0.9 + 0.57j, -2.9 + 0.75j]
        mesh = shared_mesh(model, 4.0)
        at_mesh_cutoff = SolverConfig(delta=float(mesh.nodes[0]))
        for lam, got in zip(lams, dispersion_batch(model, lams, mesh)):
            want = dispersion(model, lam, at_mesh_cutoff)
            assert want.lam == lam.real
            assert abs(got - want.D) <= 1e-8 * want.scale, (lam, got, want.D)

    @pytest.mark.parametrize("kind", PROFILES)
    def test_exact_symmetries_for_real_lam(self, kind):
        model = _model(kind)
        mesh = shared_mesh(model, float(np.max(np.abs(LAMS))))
        plus = dispersion_batch(model, LAMS, mesh)
        minus = dispersion_batch(model, -LAMS, mesh)
        for a, b in zip(plus, minus):
            assert b == -a
            assert a.real == 0.0


class TestSharedMesh:
    def test_scalar_shots_only_certify(self, sine_model, monkeypatch):
        # the mesh is laid out by marches: the scalar stepper runs only in the
        # certifying dispersion, one shot at lam and one at -lam per
        # non-negative eigenvalue, since D(-lam) = -D(lam) from the same shots
        calls = []
        stepper = shooting.integrate_quasi_system

        def counted(*args):
            calls.append(args[4].real)        # lam
            return stepper(*args)

        monkeypatch.setattr(shooting, "integrate_quasi_system", counted)
        eigs = scan_and_refine(sine_model, 8.0, 0.05)
        assert len(eigs.eigenvalues) == 7
        assert len(calls) == 8
        nonneg = eigs.eigenvalues[eigs.eigenvalues >= 0.0]
        assert sorted(calls) == sorted(np.concatenate([nonneg, -nonneg]))


class TestSolverConfigKnobs:
    def test_delta_and_tolerances(self, sine_model):
        cfg = SolverConfig(delta=1e-4, rtol=1e-8, atol=1e-10)
        mesh = shared_mesh(sine_model, 6.0, cfg)
        assert mesh.nodes[0] == 1e-4 and mesh.nodes[-1] == PI - 1e-4
        assert len(mesh.nodes) < len(shared_mesh(sine_model, 6.0).nodes)
        lams = [0.7, 2.9, 6.0]
        for lam, got in zip(lams, dispersion_batch(sine_model, lams, mesh)):
            want = dispersion(sine_model, lam, cfg)
            assert abs(got - want.D) <= 1e-6 * want.scale

    def test_step_budget_skips_what_the_mesh_cannot_serve(self, sine_model, reference_eigs,
                                                           monkeypatch):
        monkeypatch.setattr(shooting, "MAX_STEPS", 500)
        eigs = scan_and_refine(sine_model, 8.0, 0.25)
        grid = np.arange(0.25, 8.0 + 0.125, 0.25)
        skipped = [s["lam"] for s in eigs.skipped]
        assert skipped and skipped == grid[len(grid) - len(skipped):].tolist()
        assert all("step budget" in s["reason"] for s in eigs.skipped)
        # the line on the grid is the one the mesh's node budget draws
        with pytest.raises(IntegrationError):
            shared_mesh(sine_model, skipped[0])
        shared_mesh(sine_model, skipped[0] - 0.25)
        below = reference_eigs[reference_eigs < skipped[0] - 0.25]
        assert len(eigs.positive()) >= 1
        np.testing.assert_allclose(eigs.positive(), below, atol=1e-5)


class TestRefinement:
    def test_counters(self, scan_8):
        d = scan_8.as_dict()
        assert d["mesh_nodes"] > 100
        assert d["mesh_rounds"] >= 2
        assert len(d["refine_iterations"]) == len(scan_8.positive())
        assert all(1 <= n <= 12 for n in d["refine_iterations"])
        assert d["batched_marches"] >= 3 + max(d["refine_iterations"])

    def test_iterate_on_the_root_closes_the_bracket(self, monkeypatch):
        # D = i*(e^lam - 20): the Illinois iterates land on log 20 from
        # below, and the far end must not then creep in by halvings
        def fake(model, lams, mesh):
            return np.array([1j * (math.exp(lam) - 20.0) for lam in lams])

        monkeypatch.setattr(eigensolve, "dispersion_batch", fake)
        roots, iters, marches = eigensolve._refine(
            None, None, [(2.0, 4.0, math.exp(2.0) - 20.0, math.exp(4.0) - 20.0)])
        assert iters[0] <= 10 and marches == iters[0]
        assert abs(roots[0] - math.log(20.0)) <= 1e-10 * (1.0 + 4.0)

    def test_roots_are_scalar_certified(self, scan_8):
        assert np.max(scan_8.relative_residuals) < 1e-8
