"""Batched shooting on a shared mesh against the scalar adaptive shot."""

import math

import numpy as np
import pytest

from perspec import eigensolve, shooting
from perspec.eigensolve import dispersion, dispersion_batch, scan_and_refine
from perspec.errors import IntegrationError, ValidationError
from perspec.profiles import (OperatorModel, piecewise_linear_profile,
                              sine_profile, tabulated_profile)
from perspec.shooting import (DEFAULT_CONFIG, SolverConfig, boundary_values,
                              compute_phi_at_pi, shared_mesh)
from perspec.singular import default_cutoff

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


def _scalar_dispersion(model, lam, delta, config=DEFAULT_CONFIG):
    """D(lam) and its scale max(1, |phi(pi)| at +-lam) from two scalar shots seeded at ``delta``."""
    plus = compute_phi_at_pi(model, lam, delta, config)
    minus = compute_phi_at_pi(model, -lam, delta, config)
    return plus - minus, max(1.0, abs(plus), abs(minus))


class TestAgreementWithScalarPath:
    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_dispersion(self, kind, eps):
        model = _model(kind, eps)
        mesh = shared_mesh(model, float(np.max(np.abs(LAMS))))
        for lam, got in zip(LAMS, dispersion_batch(model, LAMS, mesh)):
            want, scale = _scalar_dispersion(model, float(lam), mesh.nodes[0])
            assert abs(got - want) <= 1e-8 * scale, (lam, got, want)

    @pytest.mark.parametrize("kind", PROFILES)
    def test_complex_lam_matches_scalar_shots(self, kind):
        # complex lam march as complex columns, not cast to their real parts
        model = _model(kind)
        mesh = shared_mesh(model, 4.0)
        for lam in (0.9 + 0.57j, -2.9 + 0.75j):
            plus, minus = boundary_values(model, mesh, [lam, -lam])
            want, scale = _scalar_dispersion(model, lam, mesh.nodes[0])
            assert abs(plus - minus - want) <= 1e-8 * scale, (lam, plus - minus, want)

    @pytest.mark.parametrize("lams", [np.array([3 + 2j]), [0.5, 1j], 2.0 - 1e-9j])
    def test_dispersion_batch_refuses_non_real_lam(self, sine_model, lams):
        mesh = shared_mesh(sine_model, 4.0)
        with pytest.raises(ValidationError, match="real lam"):
            dispersion_batch(sine_model, lams, mesh)

    @pytest.mark.parametrize("kind", PROFILES)
    def test_exact_symmetries_for_real_lam(self, kind):
        model = _model(kind)
        mesh = shared_mesh(model, float(np.max(np.abs(LAMS))))
        plus = dispersion_batch(model, LAMS, mesh)
        minus = dispersion_batch(model, -LAMS, mesh)
        for a, b in zip(plus, minus):
            assert b == -a
            assert a.real == 0.0


def _mesh_spy(monkeypatch):
    """(lams, mesh) of every ``eigensolve.shared_mesh`` call from here on."""
    calls = []

    def spy(model, lams, *args):
        calls.append((lams, shared_mesh(model, lams, *args)))
        return calls[-1][1]

    monkeypatch.setattr(eigensolve, "shared_mesh", spy)
    return calls


class TestSharedMesh:
    @pytest.mark.parametrize("kind", PROFILES)
    def test_phi_at_pi_is_the_layout_march(self, kind):
        # phi(pi) at the lam, at the largest |lam|'s cutoff, and its
        # conjugate at their negatives; a float is the one-element set, bit
        # for bit
        model = _model(kind)
        mesh = shared_mesh(model, 6.0)
        assert np.array_equal(mesh.phi_at_pi, boundary_values(model, mesh, [6.0]))
        assert np.array_equal(np.conj(mesh.phi_at_pi), boundary_values(model, mesh, [-6.0]))
        listed = shared_mesh(model, [6.0])
        for field in ("nodes", "coeffs", "phi_at_pi"):
            assert np.array_equal(getattr(listed, field), getattr(mesh, field)), field
        assert (listed.lam_max, listed.rounds) == (mesh.lam_max, mesh.rounds)
        lams = np.array([3.3, 0.5, 6.0])
        mesh = shared_mesh(model, lams)
        assert mesh.lam_max == 6.0 and mesh.nodes[0] == default_cutoff(6.0)
        assert np.array_equal(mesh.phi_at_pi, boundary_values(model, mesh, lams))
        assert np.array_equal(np.conj(mesh.phi_at_pi), boundary_values(model, mesh, -lams))

    @pytest.mark.parametrize("lams", [3 + 2j, np.array([3 + 2j]), [0.5, 1j]])
    def test_non_real_lam_is_refused(self, sine_model, lams):
        # the mesh serves -lam by the conjugation symmetry, which holds for
        # real lam only
        with pytest.raises(ValidationError, match="real lam"):
            shared_mesh(sine_model, lams)

    @pytest.mark.parametrize("kind", PROFILES)
    def test_dispersion_is_a_remarch(self, kind):
        # dispersion reads the march that laid its mesh out; marching the
        # column lam again on that mesh gives the same bits, and -lam is read
        # as its conjugate
        model = _model(kind)
        for lam in (0.0, 0.5, -1.2398388, 3.3, -6.33):
            got = dispersion(model, lam)
            plus, = boundary_values(model, shared_mesh(model, abs(lam)), [lam])
            minus = np.conj(plus)
            assert (got.phi_plus, got.phi_minus, got.D) == (plus, minus, plus - minus), lam

    def test_roots_are_certified_on_one_mesh(self, sine_model, monkeypatch):
        # one mesh serves the scan grid; the positive roots are then certified
        # on one mesh laid out for their own columns, -lam read as the
        # conjugate of lam, the residuals of the negative roots are those of
        # their mirrors, and 0's is exact
        calls = _mesh_spy(monkeypatch)
        eigs = scan_and_refine(sine_model, 8.0, 0.05)
        assert len(eigs.eigenvalues) == 7
        pos = eigs.positive()
        (top, scan), (roots, certified) = calls
        assert top == pytest.approx(8.0) and roots == pos.tolist()
        assert not np.array_equal(certified.nodes, scan.nodes)
        plus = boundary_values(sine_model, certified, pos)
        minus = np.conj(plus)
        want = np.abs(plus - minus)
        assert eigs.residuals.tolist() == want[::-1].tolist() + [0.0] + want.tolist()
        rel = want / np.maximum(1.0, np.maximum(np.abs(plus), np.abs(minus)))
        assert eigs.relative_residuals.tolist() == rel[::-1].tolist() + [0.0] + rel.tolist()
        for lam, got in zip(pos, plus - minus):
            ref, scale = _scalar_dispersion(sine_model, lam, certified.nodes[0])
            assert abs(got - ref) <= 1e-8 * scale, (lam, got, ref)

    def test_no_root_builds_no_certifying_mesh(self, sine_model, monkeypatch):
        # the grid up to 1 brackets no root, and 0 needs no march
        calls = _mesh_spy(monkeypatch)
        eigs = scan_and_refine(sine_model, 1.0, 0.05)
        assert eigs.eigenvalues.tolist() == [0.0]
        assert eigs.residuals.tolist() == [0.0] and eigs.relative_residuals.tolist() == [0.0]
        assert [lams for lams, _ in calls] == [pytest.approx(1.0)]


class TestSolverConfigKnobs:
    def test_tolerances(self, sine_model):
        cfg = SolverConfig(rtol=1e-8, atol=1e-10)
        mesh = shared_mesh(sine_model, 6.0, cfg)
        delta = default_cutoff(6.0)
        assert mesh.nodes[0] == delta and mesh.nodes[-1] == PI - delta
        assert len(mesh.nodes) < len(shared_mesh(sine_model, 6.0).nodes)
        lams = [0.7, 2.9, 6.0]
        for lam, got in zip(lams, dispersion_batch(sine_model, lams, mesh)):
            want, scale = _scalar_dispersion(sine_model, lam, delta, cfg)
            assert abs(got - want) <= 1e-6 * scale

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
        # the scan mesh's layout, the proxy's marches (one at degree 32, one
        # more per doubling), refinement and the certifying mesh's layout; no
        # grid point of this scan lies within the proxy's tail bound, so none
        # is marched on D
        assert d["proxy_degree"] == eigensolve.PROXY_DEGREE
        proxy_marches = round(math.log2(d["proxy_degree"] / eigensolve.PROXY_DEGREE)) + 1
        certified = shared_mesh(scan_8.model, scan_8.positive().tolist())
        assert d["batched_marches"] == (d["mesh_rounds"] + proxy_marches
                                        + max(d["refine_iterations"]) + certified.rounds)

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

    def test_roots_are_certified(self, scan_8):
        assert np.max(scan_8.relative_residuals) < 1e-8


def _march_spy(monkeypatch):
    """The kappa of every call to ``shooting._march`` from here on, one array per call."""
    kappas = []
    march = shooting._march

    def spy(coeffs, kappa, *args):
        kappas.append(np.asarray(kappa))
        return march(coeffs, kappa, *args)

    monkeypatch.setattr(shooting, "_march", spy)
    return kappas


class TestConjugationRule:
    def test_scan_marches_no_column_beside_its_conjugate(self, sine_model, monkeypatch):
        # lam -> -conj lam maps kappa to conj kappa; no march carries a
        # column with its conjugate or its repeat.  The scan marches the 16
        # positive Chebyshev points of degree 32 on [-8, 8] and no march as
        # wide as its grid, and a grid ten times finer marches the same
        # scan mesh and proxy columns
        scans = []
        for resolution in (0.05, 0.005):
            kappas = _march_spy(monkeypatch)
            eigs = scan_and_refine(sine_model, 8.0, resolution)
            assert len(eigs.eigenvalues) == 7
            for kappa in kappas:
                twins = (kappa[:, None] == kappa) | (kappa[:, None] == np.conj(kappa))
                np.fill_diagonal(twins, False)
                assert not np.any(twins)
            grid = np.arange(resolution, 8.0 + resolution / 2, resolution)
            assert max(len(kappa) for kappa in kappas) < len(grid)
            proxy = kappas[eigs.mesh_rounds]
            want = -1j * (8.0 * np.cos(np.pi / 32 * np.arange(16))).astype(complex)
            assert np.array_equal(proxy, want / sine_model.epsilon)
            scans.append(kappas[:eigs.mesh_rounds + 1])
        assert all(np.array_equal(a, b) for a, b in zip(*scans))
        assert len(scans[0]) == len(scans[1])

    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_negated_real_lam_marches_to_the_conjugate(self, kind, eps, monkeypatch):
        # marched as its own column beside lam, -lam comes out as the
        # conjugate of lam's column bit for bit: every array and fit value
        # of the pairs, and phi(pi) on a shared mesh
        model = _model(kind, eps)
        lam = 2.3
        kappas = _march_spy(monkeypatch)
        pairs = shooting.solution_pairs(model, lam, np.linspace(0.2, 3.0, 9))
        assert kappas and all(len(kappa) == 2 and kappa[1] == np.conj(kappa[0])
                              for kappa in kappas)
        for field in ("phi", "phi_qd", "psi", "psi_qd", "phi_at_pi", "psi_at_pi",
                      "psi_at_origin", "wronskian"):
            values = getattr(pairs, field)
            assert np.array_equal(values[..., 1], np.conj(values[..., 0])), field
        plus, minus = boundary_values(model, shared_mesh(model, 3.0), [lam, -lam])
        assert minus == np.conj(plus)
