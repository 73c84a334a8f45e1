import math

import numpy as np
import pytest

import perspec as ps
from perspec import shooting
from perspec.cli import EXIT_OK, run_subcommand
from perspec.errors import (EigenvalueProximityError, GridMismatchError,
                            ValidationError)
from perspec.green import (apply_resolvent, assemble_kernel,
                           bandlimited_forcing, bound_product_audit, flux,
                           graded_full_grid, GridFunction, integral_proxies,
                           kernel_matrix, manufactured_pair, resolvent_residual)
from perspec.profiles import eval_f

PI = math.pi


def cos_forcing(kernel):
    return GridFunction(nodes=kernel.nodes, values=np.cos(kernel.nodes) + 0.1 + 0j)


def l2_relative_error(weights, got, want):
    return float(np.sqrt(np.sum(weights * np.abs(got - want) ** 2)
                         / np.sum(weights * np.abs(want) ** 2)))


class TestGrid:
    def test_graded_grid_structure(self):
        x, w = graded_full_grid(128)
        assert len(x) == 129
        assert x[0] == -PI and x[-1] == PI and x[64] == 0.0
        np.testing.assert_allclose(x, -x[::-1], atol=0)
        assert np.all(np.diff(x) > 0)
        assert np.sum(w) == pytest.approx(2 * PI, rel=1e-12)
        # quadratic clustering: near-end spacing much finer than the middle
        assert (x[1] - x[0]) < 0.02 * np.max(np.diff(x))

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            graded_full_grid(62)
        with pytest.raises(ValidationError):
            graded_full_grid(129)


class TestKernelStructure:
    def test_part_supports(self, kernel_256):
        k = kernel_256
        x = k.nodes
        nz_i = np.abs(kernel_matrix(k, "I")) > 0
        ii, jj = np.nonzero(nz_i)
        assert np.all(np.abs(x[ii]) >= np.abs(x[jj]) - 1e-15)
        assert np.all(x[ii] * x[jj] >= 0)
        nz_ii = np.abs(kernel_matrix(k, "II")) > 0
        ii2, jj2 = np.nonzero(nz_ii)
        assert np.all(x[ii2] <= x[jj2] + 1e-15)

    def test_part_i_vanishes_when_s_dominates(self, kernel_256):
        # sample point with |x| < |s|
        k = kernel_256
        i = np.argmin(np.abs(k.nodes - 0.1))
        j = np.argmin(np.abs(k.nodes - 0.5))
        assert kernel_matrix(k, "I")[i, j] == 0.0

    def test_sup_norm_reported(self, kernel_256):
        assert 0.1 < kernel_256.sup_norm < 10.0
        # taken block by block, it is the max of the dense kernel bit for bit
        assert kernel_256.sup_norm == float(np.max(np.abs(kernel_matrix(kernel_256))))

    def test_eigenvalue_proximity_detected(self, sine_model, scan_8):
        lam1 = float(scan_8.positive()[0])        # refined to ~1e-10 width
        with pytest.raises(EigenvalueProximityError, match="denominator"):
            assemble_kernel(sine_model, lam1, 128)

    def test_wronskian_deviation_recorded(self, kernel_256):
        assert kernel_256.meta["wronskian_deviation"] < 1e-6

    def test_mesh_counters_recorded(self, sine_model, kernel_256):
        again = assemble_kernel(sine_model, 1j, 256)
        assert kernel_256.meta["mesh_nodes"] == again.meta["mesh_nodes"] > 256 // 2
        assert kernel_256.meta["mesh_rounds"] == again.meta["mesh_rounds"] >= 1


class TestNoScalarShots:
    # every command lays out its meshes and certifies its roots without the
    # adaptive scalar stepper, which the tests keep as a reference
    @pytest.fixture(autouse=True)
    def refuse_shots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive scalar shot")

        monkeypatch.setattr(shooting, "integrate_quasi_system", refuse)

    def test_assemble_kernel(self, sine_model):
        assert assemble_kernel(sine_model, 0.9 + 0.57j, 256).meta["mesh_rounds"] >= 1

    def test_dyadic_bound_audit(self, sine_model):
        assert ps.dyadic_bound_audit(sine_model, 0.7 + 1j, 3).alpha_hat[0] > 0.0

    def test_eigenfunction(self, sine_model, scan_8):
        tr = ps.eigenfunction(sine_model, float(scan_8.positive()[0]))
        assert np.max(np.abs(tr.values)) == 1.0

    @pytest.mark.parametrize("argv", [
        ["validate"], ["eigs", "--lmax", "4", "--resolution", "0.1"],
        ["trace", "--kind", "phi"], ["trace", "--kind", "psi"], ["trace", "--kind", "logp"],
        ["resolve", "--grid", "128"], ["kernel", "--grid", "64"],
        ["schatten", "--grid", "64", "--levels", "1", "--lmax", "2", "--resolution", "0.1"]],
        ids=["validate", "eigs", "trace-phi", "trace-psi", "trace-logp", "resolve", "kernel",
             "schatten"])
    def test_subcommand(self, tmp_path, argv):
        assert run_subcommand([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_schatten_with_eigs_file(self, tmp_path):
        eigs = tmp_path / "eigs.json"
        eigs.write_text('{"results": {"eigenvalues": [-1.239839, 0.0, 1.239839]}}')
        assert run_subcommand(["schatten", "--grid", "64", "--levels", "1", "--eigs-file",
                               str(eigs), "--out", str(tmp_path / "sv.json")]) == EXIT_OK


class TestResolvent:
    def test_zero_forcing_gives_zero(self, kernel_256):
        F = GridFunction(nodes=kernel_256.nodes,
                         values=np.zeros_like(kernel_256.nodes, dtype=complex))
        u = apply_resolvent(kernel_256, F)
        assert np.max(np.abs(u.values)) == 0.0

    def test_manufactured_solution_recovery(self, sine_model, kernel_256):
        u_star, F = manufactured_pair(sine_model, 1j, kernel_256.nodes)
        u = apply_resolvent(kernel_256, F)
        err = l2_relative_error(kernel_256.weights, u.values, u_star.values)
        assert err < 1e-3

    def test_recovery_improves_with_grid(self, sine_model, kernel_256, kernel_512):
        errs = []
        for k in (kernel_256, kernel_512):
            u_star, F = manufactured_pair(sine_model, 1j, k.nodes)
            u = apply_resolvent(k, F)
            errs.append(l2_relative_error(k.weights, u.values, u_star.values))
        assert errs[1] < 0.5 * errs[0]

    def test_periodicity_for_random_forcings(self, sine_model, kernel_256, kernel_512):
        # the equation's residual: 5.1e-4 to 8.1e-4 on 256 nodes, falling by
        # 0.20-0.25 on 512.  It cannot see part III (phi times a constant), so
        # u(-pi) = u(pi) is checked too: within 3.9e-16 of max |u|, against
        # 1.2e-3 to 9.6e-3 with part III off by 1 %
        for seed in range(10):
            res = []
            for k in (kernel_256, kernel_512):
                F = bandlimited_forcing(k, seed=seed)
                u = apply_resolvent(k, F).values
                assert abs(u[-1] - u[0]) <= 1e-12 * np.max(np.abs(u))
                res.append(resolvent_residual(sine_model, 1j, GridFunction(k.nodes, u), F))
            assert res[0] < 2e-3
            assert res[1] < 0.5 * res[0]

    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize("eps", [0.3, 0.45, 1.0, 2.0])
    @pytest.mark.parametrize("profile", [ps.sine_profile, ps.piecewise_linear_profile])
    def test_running_sums_match_dense_kernel(self, profile, eps, grid):
        # each running sum starts at the end where its integral is zero; part I
        # taken as a difference of two sums from -pi is off by up to 0.3 of
        # max |u| at eps = 0.3, while a dense column (one unit forcing) is not
        model = ps.OperatorModel(profile=profile(), epsilon=eps)
        k = assemble_kernel(model, 0.7 + 1j, grid)
        _, F = manufactured_pair(model, 0.7 + 1j, k.nodes)
        u = apply_resolvent(k, F)
        dense = kernel_matrix(k) @ (k.weights * F.values)
        # relative to max |u|: u itself has zeros, where no digit is relative
        assert np.max(np.abs(u.values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_grid_mismatch_rejected(self, kernel_256):
        F = GridFunction(nodes=kernel_256.nodes[:-1],
                         values=np.zeros(len(kernel_256.nodes) - 1, complex))
        for apply in (apply_resolvent, flux):
            with pytest.raises(GridMismatchError):
                apply(kernel_256, F)


class TestResidual:
    def test_manufactured_residual(self, sine_model, kernel_256):
        u_star, F = manufactured_pair(sine_model, 1j, kernel_256.nodes)
        u = apply_resolvent(kernel_256, F)
        assert resolvent_residual(sine_model, 1j, u, F) < 1e-2

    def test_constant_in_kernel_of_operator(self, sine_model):
        x, _ = graded_full_grid(256)
        u = GridFunction(nodes=x, values=np.ones_like(x, dtype=complex))
        F = GridFunction(nodes=x, values=np.zeros_like(x, dtype=complex))
        assert resolvent_residual(sine_model, 0.0, u, F) == 0.0

    def test_residual_decreases_under_refinement(self, sine_model, kernel_256, kernel_512):
        res = []
        for k in (kernel_256, kernel_512):
            u_star, F = manufactured_pair(sine_model, 1j, k.nodes)
            u = apply_resolvent(k, F)
            res.append(resolvent_residual(sine_model, 1j, u, F))
        assert res[1] < res[0]

    def test_grid_mismatch_rejected(self, sine_model):
        x, _ = graded_full_grid(256)
        u = GridFunction(nodes=x, values=np.ones_like(x, dtype=complex))
        F = GridFunction(nodes=x + 1e-9, values=np.zeros_like(x, dtype=complex))
        with pytest.raises(GridMismatchError):
            resolvent_residual(sine_model, 1j, u, F)

    def test_coarse_grid_rejected(self, sine_model):
        x = np.linspace(-PI, PI, 33)
        u = GridFunction(nodes=x, values=np.ones_like(x, dtype=complex))
        F = GridFunction(nodes=x, values=np.zeros_like(x, dtype=complex))
        with pytest.raises(ValidationError):
            resolvent_residual(sine_model, 1j, u, F)


class TestBoundAudits:
    def test_kernel_bound_refinement_stable(self, kernel_256, kernel_512):
        assert abs(kernel_256.sup_norm / kernel_512.sup_norm - 1.0) < 0.05

    def test_product_bound_refinement_stable(self, kernel_256, kernel_512):
        b1 = bound_product_audit(kernel_256)
        b2 = bound_product_audit(kernel_512)
        assert np.isfinite(b1) and np.isfinite(b2)
        assert abs(b1 / b2 - 1.0) < 0.05

    def test_integral_proxies_uniformly_bounded(self, kernel_256):
        # the weighted first/second integral terms stay bounded over many
        # forcings; 5.0 is a frozen desk-scale cap (measured max ~0.2)
        for seed in range(20):
            F = bandlimited_forcing(kernel_256, seed=100 + seed)
            first, second = integral_proxies(kernel_256, F)
            assert np.max(first) < 5.0
            assert np.max(second) < 5.0


class TestFlux:
    def test_flux_continuity_across_origin(self, kernel_512):
        fu = flux(kernel_512, cos_forcing(kernel_512)).values
        i0 = len(fu) // 2
        left, right = fu[i0 - 1], fu[i0 + 1]        # 8.3e-6 each
        assert abs(left) < 1e-4 and abs(right) < 1e-4
        assert abs(left - right) < 1e-4
        assert np.all(np.isnan(fu[[0, i0, -1]]))
        assert np.all(np.isfinite(np.delete(fu, [0, i0, -1])))

    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("profile", [ps.sine_profile, ps.piecewise_linear_profile])
    def test_flux_is_f_times_the_slope_of_u(self, profile, eps):
        # against f times the centered difference of u on |x| in [0.3, pi - 0.3],
        # off the tent's kink: 2.3e-4 to 1.0e-3 at 512 nodes, 4x less at 1024
        model = ps.OperatorModel(profile=profile(), epsilon=eps)
        errs = []
        for grid in (512, 1024):
            k = assemble_kernel(model, 1j, grid)
            F = cos_forcing(k)
            u = apply_resolvent(k, F).values
            x = k.nodes[1:-1]
            slope = eval_f(model.profile, x) * (u[2:] - u[:-2]) / (k.nodes[2:] - k.nodes[:-2])
            keep = (np.abs(x) >= 0.3) & (np.abs(x) <= PI - 0.3)
            for kink in model.profile.kinks:
                keep &= np.abs(np.abs(x) - kink) > 0.05
            got = flux(k, F).values[1:-1]
            errs.append(np.max(np.abs(got - slope)[keep]) / np.max(np.abs(slope[keep])))
        assert errs[0] < 2e-3
        assert errs[1] < errs[0] / 3.0


class TestOtherRegimes:
    @pytest.mark.parametrize("eps", [0.45, 2.0])
    def test_recovery_across_exponent_regimes(self, eps):
        model = ps.OperatorModel(profile=ps.sine_profile(), epsilon=eps)
        k = assemble_kernel(model, 1j, 256)
        u_star, F = manufactured_pair(model, 1j, k.nodes)
        u = apply_resolvent(k, F)
        assert l2_relative_error(k.weights, u.values, u_star.values) < 2e-3

    def test_tent_model_recovery(self, tent_model):
        k = assemble_kernel(tent_model, 1j, 256)
        u_star, F = manufactured_pair(tent_model, 1j, k.nodes)
        u = apply_resolvent(k, F)
        assert l2_relative_error(k.weights, u.values, u_star.values) < 5e-3
