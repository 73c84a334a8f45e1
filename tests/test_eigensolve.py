import dataclasses
import math

import numpy as np
import pytest

import perspec as ps
from perspec.cli import EXIT_OK, run_subcommand
from perspec.eigensolve import dispersion, growth_slope, scan_and_refine
from perspec.errors import ValidationError
from perspec.shooting import SolverConfig

PI = math.pi


class TestDispersion:
    def test_zero_is_an_exact_root(self, sine_model):
        d = dispersion(sine_model, 0.0)
        assert d.D == 0.0
        assert d.phi_plus == 1.0 and d.phi_minus == 1.0

    def test_antisymmetry_is_exact(self, sine_model):
        for lam in (0.8, 2.5, 7.1):
            a = dispersion(sine_model, lam)
            b = dispersion(sine_model, -lam)
            assert b.D == -a.D

    def test_no_root_below_first_eigenvalue(self, sine_model):
        # the first positive eigenvalue sits near 1.24; 0.5 is far from it
        d = dispersion(sine_model, 0.5)
        assert abs(d.D) > 1e-3

    def test_purely_imaginary_for_real_lambda(self, sine_model):
        for lam in (0.5, 3.3, 9.0):
            d = dispersion(sine_model, lam)
            assert d.D.real == 0.0

    @pytest.mark.parametrize("lam", [1.0 + 0.5j, 1j])
    def test_complex_lambda_is_refused(self, sine_model, lam):
        with pytest.raises(ValidationError, match="real lam"):
            dispersion(sine_model, lam)


class TestScan:
    def test_contains_zero_with_tiny_residual(self, scan_8):
        k = np.argmin(np.abs(scan_8.eigenvalues))
        assert abs(scan_8.eigenvalues[k]) < 1e-10
        assert scan_8.residuals[k] < 1e-12

    def test_matches_independent_reference(self, scan_8, reference_eigs):
        pos = scan_8.positive()
        assert len(pos) == len(reference_eigs)
        np.testing.assert_allclose(pos, reference_eigs, atol=1e-5)

    def test_matches_the_fourier_continuant(self, scan_8, fourier_eigs):
        # the errors were 2.6e-11, 1.7e-10 and 8.5e-10
        pos = scan_8.positive()
        assert len(pos) == len(fourier_eigs)
        np.testing.assert_allclose(pos, fourier_eigs, rtol=0.0, atol=2e-9)

    def test_negation_symmetry(self, scan_8):
        eigs = scan_8.eigenvalues
        np.testing.assert_allclose(np.sort(eigs), np.sort(-eigs)[::-1] * -1, atol=0)
        for lam in eigs[eigs > 0]:
            assert np.min(np.abs(eigs + lam)) < 1e-8

    def test_resolution_halving_keeps_all_roots(self, sine_model, scan_8):
        coarse = scan_and_refine(sine_model, 8.0, 0.1)
        fine = scan_8
        for lam in coarse.positive():
            assert np.min(np.abs(fine.positive() - lam)) < 1e-7

    def test_no_root_above_lmax(self, sine_model):
        # the grid's last point, 1.25, lies past lmax and brackets 1.2398
        eigs = scan_and_refine(sine_model, 1.23, 0.05)
        assert eigs.eigenvalues.tolist() == [0.0]
        assert eigs.refine_iterations == []

    def test_input_validation(self, sine_model):
        with pytest.raises(ValidationError):
            scan_and_refine(sine_model, -5.0, 0.05)
        with pytest.raises(ValidationError):
            scan_and_refine(sine_model, 5.0, 0.0)

    def test_growth_slope_positive_curvature(self, scan_8):
        slope = growth_slope(scan_8)
        assert 1.0 < slope < 2.4

    @pytest.mark.parametrize("positive", [None, [1.3, 3.4]])
    def test_growth_slope_is_the_least_squares_slope(self, scan_8, positive):
        eigs = scan_8
        if positive is not None:
            pos = np.array(positive)
            eigs = dataclasses.replace(scan_8, eigenvalues=np.concatenate([-pos[::-1], [0.0], pos]))
        pos = eigs.positive()
        want = np.polyfit(np.log(np.arange(1.0, len(pos) + 1)), np.log(pos), 1)[0]
        assert growth_slope(eigs) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("resolution", [0.05, 0.7, 1.3])
    def test_no_root_below_the_resolution(self, sine_model, fourier_eigs, resolution):
        # the grid starts at the resolution, so a root in (0, resolution),
        # such as 1.2398 at resolution 1.3, is not looked for
        eigs = scan_and_refine(sine_model, 8.0, resolution)
        pos = eigs.positive()
        assert np.all(pos >= resolution)
        np.testing.assert_allclose(pos, fourier_eigs[fourier_eigs >= resolution], atol=1e-7)


    def test_tabulated_eigenvalues_converge_past_second_order(self):
        # the table's end slopes are the normalized 2/pi, so 1/f - pi/(2x)
        # stays bounded; halving the row spacing moves the roots by ~6e-8
        # (an end slope estimated from the rows moved them by ~2e-6)
        roots = []
        for rows in (101, 201):
            x = np.linspace(0.0, PI, rows)
            f = (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2)
            model = ps.OperatorModel(profile=ps.tabulated_profile(x, f), epsilon=1.0)
            roots.append(scan_and_refine(model, 4.0, 0.05).eigenvalues)
        assert len(roots[0]) == len(roots[1]) == 5
        assert np.max(np.abs(roots[0] - roots[1])) < 2e-7


class TestPhiTraceAtRefinedRoots:
    # the phi trace at an eigenvalue is column 0 of one solution_pairs march,
    # which trace --kind phi writes, and D there is read off the same march
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_periodic_matching_on_the_trace_march(self, sine_model, scan_8, n, tmp_path):
        lam = float(scan_8.positive()[n])
        pairs = ps.solution_pairs(sine_model, lam, ())
        plus, minus = pairs.phi_at_pi
        assert abs(plus - minus) < 1e-6 * max(1.0, abs(plus), abs(minus))
        out = tmp_path / "phi.csv"
        assert run_subcommand(["trace", "--kind", "phi", "--lambda-re", repr(lam),
                               "--lambda-im", "0", "--out", str(out)]) == EXIT_OK
        x, re_u, im_u, re_pu, im_pu = np.loadtxt(out, delimiter=",", skiprows=1).T
        assert np.array_equal(x, pairs.nodes)
        assert np.array_equal(re_u + 1j * im_u, pairs.phi[:, 0])
        assert np.array_equal(re_pu + 1j * im_pu, pairs.phi_qd[:, 0])

    def test_reintegration_residual(self, sine_model, scan_8):
        lam = float(scan_8.positive()[0])
        tight = SolverConfig(rtol=1e-11, atol=1e-13)
        nodes = np.linspace(0.3, PI - 0.3, 11)
        a = ps.solution_pairs(sine_model, lam, nodes)
        b = ps.solution_pairs(sine_model, lam, nodes, tight)
        assert np.max(np.abs(a.phi[a.requested, 0] - b.phi[b.requested, 0])) < 1e-6
