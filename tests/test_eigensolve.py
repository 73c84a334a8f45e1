import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

import perspec as ps
from perspec import eigensolve
from perspec.cli import EXIT_OK, run_subcommand
from perspec.eigensolve import dispersion, dispersion_batch, growth_slope, scan_and_refine
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
    def test_root_below_the_resolution_is_found(self, sine_model, fourier_eigs, resolution):
        # Im D is negative just right of 0, so 1.2398 is bracketed in
        # (0, 1.3) at resolution 1.3
        eigs = scan_and_refine(sine_model, 8.0, resolution)
        np.testing.assert_allclose(eigs.positive(), fourier_eigs, rtol=0.0, atol=2e-9)

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


def _grid_scan(model, mesh, lam_max, resolution):
    """A scan that marches every grid point on ``mesh`` and refines on it: the grid, Im D, the roots.

    It is the scan the Chebyshev proxy replaced, kept here as a reference
    for it; it does not look below the first grid point.
    """
    grid = np.arange(resolution, lam_max + resolution / 2, resolution)
    r = dispersion_batch(model, grid, mesh).imag
    spans = [(grid[k], grid[k + 1], r[k], r[k + 1]) for k in range(len(grid) - 1)
             if r[k] * r[k + 1] < 0.0]
    roots = eigensolve._refine(model, mesh, spans)[0] if spans else []
    return grid, r, np.array([x for x in roots if x <= lam_max])


def _spy(monkeypatch, name):
    """The (arguments, result) of every call to ``eigensolve.<name>`` from here on."""
    calls, real = [], getattr(eigensolve, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(eigensolve, name, spy)
    return calls


def _table():
    x = np.linspace(0.0, PI, 41)
    return ps.tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


PROXY_PROFILES = {"sine": ps.sine_profile, "tent": ps.piecewise_linear_profile, "table": _table}

# sine and tent at eps 0.2 to 3, lmax 8 and 32; the tent at eps 0.2 and
# lmax 32 would add half a second and no path the sine there does not take
# (the proxy doubles twice, to degree 128); a tabulated profile at eps 1
PROXY_CASES = [(kind, eps, lam_max, resolution) for kind in ("sine", "tent")
               for eps in (0.2, 0.45, 1.0, 3.0)
               for lam_max, resolution in ((8.0, 0.1), (32.0, 0.4))
               if (kind, eps, lam_max) != ("tent", 0.2, 32.0)]
PROXY_CASES += [("table", 1.0, 8.0, 0.1), ("table", 1.0, 32.0, 0.4)]


class TestChebyshevProxy:
    @pytest.mark.parametrize("kind, eps, lam_max, resolution", PROXY_CASES)
    def test_roots_match_the_grid_scan(self, kind, eps, lam_max, resolution, monkeypatch):
        model = ps.OperatorModel(profile=PROXY_PROFILES[kind](), epsilon=eps)
        meshes, proxies = _spy(monkeypatch, "shared_mesh"), _spy(monkeypatch, "_chebyshev_proxy")
        eigs = scan_and_refine(model, lam_max, resolution)
        mesh = meshes[0][1]
        grid, r, want = _grid_scan(model, mesh, lam_max, resolution)
        got = eigs.positive()
        assert len(want) >= 2 and len(got) == len(want)
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + want)), np.abs(got - want)
        # the proxy the scan read: within its tail bound of Im D on the grid,
        # and its slope at 0 the -2 pi the brackets assume, within the mesh's
        # 1e-8 and what coefficient errors as large as the tail's make of a
        # slope, sum over odd k < n of k * tail / top
        (_, _, top, _), (coeffs, bound, tail, _) = proxies[0]
        n = len(coeffs)
        assert top == mesh.lam_max and (eigs.proxy_degree, eigs.proxy_tail) == (n, tail)
        assert tail <= eigensolve.PROXY_PLATEAU
        assert np.max(np.abs(C.chebval(grid / top, coeffs) - r)) <= bound
        slope = C.chebval(0.0, C.chebder(coeffs)) / top
        assert abs(slope + 2 * PI) <= 2 * PI * 1e-8 + bound * n / (2 * top), slope

    def test_capped_degree_is_checked_on_the_grid(self, sine_model, fourier_eigs, monkeypatch):
        # at resolution 1.3 the grid has 6 points, so the degree stops at 12,
        # short of the plateau; the proxy still lies within its tail bound
        # of Im D on the grid, and the points where it is doubtful are
        # marched on D
        meshes, proxies = _spy(monkeypatch, "shared_mesh"), _spy(monkeypatch, "_chebyshev_proxy")
        batches = _spy(monkeypatch, "dispersion_batch")
        eigs = scan_and_refine(sine_model, 8.0, 1.3)
        grid, r, _ = _grid_scan(sine_model, meshes[0][1], 8.0, 1.3)
        (_, _, top, _), (coeffs, bound, tail, _) = proxies[0]
        assert eigs.proxy_degree == 12 and tail > eigensolve.PROXY_PLATEAU
        proxy = C.chebval(grid / top, coeffs)
        assert np.max(np.abs(proxy - r)) <= bound
        doubtful = grid[np.abs(proxy) <= bound]
        assert len(doubtful) and any(np.array_equal(args[1], doubtful) for args, _ in batches)
        np.testing.assert_allclose(eigs.positive(), fourier_eigs, rtol=0.0, atol=2e-9)

    def test_dct_gives_the_interpolant(self):
        # an odd polynomial of degree 15 is its own degree-16 interpolant
        want = np.zeros(16)
        want[1::2] = np.linspace(1.0, -0.5, 8) ** 3
        x = np.cos(np.pi * np.arange(8) / 16)
        np.testing.assert_allclose(eigensolve._odd_dct(C.chebval(x, want)), want,
                                   rtol=0.0, atol=1e-14)

    def test_close_pair_is_bracketed_at_the_resolution(self):
        # an odd series negative just right of 0 with roots a and a + 1e-3:
        # a step of 1e-4 brackets each, a step of 1e-2 neither
        a, b = 0.41234, 0.41334
        coeffs = C.poly2cheb(-np.polynomial.polynomial.polyfromroots([0.0, -a, a, -b, b]))
        for step, want in ((1e-4, [a, b]), (1e-2, [])):
            grid = np.arange(step, 1.0 + step / 2, step)
            spans = eigensolve._brackets(grid, C.chebval(grid, coeffs))
            assert len(spans) == len(want)
            for (lo, hi, rlo, rhi), root in zip(spans, want):
                assert lo < root < hi and hi - lo == pytest.approx(step) and rlo * rhi < 0

    def test_root_below_the_first_grid_point(self, monkeypatch):
        # Im D = x (x^2 - 0.3^2) is negative just right of 0 and positive at
        # 0.5; 0's end of the bracket carries minus the other end's value,
        # and the refinement never evaluates at 0
        def fake(model, lams, mesh):
            assert np.all(np.asarray(lams) > 0.0)
            return np.array([1j * lam * (lam ** 2 - 0.09) for lam in lams])

        grid = np.array([0.5, 1.0])
        r = fake(None, grid, None).imag
        spans = eigensolve._brackets(grid, r)
        assert spans == [(0.0, 0.5, -r[0], r[0])]
        monkeypatch.setattr(eigensolve, "dispersion_batch", fake)
        roots, iters, _ = eigensolve._refine(None, None, spans)
        assert abs(roots[0] - 0.3) <= 1e-10 * 1.5 and iters[0] <= 12


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
