import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from perspec.errors import DomainError, ValidationError
from perspec.profiles import (CoefficientProfile, OperatorModel,
                              PiecewiseCubic, end_curvatures, eval_f,
                              eval_f_prime, load_tabulated, pchip_slopes,
                              piecewise_linear_profile, sine_profile,
                              sorted_distinct, tabulated_profile,
                              validate_profile)

PI = math.pi
SLOPE = 2.0 / PI


class TestEvalF:
    def test_sine_values(self):
        p = sine_profile()
        assert eval_f(p, PI / 2) == pytest.approx(SLOPE, abs=1e-15)
        assert eval_f(p, 0.0) == 0.0
        assert eval_f(p, -PI / 2) == pytest.approx(-SLOPE, abs=1e-15)

    def test_tent_values(self):
        p = piecewise_linear_profile()
        assert eval_f(p, 0.3) == pytest.approx(SLOPE * 0.3, rel=1e-15)
        assert eval_f(p, PI - 0.3) == pytest.approx(SLOPE * 0.3, rel=1e-14)
        assert eval_f(p, PI / 2) == pytest.approx(1.0, rel=1e-15)
        # odd, antiperiodic extension on the negative half
        assert eval_f(p, -0.3) == pytest.approx(-SLOPE * 0.3, rel=1e-15)
        assert eval_f(p, -PI + 0.3) == pytest.approx(-SLOPE * 0.3, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_f(sine_profile(), 3.5)
        with pytest.raises(DomainError):
            eval_f(sine_profile(), np.array([0.1, -4.0]))

    def test_array_evaluation(self):
        p = sine_profile()
        x = np.linspace(-PI, PI, 31)
        np.testing.assert_allclose(eval_f(p, x), SLOPE * np.sin(x), atol=1e-15)


class TestEvalFPrime:
    def test_sine(self):
        p = sine_profile()
        assert eval_f_prime(p, 0.0) == pytest.approx(SLOPE, abs=1e-15)
        assert eval_f_prime(p, PI / 2) == pytest.approx(0.0, abs=1e-15)

    def test_tent_slopes(self):
        p = piecewise_linear_profile()
        assert eval_f_prime(p, PI / 4) == pytest.approx(SLOPE, rel=1e-15)
        assert eval_f_prime(p, 3 * PI / 4) == pytest.approx(-SLOPE, rel=1e-15)

    def test_kink_refused_with_location(self):
        p = piecewise_linear_profile()
        with pytest.raises(DomainError, match="kink"):
            eval_f_prime(p, PI / 2)
        with pytest.raises(DomainError):
            eval_f_prime(p, -PI / 2)

    def test_tabulated_reads_the_interpolants_slope(self):
        x = np.linspace(0.0, PI, 201)
        prof = tabulated_profile(x, SLOPE * np.sin(x))
        t = np.linspace(-PI, PI, 1001)
        assert np.array_equal(eval_f_prime(prof, t), prof._interp.derivative(np.abs(t)))
        assert eval_f_prime(prof, 1.0) == pytest.approx(SLOPE * math.cos(1.0), abs=1e-4)


def _tables():
    """(x, y) tables with flat pieces, sign changes, extrema at the ends and uneven spacing."""
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, PI, 9)
    tables = [(x, np.array([0.0, 1.0, 1.0, 2.0, 0.5, -0.5, -0.5, 0.0, 0.0])),
              (x, np.array([0.0, 2.0, 1.0, 3.0, -1.0, 4.0, 4.0, 4.0, 1.0])),
              (x, SLOPE * np.sin(x))]
    for size in (4, 5, 17, 64):
        xs = np.sort(np.concatenate([[0.0, PI], rng.uniform(0.0, PI, size - 2)]))
        tables.append((xs, rng.normal(size=size)))
        tables.append((xs, np.round(rng.normal(size=size))))      # ties: flat pieces
    return tables


def pchip(x, y):
    """pchip's interior slopes, with the end secants as end slopes."""
    m = np.diff(y) / np.diff(x)
    return np.concatenate([m[:1], pchip_slopes(x, y), m[-1:]])


def random_slopes(x, y):
    return np.random.default_rng(len(x)).normal(size=len(x))


class TestPiecewiseCubic:
    @pytest.mark.parametrize("x, y", _tables())
    def test_pchip_is_scipys_bit_for_bit(self, x, y):
        # the interior slopes are scipy's, and so is the Hermite table on them
        slopes, theirs = pchip(x, y), PchipInterpolator(x, y)
        assert np.array_equal(slopes[1:-1], theirs.c[2, 1:])
        ours, theirs = PiecewiseCubic.hermite(x, y, slopes), CubicHermiteSpline(x, y, slopes)
        assert np.array_equal(ours.breaks, theirs.x)
        assert np.array_equal(ours.c, theirs.c)
        t = np.linspace(0.0, PI, 1001)
        assert np.array_equal(ours(t), theirs(t))

    @pytest.mark.parametrize("slopes", [pchip, random_slopes])
    def test_derivative_and_curvature_are_scipys(self, slopes):
        for x, y in _tables():
            s = slopes(x, y)
            ours, theirs = PiecewiseCubic.hermite(x, y, s), CubicHermiteSpline(x, y, s)
            t = np.concatenate([x, np.linspace(-0.1, PI + 0.1, 777)])
            expected = theirs.derivative()(t)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(ours.derivative(t), expected, rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(ours.derivative(x), s, rtol=0, atol=1e-14 * scale)
            expected = theirs.derivative(2)(t)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(ours.curvature(t), expected, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("build", [pchip, random_slopes])
    def test_array_and_scalar_evaluation_agree(self, build):
        for x, y in _tables():
            pc = PiecewiseCubic.hermite(x, y, build(x, y))
            # breaks, points between them, and points past both ends (end pieces)
            t = np.concatenate([x, np.linspace(-0.1, PI + 0.1, 777)])
            scalar = np.array([pc.scalar()(v) for v in t.tolist()])
            scale = np.max(np.abs(scalar))
            np.testing.assert_allclose(pc(t), scalar, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("values", [np.array([3.0, 1.0, 2.0, 1.0, 3.0, 0.5]), np.empty(0),
                                    np.array([[PI, 0.0], [PI, 1e-300]]), np.array([2.0])])
def test_sorted_distinct_is_unique(values):
    got = sorted_distinct(values)
    assert got.dtype == values.dtype and np.array_equal(got, np.unique(values))


class TestValidation:
    def test_sine_all_zero(self):
        report = validate_profile(sine_profile(), 256)
        assert report.passed
        assert max(report.antiperiodicity, report.oddness,
                   report.positivity, report.slope) < 1e-12

    def test_tent_passes(self):
        assert validate_profile(piecewise_linear_profile(), 256).passed

    def test_tabulated_negated_sample_flagged(self):
        x = np.linspace(0.0, PI, 101)
        f = SLOPE * np.sin(x)
        k = np.argmin(np.abs(x - 0.1))
        f[k] = -f[k]
        report = validate_profile(tabulated_profile(x, f), 256)
        assert report.positivity > report.tolerance
        assert not report.passed

    def test_tabulated_tent_data_passes(self):
        x = np.linspace(0.0, PI, 257)
        f = SLOPE * np.minimum(x, PI - x)
        report = validate_profile(tabulated_profile(x, f), 256)
        assert report.passed

    @pytest.mark.parametrize("f", [
        lambda x: SLOPE * np.sin(x) * (1 + 0.1 * np.sin(x) ** 2),
        lambda x: SLOPE / PI * x * (PI - x)],                     # f'' = -4/pi^2 at both ends
        ids=["smooth", "curved-ends"])
    def test_normalized_table_passes_the_slope_check(self, f):
        # a coarse table: its end secants miss +-2/pi by O(h), within the allowance
        x = np.linspace(0.0, PI, 65)
        report = validate_profile(tabulated_profile(x, f(x)))
        assert report.slope <= report.tolerance and report.passed

    @pytest.mark.parametrize("rows, scale", [(65, PI / 2), (2001, 1.01)],
                             ids=["sin-x", "one-percent-off"])
    def test_table_off_the_normalization_fails_the_slope_check(self, rows, scale):
        # the interpolant's end slopes are pinned at +-2/pi, so only the data can show this
        x = np.linspace(0.0, PI, rows)
        f = scale * SLOPE * np.sin(x)
        f[-1] = 0.0
        report = validate_profile(tabulated_profile(x, f))
        assert eval_f_prime(tabulated_profile(x, f), 0.0) == SLOPE
        assert report.slope > 1e3 * report.tolerance and not report.passed
        assert report.antiperiodicity <= report.tolerance and report.positivity == 0.0

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            validate_profile(sine_profile(), 8)

    def test_symmetry_invariants_on_dense_grid(self):
        for prof in (sine_profile(), piecewise_linear_profile()):
            x = np.linspace(-PI, 0.0, 403)
            anti = np.max(np.abs(np.asarray(eval_f(prof, x + PI)) + np.asarray(eval_f(prof, x))))
            odd = np.max(np.abs(np.asarray(eval_f(prof, -x)) + np.asarray(eval_f(prof, x))))
            assert anti < 1e-10 and odd < 1e-10
            xi = np.linspace(0.0, PI, 401)[1:-1]
            assert np.all(np.asarray(eval_f(prof, xi)) > 0)


class TestTabulatedLoading:
    def test_round_trip_through_file(self, tmp_path):
        x = np.linspace(0.0, PI, 129)
        f = SLOPE * np.sin(x)
        path = tmp_path / "prof.dat"
        np.savetxt(path, np.column_stack([x, f]))
        prof = load_tabulated(path)
        assert prof.kind == "tabulated"
        assert eval_f(prof, 1.0) == pytest.approx(SLOPE * math.sin(1.0), abs=1e-6)

    def test_rejects_bad_tables(self, tmp_path):
        x = np.linspace(0.0, PI, 65)
        f = SLOPE * np.sin(x)
        with pytest.raises(ValidationError):
            tabulated_profile(x[::-1], f)
        with pytest.raises(ValidationError):
            tabulated_profile(x[:-1], f[:-1])          # grid stops short of pi
        with pytest.raises(ValidationError):
            tabulated_profile(x, f + 0.05)             # endpoints not zero
        path = tmp_path / "bad.dat"
        np.savetxt(path, np.column_stack([x, f, f]))
        with pytest.raises(ValidationError):
            load_tabulated(path)

    @pytest.mark.parametrize("column", ["x", "f"])
    def test_rejects_non_finite_values(self, column):
        x = np.linspace(0.0, PI, 41)
        f = SLOPE * np.sin(x)
        {"x": x, "f": f}[column][7] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            tabulated_profile(x, f)

    def test_interpolant_is_pinned_hermite_table(self):
        rng = np.random.default_rng(5)
        x = np.sort(np.concatenate([[0.0, PI], rng.uniform(0.0, PI, 40)]))
        f = SLOPE * np.sin(x) * (1 + 0.1 * np.sin(x) ** 2)
        f[[0, -1]] = 0.0                               # as the table snaps them
        prof = tabulated_profile(x, f)
        interp = prof._interp
        theirs = PchipInterpolator(x, f)
        assert np.array_equal(interp.c[2, 1:], theirs.c[2, 1:])        # pchip's interior slopes
        slopes = np.concatenate([[SLOPE], theirs.c[2, 1:], [-SLOPE]])
        assert np.array_equal(interp.c, CubicHermiteSpline(x, f, slopes).c)
        assert eval_f_prime(prof, 0.0) == SLOPE and eval_f_prime(prof, -0.0) == SLOPE
        assert eval_f_prime(prof, PI) == pytest.approx(-SLOPE, rel=1e-15)
        curvature = CubicHermiteSpline(x, f, slopes).derivative(2)([0.0, PI])
        np.testing.assert_allclose(end_curvatures(prof), curvature, rtol=1e-12)
        for exact in (sine_profile(), piecewise_linear_profile()):
            assert end_curvatures(exact) == (0.0, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientProfile(kind="cubic")


class TestOperatorModel:
    def test_epsilon_range(self):
        prof = sine_profile()
        for eps in (0.0, -1.0, PI, 4.0):
            with pytest.raises(ValidationError):
                OperatorModel(profile=prof, epsilon=eps)
        m = OperatorModel(profile=prof, epsilon=1.0)
        assert m.sigma == pytest.approx(PI / 2)
