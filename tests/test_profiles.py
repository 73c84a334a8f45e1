import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PchipInterpolator

from perspec.errors import DomainError, ValidationError
from perspec.profiles import (CoefficientProfile, OperatorModel,
                              PiecewiseCubic, eval_f, eval_f_prime,
                              load_tabulated, piecewise_linear_profile,
                              sine_profile, sorted_distinct,
                              tabulated_profile, validate_profile)

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

    def test_tabulated_centered_difference(self):
        x = np.linspace(0.0, PI, 201)
        prof = tabulated_profile(x, SLOPE * np.sin(x))
        # interpolant derivative via centered difference, sine is smooth
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


class TestPiecewiseCubic:
    @pytest.mark.parametrize("x, y", _tables())
    def test_pchip_is_scipys_bit_for_bit(self, x, y):
        ours, theirs = PiecewiseCubic.pchip(x, y), PchipInterpolator(x, y)
        assert np.array_equal(ours.breaks, theirs.x)
        assert np.array_equal(ours.c, theirs.c)
        t = np.linspace(0.0, PI, 1001)
        assert np.array_equal(ours(t), theirs(t))

    @pytest.mark.parametrize("x, y", _tables())
    def test_not_a_knot_matches_scipy(self, x, y):
        for k in (2, 3, len(x)):              # lines and parabolas below four points
            ours, theirs = PiecewiseCubic.not_a_knot(x[:k], y[:k]), CubicSpline(x[:k], y[:k])
            t = np.linspace(x[0], x[k - 1], 1001)
            scale = np.max(np.abs(theirs(t)))
            np.testing.assert_allclose(ours(t), theirs(t), rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("build", [PiecewiseCubic.pchip, PiecewiseCubic.not_a_knot])
    def test_array_and_scalar_evaluation_agree(self, build):
        for x, y in _tables():
            pc = build(x, y)
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
