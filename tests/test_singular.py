import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import perspec.shooting as shooting
from perspec.errors import DomainError, SolverError, ValidationError
from perspec.profiles import (OperatorModel, eval_f, eval_f_prime,
                              piecewise_linear_profile, sine_profile,
                              tabulated_profile)
from perspec.singular import (compute_log_p, compute_log_p_over_f,
                              compute_p_over_f, indicial_series_coefficients,
                              integrating_factor, seed_regular_origin,
                              seed_vanishing_at_pi)

PI = math.pi


def sine_log_p_exact(x, sigma):
    # independent closed form: the weight ODE integrates exactly for the
    # sine profile, p(x) = sin(x) * (2 tan(x/2))^sigma in this gauge
    return np.log(np.sin(x)) + sigma * np.log(2.0 * np.tan(x / 2.0))


class TestLogP:
    @pytest.mark.parametrize("eps", [0.7, 1.0, 2.0])
    def test_sine_matches_closed_form(self, eps):
        m = OperatorModel(profile=sine_profile(), epsilon=eps)
        x = np.linspace(0.05, PI - 0.05, 40)
        got = np.asarray(compute_log_p(m, x))
        np.testing.assert_allclose(got, sine_log_p_exact(x, m.sigma), atol=1e-9)

    def test_tent_is_exact_power_below_kink(self, tent_model):
        sigma = tent_model.sigma
        for x in (1e-3, 0.2, 1.0, PI / 2):
            assert compute_log_p(tent_model, x) == pytest.approx(
                (1.0 + sigma) * math.log(x), abs=1e-11)

    def test_tent_p_over_f_exact_power(self, tent_model):
        sigma = tent_model.sigma
        for x in (0.01, 0.4, 1.2):
            assert compute_p_over_f(tent_model, x) == pytest.approx(
                (PI / 2) * x ** sigma, rel=1e-11)

    def test_domain_errors(self, sine_model):
        for x in (0.0, -0.3, PI, 3.5):
            with pytest.raises(DomainError):
                compute_log_p(sine_model, x)

    def test_gauge_consistency_against_direct_quadrature(self, sine_model):
        # independent path: log p(x) - log p(base) = log f(x) - log f(base)
        # + (1/eps) * adaptive quadrature of 1/f from base to x
        m = sine_model
        base = PI / 2

        def inv_f(s):
            return 1.0 / eval_f(m.profile, s)

        for x in (0.3, 1.1, 2.2, 2.9):
            direct, err = quad(inv_f, base, x, epsabs=1e-13, epsrel=1e-13)
            expected = (compute_log_p(m, base)
                        + math.log(eval_f(m.profile, x) / eval_f(m.profile, base))
                        + direct / m.epsilon)
            assert compute_log_p(m, x) == pytest.approx(expected, abs=1e-10)

    def test_defining_ode_residual_at_100_points(self, sine_model, tent_model):
        # step scales with the distance to the interval ends (the pole part
        # of d log p is ~1/x); halving the step re-checks convergence
        for m in (sine_model, tent_model):
            x = np.linspace(0.08, PI - 0.08, 100)
            x = x[np.abs(x - PI / 2) > 1e-3]        # keep clear of the tent kink
            f = np.asarray(eval_f(m.profile, x))
            rhs = np.asarray(eval_f_prime(m.profile, x)) / f + 1.0 / (m.epsilon * f)
            for h in (1e-5 * np.minimum(x, PI - x), 5e-6 * np.minimum(x, PI - x)):
                dlogp = (np.asarray(compute_log_p(m, x + h))
                         - np.asarray(compute_log_p(m, x - h))) / (2 * h)
                assert np.max(np.abs(dlogp - rhs)) < 1e-6

    def test_tabulated_profile_log_p(self):
        # accuracy is interpolation-limited: the pchip error in f near the
        # endpoints is amplified by 1/f inside the remainder integral
        xg = np.linspace(0.0, PI, 2001)
        prof = tabulated_profile(xg, (2 / PI) * np.sin(xg))
        m = OperatorModel(profile=prof, epsilon=1.0)
        x = np.linspace(0.2, PI - 0.2, 20)
        got = np.asarray(compute_log_p(m, x))
        np.testing.assert_allclose(got, sine_log_p_exact(x, m.sigma), atol=3e-5)

    def test_endpoint_slopes(self, sine_model):
        sigma = sine_model.sigma
        x = np.geomspace(1e-4, 1e-3, 12)
        slope0 = np.polyfit(np.log(x), np.asarray(compute_log_p(sine_model, x)), 1)[0]
        assert slope0 == pytest.approx(1.0 + sigma, abs=1e-3)
        d = np.geomspace(1e-4, 1e-3, 12)
        slope_pi = np.polyfit(np.log(d),
                              np.asarray(compute_log_p(sine_model, PI - d)), 1)[0]
        assert slope_pi == pytest.approx(1.0 - sigma, abs=1e-3)

    def test_p_over_f_slopes(self, sine_model):
        sigma = sine_model.sigma
        x = np.geomspace(1e-4, 1e-3, 12)
        s0 = np.polyfit(np.log(x), np.asarray(compute_log_p_over_f(sine_model, x)), 1)[0]
        spi = np.polyfit(np.log(x),
                         np.asarray(compute_log_p_over_f(sine_model, PI - x)), 1)[0]
        assert s0 == pytest.approx(sigma, abs=1e-3)
        assert spi == pytest.approx(-sigma, abs=1e-3)

    def test_remainder_integral_at_pi_frozen(self, sine_model):
        # for the sine profile the full remainder integral has the closed
        # value c*log(4/pi^2); frozen via quadrature during development
        fac = integrating_factor(sine_model)
        assert fac.rb_at_pi == pytest.approx(-1.4186889094, abs=1e-9)
        assert fac.rb_at_pi == pytest.approx((PI / 2) * math.log(4.0 / PI ** 2), abs=1e-9)

    @pytest.mark.parametrize("kind", ["sine", "tent", "tabulated with kinks"])
    def test_remainder_table_is_scipys_spline_per_segment(self, kind):
        xg = np.linspace(0.0, PI, 257)
        profile = {"sine": sine_profile, "tent": piecewise_linear_profile,
                   "tabulated with kinks": lambda: tabulated_profile(
                       xg, (2 / PI) * np.minimum(xg, PI - xg), kinks=(PI / 2, 1.0))}[kind]()
        fac = integrating_factor(OperatorModel(profile=profile, epsilon=1.0))
        breaks = fac.rb.breaks
        table = np.append(fac.rb.c[3], fac.rb_at_pi)          # RB at every break
        scale = np.max(np.abs(table))
        joints = [0.0, *sorted(profile.kinks), PI]
        for lo, hi in zip(joints[:-1], joints[1:]):
            sel = (breaks >= lo) & (breaks <= hi)
            spline = CubicSpline(breaks[sel], table[sel])
            x = np.linspace(lo, hi, 4001)
            np.testing.assert_allclose(fac.rb(x), spline(x), rtol=0, atol=1e-15 * scale)

    def test_regular_log_part_finite(self, sine_model):
        fac = integrating_factor(sine_model)
        x = np.linspace(0.05, 2.5, 13)
        vals = fac.regular_log_part(x)
        expected = np.asarray(compute_log_p(sine_model, x)) \
            - np.log((2 / PI) * np.sin(x)) - sine_model.sigma * np.log(x)
        np.testing.assert_allclose(vals, expected, atol=1e-12)


class TestSeeds:
    def test_zero_lambda_is_exact_constant(self, sine_model):
        seed = seed_regular_origin(sine_model, 0.0, 1e-4)
        assert seed.value == 1.0
        assert seed.quasi_derivative == 0.0

    def test_origin_seed_first_order(self, sine_model):
        lam, delta = 1.0, 1e-3
        sigma = sine_model.sigma
        a1 = -1j * lam * sigma / (1 + sigma)
        seed = seed_regular_origin(sine_model, lam, delta)
        assert seed.value == pytest.approx(1.0 + a1 * delta)
        assert seed.quasi_derivative == pytest.approx(a1 * delta ** (1 + sigma))

    def test_origin_quasi_derivative_matches_quadrature(self, tent_model):
        # one explicit integration of p/f = (pi/2) x^sigma for the tent model
        lam, delta = 2.0, 1e-3
        sigma = tent_model.sigma
        seed = seed_regular_origin(tent_model, lam, delta)
        exact = -1j * lam * (PI / 2) / (tent_model.epsilon * (1 + sigma)) \
            * delta ** (1 + sigma)
        assert seed.quasi_derivative == pytest.approx(exact, rel=1e-12)

        val, _ = quad(lambda s: compute_p_over_f(tent_model, s), 0, delta)
        assert seed.quasi_derivative == pytest.approx(-1j * lam * val / tent_model.epsilon,
                                                      rel=1e-6)

    def test_seed_value_halving_rate(self, sine_model):
        # |seed - 1| is linear in delta at eps = 1 (min(1, sigma) = 1)
        lam = 1.0
        errs = [abs(seed_regular_origin(sine_model, lam, d).value - 1.0)
                for d in (2e-3, 1e-3, 5e-4)]
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, abs=0.1)

    def test_seed_accuracy_richardson(self, sine_model):
        # reference: integrate from delta/8 with tight tolerance up to delta;
        # the seed truncation is second order
        lam = 1.0
        cfg = shooting.SolverConfig(rtol=1e-12, atol=1e-14)
        errs = []
        for delta in (4e-3, 2e-3):
            s = seed_regular_origin(sine_model, lam, delta)
            s8 = seed_regular_origin(sine_model, lam, delta / 8)
            _, us, _ = shooting._run(sine_model, lam, delta / 8, delta,
                                     s8.value, s8.quasi_derivative, cfg, None, False)
            errs.append(abs(s.value - us[-1]))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)

    def test_pi_seed_power_value(self):
        m = OperatorModel(profile=sine_profile(), epsilon=1.0)
        seed = seed_vanishing_at_pi(m, 0.0, 1e-3)
        assert abs(seed.value) == pytest.approx((1e-3) ** (PI / 2), rel=1e-12)
        assert abs(seed.value) == pytest.approx(1.9e-5, rel=0.03)

    def test_pi_seed_halving_ratio(self, sine_model):
        sigma = sine_model.sigma
        s1 = seed_vanishing_at_pi(sine_model, 0.0, 1e-3)
        s2 = seed_vanishing_at_pi(sine_model, 0.0, 5e-4)
        assert abs(s2.value / s1.value) == pytest.approx(2.0 ** -sigma, rel=1e-3)

    def test_conjugation_pairs_with_negated_lambda(self, sine_model):
        # conjugating the equation maps lam to -lam for real lam
        for lam in (0.7, 3.0):
            s_plus = seed_regular_origin(sine_model, lam, 1e-4)
            s_minus = seed_regular_origin(sine_model, -lam, 1e-4)
            assert s_minus.value == np.conj(s_plus.value)
            assert s_minus.quasi_derivative == np.conj(s_plus.quasi_derivative)

    def test_cutoff_range_errors(self, sine_model):
        with pytest.raises(ValidationError):
            seed_regular_origin(sine_model, 1.0, 0.2)
        with pytest.raises(ValidationError):
            seed_vanishing_at_pi(sine_model, 1.0, -1e-4)

    def test_underflow_guard(self):
        m = OperatorModel(profile=sine_profile(), epsilon=0.02)
        with pytest.raises(SolverError):
            seed_vanishing_at_pi(m, 1.0, 1e-4)

    def test_resonant_epsilon_refused(self):
        m = OperatorModel(profile=sine_profile(), epsilon=PI / 2)
        with pytest.raises(SolverError):
            indicial_series_coefficients(m, 1.0)
