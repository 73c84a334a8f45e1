import inspect
import math

import numpy as np
import pytest

from perspec import _stepper, shooting
from perspec._stepper import (STATUS_MAX_STEPS, STATUS_OK, integrate_quasi_system,
                              linear_step_coefficients, linear_step_matrices)
from perspec.profiles import (OperatorModel, eval_f, piecewise_linear_profile,
                              sine_profile, tabulated_profile)
from perspec.singular import compute_log_p_over_f, default_cutoff, integrating_factor

PI = math.pi


def _tabulated():
    x = np.linspace(0.0, PI, 41)
    return tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


PROFILES = {"sine": sine_profile, "piecewise-linear": piecewise_linear_profile,
            "tabulated": _tabulated}

# about 200 points: clustered at both endpoints, spread over the interior,
# and on and next to the tent kink at pi/2
_ENDS = np.geomspace(1e-10, 1e-2, 30)
POINTS = np.unique(np.concatenate([
    _ENDS, np.linspace(0.01, PI - 0.01, 137), PI - _ENDS,
    [PI / 2, np.nextafter(PI / 2, 0.0), np.nextafter(PI / 2, 4.0)]]))


class TestScalarCoefficients:
    @pytest.mark.parametrize("kind", PROFILES)
    def test_matches_array_definitions(self, kind):
        model = OperatorModel(profile=PROFILES[kind](), epsilon=1.0)
        coef = integrating_factor(model).coef
        pf, p = np.array([coef(float(t)) for t in POINTS]).T
        np.testing.assert_allclose(pf, np.exp(compute_log_p_over_f(model, POINTS)),
                                   rtol=1e-14, atol=0.0)
        # The tabulated f is a cubic that vanishes at the far end of its
        # last piece; next to pi any two summation orders of that cubic
        # differ by a few ulps of its coefficients, not of its value.
        atol = 1e-15 if kind == "tabulated" else 0.0
        np.testing.assert_allclose(p / pf, eval_f(model.profile, POINTS),
                                   rtol=1e-14, atol=atol)

    def test_built_once_per_model(self, sine_model):
        assert integrating_factor(sine_model).coef is integrating_factor(sine_model).coef


class TestIntegrateQuasiSystemContract:
    ARGS = ("x0", "x1", "u0", "w0", "lam", "eps", "coef", "forced",
            "rtol", "atol", "max_steps", "cap_frac")

    def _shoot(self, model, max_steps=200_000, coef=None):
        forced = np.array([1.0, 2.0, PI - 1e-3])
        return integrate_quasi_system(1e-3, PI - 1e-3, 1.0 + 0j, 0j, 1.0 + 0j,
                                      model.epsilon, coef or integrating_factor(model).coef,
                                      forced, 1e-10, 1e-12, max_steps, 0.5)

    def test_parameter_names(self):
        assert tuple(inspect.signature(integrate_quasi_system).parameters) == self.ARGS

    def test_returns_seven_fields_with_attempted_steps_last(self, sine_model):
        coef = integrating_factor(sine_model).coef
        at = []

        def counted(x):
            at.append(x)
            return coef(x)

        status, x_reached, n_out, xs, us, ws, n_steps = self._shoot(sine_model, coef=counted)
        assert status == STATUS_OK
        assert x_reached == PI - 1e-3
        assert xs[0] == 1e-3 and xs[n_out - 1] == PI - 1e-3
        assert len(xs[:n_out]) == len(us[:n_out]) == len(ws[:n_out]) == n_out
        # FSAL: one evaluation at x0, then six per attempted step, the last
        # at the step's end x + h
        assert len(at) == 1 + 6 * n_steps
        # an accepted step's successor ends further on, a rejected step's
        # retry (same x, shorter h) ends short of it: the shot had rejected
        # steps, and n_steps counted them
        ends = np.array(at[6::6])
        assert np.count_nonzero(np.diff(ends) < 0) > 0

    def test_only_forced_nodes_are_recorded(self, sine_model):
        _, _, n_out, xs, _, _, _ = self._shoot(sine_model)
        assert list(xs[:n_out]) == [1e-3, 1.0, 2.0, PI - 1e-3]

    def test_step_budget_status(self, sine_model):
        status, x_reached, _, _, _, _, n_steps = self._shoot(sine_model, max_steps=5)
        assert status == STATUS_MAX_STEPS
        assert n_steps == 5
        assert 1e-3 < x_reached < 1.0

    def test_looked_up_as_shooting_module_global(self, sine_model, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            out = integrate_quasi_system(*args, **kwargs)
            calls.append(out[6])
            return out

        monkeypatch.setattr(shooting, "integrate_quasi_system", spy)
        shooting.compute_phi_at_pi(sine_model, 1.0, default_cutoff(1.0))
        assert len(calls) == 1 and calls[0] > 0

    def test_lands_from_a_step_that_stops_an_ulp_short(self):
        # at lam = 0 the error estimate vanishes and steps stay at the
        # endpoint cap (pi - x)/2; two rows before pi on this table that
        # cap is the row spacing, and x + h ends an ulp short of the node
        x = np.linspace(0.0, PI, 401)
        model = OperatorModel(profile=tabulated_profile(x, (2 / PI) * np.sin(x)), epsilon=1.0)
        at_pi = shooting.compute_phi_at_pi(model, 0.0, default_cutoff(0.0))
        assert at_pi == pytest.approx(1.0, abs=1e-8)


class TestLinearStepCoefficients:
    @pytest.mark.parametrize("kappa", [0.7, -3.1, 2.3j, -1.9j, 1.4 - 0.8j, -2.6 + 1.1j])
    def test_one_step_of_the_matrix_system(self, kappa):
        # one DOPRI5 step of Y' = (A + kappa*B) Y taken with complex 2x2
        # matrices, stage by stage, with no polynomial in kappa
        rng = np.random.default_rng(7)
        n = 40
        h = rng.uniform(-0.3, 0.3, n)
        inv_p, pf = rng.uniform(0.2, 3.0, (2, n, 6))
        C, E = linear_step_coefficients(h, inv_p, pf)
        M = np.zeros((n, 6, 2, 2), complex)
        M[..., 0, 1], M[..., 1, 0] = inv_p, kappa * pf
        hh = h[:, None, None]
        ks = []
        for i, row in enumerate(_stepper._A_ROWS):
            y = np.eye(2) + hh * sum(a * k for a, k in zip(row, ks))
            ks.append(M[:, i] @ y)
        step = np.eye(2) + hh * sum(b * k for b, k in zip(_stepper._B_ROW, ks))
        ks.append(M[:, 5] @ step)                 # FSAL: the last stage point is x + h
        err = hh * sum(e * k for e, k in zip(_stepper._E_ROW, ks))
        for got, want in ((linear_step_matrices(C, kappa), step),
                          (linear_step_matrices(E, kappa), err)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
