import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import perspec as ps
from perspec import _stepper, green, shooting
from perspec.cli import EXIT_OK, run_subcommand
from perspec.errors import (EigenvalueProximityError, IntegrationError,
                            SolverError)
from perspec.shooting import SolverConfig, compute_phi_at_pi, solution_pairs
from perspec.singular import (compute_log_p, compute_p_over_f, default_cutoff,
                              endpoint_branches, integrating_factor, seed_vanishing_at_pi)

PI = math.pi
TIGHT = SolverConfig(rtol=1e-13, atol=1e-15)


def _tabulated():
    x = np.linspace(0.0, PI, 41)
    return ps.tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


PROFILES = {"sine": ps.sine_profile, "piecewise-linear": ps.piecewise_linear_profile,
            "tabulated": _tabulated}


def _curved_table():
    """A table whose ends curve: f'' = (2/pi)*0.6 at 0 and at pi."""
    x = np.linspace(0.0, PI, 801)
    return ps.tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.3 * np.sin(x)))


def _kernel_nodes(grid_size):
    """The strictly positive interior nodes of the kernel's graded grid."""
    x, _ = green.graded_full_grid(grid_size)
    return x[len(x) // 2 + 1:-1]


def _fit_at_pi(model, lam, grid, values, delta):
    """(A, B, residual) of the two-branch fit at pi on the grid's nodes pi - m*delta, m = 1, 2, 4."""
    at = shooting._fit_rows(grid, "pi", delta)
    return shooting._two_branch_fit(model, lam, "pi", grid[at], values[at], delta)


def _wronskian(pairs):
    return pairs.psi_qd * pairs.phi - pairs.phi_qd * pairs.psi


def _dopri5_step(model, lams, x0, h, u, w):
    """One DOPRI5 step per interval, stepped elementwise: its end state and its error estimate.

    Steps go from x0 to x0 + h, started at (u, w) (shape: intervals x
    columns), with one column per lam in ``lams``; the formulas are those
    of ``integrate_quasi_system``.  Both results have shape (2, intervals,
    columns), u first.
    """
    kappa = -1j * np.asarray(lams) / model.epsilon

    def rhs(x, y):
        pf = compute_p_over_f(model, x)
        p = pf * ps.eval_f(model.profile, x)
        return y[1] / p[:, None], kappa * pf[:, None] * y[0]

    y0 = np.array([u, w])
    ks = []
    for c, row in zip(_stepper.STAGE_FRACTIONS, _stepper._A_ROWS):
        y = y0 + h[:, None] * sum(a * k for a, k in zip(row, ks)) if row else y0
        ks.append(np.array(rhs(x0 + c * h, y)))
    y_new = y0 + h[:, None] * sum(b * k for b, k in zip(_stepper._B_ROW, ks))
    ks.append(np.array(rhs(x0 + h, y_new)))
    return y_new, h[:, None] * sum(e * k for e, k in zip(_stepper._E_ROW, ks))


def _scaled_error(y0, y_new, err, rtol, atol):
    """The scalar stepper's err of steps from y0 to y_new with error estimate ``err``."""
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y_new))
    return np.sqrt(0.5 * np.sum((np.abs(err) / sc) ** 2, axis=0))


def _dopri5_errors(model, lams, x0, h, u, w, rtol, atol):
    """The scalar stepper's err for one DOPRI5 step per interval, stepped elementwise."""
    y_new, err = _dopri5_step(model, lams, x0, h, u, w)
    return _scaled_error(np.array([u, w]), y_new, err, rtol, atol)


def _adjugate_errors(model, lams, x, u, w, rtol, atol):
    """The err of the adjugate pair's steps, which march (u, w) from x[k + 1] back to x[k].

    The forward step P and its error E on each interval come from the
    elementwise stages started on the unit states, one column of P and E
    each; adj(P) and adj(E) are applied to (u, w) at the interval's right
    end, as the stepper's test reads a backward step.
    """
    shape = (len(x) - 1, len(lams))
    ones, zeros = np.ones(shape, complex), np.zeros(shape, complex)
    (p00, p10), (e00, e10) = _dopri5_step(model, lams, x[:-1], np.diff(x), ones, zeros)
    (p01, p11), (e01, e11) = _dopri5_step(model, lams, x[:-1], np.diff(x), zeros, ones)
    u, w = u[1:], w[1:]
    y_new = np.array([p11 * u - p01 * w, p00 * w - p10 * u])
    err = np.array([e11 * u - e01 * w, e00 * w - e10 * u])
    return _scaled_error(np.array([u, w]), y_new, err, rtol, atol)


class TestPhiTrace:
    def test_lambda_zero_is_constant(self, sine_model):
        pairs = solution_pairs(sine_model, 0.0, ())
        assert np.max(np.abs(pairs.phi - 1.0)) == 0.0
        assert np.max(np.abs(pairs.phi_qd)) == 0.0
        assert np.all(np.diff(pairs.nodes) > 0)

    def test_reintegration_residual_against_tighter_tolerance(self, sine_model):
        nodes = np.linspace(0.3, PI - 0.3, 17)
        loose = solution_pairs(sine_model, 1.0, nodes, SolverConfig())
        tight = solution_pairs(sine_model, 1.0, nodes, SolverConfig(rtol=1e-11, atol=1e-13))
        diff = np.max(np.abs(loose.phi[loose.requested, 0] - tight.phi[tight.requested, 0]))
        assert diff < 1e-8

    def test_tolerance_halving_changes_endpoint_mildly(self, sine_model):
        delta = default_cutoff(1.0)
        a = compute_phi_at_pi(sine_model, 1.0, delta, SolverConfig(rtol=1e-10, atol=1e-12))
        b = compute_phi_at_pi(sine_model, 1.0, delta, SolverConfig(rtol=5e-11, atol=5e-13))
        assert abs(a - b) < 10 * 1e-10 * max(1.0, abs(a))

    def test_kinks_are_grid_nodes(self, tent_model):
        pairs = solution_pairs(tent_model, 1.5, ())
        assert np.min(np.abs(pairs.nodes - PI / 2)) == 0.0

    def test_step_budget_failure_reports_reach(self, sine_model, monkeypatch):
        monkeypatch.setattr(shooting, "MAX_STEPS", 40)
        with pytest.raises(IntegrationError) as exc:
            solution_pairs(sine_model, 1.0, ())
        assert exc.value.x_reached is not None
        assert 0.0 < exc.value.x_reached < PI

    def test_overflowing_march_fails_cleanly(self, sine_model):
        # at |lam| = 1e6 the start mesh's march overflows: no numpy warning,
        # and an error that names the overflow
        with pytest.raises(IntegrationError, match="the march overflows at x = ") as exc:
            solution_pairs(sine_model, 1e6, ())
        assert 0.0 < exc.value.x_reached < PI

    def test_trace_subcommand_writes_the_march(self, tmp_path):
        # the dump is phi's lam column of the pairs, and every step of it
        # passes the scalar stepper's acceptance test
        out = tmp_path / "phi.csv"
        assert run_subcommand(["trace", "--kind", "phi", "--lambda-re", "0.9",
                               "--lambda-im", "0.57", "--out", str(out)]) == EXIT_OK
        x, re_u, im_u, re_pu, im_pu = np.loadtxt(out, delimiter=",", skiprows=1).T
        model = ps.OperatorModel(profile=ps.sine_profile(), epsilon=1.0)
        config = SolverConfig()
        pairs = solution_pairs(model, 0.9 + 0.57j, (), config)
        u, pu = pairs.phi[:, 0], pairs.phi_qd[:, 0]
        assert np.array_equal(x, pairs.nodes)
        assert np.array_equal(re_u + 1j * im_u, u)
        assert np.array_equal(re_pu + 1j * im_pu, pu)
        err = _dopri5_errors(model, [0.9 + 0.57j], x[:-1], np.diff(x), u[:-1, None],
                             pu[:-1, None], config.rtol, config.atol)
        assert np.max(err) <= 1.0


class TestConjugationSymmetry:
    def test_trace_at_negated_lambda_is_conjugate(self, sine_model):
        # for real lam the whole construction mirrors bit for bit: the -lam
        # column of the march is the conjugate of the lam column
        nodes = np.linspace(0.2, 3.0, 9)
        pairs = solution_pairs(sine_model, 2.3, nodes)
        up, dn = pairs.phi[pairs.requested].T
        up_qd, dn_qd = pairs.phi_qd[pairs.requested].T
        assert np.array_equal(dn, np.conj(up))
        assert np.array_equal(dn_qd, np.conj(up_qd))

    @pytest.mark.parametrize("kind", PROFILES)
    def test_boundary_value_conjugate(self, kind):
        # the scalar reference mirrors too, on every profile
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=1.0)
        delta = default_cutoff(4.1)
        a = compute_phi_at_pi(model, 4.1, delta)
        b = compute_phi_at_pi(model, -4.1, delta)
        assert b == np.conj(a)

    @pytest.mark.parametrize("lam", [2.3, 0.9 + 0.57j, -2.9 + 0.75j])
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_march_steps_the_mirror_to_the_conjugate(self, kind, eps, lam):
        # the fact eigensolve's reading of -lam rests on: given both columns
        # lam and -conj lam, the march itself steps the second to the
        # conjugate of the first, phi forward and psi backward, seeds
        # included; a seed one ulp off breaks it
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        lams = np.array([lam, -np.conj(lam)], dtype=complex)
        kappa = -1j * lams / eps
        pairs = solution_pairs(model, lam, ())
        x, delta = pairs.nodes, pairs.delta
        h, every = np.diff(x), np.arange(len(x))
        forward = shooting._step_coefficients(model, x[:-1], h)[0]
        backward = shooting._adjugate(forward[::-1])
        for coeffs, seed in ((forward, ps.seed_regular_origin(model, lams, delta)),
                             (backward, seed_vanishing_at_pi(model, lams, delta))):
            for part in seed:
                assert np.array_equal(part[1], np.conj(part[0]))
            u, w = shooting._march(coeffs, kappa, *seed, every)
            assert np.array_equal(u[:, 1], np.conj(u[:, 0]))
            assert np.array_equal(w[:, 1], np.conj(w[:, 0]))
            nudged = seed[0].copy()
            nudged[1] = complex(np.nextafter(nudged[1].real, np.inf), nudged[1].imag)
            u, _ = shooting._march(coeffs, kappa, nudged, seed[1], every)
            assert not np.array_equal(u[1:, 1], np.conj(u[1:, 0]))

    def test_phi_at_pi_real_on_imaginary_axis(self, sine_model):
        # lam = i tau is fixed by the conjugation map, so phi is real there
        val = compute_phi_at_pi(sine_model, 1j, default_cutoff(1j))
        assert abs(val.imag) < 1e-9 * abs(val)


class TestEndpointExtrapolation:
    def test_constant_trace_recovers_a_one(self, sine_model):
        pairs = solution_pairs(sine_model, 0.0, ())
        A, B, _ = _fit_at_pi(sine_model, 0.0, pairs.nodes, pairs.phi[:, 0], pairs.delta)
        assert A == pytest.approx(1.0, abs=1e-14)
        assert abs(B) < 1e-14

    def test_synthetic_singular_branch(self, sine_model):
        # u = (pi - x)^sigma solves the local model at lam = 0 exactly
        grid = np.array([PI - 4e-4, PI - 2e-4, PI - 1e-4])
        vals = (PI - grid) ** sine_model.sigma + 0j
        A, B, _ = _fit_at_pi(sine_model, 0.0, grid, vals, 1e-4)
        assert abs(A) < 1e-10
        assert B == pytest.approx(1.0, abs=1e-10)

    def test_stability_under_cutoff_halving(self, sine_model):
        a = compute_phi_at_pi(sine_model, 1.0, 1e-4)
        b = compute_phi_at_pi(sine_model, 1.0, 5e-5)
        assert abs(a - b) < 1e-6

    def test_ill_conditioned_fit_detected(self, sine_model):
        dist = np.array([1e-4, 1e-4 + 1e-13, 1e-4 + 2e-13])   # nearest pi first
        with pytest.raises(SolverError, match="ill-conditioned"):
            shooting._two_branch_fit(sine_model, 1.0, "pi", PI - dist, np.ones(3, complex), 1e-4)


    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["sine", "piecewise-linear", "curved-table"])
    def test_every_endpoint_fit_fits(self, kind, eps):
        # the third fit node's residual, relative to |u| there, of phi and psi
        # at pi and psi at 0: at most 4.3e-7; psi's origin fit read 2.0e-5 to
        # 2.2e-3 with pi's coefficients, that is with its branches' swapped.
        # On the curved table, psi's power branch without the end curvature
        # read 2.1e-4 at 0 and 4.4e-5 at pi
        profile = {**PROFILES, "curved-table": _curved_table}[kind]()
        model = ps.OperatorModel(profile=profile, epsilon=eps)
        for lam in (0.9 + 0.57j, -2.9 + 0.75j, 5.0, 1j):
            pairs = solution_pairs(model, lam, _kernel_nodes(512))
            lams = np.array([lam, -lam], dtype=complex)
            at_pi = shooting._fit_rows(pairs.nodes, "pi", pairs.delta)
            at_0 = shooting._fit_rows(pairs.nodes, "origin", pairs.delta)
            fits = (("pi", at_pi, pairs.phi, 0, pairs.phi_at_pi),
                    ("pi", at_pi, pairs.psi, 1, pairs.psi_at_pi),
                    ("origin", at_0, pairs.psi, 1, pairs.psi_at_origin))
            for end, rows, u, part, recorded in fits:
                vals = u[rows]
                got = shooting._two_branch_fit(model, lams, end, pairs.nodes[rows], vals,
                                               pairs.delta)
                assert np.array_equal(got[part], recorded)
                assert np.max(got[2] / np.abs(vals[2])) <= 1e-5, (lam, end, part)

    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["sine", "piecewise-linear"])
    def test_scan_fit_fits(self, kind, eps):
        # phi's fit at pi on the lmax 8 scan's mesh and grid: at most 2.5e-6
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        mesh = shooting.shared_mesh(model, 8.0)
        grid = np.arange(0.05, 8.0 + 0.025, 0.05)
        lams = np.concatenate([grid, -grid]).astype(complex)
        delta = mesh.nodes[0]
        rows = shooting._fit_rows(mesh.nodes, "pi", delta)
        vals, _ = shooting._march(mesh.coeffs, -1j * lams / eps,
                                  *ps.seed_regular_origin(model, lams, delta), rows)
        _, _, resid = shooting._two_branch_fit(model, lams, "pi", mesh.nodes[rows], vals, delta)
        assert np.max(resid / np.abs(vals[2])) <= 1e-5


class TestPsi:
    def test_wronskian_constant_along_grid(self, sine_model):
        pairs = solution_pairs(sine_model, 1.0, ())
        W = _wronskian(pairs)
        mid = np.argmin(np.abs(pairs.nodes - PI / 2))
        assert np.max(np.abs(W[mid] - 1.0)) < 1e-15
        assert pairs.wronskian_deviation < 1e-6
        assert np.max(np.abs(W - 1.0)) < 1e-6

    def test_wronskian_sweep_at_several_lambdas(self, sine_model):
        for lam in (0.4, 2.0, 5.0, 8.3, 12.7, -0.4, -5.0):
            assert solution_pairs(sine_model, lam, ()).wronskian_deviation < 1e-6

    def test_blowup_rate_at_origin(self, sine_model):
        pairs = solution_pairs(sine_model, 1.0, ())
        small = pairs.nodes < 0.05
        slope = np.polyfit(np.log(pairs.nodes[small]), np.log(np.abs(pairs.psi[small, 0])), 1)[0]
        assert slope == pytest.approx(-sine_model.sigma, abs=1e-2)

    def test_vanishing_rate_at_pi(self, sine_model):
        pairs = solution_pairs(sine_model, 1.0, ())
        g, v = pairs.nodes, np.abs(pairs.psi[:, 0])
        sel = (g > PI - 0.02) & (g < PI - 1e-5)
        slope = np.polyfit(np.log(PI - g[sel]), np.log(v[sel]), 1)[0]
        assert slope == pytest.approx(sine_model.sigma, abs=1e-2)

    def test_regular_part_vanishes_at_pi(self, sine_model):
        pairs = solution_pairs(sine_model, 1.0, ())
        A, _, _ = _fit_at_pi(sine_model, 1.0, pairs.nodes, pairs.psi[:, 0], pairs.delta)
        scale = max(1.0, float(np.max(np.abs(pairs.psi[:, 0]))))
        assert abs(A) / scale < 1e-8

    def test_wronskian_healthy_even_at_periodic_eigenvalues(self, sine_model,
                                                            reference_eigs):
        # the construction degenerates at eigenvalues through the
        # periodicity denominator, not through the Wronskian: psi
        # normalization must still succeed right on top of a root
        lam = float(reference_eigs[0])
        pairs = solution_pairs(sine_model, lam, ())
        assert abs(1.0 / pairs.wronskian[0]) < 1.0   # |W0| well above 1

    def test_collapsed_wronskian_guard_fires(self, sine_model, monkeypatch):
        monkeypatch.setattr(shooting, "WRONSKIAN_FLOOR", 1e6)
        with pytest.raises(EigenvalueProximityError):
            solution_pairs(sine_model, 2.0, ())



class TestQuasiDerivative:
    # the second state component, which the Wronskian and trace's re_pu and
    # im_pu columns read, is p times the slope of the first: against p times
    # the centered difference (h = 1e-4) on [0.3, pi - 0.3] off the tent's
    # kink, 0.8e-8 to 7.6e-8 of its largest value at lam = 0.7+1i and -lam
    @pytest.mark.parametrize("name", ["phi", "psi"])
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("profile", [ps.sine_profile, ps.piecewise_linear_profile])
    def test_quasi_derivative_is_p_times_the_slope(self, profile, eps, name):
        model = ps.OperatorModel(profile=profile(), epsilon=eps)
        h = 1e-4
        x = np.linspace(0.3, PI - 0.3, 41)
        for kink in model.profile.kinks:
            x = x[np.abs(x - kink) > 0.05]
        pairs = solution_pairs(model, 0.7 + 1j, np.concatenate([x - h, x, x + h]))
        left, mid, right = pairs.requested.reshape(3, -1)
        u, w = getattr(pairs, name), getattr(pairs, name + "_qd")
        slope = np.exp(compute_log_p(model, x))[:, None] * (u[right] - u[left]) / (2 * h)
        assert np.max(np.abs(w[mid] - slope)) < 1e-6 * np.max(np.abs(w[mid]))

class TestSolutionPairs:
    def test_requested_nodes_are_mesh_nodes(self, sine_model):
        nodes = _kernel_nodes(1024)[::-1]             # any order is kept
        pairs = solution_pairs(sine_model, 0.9 + 0.57j, nodes)
        assert np.array_equal(pairs.nodes[pairs.requested], nodes)
        assert np.all(np.diff(pairs.nodes) > 0.0)
        delta = pairs.delta                           # the cap binds at 1024 nodes
        assert delta == shooting.CUTOFF_CAP * float(np.min(nodes)) < ps.default_cutoff(0.9 + 0.57j)
        assert pairs.nodes[0] == delta and pairs.nodes[-1] == PI - delta
        for m in (1.0, 2.0, 4.0):
            assert m * delta in pairs.nodes and PI - m * delta in pairs.nodes

    @pytest.mark.parametrize("grid", [256, 2048])
    @pytest.mark.parametrize("lam", [0.9 + 0.57j, -2.9 + 0.75j])
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_generators_match_a_tight_run(self, kind, eps, lam, grid):
        # the tight run lays out its own mesh; the scalar path was 2e-11 to
        # 4e-9 off this reference, the march is within 3e-10
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        nodes = _kernel_nodes(grid)
        got = green._full_period(model, solution_pairs(model, lam, nodes))
        want = green._full_period(model, solution_pairs(model, lam, nodes, TIGHT))
        for name in ("phi", "psi", "w2"):         # both halves: lam and -lam
            a, b = getattr(got, name), getattr(want, name)
            ok = np.isfinite(b)                   # psi is nan at 0
            assert np.max(np.abs(a[ok] - b[ok])) <= 1e-9 * np.max(np.abs(b[ok])), name
        assert abs(got.denominator - want.denominator) <= 1e-9 * abs(want.denominator)

    @pytest.mark.parametrize("grid", [256, 2048])
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_phi_at_pi_matches_the_scalar_shot(self, kind, eps, grid):
        # at the kernel's capped cutoff, against a scalar shot at rtol 1e-12:
        # the seed error is O(delta^2), so the cutoffs must match
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        lam = 0.9 + 0.57j
        pairs = solution_pairs(model, lam, _kernel_nodes(grid))
        scalar = SolverConfig(rtol=1e-12, atol=1e-14)
        for got, lm in zip(pairs.phi_at_pi, (lam, -lam)):
            want = compute_phi_at_pi(model, lm, pairs.delta, scalar)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_psi_march_reproduces_its_shot(self, kind, eps):
        # unscaled psi on the kernel's nodes against a DOP853 shot from the
        # same seed with the same coefficients; at rtol 1e-12, since at 1e-10
        # an adaptive shot itself is up to 1.2e-9 off
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        lam = -2.9 + 0.75j
        nodes = _kernel_nodes(256)
        pairs = solution_pairs(model, lam, nodes, SolverConfig(rtol=1e-12, atol=1e-14))
        coef = integrating_factor(model).coef
        kappa = -1j * lam / eps

        def rhs(x, y):
            pf, p = coef(x)
            return [y[1] / p, kappa * pf * y[0]]

        shot = solve_ivp(rhs, (PI - pairs.delta, pairs.delta),
                         [complex(v) for v in seed_vanishing_at_pi(model, lam, pairs.delta)],
                         method="DOP853", t_eval=nodes[::-1], rtol=1e-12, atol=1e-14)
        assert shot.success
        want = shot.y[0, ::-1]
        marched = pairs.psi[pairs.requested, 0] * pairs.wronskian[0]
        assert np.max(np.abs(marched - want)) <= 1e-9 * np.max(np.abs(want))

    def test_psi_is_refined_too(self, sine_model, monkeypatch):
        # a mesh refined for phi's columns alone leaves psi far off near the origin
        nodes = _kernel_nodes(2048)
        lam = 0.9 + 0.57j
        want = solution_pairs(sine_model, lam, nodes, TIGHT)
        want = want.psi[want.requested]

        def error():
            got = solution_pairs(sine_model, lam, nodes)
            return np.max(np.abs(got.psi[got.requested] - want)) / np.max(np.abs(want))

        assert error() <= 1e-9
        calls = []
        local_errors = shooting._local_errors

        def phi_only(*args):                  # each round checks phi's march, then psi's
            calls.append(local_errors(*args))
            return calls[-1] if len(calls) % 2 else 0.0 * calls[-1]

        monkeypatch.setattr(shooting, "_local_errors", phi_only)
        assert error() > 1e-6

    @pytest.mark.parametrize("kind", PROFILES)
    def test_psi_matches_a_tight_run_at_small_eps(self, kind):
        # at eps 0.45, where a backward DOPRI5 step's estimate reads above 1
        # on some of psi's adjugate steps, psi is 4.1e-11 off a tight run
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=0.45)
        nodes, lam = _kernel_nodes(512), 0.9 + 0.57j
        got, want = (solution_pairs(model, lam, nodes, config) for config in
                     (SolverConfig(), TIGHT))
        want = want.psi[want.requested]
        assert np.max(np.abs(got.psi[got.requested] - want)) <= 1e-9 * np.max(np.abs(want))

    def test_steps_are_built_forward_once_per_march(self, sine_model, monkeypatch):
        # psi steps through the adjugates of phi's steps, so the start mesh
        # and each split round build step polynomials once, all of positive length
        calls, real = [], shooting._step_coefficients

        def spy(model, x0, h):
            calls.append(h)
            return real(model, x0, h)

        monkeypatch.setattr(shooting, "_step_coefficients", spy)
        nodes = _kernel_nodes(256)
        pairs = solution_pairs(sine_model, 0.9 + 0.57j, nodes)
        assert pairs.rounds >= 2 and len(calls) == pairs.rounds
        assert all(np.all(h > 0.0) for h in calls)
        assert len(calls[0]) == len(shooting._start_mesh(sine_model, nodes, pairs.delta)) - 1

    @pytest.mark.parametrize("lam", [0.9 + 0.57j, -2.9 + 0.75j])
    @pytest.mark.parametrize("eps", [0.45, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_every_step_passes_the_stepper_acceptance_test(self, kind, eps, lam):
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        config = SolverConfig()
        pairs = solution_pairs(model, lam, _kernel_nodes(512), config)
        x, h = pairs.nodes, np.diff(pairs.nodes)
        phi_err = _dopri5_errors(model, [lam, -lam], x[:-1], h, pairs.phi[:-1],
                                 pairs.phi_qd[:-1], config.rtol, config.atol)
        # psi steps back through the adjugates of phi's steps, checked by the
        # adjugate pair's own estimate (a backward DOPRI5 step's read up to
        # 1.016 on them at eps 0.45)
        psi, psi_qd = pairs.psi * pairs.wronskian, pairs.psi_qd * pairs.wronskian   # unscaled
        psi_err = _adjugate_errors(model, [lam, -lam], x, psi, psi_qd, config.rtol, config.atol)
        assert np.max(phi_err) <= 1.0 and np.max(psi_err) <= 1.0
        assert pairs.rounds >= 2            # the start mesh alone fails the test

    def test_step_budget_failure(self, sine_model, monkeypatch):
        monkeypatch.setattr(shooting, "MAX_STEPS", 40)
        with pytest.raises(IntegrationError):
            solution_pairs(sine_model, 1.0, _kernel_nodes(256))

    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["sine", "piecewise-linear"])
    def test_kernel_meshes_are_accepted_in_two_marches(self, kind, eps, grid):
        # splitting evenly in the log of the distance to the nearer end
        # resolves the end collars in one split; uniform parts left the
        # child nearest the origin failing at err 1.03-1.10, so a third march
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        for lam in (-2.9 + 0.75j, 0.05 + 0.75j, 2.0 + 1.2j):
            assert solution_pairs(model, lam, _kernel_nodes(grid)).rounds == 2


class TestSplit:
    def test_parts_are_even_in_the_log_distance_to_the_nearer_end(self, sine_model):
        mesh = np.array([1e-3, 2e-3, 0.5, PI / 4, PI / 2, 3 * PI / 4, 2.5, PI - 2e-3, PI - 1e-3])
        steps = shooting._step_coefficients(sine_model, mesh[:-1], np.diff(mesh))
        err = np.array([9e4, 0.5, 0.5, 9e4, 9e4, 0.5, 0.5, 9e4])  # ceil(1.2*9e4^(1/5)) = 12
        new, (coeffs, errs) = shooting._split(sine_model, mesh, steps, err)
        assert len(new) == len(mesh) + 4 * 11
        origin, below, above, at_pi = new[:13], new[14:27], new[26:39], new[40:]
        assert below[-1] == above[0] == PI / 2
        np.testing.assert_allclose(np.diff(np.log(origin)), math.log(2.0) / 12, rtol=1e-12)
        np.testing.assert_allclose(np.diff(np.log(below)), math.log(2.0) / 12, rtol=1e-12)
        np.testing.assert_allclose(np.diff(np.log(PI - above)), -math.log(2.0) / 12, rtol=1e-12)
        np.testing.assert_allclose(np.diff(np.log(PI - at_pi)), -math.log(2.0) / 12, rtol=1e-9)
        assert np.all(np.isin(mesh, new))                  # old nodes stay, bit for bit
        kept = np.flatnonzero(np.isin(new[:-1], [2e-3, 0.5, 3 * PI / 4, 2.5]))
        assert np.array_equal(coeffs[kept], steps[0][[1, 2, 5, 6]])
        fresh = shooting._step_coefficients(sine_model, new[:-1], np.diff(new))
        assert np.array_equal(coeffs, fresh[0]) and np.array_equal(errs, fresh[1])

    def test_parts_below_rounding_are_refused(self, sine_model):
        mesh = np.array([1.0, 1.0 + 4e-14, 2.0])
        steps = shooting._step_coefficients(sine_model, mesh[:-1], np.diff(mesh))
        with pytest.raises(IntegrationError, match="step size underflow") as exc:
            shooting._split(sine_model, mesh, steps, np.array([1e10, 0.5]))
        assert exc.value.x_reached == 1.0


class TestSharedMesh:
    @pytest.mark.parametrize("eps", [0.45, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_every_step_passes_the_stepper_acceptance_test(self, kind, eps):
        # a mesh for one lam is accepted at +-lam_max only, and the interior of
        # the grid rides along; a mesh for a set of lam, at the largest one's
        # cutoff, is accepted in every column +-lam
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        config = SolverConfig()

        def largest_errors(mesh, lams):
            x, h = mesh.nodes, np.diff(mesh.nodes)
            cols = np.concatenate([lams, -lams]).astype(complex)
            seeds = ps.seed_regular_origin(model, cols, x[0])
            u, w = shooting._march(mesh.coeffs, -1j * cols / eps, *seeds, np.arange(len(x)))
            err = _dopri5_errors(model, cols, x[:-1], h, u[:-1], w[:-1], config.rtol,
                                 config.atol)
            return np.max(err, axis=0)

        mesh = shooting.shared_mesh(model, 8.0, config)
        for lam in (8.0, 0.3, 4.0):
            err = largest_errors(mesh, np.array([lam]))
            assert np.all(err <= 1.0), (lam, err)
        assert mesh.rounds >= 2             # the start mesh alone fails the test

        lams = np.array([1.3, 6.3, 3.4])
        mesh = shooting.shared_mesh(model, lams, config)
        assert mesh.lam_max == 6.3 and mesh.nodes[0] == default_cutoff(6.3)
        err = largest_errors(mesh, lams)
        assert np.all(err <= 1.0), err


def mirror_audit(model, lam, config=SolverConfig(), n_nodes=25):
    """Independent check of the half-interval reduction.

    Integrates the original equation directly on (-pi, 0) in the state
    (u, f*u') with scipy's RK45 (no integrating factor, no reflection) and
    compares u(x) against the reflected value phi(-x, -lam) node-wise;
    phi is marched alone at -lam on a mesh that ``_accepted_mesh`` lays
    out through the nodes.  Returns the node set, both solution arrays and
    the max deviation.
    """
    eps = model.epsilon
    _, a1, _ = endpoint_branches(model, lam, "origin")      # the regular branch
    d0 = default_cutoff(lam)
    d1 = max(d0, 2e-3)
    nodes = np.linspace(0.02, PI - 0.02, n_nodes)

    delta = shooting._cutoff(lam, nodes)
    mesh, _, (phi, _), _, _ = shooting._accepted_mesh(model, np.array([-lam], dtype=complex),
                                                      nodes, delta, config)
    ref_vals = phi[np.searchsorted(mesh, nodes), 0]    # phi(x, -lam)

    def rhs(x, y):
        fx = ps.eval_f(model.profile, x)
        u, z = y[0] + 1j * y[1], y[2] + 1j * y[3]
        du = z / fx
        dz = -1j * lam * u / eps - z / (eps * fx)
        return [du.real, du.imag, dz.real, dz.imag]

    u0 = 1.0 - a1 * d0
    z0 = ps.eval_f(model.profile, -d0) * a1
    y0 = [u0.real, u0.imag, z0.real, z0.imag]
    sol = solve_ivp(rhs, (-d0, -(PI - d1)), y0, t_eval=-nodes, rtol=1e-11, atol=1e-13,
                    dense_output=False)
    if not sol.success:
        raise IntegrationError("direct negative-side integration failed")
    direct = sol.y[0] + 1j * sol.y[1]
    scale = max(1.0, float(np.max(np.abs(ref_vals))))
    dev = float(np.max(np.abs(direct - ref_vals)) / scale)
    return {"nodes": nodes, "direct": direct, "reflected": ref_vals,
            "max_relative_deviation": dev}


class TestMirrorAudit:
    @pytest.mark.parametrize("lam", [0.7, 2.0, 5.5])
    def test_direct_negative_side_matches_reflection(self, sine_model, lam):
        audit = mirror_audit(sine_model, lam)
        assert audit["max_relative_deviation"] < 1e-6

    def test_tent_model_audit(self, tent_model):
        audit = mirror_audit(tent_model, 1.3)
        assert audit["max_relative_deviation"] < 1e-6

    def test_audit_reads_no_psi(self, sine_model, monkeypatch):
        # a collapsed-Wronskian guard belongs to psi, which the audit never marches
        monkeypatch.setattr(shooting, "WRONSKIAN_FLOOR", 1e6)
        assert mirror_audit(sine_model, 2.0)["max_relative_deviation"] < 1e-6
