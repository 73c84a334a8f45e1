import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import perspec as ps
from perspec import _stepper, green, shooting
from perspec.cli import EXIT_OK, run_subcommand
from perspec.errors import (EigenvalueProximityError, IntegrationError,
                            SolverError)
from perspec.eigensolve import eigenfunction
from perspec.shooting import SolverConfig, compute_phi_at_pi, solution_pairs
from perspec.singular import (MAX_CUTOFF, compute_p_over_f, default_cutoff,
                              endpoint_branches, integrating_factor,
                              seed_vanishing_at_pi)

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


def _dopri5_errors(model, lams, x0, h, u, w, rtol, atol):
    """The scalar stepper's err for one DOPRI5 step per interval, stepped elementwise.

    Steps go from x0 to x0 + h, started at (u, w) (shape: intervals x
    columns), with one column per lam in ``lams``; the formula is that of
    ``integrate_quasi_system``.
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
    err = h[:, None] * sum(e * k for e, k in zip(_stepper._E_ROW, ks))
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y_new))
    return np.sqrt(0.5 * np.sum((np.abs(err) / sc) ** 2, axis=0))


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
        a = compute_phi_at_pi(sine_model, 1.0, SolverConfig(rtol=1e-10, atol=1e-12))
        b = compute_phi_at_pi(sine_model, 1.0, SolverConfig(rtol=5e-11, atol=5e-13))
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
        # and a step-budget error that names the overflow
        with pytest.raises(IntegrationError, match="step budget exhausted: the march "
                                                   "overflows") as exc:
            solution_pairs(sine_model, 1e6, ())
        assert 0.0 < exc.value.x_reached < PI

    def test_trace_is_readonly(self, sine_model):
        tr = eigenfunction(sine_model, 0.0)
        with pytest.raises(ValueError):
            tr.values[0] = 0.0

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

    def test_boundary_value_conjugate(self, sine_model):
        a = compute_phi_at_pi(sine_model, 4.1)
        b = compute_phi_at_pi(sine_model, -4.1)
        assert b == np.conj(a)

    def test_phi_at_pi_real_on_imaginary_axis(self, sine_model):
        # lam = i tau is fixed by the conjugation map, so phi is real there
        val = compute_phi_at_pi(sine_model, 1j)
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
        a = compute_phi_at_pi(sine_model, 1.0, SolverConfig(delta=1e-4))
        b = compute_phi_at_pi(sine_model, 1.0, SolverConfig(delta=5e-5))
        assert abs(a - b) < 1e-6

    def test_ill_conditioned_fit_detected(self, sine_model):
        dist = np.array([1e-4, 1e-4 + 1e-13, 1e-4 + 2e-13])   # nearest pi first
        with pytest.raises(SolverError, match="ill-conditioned"):
            shooting._two_branch_fit(sine_model, 1.0, "pi", PI - dist, np.ones(3, complex), 1e-4)

    @pytest.mark.parametrize("end", ["origin", "pi"])
    def test_fit_reaches_the_largest_cutoff_and_no_farther(self, sine_model, end):
        # the fit nodes of the cutoff MAX_CUTOFF pass, as a mesh rounds them
        # (pi - (pi - 0.1) is 0.1 + 9e-17); a hair beyond, the middle one is too far
        def fit(delta):
            x = shooting._fit_nodes(end, delta)
            return shooting._two_branch_fit(sine_model, 1.0, end, x, np.ones(3, complex), delta)

        fit(MAX_CUTOFF)
        with pytest.raises(SolverError, match="close enough"):
            fit(MAX_CUTOFF * (1.0 + 1e-12))


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
        scalar = SolverConfig(delta=pairs.delta, rtol=1e-12, atol=1e-14)
        for got, lm in zip(pairs.phi_at_pi, (lam, -lam)):
            want = compute_phi_at_pi(model, lm, scalar)
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
        psi, psi_qd = pairs.psi * pairs.wronskian, pairs.psi_qd * pairs.wronskian   # unscaled
        psi_err = _dopri5_errors(model, [lam, -lam], x[1:], -h, psi[1:], psi_qd[1:],
                                 config.rtol, config.atol)
        assert np.max(phi_err) <= 1.0 and np.max(psi_err) <= 1.0
        assert pairs.rounds >= 2            # the start mesh alone fails the test

    def test_step_budget_failure(self, sine_model, monkeypatch):
        monkeypatch.setattr(shooting, "MAX_STEPS", 40)
        with pytest.raises(IntegrationError):
            solution_pairs(sine_model, 1.0, _kernel_nodes(256))


class TestSharedMesh:
    @pytest.mark.parametrize("eps", [0.45, 2.0])
    @pytest.mark.parametrize("kind", PROFILES)
    def test_every_step_passes_the_stepper_acceptance_test(self, kind, eps):
        # the mesh is accepted at +-lam_max only; the interior of the grid rides along
        model = ps.OperatorModel(profile=PROFILES[kind](), epsilon=eps)
        config = SolverConfig()
        mesh = shooting.shared_mesh(model, 8.0, config)
        x, h = mesh.nodes, np.diff(mesh.nodes)
        every = np.arange(len(x))
        for lam in (8.0, 0.3, 4.0):
            lams = np.array([lam, -lam], dtype=complex)
            seeds = ps.seed_regular_origin(model, lams, x[0])
            u, w = shooting._march(mesh.coeffs, -1j * lams / eps, *seeds, every)
            err = _dopri5_errors(model, lams, x[:-1], h, u[:-1], w[:-1], config.rtol,
                                 config.atol)
            assert np.max(err) <= 1.0, (lam, np.max(err))
        assert mesh.rounds >= 2             # the start mesh alone fails the test


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
    d0 = config.delta if config.delta is not None else default_cutoff(lam)
    d1 = max(d0, 2e-3)
    nodes = np.linspace(0.02, PI - 0.02, n_nodes)

    delta = shooting._cutoff(lam, config, nodes)
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
