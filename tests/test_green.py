import math
from pathlib import Path

import numpy as np
import pytest

import perspec as ps
from perspec import shooting
from perspec._stepper import KAPPA_DEGREE
from perspec.cli import EXIT_OK, run_subcommand
from perspec.errors import (EigenvalueProximityError, GridMismatchError,
                            ValidationError)
from perspec.green import (KernelGrid, _applied_parts, _grading, _nystrom_adjoint,
                           _nystrom_apply, _outward_sides, _rules, _running_rule,
                           apply_resolvent, assemble_kernel, bandlimited_forcing,
                           graded_full_grid, GridFunction, kernel_matrix, manufactured_pair,
                           resolvent_residual, weighted_frobenius_sq)

PI = math.pi
DATA = Path(__file__).parent / "data"


def _tabulated():
    x = np.linspace(0.0, PI, 41)
    return ps.tabulated_profile(x, (2 / PI) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


PROFILES = {"sine": ps.sine_profile, "tent": ps.piecewise_linear_profile, "table": _tabulated}


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


def cubic(t):
    return t * (1.0 - t) * (2.0 + 3.0 * t)       # in t, kernel integrands vanish at 0 and 1


def cubic_integral(t):
    return t ** 2 + t ** 3 / 3.0 - 0.75 * t ** 4


class TestRunningRule:
    def test_cubic_in_t_is_exact(self):
        # 40 t-steps with a segment end at node 17: every partial sum but the
        # first of a segment (the trapezoid) integrates a cubic to rounding
        h = 0.05
        t = h * np.arange(41)
        rule = _running_rule(t, np.full(41, h), {17}, set())
        got = rule.sums(cubic(t))
        exact = np.setdiff1d(np.arange(41), [1, 18])
        np.testing.assert_allclose(got[exact], cubic_integral(t[exact]), rtol=0, atol=1e-14)

    def test_kernel_rules_integrate_a_cubic_in_t(self):
        # the grid's own rule weights are t-weights times x'(t): sums of
        # cubic(t)/x'(t) are integrals in t, from the origin (part I) and
        # from pi down to 0 (the tail), past the tail's panel at pi, a
        # trapezoid in x, and the first panel after it
        half = 64
        t = np.arange(half + 1) / half
        dx = math.pi * _grading(t)[1]
        g = np.zeros(half + 1)
        g[1:-1] = cubic(t[1:-1]) / dx[1:-1]
        part_i, tail = _rules(2 * half + 1, (), ())
        got = part_i.sums(g[:-1])
        np.testing.assert_allclose(got[2:], cubic_integral(t[2:-1]), rtol=0, atol=1e-14)
        got = tail.sums(np.concatenate([g[::-1], g[1:]]))[:half]
        want = cubic_integral(t[-2]) - cubic_integral(t[::-1][3:half])
        np.testing.assert_allclose(got[3:] - got[1], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("which", ["part I", "tail"])
    def test_sums_read_no_node_past_their_end_nor_across_a_breakpoint(self, which):
        # tent profile on grid 64: the kink pi/2 is node 16 of part I's path
        # (origin outward) and nodes 16, 48 of the tail's (pi to -pi), whose
        # origin is node 32; the tail's panels at 0 and +-pi end at 1, 31,
        # 33 and 63
        part_i, tail = _rules(65, (math.pi / 2,), (math.pi / 2,))
        rule, ends, kinks = ((part_i, [16], [16]) if which == "part I"
                             else (tail, [1, 16, 31, 32, 33, 48, 63], [16, 48]))
        a = rule.sums(np.eye(len(rule.final))).T          # column j: the sums of a unit at j
        assert np.all(np.triu(a, 1) == 0.0)
        for e in ends:
            # once past a breakpoint, a sum adds nothing to the nodes before it
            assert np.all(a[e + 1:, :e] == a[e, :e])
        for k in kinks:
            # the kink node has the same weight from either side at every sum
            np.testing.assert_allclose(a[k + 1:, k], 2.0 * a[k, k], rtol=1e-15)


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
        # the kernel's own sup, 0.996, is the dense matrix's largest entry:
        # both read the one definition of an entry
        assert 0.1 < kernel_256.sup_norm < 10.0
        assert kernel_256.sup_norm == float(np.max(np.abs(kernel_matrix(kernel_256))))

    @pytest.mark.parametrize("lam", [1j, 0.9 + 0.57j, -2.9 + 0.75j])
    @pytest.mark.parametrize("profile", [ps.sine_profile, ps.piecewise_linear_profile])
    def test_sup_norm_is_the_largest_kernel_entry(self, profile, lam):
        # node by node: parts I and II on their closed supports off the
        # diagonal, and on it their limit from s > x
        k = ps.assemble_kernel(ps.OperatorModel(profile=profile(), epsilon=1.0), lam, 64)
        x, c, n = k.nodes, -1j / k.model.epsilon, len(k.nodes)
        sup = 0.0
        for i in range(n):
            for j in range(n):
                g = k.phi[i] * k.w2[j] / k.denominator
                if x[j] >= x[i]:
                    g += k.phi[i] * k.w2[j]
                between = x[i] * x[j] >= 0.0 and abs(x[j]) <= abs(x[i])
                if 0.0 < abs(x[i]) < PI and between and (j != i or x[i] < 0.0):
                    g += k.psi[i] * c * k.phi[j] * math.exp(k.log_pf[j])
                sup = max(sup, abs(g))
        assert k.sup_norm == pytest.approx(sup, rel=1e-14)

    def test_eigenvalue_proximity_detected(self, sine_model, scan_8):
        lam1 = float(scan_8.positive()[0])        # refined to ~1e-10 width
        with pytest.raises(EigenvalueProximityError, match="denominator"):
            assemble_kernel(sine_model, lam1, 128)

    def test_wronskian_deviation_recorded(self, kernel_256):
        assert kernel_256.meta["wronskian_deviation"] < 1e-6

    def test_wronskian_deviation_sees_mismatched_propagators(self, sine_model, monkeypatch):
        # psi stepped through the adjugates of phi's steps one interval off
        real = shooting._adjugate

        def shifted(coeffs):
            out = real(coeffs)
            return np.roll(out, 1, axis=0) if coeffs.shape[-1] == KAPPA_DEGREE + 1 else out

        monkeypatch.setattr(shooting, "_adjugate", shifted)
        assert assemble_kernel(sine_model, 1j, 256).meta["wronskian_deviation"] > 1e-6

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
        # the equation's residual: 2.7e-4 to 8.7e-4 on 256 nodes, falling by
        # 0.04-0.06 on 512.  It cannot see part III (phi times a constant), so
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
        dense = rule_columns(k) @ (k.weights * F.values)
        # relative to max |u|: u itself has zeros, where no digit is relative
        assert np.max(np.abs(u.values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_grid_mismatch_rejected(self, kernel_256):
        F = GridFunction(nodes=kernel_256.nodes[:-1],
                         values=np.zeros(len(kernel_256.nodes) - 1, complex))
        with pytest.raises(GridMismatchError):
            apply_resolvent(kernel_256, F)

    # (profile, grid, lam, forcing seed) of the cases in data/apply_resolvent_cases.npz:
    # each kernel's generators, the forcing and apply_resolvent's output as
    # computed before the adjoint apply and the O(n) Frobenius norm were added
    SAVED = [("sine", 64, 0.9 + 0.8j, 1), ("tent", 64, -2.6 + 0.55j, 2), ("table", 128, 0.5, 3)]

    @pytest.mark.parametrize("case", range(len(SAVED)))
    def test_saved_outputs_are_reproduced_bit_for_bit(self, case):
        name, grid, lam, seed = self.SAVED[case]
        saved = np.load(DATA / "apply_resolvent_cases.npz")
        x, w = graded_full_grid(grid)
        k = KernelGrid(lam=complex(lam), model=ps.OperatorModel(profile=PROFILES[name](), epsilon=1.0),
                       nodes=x, weights=w, meta={}, denominator=complex(saved[f"{case}_denominator"]),
                       **{key: saved[f"{case}_{key}"] for key in ("phi", "psi", "log_pf", "w2")})
        F = bandlimited_forcing(k, seed)
        assert np.array_equal(F.values, saved[f"{case}_forcing"])
        assert np.array_equal(apply_resolvent(k, F).values, saved[f"{case}_u"])


def rule_columns(kernel: KernelGrid) -> np.ndarray:
    """The running rules' dense kernel: column j is the rules' apply of the unit forcing 1/w_j at s_j.

    Built from each rule's sums of unit forcings, placed on each part's own
    path: part I from the origin outward on either side, part II from pi
    down to -pi, and part III from the tail's total weights.  The factors
    are the generators' (phi, psi, log_pf, w2, denominator), not ``_terms``'.
    """
    n, i0 = len(kernel.nodes), len(kernel.nodes) // 2
    rule_i, rule_tail = _rules(n, kernel.model.profile.breakpoints, kernel.model.profile.kinks)
    dense = np.zeros((n, n), complex)
    for path in (np.arange(i0, n - 1), np.arange(i0, 0, -1)):     # to the nodes beside +-pi
        a = rule_i.sums(np.eye(len(path))).T        # a[m, q]: weight of path[q] in the sum to path[m]
        rows = path[1:]                             # psi is nan at the origin
        dense[np.ix_(rows, path)] += (kernel.psi[rows, None] * (-1j / kernel.model.epsilon) * a[1:]
                                      * kernel.phi[path] * np.exp(kernel.log_pf[path]))
    path = np.arange(n - 1, -1, -1)
    a = rule_tail.sums(np.eye(n)).T
    dense[np.ix_(path, path)] += kernel.phi[path, None] * a * kernel.w2[path]
    dense[:, path] += kernel.phi[:, None] * (a[-1] * kernel.w2[path] / kernel.denominator)
    return dense / kernel.weights


@pytest.mark.parametrize("lam", [0.9 + 0.8j, -2.6 + 0.55j, 1.3])
@pytest.mark.parametrize("grid", [64, 256])
@pytest.mark.parametrize("name", sorted(PROFILES))
class TestAdjointAndFrobenius:
    # the O(n) cumulative sums over the entries' supports against the dense
    # M = diag(sqrt w) G diag(sqrt w), whose entries G are built row block by
    # row block; the table's 41 rows make every table node a breakpoint
    @pytest.fixture
    def kernel(self, name, grid, lam):
        return assemble_kernel(ps.OperatorModel(profile=PROFILES[name](), epsilon=1.0), lam, grid)

    @staticmethod
    def nystrom_matrix(kernel):
        sq = np.sqrt(kernel.weights)
        return sq[:, None] * kernel_matrix(kernel) * sq[None, :]

    def test_apply_matches_the_dense_kernel(self, kernel):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(len(kernel.nodes)) + 1j * rng.standard_normal(len(kernel.nodes))
        got = _nystrom_apply(kernel, v)
        want = self.nystrom_matrix(kernel) @ v
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_adjoint_matches_the_dense_kernel(self, kernel):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(len(kernel.nodes)) + 1j * rng.standard_normal(len(kernel.nodes))
        got = _nystrom_adjoint(kernel, y)
        want = self.nystrom_matrix(kernel).conj().T @ y
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_adjoint_identity(self, kernel):
        # <M x, y> = <x, M^H y>
        rng = np.random.default_rng(6)
        x, y = (rng.standard_normal((2, len(kernel.nodes)))
                + 1j * rng.standard_normal((2, len(kernel.nodes))))
        left, right = np.vdot(y, _nystrom_apply(kernel, x)), np.vdot(_nystrom_adjoint(kernel, y), x)
        assert abs(left - right) <= 1e-12 * abs(left)

    def test_sliced_factors_rebuild_the_dense_kernel(self, kernel):
        # every entry of M from the cut factors of _nystrom_terms, each term
        # on its own nodes only: no slice drops an entry
        n = len(kernel.nodes)
        rebuilt = np.zeros((n, n), complex)
        for a, b, a_conj, b_conj, support, nodes in kernel._nystrom_terms:
            assert np.array_equal(a_conj, np.conj(a)) and np.array_equal(b_conj, np.conj(b))
            i, j = np.arange(n)[nodes, None], np.arange(n)[nodes]
            inside = True if support == "all" else (j >= i if support == "s >= x" else j < i)
            rebuilt[nodes, nodes] += np.where(inside, a[:, None] * b[None, :], 0.0)
        want = self.nystrom_matrix(kernel)
        assert np.max(np.abs(rebuilt - want)) <= 1e-15 * np.max(np.abs(want))

    def test_frobenius_norm_matches_the_dense_kernel(self, kernel):
        dense = np.sum(np.abs(self.nystrom_matrix(kernel)) ** 2)
        assert weighted_frobenius_sq(kernel) == pytest.approx(dense, rel=1e-12)


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


def bound_product_audit(kernel: KernelGrid) -> float:
    """max over sampled (x, s), s between 0 and x, |x| <= 0.5, of |psi(x) p(s)/f(s)|.

    Refinement stability of this number is the computable stand-in for the
    uniform bound on the part-I product near the origin, where psi blows
    up and p/f vanishes at matching rates.
    """
    x = kernel.nodes
    with np.errstate(divide="ignore"):      # psi is 0 at +-pi and nan at 0
        lpsi = np.log(np.abs(kernel.psi))
    best = -np.inf
    for side in _outward_sides(len(x)):
        # max_s (log|psi(x)| + log pf(s)) = log|psi(x)| + max_s log pf(s): rounding
        # of a sum is monotone in each term, so this is the max over all pairs
        logs = lpsi[side] + np.maximum.accumulate(kernel.log_pf[side])
        rows = np.abs(x[side]) <= 0.5
        best = max(best, float(np.max(logs, where=rows, initial=-np.inf)))
    return float(np.exp(best))


def integral_proxies(kernel: KernelGrid, forcing: GridFunction):
    """Parts I and II of one application, weighted: the first and second integral terms.

    |psi(x) * int_0^x phi (-i p/(eps f)) F| / (sqrt(x) ||F||) on 0 < x < pi/2 and
    |phi(x) * int_x^pi psi (-i p/(eps f)) F| / (sqrt(pi-x) ||F||) on 0 < x < pi.
    """
    x = kernel.nodes
    norm_f = math.sqrt(float(np.sum(kernel.weights * np.abs(forcing.values) ** 2)))
    pos, _ = _outward_sides(len(x))
    part_i, part_ii, _ = _applied_parts(kernel, forcing.values)
    xq = x[pos]
    proxy1 = np.abs(part_i[pos]) / (np.sqrt(xq) * norm_f)
    proxy2 = np.abs(part_ii[pos]) / (np.sqrt(PI - xq) * norm_f)
    return proxy1[xq < PI / 2], proxy2


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


class TestRecoveryOrder:
    @pytest.mark.parametrize("eps", [0.3, 0.45, 1.0, 2.0])
    def test_sine_recovery_falls_sixfold_per_doubling(self, eps):
        # 8.4 to 8.8 times at lam = 3 + 0.75i
        model = ps.OperatorModel(profile=ps.sine_profile(), epsilon=eps)
        errs = []
        for grid in (256, 512):
            k = assemble_kernel(model, 3 + 0.75j, grid)
            u_star, F = manufactured_pair(model, 3 + 0.75j, k.nodes)
            errs.append(l2_relative_error(k.weights, apply_resolvent(k, F).values,
                                          u_star.values))
        assert errs[1] < errs[0] / 6.0

    @pytest.mark.parametrize("lam", [-3 + 0.75j, 0.05 + 0.75j, 3 + 0.75j])
    def test_first_rung_reaches_the_ladder_tolerance(self, sine_model, tent_model, lam):
        # 5e-5 at grid 256: sine 2.3e-6 to 6.5e-6, tent 2.2e-5 to 3.6e-5
        for model in (sine_model, tent_model):
            k = assemble_kernel(model, lam, 256)
            u_star, F = manufactured_pair(model, lam, k.nodes)
            u = apply_resolvent(k, F)
            assert l2_relative_error(k.weights, u.values, u_star.values) <= 5e-5


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
