import functools
import math

import numpy as np
import pytest

from perspec import green, schatten
from perspec.errors import ValidationError
from perspec.profiles import (OperatorModel, piecewise_linear_profile, sine_profile,
                              tabulated_profile)
from perspec.schatten import (SingularValueSpectrum, dyadic_bound_audit,
                              eigen_schatten_inequality, singular_values)
from perspec.shooting import SolverConfig
from perspec.singular import compute_log_p_over_f


def _spectrum(values, tail_mass=0.0, tail_count=0):
    return SingularValueSpectrum(lam=1j, grid_size=64, values=np.asarray(values),
                                 schatten_norms={}, tail_mass=tail_mass, tail_count=tail_count)


def _dense_values(kernel, rows=slice(None)):
    """The singular values of diag(sqrt w) G diag(sqrt w) on the grid's nodes ``rows``, by a dense SVD.

    The entries are G(x_i, s_j) and w the trapezoid weights of those nodes.
    """
    x = kernel.nodes[rows]
    sq = np.sqrt((np.diff(x, prepend=x[0]) + np.diff(x, append=x[-1])) / 2.0)
    g = green.kernel_matrix(kernel)[rows, rows]
    return np.linalg.svd(sq[:, None] * g * sq[None, :], compute_uv=False)


def _richardson(fine, coarse, count):
    """The leading values (4 s(n) - s(n/2)) / 3, sorted, and the squared Frobenius norm likewise."""
    values = np.sort((4.0 * fine[:count] - coarse[:count]) / 3.0)[::-1]
    return values, _power_sum(fine, coarse, 2.0)


def _power_sum(fine, coarse, p):
    """(4 sum s(n)^p - sum s(n/2)^p) / 3 over every value of both grids."""
    return (4.0 * float(np.sum(fine ** p)) - float(np.sum(coarse ** p))) / 3.0


# (profile, grid, lam), lam in the schatten workload's range: Re in [-3, 3], Im in [0.5, 1.5].
# Grid n extrapolates n/8 values up to 64
DENSE_CASES = [("sine", 128, 2.9 + 0.5j), ("tent", 128, -1.3 + 1.4j),
               ("sine", 256, -2.6 + 0.55j), ("tent", 512, 0.7 + 1j),
               ("sine", 1024, 0.7 + 1j), ("tent", 1024, -2.6 + 0.55j),
               ("tent", 64, -2.6 + 0.55j), ("table", 256, 0.7 + 1j), ("table", 128, -2.9 + 0.5j)]


def _tabulated():
    # the 41-row table of tests/test_green.py
    x = np.linspace(0.0, math.pi, 41)
    return tabulated_profile(x, (2 / math.pi) * np.sin(x) * (1.0 + 0.1 * np.sin(x) ** 2))


MODELS = {"sine": sine_profile, "tent": piecewise_linear_profile, "table": _tabulated}


@pytest.fixture(scope="module", params=DENSE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def against_dense(request):
    # the Richardson pair of dense SVDs: the grid's, and its even-node submatrix's
    name, grid, lam = request.param
    kernel = green.assemble_kernel(OperatorModel(profile=MODELS[name](), epsilon=1.0), lam, grid)
    return singular_values(kernel), _dense_values(kernel), _dense_values(kernel, slice(None, None, 2))


class TestLanczosAgainstTheDenseSvd:
    def test_leading_values(self, against_dense):
        spectrum, fine, coarse = against_dense
        k = len(spectrum.values)
        assert k == min(schatten.LEADING, (len(fine) - 1) // schatten.INTERVALS_PER_VALUE)
        dense, _ = _richardson(fine, coarse, k)
        assert np.max(np.abs(spectrum.values - dense[:k])) <= 1e-12 * dense[0]

    def test_last_value_is_near_the_grids_own(self, against_dense):
        # the grid's own sigma_k lies 1.5 to 1.9 % below the extrapolated one
        # at k = n/8 and 0.4 % at n/16; extrapolating the even nodes' last
        # value, the duplicated node +-pi's null, gave 4/3 of the grid's own
        spectrum, fine, _ = against_dense
        k = len(spectrum.values)
        assert spectrum.values[-1] == pytest.approx(fine[k - 1], rel=0.03)

    def test_s2_is_the_frobenius_norm(self, against_dense):
        spectrum, fine, coarse = against_dense
        assert spectrum.tail_count == len(fine) - len(spectrum.values)
        s2 = math.sqrt(_richardson(fine, coarse, len(spectrum.values))[1])
        assert spectrum.schatten_norms[2.0] == pytest.approx(s2, rel=1e-12)
        assert math.sqrt(float(np.sum(spectrum.values ** 2)) + spectrum.tail_mass) == \
            pytest.approx(s2, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_dense_norms_lie_in_the_bounds(self, against_dense, p):
        # the reference is every dense value of both grids, extrapolated as a
        # power sum: (4 sum s(n)^p - sum s(n/2)^p) / 3.  For p < 2 it lies
        # inside, 8e-4 or more from either bound; for p = 2 the bounds meet
        # at it, up to rounding.  For p = 3 they are narrower than the head's
        # own error, and the reference left them by up to 2.8e-4 (tent, grid
        # 64), where p times the error estimate is 1e-2
        spectrum, fine, coarse = against_dense
        lo, hi = spectrum.power_sum_bounds(p)
        slack = p * spectrum.extrapolation_error if p > 2.0 else 1e-12
        assert lo * (1.0 - slack) <= _power_sum(fine, coarse, p) <= hi * (1.0 + slack)
        if spectrum.tail_mass > 0.0:
            assert 0.0 < spectrum.tail_shares[p] < 1.0
        else:
            assert spectrum.tail_shares[p] == 0.0


def test_the_step_cap_ends_with_a_check(sine_model):
    # n = 65: the first check, at step 64, does not pass and the next one
    # lies past n, so the values come from the whole bidiagonal
    kernel = green.assemble_kernel(sine_model, -2.6 + 0.55j, 64)
    values, steps, checks = schatten._nystrom_values(kernel, schatten.LEADING)
    assert (steps, checks) == (65, 2)
    dense = _dense_values(kernel)
    assert np.max(np.abs(values - dense[:schatten.LEADING])) <= 1e-12 * dense[0]


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


class TestLanczosInternals:
    def test_a_cancelling_vector_is_orthogonalized_twice(self):
        # r lies 1 - 1e-10 inside the span of 20 orthonormal rows: one
        # Gram-Schmidt pass leaves components along them of 2e-6 of what is
        # left; the DGKS test asks for the second pass
        rng = np.random.default_rng(11)
        basis = _unitary(rng, 300)[:20].conj()
        c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        z -= np.conj(basis @ np.conj(z)) @ basis
        r = c @ basis / np.linalg.norm(c) + 1e-10 * z / np.linalg.norm(z)
        out, norm = schatten._orthogonalized(r, basis)
        assert norm == np.linalg.norm(out)
        assert np.max(np.abs(basis @ np.conj(out))) <= 1e-14 * norm
        once = r - np.conj(basis @ np.conj(r)) @ basis
        assert np.max(np.abs(basis @ np.conj(once))) > 1e-14 * np.linalg.norm(once)

    @pytest.mark.parametrize("spectrum", [
        pytest.param(lambda k: 0.9 ** k, id="0.9"), pytest.param(lambda k: 0.97 ** k, id="0.97"),
        pytest.param(lambda k: 0.8 ** k, id="0.8"), pytest.param(lambda k: 1.0 / (k + 1), id="k^-1"),
        pytest.param(lambda k: 1.0 / (k + 1) ** 2, id="k^-2")])
    def test_leading_values_of_an_explicit_matrix(self, spectrum):
        # Q1 diag(s) Q2^H with two values 1e-9 apart.  Reorthogonalizing the
        # right vectors alone is weakest in theory on fast decay: 0.8^k falls
        # to 1e-29 at k = 300, and the kernels' own values fall like k^-1 to k^-2
        rng = np.random.default_rng(12)
        n = 300
        s = spectrum(np.arange(n))
        s[6] = s[5] - 1e-9
        a = (_unitary(rng, n) * s) @ _unitary(rng, n).conj().T
        values, steps, checks = schatten._lanczos(lambda v: a @ v, lambda y: a.conj().T @ y,
                                                  n, schatten.LEADING)
        assert np.max(np.abs(values - s[:schatten.LEADING])) <= 1e-13 * s[0]
        assert 1 <= checks <= steps / schatten.RITZ_CHECK

    def test_start_vector_has_no_parity(self):
        # a start vector even or odd under the nodes' reflection would keep
        # the Krylov space in one parity of a reflection-symmetric kernel
        v = schatten._start_vector(1025)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
        even, odd = (v + v[::-1]) / 2.0, (v - v[::-1]) / 2.0
        assert np.linalg.norm(even) > 0.5 and np.linalg.norm(odd) > 0.5


@pytest.fixture(scope="module")
def spectrum_of():
    """``singular_values`` at (profile, grid, lam), eps 1, each computed once for the module."""
    @functools.lru_cache(maxsize=None)
    def spectrum(name, grid, lam):
        model = OperatorModel(profile=MODELS[name](), epsilon=1.0)
        return singular_values(green.assemble_kernel(model, lam, grid))
    return spectrum


@pytest.mark.parametrize("lam", [1j, 0.5j, 0.7 + 1j])
@pytest.mark.parametrize("grid", [256, 1024])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_values_are_positive_and_sorted(spectrum_of, name, grid, lam):
    # (4 s(n) - s(n/2)) / 3 index by index rises once on the sine at lam = i
    # and 0.5i (grid 1024) and 7 or 8 times on the tent; the values are sorted
    values = spectrum_of(name, grid, lam).values
    assert np.all(values > 0.0) and np.all(np.diff(values) <= 0.0)


@pytest.mark.parametrize("grid, lam, counts", [(1024, 0.7 + 1j, (216, 7)),
                                               (1024, -2.6 + 0.55j, (208, 6)),
                                               (256, 1j, (144, 6))])
@pytest.mark.parametrize("name", ["sine", "tent"])
def test_lanczos_counts_are_pinned(spectrum_of, name, grid, lam, counts):
    # both solves' steps and Ritz checks, as the operator's arithmetic stood
    # when they were pinned: a faster apply must not change convergence
    spectrum = spectrum_of(name, grid, lam)
    assert (spectrum.lanczos_steps, spectrum.lanczos_checks) == counts


CONTINUANT_GRIDS = [64, 128, 256, 512, 1024]


@pytest.fixture(scope="module")
def sine_at_i(spectrum_of):
    return {grid: spectrum_of("sine", grid, 1j) for grid in CONTINUANT_GRIDS}


class TestAgainstTheContinuantsTail:
    # the continuant's sigma_k, S1, S1.5 and S3 (conftest); the grid's
    # rule-weighted matrix read sigma_64 0.00730 against 0.00389 and S1.5 in
    # [2.2138, 2.2304] against 2.19825 at grid 1024
    def test_sigma_32_and_64(self, sine_at_i, fourier_schatten):
        sigmas, _ = fourier_schatten
        values = sine_at_i[1024].values
        assert values[31] == pytest.approx(sigmas[32], rel=1.2e-4)
        assert values[63] == pytest.approx(sigmas[64], rel=1.2e-4)

    @pytest.mark.parametrize("grid", CONTINUANT_GRIDS[:4])
    def test_the_last_value_is_the_operators(self, sine_at_i, fourier_schatten, grid):
        # sigma_(n/8): 6.0e-4, 8.4e-4, 7.6e-4 and 6.8e-4 relative off at grids
        # 64 to 512.  Extrapolating up to the even nodes' count read 33
        # values at grid 64, the last 4/3 of the grid's own
        sigmas, _ = fourier_schatten
        values = sine_at_i[grid].values
        assert len(values) == grid // 8
        assert values[-1] == pytest.approx(sigmas[grid // 8], rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("grid", CONTINUANT_GRIDS)
    def test_norms_lie_in_the_bounds(self, sine_at_i, fourier_schatten, grid, p):
        # [5.223, 5.707] and [2.1970, 2.2008] at grid 1024; S3 lies 1.1e-7
        # above its lower bound at 512 and 1024, 8.5e-4 at grid 64.  The even
        # nodes' 33 values at grid 64 put S1.5's lower bound 3e-4 above S1.5
        lo, hi = (v ** (1.0 / p) for v in sine_at_i[grid].power_sum_bounds(p))
        assert lo <= fourier_schatten[1][p] <= hi

    @pytest.mark.parametrize("grid", CONTINUANT_GRIDS)
    def test_the_error_estimate_covers_the_head(self, sine_at_i, fourier_singular, grid):
        # the estimate is the unextrapolated values' error: 3.5e-3 down to
        # 1.5e-5 of sigma_1 at grids 64 to 1024, where the extrapolated head
        # is 2.6e-4 down to 4.3e-9 off
        values, _ = fourier_singular
        spectrum = sine_at_i[grid]
        head = spectrum.values[:len(values)]
        assert 0.0 < np.max(np.abs(head - values[:len(head)])) <= spectrum.extrapolation_error


def test_a_grid_whose_even_nodes_miss_zero_is_refused(sine_model):
    # grid 66: the even nodes skip 0, where the kernel has its kink
    with pytest.raises(ValidationError, match="divisible by 4"):
        singular_values(green.assemble_kernel(sine_model, 1j, 66))


def test_matches_the_fourier_continuant(sine_model, fourier_singular):
    # the operator's own values (conftest); the grid's error with the
    # trapezoid weights measured 1.37e-5 on the first 10 and 6.9e-4 on S2
    # at grid 1024; the tolerances are those errors, not wider
    values, s2 = fourier_singular
    spectrum = singular_values(green.assemble_kernel(sine_model, 1j, 1024))
    assert np.max(np.abs(spectrum.values[:10] / values - 1.0)) <= 1.4e-5
    assert spectrum.schatten_norms[2.0] == pytest.approx(s2, rel=7e-4)


def test_every_node_carries_weight(tent_model):
    # every trapezoid weight is positive, so no column of M is 0.  The
    # package computes only the leading values, so the dense SVD is taken
    # here.  Blind to the duplicated node +-pi: its value is 7e-19,
    # positive by rounding (the next is 2.7e-4); a floor relative to
    # sigma_1 after merging the rows +-pi would see it
    values = _dense_values(green.assemble_kernel(tent_model, 0.7 + 1j, 128))
    assert np.all(values > 0.0)


class TestPowerSumBounds:
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_hold_for_any_tail_of_that_count_and_mass(self, p):
        rng = np.random.default_rng(3)
        head = np.array([1.0, 0.6, 0.5])
        for _ in range(200):
            tail = 0.5 * rng.random(20) ** rng.uniform(0.1, 4.0)
            lo, hi = _spectrum(head, float(np.sum(tail ** 2)), 20).power_sum_bounds(p)
            exact = float(np.sum(head ** p) + np.sum(tail ** p))
            assert lo * (1.0 - 1e-14) <= exact <= hi * (1.0 + 1e-14)

    def test_values(self):
        # T s^(p - 2) and m^(1 - p/2) T^(p/2), in order for p < 2 and swapped for p > 2
        spec = _spectrum([1.0, 0.5], tail_mass=0.3, tail_count=3)
        lo, hi = spec.power_sum_bounds(1.5)
        head = 1.0 + 0.5 ** 1.5
        assert lo == pytest.approx(head + 0.3 * 0.5 ** -0.5)
        assert hi == pytest.approx(head + 3 ** 0.25 * 0.3 ** 0.75)
        lo, hi = spec.power_sum_bounds(3.0)
        assert lo == pytest.approx(1.125 + 3 ** -0.5 * 0.3 ** 1.5)
        assert hi == pytest.approx(1.125 + 0.3 * 0.5)
        assert spec.power_sum_bounds(2.0) == pytest.approx((1.25 + 0.3, 1.25 + 0.3))

    def test_no_tail_gives_the_leading_sum(self):
        assert _spectrum([1.0, 0.5]).power_sum_bounds(1.5) == (1.0 + 0.5 ** 1.5,) * 2


class TestEigenSchattenInequality:
    def test_passes_when_eigenvalues_are_far(self):
        rep = eigen_schatten_inequality(np.array([-2.0, 0.0, 2.0]),
                                        _spectrum([1.0, 0.5, 0.25]), 3j, 2.0)
        assert rep.left == pytest.approx(1.0 / 9.0 + 2.0 / 13.0)
        assert rep.right == pytest.approx(1.3125)
        assert rep.passed and rep.slack >= 0.0
        assert rep.eigenvalues_used == 3

    def test_fails_when_an_eigenvalue_is_close(self):
        rep = eigen_schatten_inequality([0.0, 0.3], _spectrum([1.0, 0.5]), 0.3 + 0.1j, 2.0)
        assert rep.left > 100.0
        assert not rep.passed and rep.slack < 0.0

    def test_guard_is_relative_to_the_right_side(self, monkeypatch):
        spec = _spectrum([1.0])
        # left = |2i|^-2 = 0.25 against right = 1 scaled by the guard
        monkeypatch.setattr(schatten, "INEQUALITY_GUARD", -0.75)
        assert eigen_schatten_inequality([0.0], spec, 2j, 2.0).passed
        monkeypatch.setattr(schatten, "INEQUALITY_GUARD", -0.76)
        assert not eigen_schatten_inequality([0.0], spec, 2j, 2.0).passed

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_needs_p_above_one(self, p):
        with pytest.raises(ValidationError):
            eigen_schatten_inequality([0.0], _spectrum([1.0]), 1j, p)

    @pytest.mark.parametrize("left, passed", [(0.6, True), (0.84, False)])
    def test_the_tails_lower_bound_decides(self, left, passed):
        # p = 1.5, leading sum 0.354, tail lower bound 0.424 and upper 0.534:
        # left = 0.6 passes only through the tail's lower bound, and 0.84
        # fails though it lies below the upper bound's (0.887 * 1.05)
        spec = _spectrum([0.5], tail_mass=0.3, tail_count=3)
        lam = 1j * left ** (-1.0 / 1.5)                 # |lam - 0|^(-1.5) = left
        rep = eigen_schatten_inequality([0.0], spec, lam, 1.5)
        assert rep.left == pytest.approx(left)
        assert rep.right == pytest.approx(0.5 ** 1.5 + 0.3 * 0.5 ** -0.5)
        assert rep.passed is passed
        assert not eigen_schatten_inequality([0.0], _spectrum([0.5]), lam, 1.5).passed


class TestDyadicBoundAudit:
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    def test_default_matches_a_tight_run(self, eps):
        # the cutoff is capped below the innermost Gauss nodes, so every one
        # stays a trace node; serving the nodes inside a larger cutoff from the
        # endpoint local models was 2.6e-5 off at eps 2
        model = OperatorModel(profile=sine_profile(), epsilon=eps)
        default = dyadic_bound_audit(model, 0.7 + 1j, 6)
        tight = dyadic_bound_audit(model, 0.7 + 1j, 6, SolverConfig(rtol=1e-12, atol=1e-14))
        np.testing.assert_allclose(default.alpha_hat, tight.alpha_hat, rtol=1e-8, atol=0.0)

    def test_matches_a_node_by_node_loop(self, sine_model, monkeypatch):
        # reference: each Gauss node of the finest intervals read from the
        # audit's own traces, negative nodes through the reflection to -lam,
        # summed one node at a time; a coarser interval's squared norm is the
        # sum of its two halves'
        used = []

        def keep(*args, **kwargs):
            used.append(green.solution_pairs(*args, **kwargs))
            return used[-1]

        monkeypatch.setattr(schatten, "solution_pairs", keep)
        levels = 3
        rep = dyadic_bound_audit(sine_model, 0.7 + 1j, levels)
        pairs = used[0]
        gx, gw = np.polynomial.legendre.leggauss(schatten.DYADIC_GAUSS_ORDER)

        def squared_norm(a, b, side, which):
            # the interval (a, b) of (0, pi), or its mirror (-b, -a) for side -1
            total, column = 0.0, (0 if side > 0 else 1)      # column 1 is -lam
            for q in range(len(gx)):
                t = a + (b - a) * ((gx[q] + 1.0) / 2.0)
                row = int(np.searchsorted(pairs.nodes, t))
                assert pairs.nodes[row] == t                  # a mesh node, not a neighbour
                mag = abs(getattr(pairs, which)[row, column])
                if which == "psi":
                    mag *= math.exp(compute_log_p_over_f(sine_model, np.array([t]))[0])
                    mag /= sine_model.epsilon
                total += gw[q] * mag * mag
            return total * (b - a) / 2.0

        edges = np.linspace(0.0, math.pi, 2 ** levels + 1)
        finest = ([(edges[k], edges[k + 1], -1) for k in range(2 ** levels - 1, -1, -1)]
                  + [(edges[k], edges[k + 1], 1) for k in range(2 ** levels)])   # from -pi
        v_sq = [squared_norm(a, b, side, "phi") for a, b, side in finest]
        w_sq = [squared_norm(a, b, side, "psi") for a, b, side in finest]
        for j in range(levels, -1, -1):
            blocks = [math.sqrt(v_sq[2 * i]) * math.sqrt(w_sq[2 * i + 1]) for i in range(2 ** j)]
            assert rep.alpha_hat[j] == pytest.approx(max(blocks), rel=1e-14)
            # the lowest index among blocks within 1e-9 of the max
            assert rep.argmax_index[j] == min(i for i, b in enumerate(blocks)
                                              if b >= (1.0 - 1e-9) * max(blocks))
            v_sq = [v_sq[2 * i] + v_sq[2 * i + 1] for i in range(2 ** j)]
            w_sq = [w_sq[2 * i] + w_sq[2 * i + 1] for i in range(2 ** j)]

    def test_marches_the_finest_panels_once(self, sine_model, monkeypatch):
        # the finest level's panels serve every level, so the march gets one
        # node per abscissa; joining every level's panels gave 2825 distinct
        # |x| at 6 levels, 793 of them one ulp off a mirror
        calls = []

        def spy(*args, **kwargs):
            calls.append(np.array(args[2]))
            return green.solution_pairs(*args, **kwargs)

        monkeypatch.setattr(schatten, "solution_pairs", spy)
        levels = 6
        dyadic_bound_audit(sine_model, 0.7 + 1j, levels)
        assert len(calls) == 1
        nodes = calls[0]
        assert nodes.shape == (2 ** levels * schatten.DYADIC_GAUSS_ORDER,)
        assert np.all(np.diff(nodes) > 0.0)
        assert 0.0 < nodes[0] and nodes[-1] < math.pi

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_coarse_levels_match_a_composite_rule(self, eps):
        # reference: every level's interval norms summed node by node over the
        # Gauss panels of 2^8 equal subintervals of (0, pi) and their mirrors;
        # one Gauss panel per coarse interval, ending at the singular points
        # 0 and +-pi, was 1.1e-5 (eps 1) and 2.4e-4 (eps 2) off at level 0
        model = OperatorModel(profile=sine_profile(), epsilon=eps)
        lam, fine = 0.7 + 1j, 8
        rep = dyadic_bound_audit(model, lam, 6)
        gx, gw = np.polynomial.legendre.leggauss(schatten.DYADIC_GAUSS_ORDER)
        edges = np.linspace(0.0, math.pi, 2 ** fine + 1)
        x = [a + (b - a) * ((g + 1.0) / 2.0) for a, b in zip(edges[:-1], edges[1:]) for g in gx]
        weight = [w * (b - a) / 2.0 for a, b in zip(edges[:-1], edges[1:]) for w in gw]
        pairs = green.solution_pairs(model, lam, np.array(x))
        log_pf = compute_log_p_over_f(model, np.array(x))
        # per node and side (0: x > 0 at lam, 1: -x through -lam) the weighted |v|^2, |w|^2
        v_sq, w_sq = [[], []], [[], []]
        for k, row in enumerate(pairs.requested):
            for column in (0, 1):
                v_sq[column].append(weight[k] * abs(pairs.phi[row, column]) ** 2)
                w = abs(pairs.psi[row, column]) * math.exp(log_pf[k]) / eps
                w_sq[column].append(weight[k] * w * w)

        def norm(sq, lo, hi):
            # the L2 norm over (lo, hi), an interval of one sign
            side = 0 if lo >= 0.0 else 1
            a, b = sorted((abs(lo), abs(hi)))
            return math.sqrt(sum(s for t, s in zip(x, sq[side]) if a < t < b))

        for j in range(3):
            cuts = np.linspace(-math.pi, math.pi, 2 ** (j + 1) + 1)
            blocks = [norm(v_sq, cuts[2 * i], cuts[2 * i + 1])
                      * norm(w_sq, cuts[2 * i + 1], cuts[2 * i + 2]) for i in range(2 ** j)]
            assert rep.alpha_hat[j] == pytest.approx(max(blocks), rel=1e-6)

    @pytest.mark.parametrize("eps, lam", [(1.0, 1j), (0.45, 0.7 + 1j)])
    def test_argmax_index_is_not_set_by_rounding(self, eps, lam):
        # mirror blocks tie to 4e-16..8e-13; without a tie rule the index
        # flipped with the tolerance, e.g. [0,0,3,2,4,8,16] and [0,0,3,1,3,7,15]
        model = OperatorModel(profile=sine_profile(), epsilon=eps)
        loose = dyadic_bound_audit(model, lam, 6)
        tight = dyadic_bound_audit(model, lam, 6, SolverConfig(rtol=1e-13, atol=1e-15))
        assert loose.argmax_index.tolist() == tight.argmax_index.tolist()

    def test_blocks_decay_like_two_to_minus_j(self, sine_model):
        rep = dyadic_bound_audit(sine_model, 0.7 + 1j, 6)
        assert np.all((rep.ratios[-3:] > 0.45) & (rep.ratios[-3:] < 0.6))   # 0.566, 0.536, 0.518
        assert math.isfinite(rep.fitted_m)


class TestSolutionPairsLookup:
    # the benchmark tracer swaps solution_pairs in both modules, so each
    # caller must look it up as its own module global
    @pytest.mark.parametrize("module, run", [
        (green, lambda model: green.assemble_kernel(model, 1j, 64)),
        (schatten, lambda model: schatten.dyadic_bound_audit(model, 1j, 1)),
    ], ids=["assemble_kernel", "dyadic_bound_audit"])
    def test_looked_up_as_module_global(self, sine_model, monkeypatch, module, run):
        original = module.solution_pairs
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "solution_pairs", spy)
        run(sine_model)
        assert calls == [1j]
