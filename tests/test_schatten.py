import math

import numpy as np
import pytest

from perspec import green, schatten
from perspec.errors import ValidationError
from perspec.profiles import OperatorModel, sine_profile
from perspec.schatten import (SingularValueSpectrum, dyadic_bound_audit,
                              eigen_schatten_inequality, singular_values)
from perspec.shooting import SolverConfig
from perspec.singular import compute_log_p_over_f


def _spectrum(values):
    return SingularValueSpectrum(lam=1j, grid_size=64, values=np.asarray(values),
                                 schatten_norms={})


def test_singular_values_of_the_symmetrized_kernel(kernel_256):
    # the in-place scaling gives the singular values of sqrt(w) G sqrt(w) bit for bit
    sq = np.sqrt(kernel_256.weights)
    dense = sq[:, None] * green.kernel_matrix(kernel_256) * sq[None, :]
    want = np.linalg.svd(dense, compute_uv=False)
    assert np.array_equal(singular_values(kernel_256).values, want)


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

    def test_guard_is_relative_to_the_right_side(self):
        spec = _spectrum([1.0])
        # left = |2i|^-2 = 0.25 against right = 1 scaled by the guard
        assert eigen_schatten_inequality([0.0], spec, 2j, 2.0, guard=-0.75).passed
        assert not eigen_schatten_inequality([0.0], spec, 2j, 2.0, guard=-0.76).passed

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_needs_p_above_one(self, p):
        with pytest.raises(ValidationError):
            eigen_schatten_inequality([0.0], _spectrum([1.0]), 1j, p)


class TestDyadicBoundAudit:
    @pytest.mark.parametrize("eps", [0.45, 1.0, 2.0])
    def test_pinned_cutoff_matches_a_tight_run(self, eps):
        # a pinned delta is capped like the default cutoff, so every Gauss node
        # stays a trace node; serving the nodes inside a pinned delta from the
        # endpoint local models was 2.6e-5 off at eps 2
        model = OperatorModel(profile=sine_profile(), epsilon=eps)
        pinned = dyadic_bound_audit(model, 0.7 + 1j, 6, SolverConfig(delta=1e-3))
        tight = dyadic_bound_audit(model, 0.7 + 1j, 6, SolverConfig(rtol=1e-12, atol=1e-14))
        np.testing.assert_allclose(pinned.alpha_hat, tight.alpha_hat, rtol=1e-8, atol=0.0)

    def test_matches_a_node_by_node_loop(self, sine_model, monkeypatch):
        # reference: each Gauss node read from the audit's own traces, negative
        # nodes through the reflection to -lam, summed one node at a time
        used = []

        def keep(*args, **kwargs):
            used.append(green.solution_pairs(*args, **kwargs))
            return used[-1]

        monkeypatch.setattr(schatten, "solution_pairs", keep)
        rep = dyadic_bound_audit(sine_model, 0.7 + 1j, 3)
        pairs = used[0]
        gx, gw = np.polynomial.legendre.leggauss(schatten.DYADIC_GAUSS_ORDER)

        def interval_norm(a, b, which):
            total = 0.0
            for q in range(len(gx)):
                s = a + (b - a) * ((gx[q] + 1.0) / 2.0)
                column, t = (0 if s > 0 else 1), abs(s)      # column 1 is -lam
                row = int(np.searchsorted(pairs.nodes, t))
                assert pairs.nodes[row] == t                  # a mesh node, not a neighbour
                mag = abs(getattr(pairs, which)[row, column])
                if which == "psi":
                    mag *= math.exp(compute_log_p_over_f(sine_model, np.array([t]))[0])
                    mag /= sine_model.epsilon
                total += gw[q] * mag * mag
            return math.sqrt(total * (b - a) / 2.0)

        for j in rep.levels:
            edges = schatten.dyadic_intervals(j)
            blocks = [interval_norm(edges[2 * i], edges[2 * i + 1], "phi")
                      * interval_norm(edges[2 * i + 1], edges[2 * i + 2], "psi")
                      for i in range(2 ** j)]
            assert rep.alpha_hat[j] == pytest.approx(max(blocks), rel=1e-14)
            # the lowest index among blocks within 1e-9 of the max
            assert rep.argmax_index[j] == min(i for i, b in enumerate(blocks)
                                              if b >= (1.0 - 1e-9) * max(blocks))

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
