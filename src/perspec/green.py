"""Green kernel assembly and resolvent application.

The kernel splits into three parts built from the two fundamental
solutions and the weight (-i/eps)*(p/f)(s):

* part I    psi(x) phi(s) * weight, supported where s lies between 0 and
            x (same sign, |s| <= |x|).  The support is the orientation-
            consistent half of |x| >= |s|: on it the inner-integral
            orientation sign cancels the odd sign of p/f, leaving the
            positive weight (p/f)(|s|).
* part II   phi(x) psi(s) * weight for x <= s.
* part III  the rank-one periodicity corrector
            phi(x) psi(s) * weight / (phi(pi)/phi(-pi) - 1).

phi and psi come from one path, ``shooting.solution_pairs``: both
solutions at lam and -lam marched through one mesh that contains the
requested positive nodes, refined until every step passes the DOPRI5
error test; no scalar shot is taken.  One sampler, ``_full_period``, turns its
result into these generators on the full period; the kernel and the
dyadic audit in ``schatten`` read it.  Negative arguments come by
reflection: phi(x, lam) = phi(-x, -lam) and psi(x, lam) = -psi(-x, -lam)
(the sign keeps the Wronskian equal to 1 on both half-intervals).  Products
psi*(p/f) and phi*(p/f) degenerate at 0 and +-pi as powers that cancel
each other, so p/f is kept as its logarithm (-inf at 0, +inf at +-pi),
the products are formed at interior nodes only, and the endpoint values
of the weighted psi use the fitted local coefficients.  Shooting picks
the cutoff and caps it below the nodes it is asked for
(``shooting.CUTOFF_CAP``).

Parts I and II are semiseparable and part III has rank one, so
``KernelGrid`` holds the kernel as ``_full_period``'s O(n) generators
under their own names -- ``phi``, ``psi``, ``log_pf`` = log(p/f), ``w2``
= the weighted psi, and the ``denominator``.  A kernel entry G(x_i, s_j)
has one definition, ``KernelGrid._terms``: four products of an x-factor
and an s-factor, each on its support (every s, s >= x, or s < x), so the
diagonal is counted once.  Every reader but the resolvent apply reads
them: sup|G| and the dense matrix of the kernel dump, built a block of
rows at a time (``_row_blocks``); the O(n) apply of G (w F) and its
adjoint under the trapezoid weights w (``_nystrom_apply``,
``_nystrom_adjoint``), by cumulative sums over the supports; and the
weighted Frobenius norm.  These are the Nystrom discretization that
``schatten`` symmetrises.

``apply_resolvent`` integrates to fourth order instead, in the grid's
grading variable t, in which each half of the grid is uniform: the
integrand is g(x(t)) x'(t), with x' from the grid's own ``_grading``.  On
each panel a sum integrates the cubic through four nodes, by stencils
that read no node past the sum's end (``_RunningRule``), so the recovery
error falls 8 to 16 times per grid doubling.  Panels end at the origin
and at the nodes nearest the profile's breakpoints.  Beside a kink the
panel is exact for quadratics and gives the kink node the trapezoid's
half weight from either side at every partial sum, because a forcing may
hold the mean of two one-sided limits there.  The tail's panels at 0 and
+-pi, where x' = 0, are trapezoids in x.  Each part is a running sum
accumulated outward from the point where its integrand vanishes.  Part
I's two sides, paths of one length out from the origin, are summed in one
call on a (2, L) array; each row is summed alone and in the same order,
so the result is the one two separate sums give, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EigenvalueProximityError, GridMismatchError,
                     ValidationError)
from .profiles import OperatorModel, eval_f, eval_f_prime
from .shooting import DEFAULT_CONFIG, SolutionPairs, SolverConfig, solution_pairs
from .singular import compute_log_p_over_f, default_cutoff, log_pf_coefficient_at_pi

PI = math.pi
GRADING_EXPONENT = 2.0          # grid clustering toward 0 and +-pi (2 = quadratic)
KERNEL_BLOCK = 128              # rows per block of a dense kernel build
PARTS = ("I", "II", "III")
ALL, UPPER, LOWER = "all", "s >= x", "s < x"      # the supports of the kernel's terms


def _grading(t):
    """x/pi and d(x/pi)/dt of the graded grid at the grading variable t in [0, 1]."""
    q = GRADING_EXPONENT
    den = t ** q + (1.0 - t) ** q
    return t ** q / den, q * (t * (1.0 - t)) ** (q - 1.0) / den ** 2


def graded_full_grid(grid_size: int):
    """Symmetric grid on [-pi, pi] clustered at 0 and +-pi, with trapezoid weights.

    ``grid_size`` counts intervals across the full period (must be even,
    >= 64); the grid has grid_size + 1 nodes including -pi, 0, pi.  On
    each half it is uniform in the grading variable t (``_grading``),
    the variable the running sums integrate in; the trapezoid weights
    are the Nystrom discretization's and the error norms'.
    """
    if grid_size < 64 or grid_size % 2:
        raise ValidationError("grid size must be an even integer >= 64")
    pos = PI * _grading(np.linspace(0.0, 1.0, grid_size // 2 + 1))[0]
    x = np.concatenate([-pos[::-1], pos[1:]])
    return x, _trapezoid_weights(x)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """The trapezoid rule's weights on the ascending nodes x."""
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a forcing or a solution on the kernel grid."""

    nodes: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class _FullPeriod:
    """The kernel's generators on -pi, -nodes_pos[::-1], 0, nodes_pos, pi."""

    phi: np.ndarray                 # x-factor of parts II, III: 1 at 0; fitted values at +-pi
    psi: np.ndarray                 # x-factor of part I: nan at 0, 0 at +-pi
    log_pf: np.ndarray              # log (p/f)(|s|); -inf at 0, +inf at +-pi
    w2: np.ndarray                  # s-factor of parts II, III: psi(s)*(-i/eps)*signed (p/f)(s)
    denominator: complex            # phi(pi)/phi(-pi) - 1


@dataclass(frozen=True, eq=False)
class KernelGrid(_FullPeriod):
    """The discretized kernel, held by its O(n) generators on the graded grid.

    Its entries G(x_i, s_j) are ``_terms``; ``kernel_matrix`` builds them
    densely for the kernel dump.  ``apply_resolvent`` (through ``_apply``)
    applies the kernel by fourth-order running sums, and ``_nystrom_apply``
    and ``_nystrom_adjoint`` apply the entries and their adjoint with the
    trapezoid weights.
    """

    lam: complex
    model: OperatorModel            # the running sums read its epsilon and its profile's breakpoints
    nodes: np.ndarray               # shared x- and s-grid
    weights: np.ndarray             # trapezoid weights
    # counters: wronskian_deviation (rounding only when phi and psi step through
    # the same propagators; it checks their pairing, not their truncation
    # error), mesh_nodes, mesh_rounds
    meta: dict

    @functools.cached_property
    def _part_i_factors(self):
        """Part I's x-factor psi*(-i/eps) and s-factor phi*(p/f), 0 where no part I is summed.

        That is the origin (psi is nan there and p/f is 0) and +-pi (psi is
        0 there and p/f infinite); ``_applied_parts`` reads neither node.
        """
        x_factor = np.where(np.isnan(self.psi), 0.0, self.psi) * (-1j / self.model.epsilon)
        s_factor = np.zeros(len(self.nodes), complex)
        s_factor[1:-1] = self.phi[1:-1] * np.exp(self.log_pf[1:-1])
        return x_factor, s_factor

    @functools.cached_property
    def _terms(self):
        """G(x_i, s_j) as terms (part, x-factor a, s-factor b, support): the sum of a_i b_j over them.

        Only the terms whose support holds (i, j) enter.  Part III is on every (i, j); part II where s >= x; part I where s
        lies between 0 and x: s < x for x > 0, and s >= x for x < 0, by
        factors that are 0 on the other side.  So the kernel, continuous
        across the diagonal, counts it once: part I stops short of s = x for
        x > 0, where its limit is part II's, and for x < 0 parts I and II
        cancel there.  Part I is 0 on the rows 0 and +-pi.
        """
        x = self.nodes
        psi, weighted_phi = self._part_i_factors
        return (("III", self.phi, self.w2 / self.denominator, ALL),
                ("II", self.phi, self.w2, UPPER),
                ("I", np.where(x > 0.0, psi, 0.0), np.where(x > 0.0, weighted_phi, 0.0), LOWER),
                ("I", np.where(x < 0.0, psi, 0.0), np.where(x < 0.0, weighted_phi, 0.0), UPPER))

    @functools.cached_property
    def sup_norm(self) -> float:
        """max |G(x_i, s_j)| over the grid's nodes: the largest entry of ``_terms``, KERNEL_BLOCK rows at once."""
        return max(float(np.max(np.abs(block))) for _, block in _row_blocks(self))


def _outward_sides(n: int):
    """Slices of the interior nodes on each side of 0 (positive side first), ordered outward from 0."""
    i0 = n // 2
    return slice(i0 + 1, n - 1), slice(i0 - 1, 0, -1)


def _full_period(model: OperatorModel, pairs: SolutionPairs) -> _FullPeriod:
    """Sample phi, psi, log(p/f), w2 over the full period at the requested nodes.

    The requested nodes must ascend; negative nodes are their reflections.
    """
    eps = model.epsilon
    nodes_pos = pairs.nodes[pairs.requested]
    n = 2 * len(nodes_pos) + 3
    i0 = n // 2
    pos, neg = _outward_sides(n)
    phi, psi = np.empty(n, complex), np.empty(n, complex)
    phi[pos], phi[neg] = pairs.phi[pairs.requested].T     # x < 0 from -x at -lam
    psi[pos], psi[neg] = pairs.psi[pairs.requested].T
    psi[neg] *= -1.0                                      # psi(x, lam) = -psi(-x, -lam)
    phi[i0] = 1.0
    psi[i0] = np.nan
    phi[-1], phi[0] = pairs.phi_at_pi
    psi[0] = psi[-1] = 0.0

    lpf = np.empty(n)
    lpf[pos] = compute_log_p_over_f(model, nodes_pos)
    lpf[neg] = lpf[pos]
    lpf[i0] = -np.inf
    lpf[0] = lpf[-1] = np.inf

    # w2(s) = psi(s,lam) * (-i/eps) * signed (p/f)(s); finite limits at 0, +-pi
    log_cpi = log_pf_coefficient_at_pi(model)   # p/f ~ exp(log_cpi) * d^-sigma at pi
    w2 = np.empty(n, complex)
    for side, sgn in ((pos, 1.0), (neg, -1.0)):
        w2[side] = psi[side] * np.exp(lpf[side]) * (-1j / eps) * sgn
    b0_p, b0_m = pairs.psi_at_origin
    w2[i0] = 0.5 * (b0_p + b0_m) * (PI / 2.0) * (-1j / eps)
    w2[-1], w2[0] = pairs.psi_at_pi * math.exp(log_cpi) * (-1j / eps)

    return _FullPeriod(phi=phi, psi=psi, log_pf=lpf, w2=w2,
                       denominator=complex(phi[-1] / phi[0] - 1.0))


def assemble_kernel(model: OperatorModel, lam, grid_size: int,
                    config: SolverConfig = DEFAULT_CONFIG) -> KernelGrid:
    """Shoot phi and psi at lam and -lam and sample the kernel's generators on the graded grid."""
    x, w = graded_full_grid(grid_size)
    nodes_pos = x[len(x) // 2 + 1:-1]           # strictly positive interior nodes
    pairs = solution_pairs(model, lam, nodes_pos, config)
    full = _full_period(model, pairs)
    ratio = full.phi[-1] / full.phi[0]
    if abs(full.denominator) < 1e-8 * max(1.0, abs(ratio)):
        raise EigenvalueProximityError(
            f"periodicity denominator |phi(pi)/phi(-pi) - 1| = {abs(full.denominator):.3e} "
            f"is numerically zero: lam = {lam} is an eigenvalue")
    meta = {"wronskian_deviation": pairs.wronskian_deviation,
            "mesh_nodes": len(pairs.nodes), "mesh_rounds": pairs.rounds}
    return KernelGrid(lam=complex(lam), model=model, nodes=x, weights=w, meta=meta, **vars(full))


# Panel stencils of the running sums, in t-steps, on four consecutive nodes:
# a segment's first panel from its first four nodes, an inner panel from the
# node on either side, and the panel beside a kink, exact for quadratics with
# 1/2 on the kink node.
_FIRST_PANEL = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_INNER_PANEL = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_KINK_PANEL = np.array([12.0, 10.0, 4.0, -2.0]) / 24.0
_SETTLED = 8        # a segment's last four weights are the same from this many panels on


def _segment_weights(m: int, kink_start: bool, kink_end: bool) -> np.ndarray:
    """Weights, in t-steps, of the integral over one segment of m panels (nodes 0..m).

    Each panel integrates the cubic through four nodes of the segment: the
    first and last panels their segment's first and last four, the others
    the node on either side.  A panel beside a kink gives the kink node
    1/2, the trapezoid's weight, since the forcing there may hold the mean
    of two one-sided limits.  Segments too short for their end panels
    take Simpson's rule or the trapezoid.
    """
    kinks = kink_start + kink_end
    if m == 1 or (m == 2 and kinks) or (m < 5 and kinks == 2):
        w = np.ones(m + 1)
        w[[0, -1]] = 0.5
        return w
    if m == 2:
        return np.array([1.0, 4.0, 1.0]) / 3.0
    if m == 3 and kinks:
        w = np.array([12.0, 18.0, 36.0, 6.0]) / 24.0    # kink panel, then Simpson
        return w if kink_start else w[::-1]
    w = np.zeros(m + 1)
    if kink_start:
        w[:4] += _KINK_PANEL
        w[1:5] += _FIRST_PANEL
    else:
        w[:4] += _FIRST_PANEL
    if kink_end:
        w[-4:] += _KINK_PANEL[::-1]
        w[-5:-1] += _FIRST_PANEL[::-1]
    else:
        w[-4:] += _FIRST_PANEL[::-1]
    first, stop = 1 + kink_start, m - 1 - kink_end      # panels from the node on either side
    for r, c in enumerate(_INNER_PANEL):
        w[first - 1 + r:stop - 1 + r] += c
    return w


@dataclass(frozen=True, eq=False)
class _RunningRule:
    """Causal running sums along a path of nodes: S_m = sum over j <= m of A[m, j] g_j.

    Once a sum is four nodes past node j, the weight A[m, j] is
    ``final[j]``; ``near[m, r]`` is what node m - r adds to that in S_m
    (r < 4).  So S is one cumulative sum and a four-term band.
    """

    final: np.ndarray               # (L,)
    near: np.ndarray                # (L, 4)

    def sums(self, g: np.ndarray) -> np.ndarray:
        """S for g of shape (..., L), along the last axis."""
        size = g.shape[-1]
        out = np.cumsum(self.final * g, axis=-1)
        for r in range(4):
            out[..., r:] += self.near[r:, r] * g[..., :size - r]
        return out


def _running_rule(x: np.ndarray, dxdt: np.ndarray, ends, kinks) -> _RunningRule:
    """The rule along a path of nodes ``x``, uniform in t, with dx/dt times the t-step at each.

    Segments end at the path positions ``ends``; at those in ``kinks``
    the panels on either side are ``_KINK_PANEL``s.  A segment of one
    panel is the trapezoid in x, the only rule that weighs a node where
    x' = 0.  No partial sum reads a node past its own, and none a node of
    a later segment.
    """
    size = len(x)
    cuts = sorted({0, size - 1, *(e for e in ends if 0 < e < size - 1)})
    final = np.zeros(size)
    near = np.zeros((size, 4))      # A[m, m - r] while building
    for a, b in zip(cuts[:-1], cuts[1:]):
        m, start, end = b - a, a in kinks, b in kinks
        before = final[a]
        if m == 1:
            final[a:b + 1] += abs(x[b] - x[a]) / 2.0
            near[b, :2] = final[b], final[a]
            near[b, 2:] = final[b - np.arange(2, 4)]        # a row < r is zeroed below
            continue
        final[a:b + 1] += _segment_weights(m, start, end) * dxdt[a:b + 1]
        # the sum to node a + k is the segment's rule over its first k
        # panels; nodes of earlier segments keep their final weights
        for k in sorted({*range(1, min(m, _SETTLED) + 1), m}):
            w = _segment_weights(min(k, _SETTLED), start, end and k == m)
            back = min(k, 3)
            j = a + k - np.arange(4)
            near[a + k, :back + 1] = w[:-back - 2:-1] * dxdt[j[:back + 1]]
            near[a + k, back + 1:] = final[j[back + 1:]]    # a row < r is zeroed below
            if k <= 3:
                near[a + k, k] += before
        tail = _segment_weights(_SETTLED, start, False)[:-5:-1]
        for r in range(4):
            near[a + _SETTLED + 1:b, r] = tail[r] * dxdt[a + _SETTLED + 1 - r:b - r]
    for r in range(4):
        near[r:, r] -= final[:size - r]
        near[:r, r] = 0.0
    final.flags.writeable = near.flags.writeable = False       # shared through _rules' cache
    return _RunningRule(final=final, near=near)


@functools.lru_cache(maxsize=8)
def _rules(n: int, breakpoints: tuple, kinks: tuple):
    """The rules of part I and of the tail sums on the grid of n nodes.

    Part I sums from the origin outward, alike on both sides; the tail
    sums from pi to -pi.  Both integrate in t with x'(t) from the grid's own ``_grading``.
    Segments end at the origin and at the nodes nearest the breakpoints.
    The tail's panels at 0 and +-pi, where x' = 0, are segments of their
    own, so that those nodes carry weight; part I's integrand is 0 at the
    origin.
    """
    half = n // 2
    x, dx = _grading(np.arange(half + 1) / half)
    x, dxdt = PI * x, PI * dx / half
    pos = np.asarray([np.argmin(np.abs(x - b)) for b in breakpoints], dtype=int)
    on_kink = np.array([b in kinks for b in breakpoints], dtype=bool)
    part_i = _running_rule(x[:-1], dxdt[:-1], set(pos), set(pos[on_kink]))
    tail_ends = {1, half - 1, half, half + 1, n - 2, *(half - pos), *(half + pos)}
    tail_kinks = {*(half - pos[on_kink]), *(half + pos[on_kink])}
    tail = _running_rule(np.concatenate([x[::-1], -x[1:]]),
                         np.concatenate([dxdt[::-1], dxdt[1:]]), tail_ends, tail_kinks)
    return part_i, tail


@functools.lru_cache(maxsize=8)
def _part_i_sides(n: int) -> np.ndarray:
    """Part I's two paths, one per row, from the origin to the node before pi and to the one after -pi."""
    sides = np.stack([np.arange(n // 2, n - 1), np.arange(n // 2, 0, -1)])
    sides.flags.writeable = False
    return sides


def _applied_parts(kernel: KernelGrid, forcing: np.ndarray):
    """Parts I, II and III of the kernel applied by the running rules to forcings of shape (..., n).

    Each part is a running sum from the end where its integral is zero,
    never a difference of two sums from -pi: near those ends such a
    difference cancels to no correct digits.

    * part I = psi(x) (-i/eps) int phi (p/f) F over s between 0 and x,
      summed from the origin on both sides in one call, a path of shape (2, L);
    * part II = phi(x) int_x^pi w2 F, summed from pi;
    * part III = phi(x) int_(-pi)^pi w2 F / denominator.
    """
    n = len(kernel.nodes)
    model = kernel.model
    rule_i, rule_tail = _rules(n, model.profile.breakpoints, model.profile.kinks)
    x_factor, s_factor = kernel._part_i_factors
    tail = rule_tail.sums(kernel.w2[::-1] * forcing[..., ::-1])[..., ::-1]
    part_i = np.zeros(tail.shape, complex)
    sides = _part_i_sides(n)
    off = sides[:, 1:]                                  # psi is nan at the origin
    part_i[..., off] = x_factor[off] * rule_i.sums(s_factor[sides] * forcing[..., sides])[..., 1:]
    part_ii = kernel.phi * tail
    part_iii = kernel.phi * (tail[..., :1] / kernel.denominator)
    return part_i, part_ii, part_iii


def _row_blocks(kernel: KernelGrid, part: Optional[str] = None):
    """Yield (rows, G(x_i, s_j) on them) from ``_terms``, or one part's, KERNEL_BLOCK rows at a time."""
    n = len(kernel.nodes)
    j = np.arange(n)
    for start in range(0, n, KERNEL_BLOCK):
        i = np.arange(start, min(start + KERNEL_BLOCK, n))[:, None]
        block = np.zeros((len(i), n), complex)
        for name, a, b, support in kernel._terms:
            if part in (None, name):
                inside = True if support == ALL else (j >= i if support == UPPER else j < i)
                block += np.where(inside, a[i] * b, 0.0)
        yield i[:, 0], block


def kernel_matrix(kernel: KernelGrid, part: Optional[str] = None) -> np.ndarray:
    """Dense G(x_i, s_j), or one of its parts "I", "II", "III".

    Built from ``_row_blocks``, so the scratch memory beyond the result
    is one block.
    """
    n = len(kernel.nodes)
    out = np.empty((n, n), complex)
    for rows, block in _row_blocks(kernel, part):
        out[rows] = block
    return out


def _support_sums(v: np.ndarray, support: str, over: str):
    """Sums of v over each node's slice of a support of ``KernelGrid._terms``, in O(n).

    For over = "s" the sum at node i is over the j with (i, j) in the
    support, for over = "x" the sum at node j over such i; "all" gives the
    total.  Each is a cumulative sum from the end where the slice is
    empty, so part I's sums run outward from the origin.
    """
    if support == ALL:
        return np.sum(v)
    ascending = (support == LOWER) == (over == "s")     # the slice grows with the node's index
    total = np.cumsum(v) if ascending else np.cumsum(v[::-1])[::-1]
    if support == UPPER:                                # the diagonal is in the slice
        return total
    out = np.zeros_like(total)
    if ascending:
        out[1:] = total[:-1]
    else:
        out[:-1] = total[1:]
    return out


def _check_on_grid(nodes: np.ndarray, forcing: GridFunction) -> None:
    if forcing.nodes.shape != nodes.shape or np.max(np.abs(forcing.nodes - nodes)) > 1e-12:
        raise GridMismatchError("forcing is not sampled on the grid of the kernel or of u")


def _apply(kernel: KernelGrid, forcing: np.ndarray) -> np.ndarray:
    """``apply_resolvent`` on the forcing's values, with no grid check."""
    return sum(_applied_parts(kernel, forcing))


def _nystrom_apply(kernel: KernelGrid, forcing: np.ndarray) -> np.ndarray:
    """sum_j G(x_i, s_j) w_j F(s_j) on values: the entries ``_terms`` under the trapezoid weights, in O(n)."""
    v = kernel.weights * forcing
    return sum(a * _support_sums(b * v, support, "s") for _, a, b, support in kernel._terms)


def _nystrom_adjoint(kernel: KernelGrid, y: np.ndarray) -> np.ndarray:
    """v(s_j) = sum_i conj(G(x_i, s_j)) w_i y(x_i), the adjoint of ``_nystrom_apply`` under w, on values."""
    z = kernel.weights * y
    return sum(np.conj(b) * _support_sums(np.conj(a) * z, support, "x")
               for _, a, b, support in kernel._terms)


def apply_resolvent(kernel: KernelGrid, forcing: GridFunction) -> GridFunction:
    """u(x_i) = sum_j G(x_i, s_j) w_j F(s_j), once the forcing is checked to lie on the kernel's grid."""
    _check_on_grid(kernel.nodes, forcing)
    return GridFunction(nodes=kernel.nodes, values=_apply(kernel, forcing.values))


def weighted_frobenius_sq(kernel: KernelGrid) -> float:
    """sum_ij w_i |G(x_i, s_j)|^2 w_j: the squared Frobenius norm of diag(sqrt w) G diag(sqrt w), in O(n).

    |G_ij|^2 is the sum over pairs of ``_terms`` of a_i conj(a'_i) b_j
    conj(b'_j) on the two supports' overlap: the narrower support when one
    is "all" or both are alike, and none when one is s >= x and the other
    s < x.  Over a support, each pair sums by ``_support_sums``.
    """
    w = kernel.weights
    total = 0.0
    for _, a1, b1, s1 in kernel._terms:
        for _, a2, b2, s2 in kernel._terms:
            if ALL not in (s1, s2) and s1 != s2:
                continue
            rows_sq, cols_sq = w * a1 * np.conj(a2), w * b1 * np.conj(b2)
            both = s2 if s1 == ALL else s1
            total += float(np.sum(cols_sq * _support_sums(rows_sq, both, "x")).real)
    return total


def _flux_form(model: OperatorModel, lam, x: np.ndarray, u: np.ndarray, reach: int) -> np.ndarray:
    """i*eps*(f u')' + i*u' - lam*u by flux-form differences over the nodes ``reach`` away.

    Values at nodes reach..n-1-reach; the error is even in the spacing.
    """
    xa, xb, xc = x[:-2 * reach], x[reach:-reach], x[2 * reach:]
    ua, ub, uc = u[:-2 * reach], u[reach:-reach], u[2 * reach:]
    right = np.asarray(eval_f(model.profile, (xb + xc) / 2.0)) * (uc - ub) / (xc - xb)
    left = np.asarray(eval_f(model.profile, (xa + xb) / 2.0)) * (ub - ua) / (xb - xa)
    return (1j * model.epsilon * (right - left) / ((xc - xa) / 2.0)
            + 1j * (uc - ua) / (xc - xa) - lam * ub)


def resolvent_residual(model: OperatorModel, lam, u: GridFunction,
                       forcing: GridFunction) -> float:
    """Relative discrete L2 residual of the original equation.

    Applies i*eps*(f u')' + i*u' - lam*u by flux-form finite differences
    on the non-uniform grid, Richardson-extrapolated from the neighbouring
    nodes and the nodes two away to fourth order, except where the wider
    stencil spans the origin or a breakpoint (second order there), and
    compares with F, excluding a collar of width 10*delta (delta =
    ``default_cutoff(lam)``) around the degenerate points 0 and +-pi.
    Second-order differences alone are off by 1.4e-3 to 2.6e-3 on 256
    nodes for the exact solution of a random trigonometric forcing.
    """
    x = u.nodes
    if len(x) < 64:
        raise ValidationError("residual check needs at least 64 grid nodes")
    _check_on_grid(x, forcing)
    collar = 10.0 * default_cutoff(lam)

    lhs = _flux_form(model, lam, x, u.values, 1)
    smooth = np.ones(len(x) - 4, dtype=bool)
    breaks = model.profile.breakpoints
    for c in (0.0, *breaks, *(-b for b in breaks)):
        smooth &= ~((x[:-4] < c) & (c < x[4:]))
    inner = lhs[1:-1]
    inner[smooth] = (4.0 * inner[smooth] - _flux_form(model, lam, x, u.values, 2)[smooth]) / 3.0
    resid = lhs - forcing.values[1:-1]

    xi = x[1:-1]
    half = (x[2:] - x[:-2]) / 2.0                      # interior nodes' half-widths
    keep = (np.abs(xi) > collar) & (np.abs(np.abs(xi) - PI) > collar)
    wk = half[keep]
    num = float(np.sqrt(np.sum(wk * np.abs(resid[keep]) ** 2)))
    den = float(np.sqrt(np.sum(wk * np.abs(forcing.values[1:-1][keep]) ** 2)))
    return num / max(den, 1e-300)


def bandlimited_forcing(kernel: KernelGrid, seed: int) -> GridFunction:
    """Random trigonometric forcing on the modes |k| <= 8, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    k = np.arange(-8, 9)
    coef = (rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))) / (1.0 + np.abs(k))
    vals = np.exp(1j * np.outer(kernel.nodes, k)) @ coef
    return GridFunction(nodes=kernel.nodes, values=vals)


def manufactured_pair(model: OperatorModel, lam, nodes: np.ndarray):
    """A smooth periodic solution and its exact forcing under the operator.

    At declared profile kinks the forcing jumps; the node value there is
    the mean of the one-sided limits.
    """
    x = nodes
    u = np.cos(x) + 0.3 * np.sin(2 * x)
    du = -np.sin(x) + 0.6 * np.cos(2 * x)
    ddu = -np.cos(x) - 1.2 * np.sin(2 * x)
    fx = np.asarray(eval_f(model.profile, x))
    shift = np.zeros_like(x)
    for k in model.profile.kinks:
        shift[np.abs(np.abs(x) - k) < 1e-12] = 1e-9
    dfx = 0.5 * (np.asarray(eval_f_prime(model.profile, np.clip(x - shift, -PI, PI)))
                 + np.asarray(eval_f_prime(model.profile, np.clip(x + shift, -PI, PI))))
    F = 1j * model.epsilon * (dfx * du + fx * ddu) + 1j * du - lam * u
    return GridFunction(nodes=x, values=u + 0j), GridFunction(nodes=x, values=F)
