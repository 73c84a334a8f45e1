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
result into these generators on the full period; the kernel, the flux
check and the dyadic audit in ``schatten`` all read it.  Negative
arguments come by reflection: phi(x, lam) = phi(-x, -lam) and
psi(x, lam) = -psi(-x, -lam) (the sign keeps the Wronskian equal to 1
on both half-intervals; p is taken even).  Products psi*(p/f) and
phi*(p/f) degenerate at 0 and +-pi as powers that cancel each other, so
p/f is kept as its logarithm (-inf at 0, +inf at +-pi), the products are
formed at interior nodes only, and the endpoint values of the weighted
psi use the fitted local coefficients.  Shooting picks the cutoff and
caps it below the nodes it is asked for (``shooting.CUTOFF_CAP``).

Quadrature is composite trapezoid on a grid graded quadratically toward
0 and +-pi.  Parts I and II are semiseparable and part III has rank one,
so the kernel is stored as its O(n) generators (phi, psi, log(p/f), the
weighted psi and the denominator) and applied by three running
trapezoid sums, each accumulated outward from the point where its
integrand vanishes.  The triangles' one-sided end weights are the
trapezoid's own.  The dense matrix is built, a block of columns at a
time, only for the uses that need one: the SVD, the kernel dump and
sup|G|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EigenvalueProximityError, GridMismatchError,
                     ValidationError)
from .profiles import OperatorModel, eval_f, eval_f_prime, sorted_distinct
from .shooting import DEFAULT_CONFIG, SolutionPairs, SolverConfig, solution_pairs
from .singular import compute_log_p_over_f, default_cutoff, log_pf_coefficient_at_pi

PI = math.pi
GRADING_EXPONENT = 2.0          # grid clustering toward 0 and +-pi (2 = quadratic)
KERNEL_BLOCK = 128              # columns per block of a dense kernel build
PARTS = ("I", "II", "III")


def graded_full_grid(grid_size: int):
    """Symmetric grid on [-pi, pi] clustered at 0 and +-pi, with trapezoid weights.

    ``grid_size`` counts intervals across the full period (must be even,
    >= 64); the grid has grid_size + 1 nodes including -pi, 0, pi.
    """
    if grid_size < 64 or grid_size % 2:
        raise ValidationError("grid size must be an even integer >= 64")
    half = grid_size // 2
    t = np.linspace(0.0, 1.0, half + 1)
    q = GRADING_EXPONENT
    g = t ** q / (t ** q + (1.0 - t) ** q)
    pos = PI * g
    x = np.concatenate([-pos[::-1], pos[1:]])
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return x, w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a forcing or a solution on the kernel grid."""

    nodes: np.ndarray
    values: np.ndarray
    role: str                       # "forcing" | "solution"


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """The discretized kernel, held by its O(n) generators on the graded grid.

    ``apply_resolvent`` applies it by running sums; ``kernel_matrix``
    builds the dense n x n matrix for the uses that need one.
    """

    lam: complex
    nodes: np.ndarray               # shared x- and s-grid
    weights: np.ndarray             # trapezoid weights
    phi_on_grid: np.ndarray         # phi(x): x-factor of parts II and III
    psi_on_grid: np.ndarray         # psi(x): x-factor of part I; nan at 0, 0 at +-pi
    log_pf_on_grid: np.ndarray      # log (p/f)(|s|); -inf at 0, +inf at +-pi
    psi_weight_on_grid: np.ndarray  # w2(s) = psi(s)*(-i/eps)*(p/f)(s), endpoint limits filled
    denominator: complex            # phi(pi)/phi(-pi) - 1
    meta: dict

    @functools.cached_property
    def sup_norm(self) -> float:
        """max |G| over the grid, from the dense kernel's column blocks on first use.

        The one-sided diagonal entries of parts I and II carry their
        half-interval weights, so they sum to the kernel's diagonal limit
        instead of double-counting it.
        """
        return float(np.max([np.max(np.abs(block)) for _, block in _column_blocks(self)]))


def _outward_sides(n: int):
    """Slices of the interior nodes on each side of 0 (positive side first), ordered outward from 0."""
    i0 = n // 2
    return slice(i0 + 1, n - 1), slice(i0 - 1, 0, -1)


@dataclass(frozen=True, eq=False)
class _FullPeriod:
    """The kernel's generators on -pi, -nodes_pos[::-1], 0, nodes_pos, pi."""

    phi: np.ndarray                 # 1 at 0; fitted boundary values at +-pi
    psi: np.ndarray                 # nan at 0, 0 at +-pi
    log_pf: np.ndarray              # log (p/f)(|s|); -inf at 0, +inf at +-pi
    w2: np.ndarray                  # psi(s)*(-i/eps)*signed (p/f)(s), endpoint limits filled
    denominator: complex            # phi(pi)/phi(-pi) - 1


def _full_period(model: OperatorModel, pairs: SolutionPairs) -> _FullPeriod:
    """Sample phi, psi, log(p/f) and w2 over the full period at the requested nodes of ``pairs``.

    The requested nodes must ascend; negative nodes are their reflections.
    """
    eps = model.epsilon
    nodes_pos = pairs.nodes[pairs.requested]
    n = 2 * len(nodes_pos) + 3
    i0 = n // 2
    pos, neg = _outward_sides(n)
    phi = np.empty(n, complex)
    psi = np.empty(n, complex)
    phi[pos], phi[neg] = pairs.phi[pairs.requested].T     # phi(x, lam) = phi(-x, -lam)
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
    meta = {"model": model, "grid_size": grid_size,
            "wronskian_deviation": pairs.wronskian_deviation,
            "mesh_nodes": len(pairs.nodes), "mesh_rounds": pairs.rounds}
    return KernelGrid(lam=complex(lam), nodes=x, weights=w, phi_on_grid=full.phi,
                      psi_on_grid=full.psi, log_pf_on_grid=full.log_pf,
                      psi_weight_on_grid=full.w2, denominator=full.denominator,
                      meta=meta)


def _running_trapezoid(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of g (rows along x) from x[0] to each x[k], summed outward from x[0]."""
    out = np.zeros_like(g)
    half = np.abs(np.diff(x))[:, None] / 2.0
    np.cumsum(half * (g[:-1] + g[1:]), axis=0, out=out[1:])
    return out


def _applied_parts(kernel: KernelGrid, forcing: np.ndarray):
    """Parts I, II and III of the kernel applied to forcing values of shape (n,) or (n, m).

    Each part is a running trapezoid sum accumulated from the end where
    its integral is zero, never as a difference of two sums from -pi: near
    those ends such a difference cancels to no correct digits.

    * part I = psi(x) (-i/eps) int phi (p/f) F over s between 0 and x,
      summed from the origin on each side (from the first node off 0);
    * part II = phi(x) int_x^pi w2 F, summed from pi;
    * part III = phi(x) int_(-pi)^pi w2 F / denominator.
    """
    x = kernel.nodes
    n = len(x)
    F = forcing.reshape(n, -1)
    eps = kernel.meta["model"].epsilon

    part_i = np.zeros(F.shape, complex)
    for side in _outward_sides(n):
        g = (kernel.phi_on_grid[side] * np.exp(kernel.log_pf_on_grid[side]))[:, None] * F[side]
        part_i[side] = kernel.psi_on_grid[side, None] * (-1j / eps) * _running_trapezoid(g, x[side])
    g2 = kernel.psi_weight_on_grid[:, None] * F
    tail = _running_trapezoid(g2[::-1], x[::-1])[::-1]
    part_ii = kernel.phi_on_grid[:, None] * tail
    part_iii = kernel.phi_on_grid[:, None] * (tail[0] / kernel.denominator)
    return tuple(part.reshape(forcing.shape) for part in (part_i, part_ii, part_iii))


def _column_blocks(kernel: KernelGrid, part: Optional[str] = None):
    """Yield (columns, block) of the dense kernel, or of one part, KERNEL_BLOCK columns at a time.

    Column j is the kernel applied to the forcing 1/w_j at s_j, so the
    columns agree with ``apply_resolvent``: G @ (w * F) = u.
    """
    n = len(kernel.nodes)
    for start in range(0, n, KERNEL_BLOCK):
        cols = np.arange(start, min(start + KERNEL_BLOCK, n))
        unit = np.zeros((n, len(cols)))
        unit[cols, np.arange(len(cols))] = 1.0 / kernel.weights[cols]
        parts = _applied_parts(kernel, unit)
        yield cols, sum(parts) if part is None else parts[PARTS.index(part)]


def kernel_matrix(kernel: KernelGrid, part: Optional[str] = None) -> np.ndarray:
    """Dense G(x_i, s_j), or one of its parts "I", "II", "III".

    Built from ``_column_blocks``, so the scratch memory beyond the result
    is one block.
    """
    n = len(kernel.nodes)
    out = np.empty((n, n), complex)
    for cols, block in _column_blocks(kernel, part):
        out[:, cols] = block
    return out


def apply_resolvent(kernel: KernelGrid, forcing: GridFunction) -> GridFunction:
    """u(x_i) = sum_j G(x_i, s_j) w_j F(s_j)."""
    if forcing.nodes.shape != kernel.nodes.shape or \
            np.max(np.abs(forcing.nodes - kernel.nodes)) > 1e-12:
        raise GridMismatchError("forcing is not sampled on the kernel grid")
    u = sum(_applied_parts(kernel, forcing.values))
    return GridFunction(nodes=kernel.nodes, values=u, role="solution")


def resolvent_residual(model: OperatorModel, lam, u: GridFunction,
                       forcing: GridFunction, collar: Optional[float] = None) -> float:
    """Relative discrete L2 residual of the original equation.

    Applies i*eps*(f u')' + i*u' - lam*u by flux-form finite differences
    on the non-uniform grid and compares with F, excluding a collar of
    width 10*delta (by default) around the degenerate points 0 and +-pi.
    """
    x = u.nodes
    if len(x) < 64:
        raise ValidationError("residual check needs at least 64 grid nodes")
    if forcing.nodes.shape != x.shape or np.max(np.abs(forcing.nodes - x)) > 1e-12:
        raise GridMismatchError("u and F are not on a common grid")
    if collar is None:
        collar = 10.0 * default_cutoff(lam)

    eps = model.epsilon
    uu = u.values
    xm = (x[1:] + x[:-1]) / 2.0
    fm = np.asarray(eval_f(model.profile, xm))
    flux = fm * np.diff(uu) / np.diff(x)               # f u' at midpoints
    lap = np.diff(flux) / ((x[2:] - x[:-2]) / 2.0)     # (f u')' at interior nodes
    du = (uu[2:] - uu[:-2]) / (x[2:] - x[:-2])
    lhs = 1j * eps * lap + 1j * du - lam * uu[1:-1]
    resid = lhs - forcing.values[1:-1]

    xi = x[1:-1]
    keep = (np.abs(xi) > collar) & (np.abs(np.abs(xi) - PI) > collar)
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = w[-1] = 0.0
    wk = w[1:-1][keep]
    num = float(np.sqrt(np.sum(wk * np.abs(resid[keep]) ** 2)))
    den = float(np.sqrt(np.sum(wk * np.abs(forcing.values[1:-1][keep]) ** 2)))
    return num / max(den, 1e-300)


def bandlimited_forcing(kernel: KernelGrid, seed: int, modes: int = 8) -> GridFunction:
    """Random trigonometric forcing, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    k = np.arange(-modes, modes + 1)
    coef = (rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))) / (1.0 + np.abs(k))
    vals = np.exp(1j * np.outer(kernel.nodes, k)) @ coef
    return GridFunction(nodes=kernel.nodes, values=vals, role="forcing")


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
    if np.any(shift):
        dfx = 0.5 * (np.asarray(eval_f_prime(model.profile, np.clip(x - shift, -PI, PI)))
                     + np.asarray(eval_f_prime(model.profile, np.clip(x + shift, -PI, PI))))
    else:
        dfx = np.asarray(eval_f_prime(model.profile, x))
    F = 1j * model.epsilon * (dfx * du + fx * ddu) + 1j * du - lam * u
    return (GridFunction(nodes=x, values=u + 0j, role="solution"),
            GridFunction(nodes=x, values=F, role="forcing"))


def bound_product_audit(kernel: KernelGrid, x_below: float = 0.5) -> float:
    """max over sampled (x, s), s between 0 and x, |x| <= x_below, of |psi(x) p(s)/f(s)|.

    Refinement stability of this number is the computable stand-in for the
    uniform bound on the part-I product near the origin, where psi blows
    up and p/f vanishes at matching rates.
    """
    x = kernel.nodes
    with np.errstate(divide="ignore"):      # psi is 0 at +-pi and nan at 0
        lpsi = np.log(np.abs(kernel.psi_on_grid))
    best = -np.inf
    for side in _outward_sides(len(x)):
        # max_s (log|psi(x)| + log pf(s)) = log|psi(x)| + max_s log pf(s): rounding
        # of a sum is monotone in each term, so this is the max over all pairs
        logs = lpsi[side] + np.maximum.accumulate(kernel.log_pf_on_grid[side])
        rows = np.abs(x[side]) <= x_below
        best = max(best, float(np.max(logs, where=rows, initial=-np.inf)))
    return float(np.exp(best))


def first_integral_proxy(kernel: KernelGrid, forcing: GridFunction) -> np.ndarray:
    """|psi(x) * int_0^x phi (-i p/(eps f)) F| / (sqrt(x) ||F||) on 0 < x < pi/2."""
    return _integral_proxies(kernel, forcing)[0]


def second_integral_proxy(kernel: KernelGrid, forcing: GridFunction) -> np.ndarray:
    """|phi(x) * int_x^pi psi (-i p/(eps f)) F| / (sqrt(pi-x) ||F||) near pi."""
    return _integral_proxies(kernel, forcing)[1]


def _integral_proxies(kernel: KernelGrid, forcing: GridFunction):
    x = kernel.nodes
    norm_f = math.sqrt(float(np.sum(kernel.weights * np.abs(forcing.values) ** 2)))
    pos, _ = _outward_sides(len(x))
    part_i, part_ii, _ = _applied_parts(kernel, forcing.values)
    xq = x[pos]
    proxy1 = np.abs(part_i[pos]) / (np.sqrt(xq) * norm_f)
    proxy2 = np.abs(part_ii[pos]) / (np.sqrt(PI - xq) * norm_f)
    return proxy1[xq < PI / 2], proxy2


def quasi_derivative_continuity(model: OperatorModel, lam, forcing_fn,
                                config: SolverConfig = DEFAULT_CONFIG,
                                probe: float = 1e-6, quad_size: int = 2048):
    """One-sided values of f*u' near 0 for the resolvent solution.

    f*u' = f*psi'*J1 + f*phi'*(J2 + A) is reconstructed from traces: the
    factors f*psi' and f*phi' are exp(-log(p/f)) times quasi-derivatives,
    so the evaluation stays finite arbitrarily close to the degenerate
    point.  J1(+-probe) is taken from the local model (it is
    O(probe^(1+sigma)) with an explicitly known coefficient) and J2/A come
    from graded quadrature of the traces.  ``forcing_fn`` maps node arrays
    to forcing values.  Returns (value at -probe, value at +probe); both
    tend to the common limit 0 at rate O(probe).
    """
    eps = model.epsilon
    sigma = model.sigma
    x, w = graded_full_grid(quad_size)
    interior = slice(len(x) // 2 + 1, -1)
    wq, quad_pos = w[interior], x[interior]
    nodes_pos = sorted_distinct(np.concatenate([quad_pos, [probe]]))
    pairs = solution_pairs(model, lam, nodes_pos, config)
    full = _full_period(model, pairs)
    pos, neg = _outward_sides(len(full.w2))         # both ordered like nodes_pos

    sel = np.searchsorted(nodes_pos, quad_pos)
    f_pos = np.asarray(forcing_fn(quad_pos), dtype=complex)
    f_neg = np.asarray(forcing_fn(-quad_pos), dtype=complex)
    j2_zero = np.sum(wq * full.w2[pos][sel] * f_pos)
    A = (j2_zero + np.sum(wq * full.w2[neg][sel] * f_neg)) / full.denominator

    k = int(np.searchsorted(nodes_pos, probe))
    inv_pf = 1.0 / math.exp(full.log_pf[pos][k])
    wphi_p, wphi_m = pairs.phi_qd[pairs.requested[k]]
    wpsi_p, wpsi_m = pairs.psi_qd[pairs.requested[k]]
    f0 = complex(np.asarray(forcing_fn(np.array([0.0])), dtype=complex)[0])
    j1_mag = f0 * (PI / 2.0) * probe ** (1.0 + sigma) / ((1.0 + sigma) * eps)
    # J1(+t) = -i*j1_mag*(1+O(t)); J1(-t) = -conj-orientation piece +i*j1_mag
    right = inv_pf * wpsi_p * (-1j * j1_mag) + inv_pf * wphi_p * (j2_zero + A)
    left = inv_pf * wpsi_m * (1j * j1_mag) + inv_pf * wphi_m * (j2_zero + A)
    return complex(left), complex(right)
