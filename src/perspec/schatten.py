"""Schatten diagnostics of the discretized resolvent kernel.

Matrix singular values approximate operator singular values through the
Nystrom symmetrization M = D^(1/2) G D^(1/2) of the kernel's own entries
G(x_i, s_j), with D the diagonal of trapezoid weights (Bornemann, Math.
Comp. 79, 2010).  No dense matrix is built: the leading values come from
Golub-Kahan-Lanczos bidiagonalization driven by the O(n) apply and adjoint
of M itself (``green._nystrom_apply``, ``green._nystrom_adjoint``), whose
factors carry sqrt(w) from the kernel's cache, so a Lanczos step does no
weight arithmetic, and ||M||_F^2 from the generators in O(n)
(``green.weighted_frobenius_sq``).
M converges at O(h^2), so each is taken on the grid and on its even nodes,
whose kernel is the grid's generators there under their own trapezoid
weights, and extrapolated by one Richardson step: (4 s(n) - s(n/2)) / 3.
The step holds only where both grids resolve a value: at most one value
per INTERVALS_PER_VALUE intervals of the grid is extrapolated, and the even
nodes must hold the kernel's kink at 0 (grid size a multiple of 4).  The
leading values are sorted after the step, and the extrapolated
||M||_F^2 less their squares is the other values' sum of squares T, which
gives S2.  For p != 2 the tail is modelled by a power law fixed by T, and
bounded over every tail of that count and mass; the inequality reads the
lower bound.  The step's own size, max |s(n) - s(n/2)| / 3 over the
leading values relative to sigma_1, is reported as its error estimate.

The bidiagonalization starts from a fixed golden-ratio Weyl vector, so a
run is reproducible and draws no random numbers.  It keeps the right
vectors orthonormal by one classical Gram-Schmidt pass per vector, and a
second only where the DGKS test sees the first cancel; the left vector
follows from its recurrence alone, which is enough for the singular values
(Simon & Zha, SIAM J. Sci. Comput. 21, 2000).  Its convergence checks,
each an SVD of the bidiagonal, come at the step that equals the count of
values sought, RITZ_CHECK steps later, and then where the geometric decay
of the worst leading Ritz residual over the last two checks predicts
convergence, RITZ_CHECK to 4 RITZ_CHECK steps on.  So a solve costs little beyond its O(n) applies
and the Gram-Schmidt products.

The dyadic audit bounds the blocks of the triangular kernel part built
from v = phi and w = psi * (-i p / (eps f)): level j splits [-pi, pi]
into 2^(j+1) equal intervals and pairs even (for v) with odd (for w);
each block norm is a product of interval L2 norms and must decay
geometrically in j.  Only the finest level is integrated, by Gauss
panels on its intervals of (0, pi) whose abscissae are nodes of the mesh
that ``solution_pairs`` marches phi and psi through, as for the kernel;
green's full-period sampler reads their mirrors on (-pi, 0), and a
coarser interval's squared norm is the sum of its halves'.  Shooting caps
the cutoff below the abscissae nearest 0 and pi (``shooting.CUTOFF_CAP``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .green import (KernelGrid, _full_period, _nystrom_adjoint, _nystrom_apply,
                    _trapezoid_weights, solution_pairs, weighted_frobenius_sq)
from .profiles import OperatorModel
from .shooting import DEFAULT_CONFIG, SolverConfig

PI = math.pi

DEFAULT_ORDERS = (1.0, 1.5, 2.0, 3.0)
DYADIC_GAUSS_ORDER = 16                 # Gauss points per dyadic interval
# Blocks within this relative distance of a level's max tie, and the lowest
# index among them is reported: mirror blocks tie to rounding (4e-16 to
# 8e-13 measured), the next distinct block was 6e-4 or more below the max.
ARGMAX_TIE = 1e-9
INEQUALITY_GUARD = 0.05                 # relative slack of the inequality's right side
LEADING = 64                            # singular values computed, at most; the rest are the tail
# grid intervals per extrapolated value.  The extrapolated sigma_k's error
# grows like (k/n)^4: 4e-5 to 8e-4 of sigma_k at k = n/16 and n/8, but 1-2 %
# at n/4 (against 8 % unextrapolated), and the even nodes' last value is
# the duplicated node +-pi's null (sine and tent, grids 64 to 512)
INTERVALS_PER_VALUE = 8
RITZ_TOL = 1e-13                        # the leading Ritz residuals' bound, relative to sigma_1
RITZ_CHECK = 8                          # fewest Lanczos steps between convergence checks; 4x the most
DGKS_KEEP = 1.0 / math.sqrt(2.0)        # a second Gram-Schmidt pass when the first keeps less of the norm
TAIL_BISECTIONS = 60                    # halvings of the tail exponent's bracket


@dataclass(frozen=True, eq=False)
class SingularValueSpectrum:
    lam: complex
    grid_size: int
    values: np.ndarray                  # the leading ones, extrapolated, non-increasing
    schatten_norms: dict                # order -> S_p, the tail's values from the power law
    tail_mass: float = 0.0              # ||M||_F^2 - sum values^2: the other values' sum of squares
    tail_count: int = 0                 # how many values the tail holds
    tail_shares: dict = field(default_factory=dict)     # order -> the tail's share of sum sigma^p
    lanczos_steps: int = 0              # both solves'
    lanczos_checks: int = 0             # SVDs of the Lanczos bidiagonals, the last ones included
    extrapolation_error: float = 0.0    # max |s(n) - s(n/2)| / 3 over the leading values, over sigma_1

    def power_sum_bounds(self, p: float) -> tuple:
        """Bounds on sum sigma^p over every value that hold for any tail of the given count and mass.

        Each tail value is at most the last leading one, s, so for p < 2 the
        tail's sum is at least T s^(p-2), and by Hoelder at most
        m^(1-p/2) T^(p/2) for m values of squared sum T; for p > 2 the two
        swap.  Without a tail both bounds are the leading values' sum.
        """
        head = float(np.sum(self.values ** p))
        if self.tail_mass <= 0.0 or self.tail_count == 0:
            return head, head
        t, m, s = self.tail_mass, self.tail_count, float(self.values[-1])
        a, b = t * s ** (p - 2.0), m ** (1.0 - p / 2.0) * t ** (p / 2.0)
        return head + min(a, b), head + max(a, b)

    def as_dict(self) -> dict:
        bounds = {str(p): [v ** (1.0 / p) for v in self.power_sum_bounds(p)]
                  for p in self.schatten_norms}
        return {"grid_size": self.grid_size,
                "singular_values": self.values.tolist(),
                "schatten_norms": {str(k): v for k, v in self.schatten_norms.items()},
                "schatten_bounds": bounds,
                "tail_shares": {str(k): v for k, v in self.tail_shares.items()},
                "tail_mass": self.tail_mass,
                "tail_count": self.tail_count,
                "lanczos_steps": self.lanczos_steps,
                "lanczos_checks": self.lanczos_checks,
                "extrapolation_error": self.extrapolation_error}


def _orthogonalized(r: np.ndarray, basis: np.ndarray):
    """r less its components along the orthonormal rows of ``basis``, and the result's norm.

    Classical Gram-Schmidt, with the DGKS test (Daniel, Gragg, Kaufman &
    Stewart 1976): a second pass runs only when the first leaves less than
    DGKS_KEEP of r's norm, since only then can cancellation have left
    components along the basis that matter.
    """
    norm = np.linalg.norm(r)
    for _ in range(2):
        r = r - np.conj(basis @ np.conj(r)) @ basis
        left = np.linalg.norm(r)
        if left >= DGKS_KEEP * norm:
            break
        norm = left
    return r, left


def _ritz(alpha: np.ndarray, beta: np.ndarray):
    """Singular values of the upper bidiagonal B (diagonal alpha, superdiagonal beta[:-1]) and their residuals.

    The residual of the i-th is beta[-1] |P[-1, i]|, P the left singular vectors of B.
    """
    try:
        P, s, _ = np.linalg.svd(np.diag(alpha) + np.diag(beta[:-1], 1))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD of the Lanczos bidiagonal failed to converge: {exc}") from exc
    return s, beta[-1] * np.abs(P[-1])


def _start_vector(n: int) -> np.ndarray:
    """A fixed unit start vector: the golden-ratio Weyl sequence frac(j g) - 1/2, j = 1..n.

    Deterministic without a random generator, and neither even nor odd
    under the reflection of the nodes, so the Krylov space is not confined
    to one parity of a reflection-symmetric kernel.
    """
    start = np.arange(1, n + 1) * ((math.sqrt(5.0) - 1.0) / 2.0) % 1.0 - 0.5
    return start / np.linalg.norm(start)


def _steps_to_check(checks: list) -> int:
    """Lanczos steps from the last Ritz check to the next, from the (step, worst residual) of the checks.

    The worst leading residual decays about geometrically, so its rate
    over the last two checks predicts the step where it reaches RITZ_TOL;
    the gap is clamped to RITZ_CHECK..4 RITZ_CHECK (the upper clamp also
    when the residual did not fall).
    """
    if len(checks) < 2:
        return RITZ_CHECK
    (k1, r1), (k2, r2) = checks[-2:]
    rate = math.log(r2 / r1) / (k2 - k1)
    ahead = math.ceil(math.log(RITZ_TOL / r2) / rate) if rate < 0.0 else 4 * RITZ_CHECK
    return min(max(ahead, RITZ_CHECK), 4 * RITZ_CHECK)


def _lanczos(forward, adjoint, n: int, count: int):
    """The leading ``count`` singular values of an n x n operator, the Lanczos steps and the Ritz checks taken.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan 1965) from the
    fixed ``_start_vector``, so a run is reproducible, with one-sided full
    reorthogonalization: the right vectors V are kept orthonormal by one
    classical Gram-Schmidt pass, and a second where the DGKS test asks for
    it (``_orthogonalized``), and the left vector is carried alone by its
    recurrence, which keeps the singular values of B accurate (Simon & Zha,
    SIAM J. Sci. Comput. 21, 2000).  It stops when the leading Ritz
    residuals are at most RITZ_TOL sigma_1, or after n steps, where B holds
    the whole spectrum.  A check takes an SVD of the k x k bidiagonal; the
    first is at step ``count``, the second RITZ_CHECK steps on, and each
    later one where the last two predict convergence (``_steps_to_check``).
    """
    # room for 4 count steps of V (at most 200 were taken for count 64 up to
    # grid 4096); rows take memory only once written, and the room doubles if needed
    V = np.empty((min(n, 4 * count), n), complex)
    alpha, beta = np.empty(n), np.empty(n)
    V[0] = _start_vector(n)
    u = forward(V[0])
    alpha[0] = np.linalg.norm(u)
    u = u / alpha[0]
    checks, next_check = [], count
    k = 1
    while k < n:
        r, beta[k - 1] = _orthogonalized(adjoint(u) - alpha[k - 1] * V[k - 1], V[:k])
        if k == next_check:
            values, residuals = _ritz(alpha[:k], beta[:k])
            if np.all(residuals[:count] <= RITZ_TOL * values[0]):
                return values[:count], k, len(checks) + 1
            checks.append((k, float(np.max(residuals[:count]) / values[0])))
            next_check = k + _steps_to_check(checks)
        if beta[k - 1] == 0.0:
            break                                       # the Krylov space is invariant
        if k == len(V):
            V = np.concatenate([V, np.empty((min(n, 2 * k) - k, n), complex)])
        V[k] = r / beta[k - 1]
        p = forward(V[k]) - beta[k - 1] * u
        alpha[k] = np.linalg.norm(p)
        if alpha[k] == 0.0:
            break
        u = p / alpha[k]
        k += 1
    beta[k - 1] = 0.0
    return _ritz(alpha[:k], beta[:k])[0][:count], k, len(checks) + 1


def _tail_exponent(target: float, ratio: np.ndarray) -> float:
    """a >= 0 with sum ratio^(-2a) = target, by bisection; 0 when target reaches len(ratio), inf at 0."""
    def mass(a):
        return float(np.sum(ratio ** (-2.0 * a)))
    if target <= 0.0:
        return math.inf
    if target >= len(ratio):
        return 0.0
    lo, hi = 0.0, 1.0
    while mass(hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(TAIL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mass(mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


def _even_nodes(kernel: KernelGrid) -> KernelGrid:
    """The kernel on every other node of its grid, with those nodes' own trapezoid weights: no new march."""
    x = kernel.nodes[::2]
    generators = {g: getattr(kernel, g)[::2] for g in ("phi", "psi", "log_pf", "w2")}
    return dataclasses.replace(kernel, nodes=x, weights=_trapezoid_weights(x), **generators)


def _nystrom_values(kernel: KernelGrid, count: int):
    """``_lanczos`` on diag(sqrt w) G diag(sqrt w) from the kernel's O(n) apply and adjoint."""
    return _lanczos(lambda v: _nystrom_apply(kernel, v), lambda y: _nystrom_adjoint(kernel, y),
                    len(kernel.nodes), count)


def check_grid_size(grid: int) -> None:
    """Raise ValidationError unless the grid size is divisible by 4: the even nodes must hold 0."""
    if grid % 4:
        raise ValidationError(f"the Schatten diagnostics need a grid size divisible by 4, "
                              f"got {grid}: the even nodes must hold the kernel's kink at 0")


def singular_values(kernel: KernelGrid, orders=DEFAULT_ORDERS) -> SingularValueSpectrum:
    """The leading singular values of diag(sqrt w) G diag(sqrt w), and Schatten norms with the tail's share.

    The leading values, LEADING or one per INTERVALS_PER_VALUE grid intervals if
    fewer, come from ``_lanczos`` on the grid and on its even nodes
    (``_even_nodes``), the coarse solve once the fine one's basis is freed, and
    the squared Frobenius norm, exact in O(n), from both; each is extrapolated
    by (4 s(n) - s(n/2)) / 3 and the values sorted.  The rest have the sum of
    squares T left by the extrapolated norm.  The tail is modelled as sigma_k =
    sigma_K (k/K)^(-a) for K < k <= n, with a set by T.  A grid size not
    divisible by 4 raises ValidationError (``check_grid_size``).
    """
    n = len(kernel.nodes)
    check_grid_size(n - 1)
    coarse = _even_nodes(kernel)
    count = min(LEADING, (n - 1) // INTERVALS_PER_VALUE)
    fine_values, steps, checks = _nystrom_values(kernel, count)
    coarse_values, coarse_steps, coarse_checks = _nystrom_values(coarse, count)
    values = np.sort((4.0 * fine_values - coarse_values) / 3.0)[::-1]
    frobenius_sq = (4.0 * weighted_frobenius_sq(kernel) - weighted_frobenius_sq(coarse)) / 3.0
    tail_count = n - count
    tail_mass = max(frobenius_sq - float(np.sum(values ** 2)), 0.0)
    ratio = np.arange(count + 1, n + 1) / count
    exponent = _tail_exponent(tail_mass / values[-1] ** 2, ratio)
    norms, shares = {}, {}
    for p in orders:
        head = float(np.sum(values ** p))
        tail = float(values[-1] ** p * np.sum(ratio ** (-exponent * p)))
        norms[float(p)] = (head + tail) ** (1.0 / p)
        shares[float(p)] = tail / (head + tail)
    error = float(np.max(np.abs(fine_values - coarse_values))) / 3.0 / values[0]
    return SingularValueSpectrum(lam=kernel.lam, grid_size=n - 1, values=values,
                                 schatten_norms=norms, tail_mass=tail_mass, tail_count=tail_count,
                                 tail_shares=shares, lanczos_steps=steps + coarse_steps,
                                 lanczos_checks=checks + coarse_checks, extrapolation_error=error)


@dataclass(frozen=True, eq=False)
class DyadicBoundReport:
    lam: complex
    levels: np.ndarray                  # 0..J
    alpha_hat: np.ndarray               # per-level max block norm
    argmax_index: np.ndarray            # lowest i attaining each alpha_hat, up to ARGMAX_TIE
    fitted_m: float                     # max_j 2^j * alpha_hat_j
    ratios: np.ndarray                  # alpha_hat[j+1]/alpha_hat[j]

    def as_dict(self) -> dict:
        return {"levels": self.levels.tolist(),
                "alpha_hat": self.alpha_hat.tolist(),
                "argmax_index": self.argmax_index.tolist(),
                "fitted_m": self.fitted_m,
                "ratios": self.ratios.tolist()}


def dyadic_bound_audit(model: OperatorModel, lam, levels: int,
                       config: SolverConfig = DEFAULT_CONFIG) -> DyadicBoundReport:
    """Per-level max block norm max_i ||v||_(I_2i,j) * ||w||_(I_2i+1,j).

    Only the finest level's 2^levels intervals of (0, pi) take Gauss
    panels, whose abscissae are mesh nodes of the traces, so no
    interpolation enters and no node is served by an endpoint local model:
    shooting caps the cutoff below the abscissae nearest 0 and pi.  A
    mirrored panel holds its nodes reversed, which the symmetric Gauss
    weights allow; a coarser interval's squared norm is the sum of its halves'.
    """
    if not 0 <= levels <= 8:
        raise ValidationError("levels must lie in 0..8 (interval count stays desk-scale)")
    gx, gw = np.polynomial.legendre.leggauss(DYADIC_GAUSS_ORDER)
    edges = np.linspace(0.0, PI, 2 ** levels + 1)
    a, b = edges[:-1], edges[1:]
    panels = a[:, None] + np.outer(b - a, (gx + 1.0) / 2.0)     # ascending, one row per interval
    full = _full_period(model, solution_pairs(model, lam, panels.ravel(), config))
    ends = [0, len(full.phi) // 2, len(full.phi) - 1]            # -pi, 0, pi
    half_widths = np.concatenate([(b - a)[::-1], b - a]) / 2.0
    # squared norms on the finest intervals of [-pi, pi], from -pi, of v = phi
    # and w = psi * (-i p / (eps f))
    v_sq, w_sq = ((np.abs(np.delete(g, ends)) ** 2).reshape(-1, DYADIC_GAUSS_ORDER) @ gw
                  * half_widths for g in (full.phi, full.w2))
    alpha_hat = np.zeros(levels + 1)
    argmax = np.zeros(levels + 1, dtype=int)
    for j in range(levels, -1, -1):
        blocks = np.sqrt(v_sq[0::2]) * np.sqrt(w_sq[1::2])
        alpha_hat[j] = np.max(blocks)
        argmax[j] = np.argmax(blocks >= (1.0 - ARGMAX_TIE) * alpha_hat[j])
        v_sq, w_sq = v_sq[0::2] + v_sq[1::2], w_sq[0::2] + w_sq[1::2]

    fitted_m = float(np.max(alpha_hat * 2.0 ** np.arange(levels + 1)))
    ratios = alpha_hat[1:] / alpha_hat[:-1]
    return DyadicBoundReport(lam=complex(lam), levels=np.arange(levels + 1),
                             alpha_hat=alpha_hat, argmax_index=argmax,
                             fitted_m=fitted_m, ratios=ratios)


@dataclass(frozen=True)
class InequalityReport:
    lam: complex
    left: float                          # truncated sum over eigenvalues
    right: float                         # lower bound of the discretized ||R||_p^p
    slack: float                         # right*(1 + INEQUALITY_GUARD) - left
    passed: bool
    eigenvalues_used: int


def eigen_schatten_inequality(eigenvalues: np.ndarray, spectrum: SingularValueSpectrum,
                              lam, p: float) -> InequalityReport:
    """Truncated sum of |lam - lam_n|^(-p) against the p-th Schatten power.

    ``eigenvalues`` is an array of lam_n (an ``EigenvalueList``'s
    ``.eigenvalues``).  Truncation only shrinks the left side.  The right
    side is the lower bound of ``power_sum_bounds``, so a pass holds for
    every spectrum consistent with the computed values and tail mass;
    ``INEQUALITY_GUARD`` covers the discretization of the right side.
    """
    if p <= 1.0:
        raise ValidationError("the comparison needs p > 1")
    lam = complex(lam)
    eigenvalues = np.asarray(eigenvalues)
    left = float(np.sum(np.abs(lam - eigenvalues.astype(complex)) ** (-p)))
    right = spectrum.power_sum_bounds(p)[0]
    slack = right * (1.0 + INEQUALITY_GUARD) - left
    return InequalityReport(lam=lam, left=left, right=right, slack=slack,
                            passed=bool(slack >= 0.0), eigenvalues_used=len(eigenvalues))
