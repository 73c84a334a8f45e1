"""Schatten diagnostics of the discretized resolvent kernel.

Matrix singular values approximate operator singular values through the
square-root-weight symmetrization M = D^(1/2) G D^(1/2) with D the
diagonal of quadrature weights; the p = 2 norm of M then coincides with
the quadrature Frobenius norm of the kernel, which is the built-in
cross-check.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .green import KernelGrid, _full_period, kernel_matrix, solution_pairs
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


@dataclass(frozen=True, eq=False)
class SingularValueSpectrum:
    lam: complex
    grid_size: int
    values: np.ndarray                  # non-increasing
    schatten_norms: dict                # order -> (sum alpha^p)^(1/p)

    def as_dict(self) -> dict:
        return {"grid_size": self.grid_size,
                "singular_values": self.values.tolist(),
                "schatten_norms": {str(k): v for k, v in self.schatten_norms.items()}}


def _weighted_svd(kernel: KernelGrid) -> np.ndarray:
    """Singular values of diag(sqrt w) G diag(sqrt w), scaling the fresh dense G in place."""
    sq = np.sqrt(kernel.weights)
    G = kernel_matrix(kernel)
    G *= sq[:, None]
    G *= sq[None, :]
    try:
        return np.linalg.svd(G, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD failed to converge: {exc}") from exc


def singular_values(kernel: KernelGrid, orders=DEFAULT_ORDERS) -> SingularValueSpectrum:
    """Singular values of the symmetrized kernel matrix plus Schatten norms."""
    alpha = _weighted_svd(kernel)
    norms = {float(p): float(np.sum(alpha ** p) ** (1.0 / p)) for p in orders}
    return SingularValueSpectrum(lam=kernel.lam, grid_size=len(kernel.nodes) - 1,
                                 values=alpha, schatten_norms=norms)


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
    right: float                         # discretized ||R||_p^p
    slack: float                         # right*(1 + INEQUALITY_GUARD) - left
    passed: bool
    eigenvalues_used: int


def eigen_schatten_inequality(eigenvalues: np.ndarray, spectrum: SingularValueSpectrum,
                              lam, p: float) -> InequalityReport:
    """Truncated sum of |lam - lam_n|^(-p) against the p-th Schatten power.

    ``eigenvalues`` is an array of lam_n (an ``EigenvalueList``'s
    ``.eigenvalues``).  Truncation only shrinks the left side;
    ``INEQUALITY_GUARD`` covers the discretization of the right side.
    """
    if p <= 1.0:
        raise ValidationError("the comparison needs p > 1")
    lam = complex(lam)
    eigenvalues = np.asarray(eigenvalues)
    left = float(np.sum(np.abs(lam - eigenvalues.astype(complex)) ** (-p)))
    right = float(np.sum(spectrum.values ** p))
    slack = right * (1.0 + INEQUALITY_GUARD) - left
    return InequalityReport(lam=lam, left=left, right=right, slack=slack,
                            passed=bool(slack >= 0.0), eigenvalues_used=len(eigenvalues))
