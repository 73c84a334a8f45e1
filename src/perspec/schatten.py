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
geometrically in j.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .green import KernelGrid, kernel_matrix, solution_pairs, _values_on
from .profiles import OperatorModel
from .shooting import DEFAULT_CONFIG, SolverConfig, extrapolate_endpoint
from .singular import (compute_log_p_over_f, default_cutoff,
                       indicial_series_coefficients, log_pf_coefficient_at_pi)

PI = math.pi

DEFAULT_ORDERS = (1.0, 1.5, 2.0, 3.0)
DYADIC_GAUSS_ORDER = 16                 # Gauss points per dyadic interval


@dataclass(frozen=True, eq=False)
class SingularValueSpectrum:
    lam: complex
    grid_size: int
    values: np.ndarray                  # non-increasing
    schatten_norms: dict                # order -> (sum alpha^p)^(1/p)

    def norm(self, p: float) -> float:
        key = float(p)
        if key not in self.schatten_norms:
            return float(np.sum(self.values ** key) ** (1.0 / key))
        return self.schatten_norms[key]

    def as_dict(self) -> dict:
        return {"grid_size": self.grid_size,
                "singular_values": self.values.tolist(),
                "schatten_norms": {str(k): v for k, v in self.schatten_norms.items()}}


def _weighted_svd(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sq = np.sqrt(weights)
    try:
        return np.linalg.svd(sq[:, None] * matrix * sq[None, :], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD failed to converge: {exc}") from exc


def singular_values(kernel: KernelGrid, orders=DEFAULT_ORDERS) -> SingularValueSpectrum:
    """Singular values of the symmetrized kernel matrix plus Schatten norms."""
    alpha = _weighted_svd(kernel_matrix(kernel), kernel.weights)
    norms = {float(p): float(np.sum(alpha ** p) ** (1.0 / p)) for p in orders}
    return SingularValueSpectrum(lam=kernel.lam, grid_size=kernel.meta["grid_size"],
                                 values=alpha, schatten_norms=norms)


def dyadic_intervals(level: int) -> np.ndarray:
    """Edges of the 2^(level+1) equal intervals covering [-pi, pi]."""
    count = 2 ** (level + 1)
    return np.linspace(-PI, PI, count + 1)


@dataclass(frozen=True, eq=False)
class DyadicBoundReport:
    lam: complex
    levels: np.ndarray                  # 0..J
    alpha_hat: np.ndarray               # per-level max block norm
    argmax_index: np.ndarray            # i attaining each alpha_hat
    fitted_m: float                     # max_j 2^j * alpha_hat_j
    ratios: np.ndarray                  # alpha_hat[j+1]/alpha_hat[j]
    fallback_events: list               # nodes served by endpoint local models

    def as_dict(self) -> dict:
        return {"levels": self.levels.tolist(),
                "alpha_hat": self.alpha_hat.tolist(),
                "argmax_index": self.argmax_index.tolist(),
                "fitted_m": self.fitted_m,
                "ratios": self.ratios.tolist(),
                "fallback_events": list(self.fallback_events)}


def dyadic_bound_audit(model: OperatorModel, lam, levels: int,
                       config: SolverConfig = DEFAULT_CONFIG) -> DyadicBoundReport:
    """Per-level max block norm max_i ||v||_(I_2i,j) * ||w||_(I_2i+1,j).

    All interval norms are computed with Gauss panels whose abscissae are
    forced trace nodes, so no interpolation enters.  Nodes falling inside
    the seed collar (only possible with a user-pinned cutoff) are served
    by the endpoint local models and logged as fallback events.
    """
    if not 0 <= levels <= 8:
        raise ValidationError("levels must lie in 0..8 (interval count stays desk-scale)")
    eps = model.epsilon
    sigma = model.sigma
    gx, gw = np.polynomial.legendre.leggauss(DYADIC_GAUSS_ORDER)

    panels = {}
    all_pos = []
    for j in range(levels + 1):
        edges = dyadic_intervals(j)
        a, b = edges[:-1], edges[1:]
        nodes = a[:, None] + np.outer(b - a, (gx + 1.0) / 2.0)
        panels[j] = (nodes, (b - a) / 2.0)
        all_pos.append(np.abs(nodes.ravel()))
    pos = np.unique(np.concatenate(all_pos))
    pos = pos[(pos > 0.0) & (pos < PI)]
    if len(pos) > 1:                 # merge nodes closer than the stepper tolerance
        pos = np.concatenate([pos[:1], pos[1:][np.diff(pos) > 1e-12]])

    delta = config.delta if config.delta is not None else \
        min(default_cutoff(lam), 0.45 * float(pos.min()), 0.45 * float(PI - pos.max()))
    run_cfg = dataclasses.replace(config, delta=delta)
    inside = pos[(pos > delta) & (pos < PI - delta)]
    pairs = solution_pairs(model, lam, inside, run_cfg)

    phi_p, _ = _values_on(pairs[1]["phi"], inside)
    psi_p, _ = _values_on(pairs[1]["psi"], inside)
    phi_m, _ = _values_on(pairs[-1]["phi"], inside)
    psi_m, _ = _values_on(pairs[-1]["psi"], inside)
    pf_in = np.exp(np.asarray(compute_log_p_over_f(model, inside)))

    a1p, _ = indicial_series_coefficients(model, lam)
    a1m, _ = indicial_series_coefficients(model, -lam)
    log_cpi = log_pf_coefficient_at_pi(model)
    fallback = []

    def _idx(t: float) -> int:
        k = int(np.searchsorted(inside, t))
        if k == len(inside) or (k > 0 and t - inside[k - 1] < inside[k] - t):
            k -= 1
        if abs(inside[k] - t) > 1e-9:
            raise SolverError(f"dyadic node {t} missing from the trace grid")
        return k

    def v_abs(t: float, s_sign: float, where: str) -> float:
        """|phi(s, lam)| at s = s_sign*t via reflection."""
        if where == "in":
            k = _idx(t)
            return abs(phi_p[k]) if s_sign > 0 else abs(phi_m[k])
        pair = pairs[1] if s_sign > 0 else pairs[-1]
        a1 = a1p if s_sign > 0 else a1m
        if where == "origin":
            return abs(1.0 + a1 * t)
        end = pair["phi_end"]
        d = PI - t
        return abs(end.regular_part + end.singular_part * d ** sigma)

    def w_abs(t: float, s_sign: float, where: str) -> float:
        """|psi(s, lam) * (p/f)(s)/eps| at s = s_sign*t via reflection."""
        if where == "in":
            k = _idx(t)
            val = psi_p[k] if s_sign > 0 else psi_m[k]
            return abs(val) * pf_in[k] / eps
        pair = pairs[1] if s_sign > 0 else pairs[-1]
        if where == "origin":
            b0 = pair["psi_origin"].singular_part
            return abs(b0) * (PI / 2.0) / eps
        bpi = pair["psi_end"].singular_part
        return abs(bpi) * math.exp(log_cpi) / eps

    def interval_norm(nodes_row, jac, which, level, idx) -> float:
        total = 0.0
        for q, s in enumerate(nodes_row):
            t = abs(s)
            s_sign = 1.0 if s >= 0 else -1.0
            if t <= delta:
                where = "origin"
            elif t >= PI - delta:
                where = "pi"
            else:
                where = "in"
            if where != "in":
                fallback.append({"level": level, "interval": idx, "node": float(s)})
            mag = v_abs(t, s_sign, where) if which == "v" else w_abs(t, s_sign, where)
            total += gw[q] * mag * mag
        return math.sqrt(total * jac)

    alpha_hat = np.zeros(levels + 1)
    argmax = np.zeros(levels + 1, dtype=int)
    for j in range(levels + 1):
        nodes, jac = panels[j]
        best, best_i = 0.0, 0
        for i in range(2 ** j):
            nv = interval_norm(nodes[2 * i], jac[2 * i], "v", j, 2 * i)
            nw = interval_norm(nodes[2 * i + 1], jac[2 * i + 1], "w", j, 2 * i + 1)
            if nv * nw > best:
                best, best_i = nv * nw, i
        alpha_hat[j] = best
        argmax[j] = best_i

    fitted_m = float(np.max(alpha_hat * 2.0 ** np.arange(levels + 1)))
    ratios = alpha_hat[1:] / alpha_hat[:-1]
    return DyadicBoundReport(lam=complex(lam), levels=np.arange(levels + 1),
                             alpha_hat=alpha_hat, argmax_index=argmax,
                             fitted_m=fitted_m, ratios=ratios,
                             fallback_events=fallback)


@dataclass(frozen=True)
class InequalityReport:
    p: float
    lam: complex
    left: float                          # truncated sum over eigenvalues
    right: float                         # discretized ||R||_p^p
    slack: float                         # right*(1+guard) - left
    guard: float
    passed: bool
    eigenvalues_used: int

    def as_dict(self) -> dict:
        return {"p": self.p, "left": self.left, "right": self.right,
                "slack": self.slack, "guard": self.guard, "passed": self.passed,
                "eigenvalues_used": self.eigenvalues_used}


def eigen_schatten_inequality(eigenvalues: np.ndarray, spectrum: SingularValueSpectrum,
                              lam, p: float, guard: float = 0.05) -> InequalityReport:
    """Truncated sum of |lam - lam_n|^(-p) against the p-th Schatten power.

    ``eigenvalues`` is an array of lam_n (an ``EigenvalueList``'s
    ``.eigenvalues``).  Truncation only shrinks the left side; the guard
    covers the discretization of the right side.
    """
    if p <= 1.0:
        raise ValidationError("the comparison needs p > 1")
    lam = complex(lam)
    eigenvalues = np.asarray(eigenvalues)
    left = float(np.sum(np.abs(lam - eigenvalues.astype(complex)) ** (-p)))
    right = float(np.sum(spectrum.values ** p))
    slack = right * (1.0 + guard) - left
    return InequalityReport(p=float(p), lam=lam, left=left, right=right,
                            slack=slack, guard=guard, passed=bool(slack >= 0.0),
                            eigenvalues_used=len(eigenvalues))
