"""Fundamental solutions of the transformed equation by adaptive shooting.

Two solutions are produced on (0, pi), both in the quasi-derivative state
(u, w = p*u'):

* ``phi``  seeded at the origin with u -> 1, integrated forward;
* ``psi``  seeded at pi with the vanishing branch (pi - x)^sigma,
  integrated backward (toward the growing direction, which is the stable
  one), then rescaled so the Wronskian w_psi*phi - w_phi*psi equals 1.

Endpoint values are never read off the last grid node directly: the local
two-branch model A*(1 + alpha1*d) + B*d^sigma*(1 + a1*d) is fitted to the
trailing nodes, which extracts the boundary value A uniformly in sigma
(for sigma > 1 the singular branch has vanishing derivative at the end,
for sigma < 1 a blowing one; the value fit sidesteps both).

Negative x is never integrated here; callers use the reflection to -lam.
``mirror_audit`` provides the independent cross-check: it integrates the
original equation on (-pi, 0) in the f-weighted state (u, f*u') with
scipy's stepper and compares against the reflected trace.

Every trace has one seed cutoff delta, used at both ends: the pinned
``SolverConfig.delta`` or ``singular.default_cutoff(lam)``, capped at
CUTOFF_CAP times the output nodes' distances to 0 and to pi so that no
requested node falls inside the seed collar.

Many boundary values phi(pi, lam) at once come from ``boundary_values``.
The equation is linear and lam enters only through kappa = -i*lam/eps, so
on a ``SharedMesh`` each interval's DOPRI5 step is a 2x2 matrix polynomial
in kappa whose coefficients are computed once per mesh.  Every lam is one
column marched through the same propagators: seeded at the mesh's first
node, which is the mesh's cutoff, and ended in the same two-branch fit as
a single shot on the mesh's nodes pi - 4*delta, pi - 2*delta and
pi - delta.  ``shared_mesh`` takes the nodes of one adaptive shot at the
largest |lam|, which has the smallest default cutoff, and accepts them by
step doubling.  Since the seed error is O(delta^2), that cutoff serves
every column at least as well as the column's own default would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from ._stepper import (KAPPA_DEGREE, STAGE_FRACTIONS, STATUS_MAX_STEPS,
                       STATUS_STEP_UNDERFLOW, integrate_quasi_system,
                       linear_step_coefficients, linear_step_matrices)
from .errors import (EigenvalueProximityError, GridMismatchError, IntegrationError,
                     SolverError, ValidationError)
from .profiles import OperatorModel, eval_f
from .singular import (compute_p_over_f, default_cutoff,
                       indicial_series_coefficients, integrating_factor,
                       seed_regular_origin, seed_vanishing_at_pi)

PI = math.pi
CAP_FRAC = 0.5                           # step cap as fraction of endpoint distance
# Cutoff cap, in units of the output nodes' distance to 0 and pi.  Below 1
# it keeps every output node out of the seed collar; below 0.5 it keeps
# psi's fit node 4*delta off a node at twice the innermost one, which is
# where the dyadic audit's next level puts its innermost Gauss node.
CUTOFF_CAP = 0.45
WRONSKIAN_FLOOR = 1e-8                   # eigenvalue-proximity threshold factor
MESH_DEFECT_FACTOR = 10.0                # step-doubling tolerance of a shared mesh, in rtol
MESH_MAX_HALVINGS = 6
PHI_FIT = (4.0, 2.0, 1.0)                # phi(pi) is fitted to u at pi - m*delta
MARCH_BLOCK = 4096                       # (interval x lam) propagators built at a time
STEP_BLOCK = 512                         # intervals whose step polynomials are built at a time


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one shooting run; defaults suit the whole test suite."""

    delta: Optional[float] = None        # seed cutoff; None -> 1e-4/sqrt(1+|lam|)
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 200_000


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """A fundamental solution sampled on an ascending grid in (0, pi)."""

    lam: complex
    grid: np.ndarray
    values: np.ndarray
    quasi_derivatives: np.ndarray
    branch: str                          # phi | psi-prenorm | psi
    delta: float                         # seed cutoff at 0 and at pi
    meta: dict

    def __post_init__(self):
        for arr in (self.grid, self.values, self.quasi_derivatives):
            arr.setflags(write=False)

    def lookup(self, nodes):
        """(values, quasi-derivatives) at ``nodes``, each within 1e-12 of a grid node."""
        nodes = np.asarray(nodes, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, nodes), 1, len(self.grid) - 1)
        idx -= nodes - self.grid[idx - 1] < self.grid[idx] - nodes     # the nearer node
        if np.any(np.abs(self.grid[idx] - nodes) > 1e-12):
            raise GridMismatchError("trace does not contain the requested nodes")
        return self.values[idx], self.quasi_derivatives[idx]


@dataclass(frozen=True)
class EndpointValue:
    """Local decomposition u ~ A*(1 + alpha1*d) + B*d^exponent*(1 + a1*d)."""

    endpoint: str                        # plus-pi | origin
    regular_part: complex
    singular_part: complex
    exponent: float
    fit_residual: float


@dataclass(frozen=True)
class WronskianValue:
    value: complex
    max_deviation: float


def _forced_nodes(model: OperatorModel, x0: float, x1: float,
                  outputs: Optional[Sequence[float]]) -> np.ndarray:
    lo, hi = (x0, x1) if x1 > x0 else (x1, x0)
    pts = [k for k in model.profile.breakpoints if lo < k < hi]
    if outputs is not None:
        pts.extend(float(t) for t in np.asarray(outputs).ravel()
                   if lo + 1e-15 < t < hi - 1e-15)
    pts = np.asarray(sorted(set(pts)), dtype=float)
    if len(pts) > 1:                       # drop near-coincident nodes
        keep = np.concatenate([[True], np.diff(pts) > 1e-12])
        pts = pts[keep]
    if len(pts):                           # endpoints are recorded anyway
        pts = pts[(np.abs(pts - x0) > 1e-12) & (np.abs(pts - x1) > 1e-12)]
    if x1 < x0:
        pts = pts[::-1]
    return np.concatenate([pts, [x1]])


def _run(model: OperatorModel, lam, x0, x1, u0, w0, config: SolverConfig,
         outputs, record_steps: bool):
    forced = _forced_nodes(model, x0, x1, outputs)
    status, x_reached, n_out, xs, us, ws = integrate_quasi_system(
        float(x0), float(x1), complex(u0), complex(w0), complex(lam),
        float(model.epsilon), integrating_factor(model).coef,
        forced, float(config.rtol), float(config.atol),
        int(config.max_steps), CAP_FRAC, bool(record_steps))[:6]
    if status == STATUS_STEP_UNDERFLOW:
        raise IntegrationError(
            f"step size underflow at x = {x_reached:.6g} (lam = {lam}); "
            "the coefficient degenerates faster than the stepper can follow",
            x_reached=x_reached)
    if status == STATUS_MAX_STEPS:
        raise IntegrationError(
            f"step budget exhausted at x = {x_reached:.6g} (lam = {lam})",
            x_reached=x_reached)
    xs, us, ws = xs[:n_out], us[:n_out], ws[:n_out]
    if x1 < x0:
        xs, us, ws = xs[::-1].copy(), us[::-1].copy(), ws[::-1].copy()
    return xs, us, ws


def _cutoff(lam, config: SolverConfig, outputs) -> float:
    delta = config.delta if config.delta is not None else default_cutoff(lam)
    if outputs is not None and len(outputs):
        arr = np.asarray(outputs, dtype=float)
        delta = min(delta, CUTOFF_CAP * float(np.min(arr)),
                    CUTOFF_CAP * float(PI - np.max(arr)))
    if delta <= 0:
        raise ValidationError("output nodes must lie strictly inside (0, pi)")
    return delta


def integrate_phi(model: OperatorModel, lam, config: SolverConfig = DEFAULT_CONFIG,
                  output_nodes: Optional[Sequence[float]] = None,
                  record_steps: bool = True) -> SolutionTrace:
    """Trace of the solution with u -> 1 at the origin."""
    delta = _cutoff(lam, config, output_nodes)
    seed = seed_regular_origin(model, lam, delta)
    fit = [PI - m * delta for m in PHI_FIT[:-1]]
    outs = list(fit) if output_nodes is None else list(output_nodes) + fit
    xs, us, ws = _run(model, lam, delta, PI - delta, seed.value, seed.quasi_derivative,
                      config, outs, record_steps)
    return SolutionTrace(lam=complex(lam), grid=xs, values=us, quasi_derivatives=ws,
                         branch="phi", delta=delta,
                         meta={"rtol": config.rtol, "atol": config.atol})


def extrapolate_endpoint(trace: SolutionTrace, model: OperatorModel,
                         endpoint: str = "plus-pi") -> EndpointValue:
    """Fit the two-branch local model at an endpoint and return (A, B)."""
    sigma = model.sigma
    a1, alpha1 = indicial_series_coefficients(model, trace.lam)
    if endpoint == "plus-pi":
        take = slice(-3, None)
        dist = PI - trace.grid[take]
        vals = trace.values[take]
        dist, vals = dist[::-1], vals[::-1]           # nearest endpoint first
        expo = sigma
    elif endpoint == "origin":
        take = slice(None, 3)
        dist = trace.grid[take].copy()
        vals = trace.values[take].copy()
        expo = -sigma
    else:
        raise ValidationError(f"unknown endpoint {endpoint!r}")
    A, B, resid = _two_branch_fit(dist, vals, expo, a1, alpha1, trace.delta)
    return EndpointValue(endpoint=endpoint, regular_part=complex(A),
                         singular_part=complex(B), exponent=expo,
                         fit_residual=float(resid))


def _two_branch_fit(dist, vals, expo, a1, alpha1, delta):
    """Fit u ~ A*(1 + alpha1*d) + B*d^expo*(1 + a1*d) through (dist, vals).

    Rows of ``dist`` and ``vals`` are nodes, nearest the endpoint first; A
    and B come from the first two, the residual from the third when there
    is one.  Trailing axes are independent fits, with ``a1``, ``alpha1``
    and the cutoff ``delta`` broadcasting against them.  Returns
    (A, B, residual).
    """
    if len(dist) < 2:
        raise SolverError("trace too short for endpoint extrapolation")
    if np.any(dist[0] > 10 * delta) or np.any(dist[1] > 0.1):
        raise SolverError("no trace nodes close enough to the endpoint for a stable fit")

    def basis(d):
        return 1.0 + alpha1 * d, d ** expo * (1.0 + a1 * d)

    g11, g12 = basis(dist[0])
    g21, g22 = basis(dist[1])
    det = g11 * g22 - g12 * g21
    scale = np.maximum(np.maximum(abs(g11 * g22), abs(g12 * g21)), 1e-300)
    if np.any(abs(det) < 1e-8 * scale):
        raise SolverError("endpoint fit ill-conditioned: trailing nodes too close; "
                          "increase the cutoff spacing")
    A = (vals[0] * g22 - g12 * vals[1]) / det
    B = (g11 * vals[1] - vals[0] * g21) / det
    resid = 0.0
    if len(dist) > 2:
        g31, g32 = basis(dist[2])
        resid = abs(A * g31 + B * g32 - vals[2])
    return A, B, resid


def compute_phi_at_pi(model: OperatorModel, lam,
                      config: SolverConfig = DEFAULT_CONFIG) -> complex:
    """Boundary value phi(pi, lam); phi(-pi, lam) is this at -lam."""
    trace = integrate_phi(model, lam, config, record_steps=False)
    return extrapolate_endpoint(trace, model, "plus-pi").regular_part


def _shared_wronskian(phi: SolutionTrace, grid, values, quasi_derivatives):
    """W = w_psi*phi - w_phi*psi on the nodes a psi trace shares with ``phi``.

    Both grids ascend and share nodes exactly by construction.  Returns W,
    the index of the shared node nearest pi/2, and the shared nodes'
    indices into phi's and psi's grids.
    """
    common, pi_idx, ps_idx = np.intersect1d(phi.grid, grid, return_indices=True)
    if len(common) < 4:
        raise SolverError("phi trace has too few interior nodes to normalize psi against")
    W = (quasi_derivatives[ps_idx] * phi.values[pi_idx]
         - phi.quasi_derivatives[pi_idx] * values[ps_idx])
    mid = int(np.argmin(np.abs(common - PI / 2)))
    return W, mid, pi_idx, ps_idx


def integrate_psi_normalized(model: OperatorModel, lam, phi: SolutionTrace,
                             config: SolverConfig = DEFAULT_CONFIG) -> SolutionTrace:
    """Backward trace of the branch vanishing at pi, scaled to unit Wronskian.

    The Wronskian is evaluated from quasi-derivatives on the nodes shared
    with ``phi`` (the psi integration is forced onto phi's grid), the
    normalization point being the shared node nearest pi/2.  A collapsed
    Wronskian means lam is numerically an eigenvalue.
    """
    delta = phi.delta
    seed = seed_vanishing_at_pi(model, lam, delta)
    interior = phi.grid[(phi.grid > delta) & (phi.grid < PI - delta)]
    fit = [2 * delta, 4 * delta, PI - 2 * delta, PI - 4 * delta]    # endpoint-fit nodes
    outs = np.concatenate([interior, fit])
    xs, us, ws = _run(model, lam, PI - delta, delta, seed.value, seed.quasi_derivative,
                      config, outs, record_steps=False)

    W, mid, pi_idx, ps_idx = _shared_wronskian(phi, xs, us, ws)
    W0 = W[mid]
    floor = WRONSKIAN_FLOOR * float(
        np.max(np.abs(phi.values[pi_idx]) * np.abs(ws[ps_idx])))
    if abs(W0) < floor:
        raise EigenvalueProximityError(
            f"Wronskian collapsed (|W0| = {abs(W0):.3e} < {floor:.3e}): "
            f"lam = {lam} is numerically an eigenvalue")
    deviation = float(np.max(np.abs(W / W0 - 1.0)))

    vals = us / W0
    qds = ws / W0
    slope = None
    small = xs[xs < 0.05]
    if len(small) >= 2:
        mags = np.abs(vals[: len(small)])
        if np.all(mags > 0):
            slope = float(np.polyfit(np.log(small), np.log(mags), 1)[0])
    return SolutionTrace(lam=complex(lam), grid=xs, values=vals, quasi_derivatives=qds,
                         branch="psi", delta=delta,
                         meta={"wronskian": WronskianValue(value=complex(W0 / W0),
                                                           max_deviation=deviation),
                               "prenorm_scale": complex(1.0 / W0),
                               "origin_loglog_slope": slope,
                               "rtol": config.rtol, "atol": config.atol})


def wronskian_deviation(phi: SolutionTrace, psi: SolutionTrace) -> WronskianValue:
    """Constancy audit of w_psi*phi - w_phi*psi over the shared nodes."""
    W, mid, _, _ = _shared_wronskian(phi, psi.grid, psi.values, psi.quasi_derivatives)
    return WronskianValue(value=complex(W[mid]), max_deviation=float(np.max(np.abs(W - 1.0))))


def mirror_audit(model: OperatorModel, lam, config: SolverConfig = DEFAULT_CONFIG,
                 n_nodes: int = 25) -> dict:
    """Independent check of the half-interval reduction.

    Integrates the original equation directly on (-pi, 0) in the state
    (u, f*u') with scipy's RK45 (no integrating factor, no reflection) and
    compares u(x) against the reflected value phi(-x, -lam) node-wise.
    Returns the node set, both solution arrays and the max deviation.
    """
    eps = model.epsilon
    a1, _ = indicial_series_coefficients(model, lam)
    d0 = config.delta if config.delta is not None else default_cutoff(lam)
    d1 = max(d0, 2e-3)
    nodes = np.linspace(0.02, PI - 0.02, n_nodes)

    ref = integrate_phi(model, -lam, config, output_nodes=nodes, record_steps=False)
    ref_vals = ref.lookup(nodes)[0]

    def rhs(x, y):
        fx = eval_f(model.profile, x)
        u, z = y[0] + 1j * y[1], y[2] + 1j * y[3]
        du = z / fx
        dz = -1j * lam * u / eps - z / (eps * fx)
        return [du.real, du.imag, dz.real, dz.imag]

    u0 = 1.0 - a1 * d0
    z0 = eval_f(model.profile, -d0) * a1
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


@dataclass(frozen=True, eq=False)
class SharedMesh:
    """Nodes in (0, pi) that a batched march steps every lam through.

    The first node is the cutoff delta every column is seeded at, and
    ``fit`` indexes the nodes pi - 4*delta, pi - 2*delta and pi - delta
    (the last) that every column is fitted on.  ``coeffs`` holds each
    interval's DOPRI5 step as a polynomial in kappa
    (``linear_step_coefficients``).  The mesh is checked for |lam| up to
    ``lam_max``: ``defect`` is the step-doubling defect there,
    ``halvings`` how often the check halved every interval, and
    ``check_marches`` the batched marches the check ran.
    """

    nodes: np.ndarray
    coeffs: np.ndarray
    fit: np.ndarray
    lam_max: float
    defect: float = math.nan
    halvings: int = 0
    check_marches: int = 0


def _step_coefficients(model: OperatorModel, x0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Step polynomials of the intervals [x0, x0 + h], coefficients read at the stage points."""
    out = np.empty((len(h), 2, 2, KAPPA_DEGREE + 1))
    for i in range(0, len(h), STEP_BLOCK):
        part = slice(i, i + STEP_BLOCK)
        x = x0[part, None] + np.outer(h[part], STAGE_FRACTIONS)
        pf = np.asarray(compute_p_over_f(model, x))
        inv_p = 1.0 / (np.asarray(eval_f(model.profile, x)) * pf)
        out[part] = linear_step_coefficients(h[part], inv_p, pf)
    return out


def _tabulate(model: OperatorModel, nodes: np.ndarray, lam_max: float) -> SharedMesh:
    delta = nodes[0]
    marks = PI - delta * np.array(PHI_FIT)
    fit = np.searchsorted(nodes, marks - 1e-6 * delta)
    if fit[-1] != len(nodes) - 1 or np.any(np.abs(nodes[fit] - marks) > 1e-6 * delta):
        raise ValidationError("a shared mesh runs from delta to pi - delta through "
                              "pi - 4*delta and pi - 2*delta")
    return SharedMesh(nodes=nodes, coeffs=_step_coefficients(model, nodes[:-1], np.diff(nodes)),
                      fit=fit, lam_max=float(lam_max))


def _apply(P, u, w):
    return P[..., 0, 0] * u + P[..., 0, 1] * w, P[..., 1, 0] * u + P[..., 1, 1] * w


def boundary_values(model: OperatorModel, mesh: SharedMesh, lams) -> np.ndarray:
    """phi(pi, lam) for every lam in ``lams``, marched together through ``mesh``.

    Every lam is seeded at the mesh's cutoff delta = nodes[0], steps through
    every interval and is fitted on the mesh's nodes pi - 4*delta,
    pi - 2*delta and pi - delta, as ``integrate_phi`` does with that cutoff.
    Propagators are built MARCH_BLOCK at a time, so memory stays
    O(mesh + lams).
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(np.abs(lams) > mesh.lam_max):
        raise ValidationError(f"|lam| exceeds {mesh.lam_max}, the largest the mesh was checked for")
    delta = float(mesh.nodes[0])
    kappa = -1j * lams / model.epsilon
    seeds = [seed_regular_origin(model, lam, delta) for lam in lams]
    u = np.array([s.value for s in seeds], dtype=complex)
    w = np.array([s.quasi_derivative for s in seeds], dtype=complex)

    fit = mesh.fit[::-1].tolist()                # nearest pi first
    vals = np.empty((len(fit), len(lams)), dtype=complex)
    block = max(1, MARCH_BLOCK // len(lams))
    for k0 in range(0, len(mesh.nodes) - 1, block):
        P = linear_step_matrices(mesh.coeffs[k0:k0 + block, None], kappa)
        for k, Pk in enumerate(P, start=k0 + 1):     # k: the node the step lands on
            u, w = _apply(Pk, u, w)
            if k in fit:
                vals[fit.index(k)] = u
    a1, alpha1 = indicial_series_coefficients(model, lams)
    A, _, _ = _two_branch_fit(PI - mesh.nodes[fit], vals, model.sigma, a1, alpha1, delta)
    return A


def _halved(nodes: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(nodes) - 1)
    out[::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


def check_mesh(model: OperatorModel, nodes, lam_max: float,
               config: SolverConfig = DEFAULT_CONFIG) -> SharedMesh:
    """Accept ``nodes`` for |lam| <= lam_max by step doubling.

    D(lam_max) = phi(pi, lam_max) - phi(pi, -lam_max) on the mesh is
    compared with the same on the mesh with every interval halved.  While
    the difference relative to max(1, |phi|) exceeds MESH_DEFECT_FACTOR*rtol,
    the halved mesh becomes the candidate.
    """
    lams = np.array([lam_max, -lam_max])
    tol = MESH_DEFECT_FACTOR * config.rtol
    mesh = _tabulate(model, np.asarray(nodes, dtype=float), lam_max)
    vals = boundary_values(model, mesh, lams)
    for halvings in range(MESH_MAX_HALVINGS + 1):
        finer = _tabulate(model, _halved(mesh.nodes), lam_max)
        fine_vals = boundary_values(model, finer, lams)
        defect = float(abs((vals[0] - vals[1]) - (fine_vals[0] - fine_vals[1]))
                       / max(1.0, float(np.max(np.abs(fine_vals)))))
        if defect <= tol:
            return replace(mesh, defect=defect, halvings=halvings,
                           check_marches=halvings + 2)
        mesh, vals = finer, fine_vals
    raise IntegrationError(f"shared mesh still fails step doubling after {MESH_MAX_HALVINGS} "
                           f"halvings (defect {defect:.3e} at lam = {lam_max})")


def shared_mesh(model: OperatorModel, lam_max: float,
                config: SolverConfig = DEFAULT_CONFIG) -> SharedMesh:
    """A checked mesh for every |lam| <= lam_max.

    Its nodes are those of one adaptive phi shot at lam_max, which has the
    smallest default cutoff; the profile's breakpoints and the fit nodes are
    among them.  Raises IntegrationError when that shot or the check fails.
    """
    trace = integrate_phi(model, lam_max, config, record_steps=True)
    return check_mesh(model, trace.grid, lam_max, config)
