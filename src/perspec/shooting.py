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

Many boundary values phi(pi, lam) at once come from ``boundary_values``.
The equation is linear and lam enters only through kappa = -i*lam/eps, so
on a ``SharedMesh`` each interval's DOPRI5 step is a 2x2 matrix polynomial
in kappa whose coefficients are computed once per mesh.  Every lam is one
column marched through the same propagators; near the endpoints it walks
the mesh's end nodes scaled to its own cutoff, and it ends in the same
two-branch fit as a single shot.  ``shared_mesh`` takes the nodes of one
adaptive shot at the largest |lam| and accepts them by step doubling.
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
from .errors import (EigenvalueProximityError, IntegrationError, SolverError,
                     ValidationError)
from .profiles import OperatorModel, eval_f
from .singular import (compute_p_over_f, default_cutoff,
                       indicial_series_coefficients, integrating_factor,
                       seed_regular_origin, seed_vanishing_at_pi)

PI = math.pi
CAP_FRAC = 0.5                           # step cap as fraction of endpoint distance
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
    wronskian_floor: float = 1e-8        # eigenvalue-proximity threshold factor


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """A fundamental solution sampled on an ascending grid in (0, pi)."""

    lam: complex
    grid: np.ndarray
    values: np.ndarray
    quasi_derivatives: np.ndarray
    branch: str                          # phi | psi-prenorm | psi
    delta_origin: float
    delta_pi: float
    meta: dict

    def __post_init__(self):
        for arr in (self.grid, self.values, self.quasi_derivatives):
            arr.setflags(write=False)

    def value_at(self, x: float) -> complex:
        idx = np.searchsorted(self.grid, x)
        if idx >= len(self.grid) or abs(self.grid[idx] - x) > 1e-12:
            if idx > 0 and abs(self.grid[idx - 1] - x) <= 1e-12:
                idx -= 1
            else:
                raise KeyError(f"x = {x} is not a trace node")
        return complex(self.values[idx])


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


def _cutoffs(lam, config: SolverConfig, outputs) -> tuple[float, float]:
    delta = config.delta if config.delta is not None else default_cutoff(lam)
    d0, d1 = delta, delta
    if outputs is not None and len(outputs):
        arr = np.asarray(outputs, dtype=float)
        d0 = min(d0, 0.5 * float(np.min(arr)))
        d1 = min(d1, 0.5 * float(PI - np.max(arr)))
    if min(d0, d1) <= 0:
        raise ValidationError("output nodes must lie strictly inside (0, pi)")
    return d0, d1


def integrate_phi(model: OperatorModel, lam, config: SolverConfig = DEFAULT_CONFIG,
                  output_nodes: Optional[Sequence[float]] = None,
                  record_steps: bool = True) -> SolutionTrace:
    """Trace of the solution with u -> 1 at the origin."""
    d0, d1 = _cutoffs(lam, config, output_nodes)
    seed = seed_regular_origin(model, lam, d0)
    fit = [PI - m * d1 for m in PHI_FIT[:-1]]
    outs = list(fit) if output_nodes is None else list(output_nodes) + fit
    xs, us, ws = _run(model, lam, d0, PI - d1, seed.value, seed.quasi_derivative,
                      config, outs, record_steps)
    return SolutionTrace(lam=complex(lam), grid=xs, values=us, quasi_derivatives=ws,
                         branch="phi", delta_origin=d0, delta_pi=d1,
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
        delta = trace.delta_pi
        expo = sigma
    elif endpoint == "origin":
        take = slice(None, 3)
        dist = trace.grid[take].copy()
        vals = trace.values[take].copy()
        delta = trace.delta_origin
        expo = -sigma
    else:
        raise ValidationError(f"unknown endpoint {endpoint!r}")
    A, B, resid = _two_branch_fit(dist, vals, expo, a1, alpha1, delta)
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
    d0, d1 = phi.delta_origin, phi.delta_pi
    seed = seed_vanishing_at_pi(model, lam, d1)
    interior = phi.grid[(phi.grid > d0) & (phi.grid < PI - d1)]
    fit = [2 * d0, 4 * d0, PI - 2 * d1, PI - 4 * d1]    # endpoint-fit nodes
    outs = np.concatenate([interior, fit])
    xs, us, ws = _run(model, lam, PI - d1, d0, seed.value, seed.quasi_derivative,
                      config, outs, record_steps=False)

    W, mid, pi_idx, ps_idx = _shared_wronskian(phi, xs, us, ws)
    W0 = W[mid]
    floor = config.wronskian_floor * float(
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
                         branch="psi", delta_origin=d0, delta_pi=d1,
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
    ref_vals = np.array([ref.value_at(t) for t in nodes])

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

    The first node is a cutoff delta and the last pi - delta; pi - 4*delta
    and pi - 2*delta are nodes too.  ``coeffs`` holds each interval's DOPRI5
    step as a polynomial in kappa (``linear_step_coefficients``).  ``head``
    holds the nodes up to 4*delta and ``tail`` the distances to pi from
    4*delta down, both in units of delta; a lam with another cutoff walks
    them scaled to its own.  The mesh is checked for |lam| up to
    ``lam_max``: ``defect`` is the step-doubling defect there,
    ``halvings`` how often the check halved every interval, and
    ``check_marches`` the batched marches the check ran.
    """

    nodes: np.ndarray
    coeffs: np.ndarray
    head: np.ndarray
    tail: np.ndarray
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
    span = PHI_FIT[0] * delta
    head = nodes[nodes <= span] / delta
    tail = (PI - nodes[nodes >= PI - span]) / delta
    marks = np.array(PHI_FIT)
    fit = np.argmin(np.abs(tail[:, None] - marks), axis=0)
    if np.any(np.abs(tail[fit] - marks) > 1e-6) or fit[-1] != len(tail) - 1:
        raise ValidationError("a shared mesh runs from delta to pi - delta through "
                              "pi - 4*delta and pi - 2*delta")
    tail[fit] = marks                              # exact, as integrate_phi places them
    return SharedMesh(nodes=nodes, coeffs=_step_coefficients(model, nodes[:-1], np.diff(nodes)),
                      head=head, tail=tail, lam_max=float(lam_max))


def _apply(P, u, w):
    return P[..., 0, 0] * u + P[..., 0, 1] * w, P[..., 1, 0] * u + P[..., 1, 1] * w


def boundary_values(model: OperatorModel, mesh: SharedMesh, lams,
                    config: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """phi(pi, lam) for every lam in ``lams``, marched together through ``mesh``.

    A lam with cutoff d starts at d with the origin seed and walks the
    mesh's head scaled by d/delta, steps onto the mesh, shares its steps up
    to the last node before pi - 4*d, steps to pi - 4*d and walks the
    scaled tail to pi - d, landing on the fit nodes pi - 4*d, pi - 2*d and
    pi - d as ``integrate_phi`` does.  Propagators are built MARCH_BLOCK at
    a time, so memory stays O(mesh + lams).
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(np.abs(lams) > mesh.lam_max):
        raise ValidationError(f"|lam| exceeds {mesh.lam_max}, the largest the mesh was checked for")
    cut = np.array([config.delta if config.delta is not None else default_cutoff(lam)
                    for lam in lams])
    nodes = mesh.nodes
    # Lams with one cutoff share their off-mesh steps, so the columns of
    # lam and -lam see identical coefficients.
    deltas, col = np.unique(cut, return_inverse=True)
    head = deltas[:, None] * mesh.head
    tail = PI - deltas[:, None] * mesh.tail
    first = np.searchsorted(nodes, head[:, -1], side="left")
    last = np.searchsorted(nodes, tail[:, 0], side="right") - 1
    if deltas[0] < nodes[0] or np.any(last < first):
        raise ValidationError("cutoff outside the shared mesh")
    path = np.column_stack([head, nodes[first], nodes[last], tail])
    n_head = head.shape[1]
    starts = np.delete(path[:, :-1], n_head, axis=1)         # the mesh spans first..last
    ends = np.delete(path[:, 1:], n_head, axis=1)
    off = _step_coefficients(model, starts.ravel(), (ends - starts).ravel())
    off = off.reshape(*starts.shape, *off.shape[1:])
    kappa = -1j * lams / model.epsilon

    seeds = [seed_regular_origin(model, lam, d) for lam, d in zip(lams, cut)]
    u = np.array([s.value for s in seeds], dtype=complex)
    w = np.array([s.quasi_derivative for s in seeds], dtype=complex)
    for step in range(n_head):
        u, w = _apply(linear_step_matrices(off[col, step], kappa), u, w)

    first, last = first[col], last[col]
    block = max(1, MARCH_BLOCK // len(lams))
    identity = np.eye(2)
    for k0 in range(0, len(nodes) - 1, block):
        k = np.arange(k0, min(k0 + block, len(nodes) - 1))
        P = linear_step_matrices(mesh.coeffs[k, None], kappa)
        P[(k[:, None] < first) | (k[:, None] >= last)] = identity
        for Pk in P:
            u, w = _apply(Pk, u, w)

    vals = []
    for step in range(n_head, off.shape[1]):
        u, w = _apply(linear_step_matrices(off[col, step], kappa), u, w)
        vals.append(u)
    fit = np.searchsorted(-mesh.tail, -np.array(PHI_FIT[::-1]))  # nearest pi first
    dist = PI - tail[col][:, fit].T
    a1, alpha1 = indicial_series_coefficients(model, lams)
    A, _, _ = _two_branch_fit(dist, np.array(vals)[fit], model.sigma, a1, alpha1, cut)
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
    vals = boundary_values(model, mesh, lams, config)
    for halvings in range(MESH_MAX_HALVINGS + 1):
        finer = _tabulate(model, _halved(mesh.nodes), lam_max)
        fine_vals = boundary_values(model, finer, lams, config)
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
    smallest cutoff; the profile's breakpoints and the fit nodes are among
    them.  Raises IntegrationError when that shot or the check fails.
    """
    trace = integrate_phi(model, lam_max, config, record_steps=True)
    return check_mesh(model, trace.grid, lam_max, config)
