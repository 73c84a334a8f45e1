"""Fundamental solutions of the transformed equation by shooting.

Two solutions are produced on (0, pi), both in the quasi-derivative state
(u, w = p*u'):

* ``phi``  seeded at the origin with u -> 1, integrated forward;
* ``psi``  seeded at pi with the vanishing branch (pi - x)^sigma,
  integrated backward (toward the growing direction, which is the stable
  one), then rescaled so the Wronskian w_psi*phi - w_phi*psi equals 1.

Seeds and endpoint values read one local model per endpoint,
``singular.endpoint_branches``: u ~ A*(1 + b_reg*d) + B*d^e*(1 + b_pow*d)
with d the distance to the end, e = sigma at pi and -sigma at 0.  Endpoint
values are never read off the last grid node directly: ``_two_branch_fit``
fits that model at the named end to the nodes at distance delta, 2*delta
and 4*delta, which extracts the boundary value A (or the singular part B)
uniformly in sigma (for sigma > 1 the singular branch at pi has vanishing
derivative at the end, for sigma < 1 a blowing one; the value fit
sidesteps both).  ``_fit_nodes`` places those nodes, ``_fit_rows`` finds them.

Negative x is never integrated here; callers use the reflection to -lam
(the tests check it against a direct integration on (-pi, 0)).

Every trace and every boundary value the package reports comes from a
march.  ``compute_phi_at_pi`` takes one adaptive scalar shot
(``_stepper.integrate_quasi_system``) that lands on the fit nodes; no
command calls it, and the tests keep it as an independent reference for
the marches.  The equation is linear and lam enters
only through kappa = -i*lam/eps, so on a mesh each interval's DOPRI5 step
is a 2x2 matrix polynomial in kappa whose coefficients are computed once
per mesh, and every lam is one column marched through the same
propagators.

Every mesh is laid out one way, by ``_accepted_mesh``: it starts from
``_start_mesh`` (the requested nodes, the fit nodes, the breakpoints and
the stepper's endpoint cap as a geometric collar), and every interval
whose marched step fails the stepper's own acceptance test (the embedded
DOPRI5 error, checked in every column) is split until none does.
``_split`` cuts a failing interval into parts equal in the log of the
distance to the nearer end.  Near an end p/f ~ 1/d, so a step's error
depends on h/d; parts of equal width leave the part nearest the end
failing again, which costs a whole further march.

Every column a caller passes is marched as given.  The march is
conjugate-symmetric in kappa = -i*lam/eps (every seed, step polynomial
and product), so for a real profile a column -conj lam comes out as the
conjugate of the column lam bit for bit; ``eigensolve``, which asks for
real lam only, marches lam and reads -lam as its conjugate.

* ``boundary_values`` gives phi(pi, lam) for many lam on a ``SharedMesh``,
  seeded at its cutoff and fitted at pi.  ``shared_mesh`` takes one real
  lam or a set of them, accepts its mesh for phi at each (one marched
  column per lam) at the default cutoff of the largest |lam|, the
  smallest of any |lam| it serves, and keeps phi(pi) at each lam from the
  march that accepted it: the scan lays out its grid's mesh at the grid's
  top, and certifies all of its roots on one mesh.
* ``solution_pairs`` gives phi and psi at lam and -lam on every node of a
  mesh that contains the requested nodes: the kernel's grid, the dyadic
  audit's Gauss nodes.  Its one cutoff delta is ``_cutoff``'s:
  ``singular.default_cutoff(lam)``, capped at CUTOFF_CAP times the
  requested nodes' distances to 0 and to pi so that no requested node
  falls inside the seed collar.  The mesh is accepted
  for phi and psi at lam and -lam.  Its phi column at lam is also the phi
  trace of ``trace --kind phi``, with its ``phi_at_pi``.

psi is marched backward through the adjugates of phi's forward steps, in
reverse interval order; no backward step is built.  The system is
trace-free (A and B are nilpotent), so by Liouville's formula its exact
propagator has determinant 1 and its inverse is its adjugate
[[C11, -C01], [-C10, C00]]: adj(P_k) is a backward step of the method's
own order.  adj is linear on 2x2 matrices, so adj(E_k), applied to psi at
the interval's right end, is exactly the embedded estimate of the
adjugate pair adj(P5) - adj(P4), and psi's steps pass that test.  phi and
psi then keep their Wronskian up to rounding:
W_{k+1} = det(P_k) W_k / det(P_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._stepper import (KAPPA_DEGREE, STAGE_FRACTIONS, STATUS_MAX_STEPS,
                       STATUS_STEP_UNDERFLOW, integrate_quasi_system,
                       linear_step_coefficients, linear_step_matrices)
from .errors import (EigenvalueProximityError, IntegrationError, SolverError,
                     ValidationError)
from .profiles import OperatorModel, eval_f, sorted_distinct
from .singular import (compute_p_over_f, default_cutoff, endpoint_branches,
                       integrating_factor, seed_regular_origin, seed_vanishing_at_pi)

PI = math.pi
CAP_FRAC = 0.5                           # step cap as fraction of endpoint distance
# Cutoff cap, in units of the requested nodes' distance to 0 and pi.  Below
# 1 it keeps every requested node out of the seed collar; below 0.5, off the
# fit nodes delta and 2*delta as well.  It binds on kernel grids of 512 or more
# intervals (unless |lam| is large), so another value would move those outputs.
CUTOFF_CAP = 0.45
WRONSKIAN_FLOOR = 1e-8                   # eigenvalue-proximity threshold factor
FIT_MULTIPLES = np.array([1.0, 2.0, 4.0])  # endpoint fits read u at m*delta from the end
MARCH_BLOCK = 4096                       # (interval x column) propagators built at a time
SPLIT_SAFETY = 1.2                       # a failing interval splits into ceil(1.2*err^(1/5)) parts,
                                         # equal in the log of the distance to the nearer end
STEP_BLOCK = 512                         # intervals whose step polynomials are built at a time
MAX_STEPS = 200_000                      # scalar steps per shot; nodes per marched mesh


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances of one shooting run; defaults suit the whole test suite."""

    rtol: float = 1e-10
    atol: float = 1e-12


DEFAULT_CONFIG = SolverConfig()


def _forced_nodes(model: OperatorModel, x0: float, x1: float,
                  outputs: Optional[list]) -> np.ndarray:
    pts = [k for k in model.profile.breakpoints if x0 < k < x1]
    if outputs is not None:
        pts.extend(t for t in outputs if x0 + 1e-15 < t < x1 - 1e-15)
    pts = np.asarray(sorted(set(pts)), dtype=float)
    if len(pts) > 1:                       # drop near-coincident nodes
        keep = np.concatenate([[True], np.diff(pts) > 1e-12])
        pts = pts[keep]
    if len(pts):                           # endpoints are recorded anyway
        pts = pts[(np.abs(pts - x0) > 1e-12) & (np.abs(pts - x1) > 1e-12)]
    return np.concatenate([pts, [x1]])


def _run(model: OperatorModel, lam, x0, x1, u0, w0, config: SolverConfig, outputs):
    forced = _forced_nodes(model, x0, x1, outputs)
    status, x_reached, n_out, xs, us, ws = integrate_quasi_system(
        float(x0), float(x1), complex(u0), complex(w0), complex(lam),
        float(model.epsilon), integrating_factor(model).coef,
        forced, float(config.rtol), float(config.atol),
        MAX_STEPS, CAP_FRAC)[:6]
    if status == STATUS_STEP_UNDERFLOW:
        raise IntegrationError(
            f"step size underflow at x = {x_reached:.6g} (lam = {lam}); "
            "the coefficient degenerates faster than the stepper can follow",
            x_reached=x_reached)
    if status == STATUS_MAX_STEPS:
        raise IntegrationError(
            f"step budget exhausted at x = {x_reached:.6g} (lam = {lam})",
            x_reached=x_reached)
    return xs[:n_out], us[:n_out], ws[:n_out]


def _real_lams(lams) -> np.ndarray:
    """``lams`` as a flat float array; a non-real lam raises ValidationError."""
    lams = np.asarray(lams).ravel()
    if np.any(np.imag(lams) != 0):
        raise ValidationError(f"lam = {lams[np.imag(lams) != 0][0]}: only real lam are served "
                              "here, where phi(pi, -lam) is read as conj phi(pi, lam)")
    return np.real(lams).astype(float)


def _cutoff(lam, nodes=()) -> float:
    """The seed cutoff ``default_cutoff(lam)``, capped at CUTOFF_CAP times ``nodes``' end gaps."""
    delta = default_cutoff(lam)
    if len(nodes):
        delta = min(delta, CUTOFF_CAP * float(np.min(nodes)),
                    CUTOFF_CAP * float(PI - np.max(nodes)))
    if delta <= 0:
        raise ValidationError("requested nodes must lie strictly inside (0, pi)")
    return delta


def _fit_nodes(end: str, delta: float) -> np.ndarray:
    """The fit nodes at delta, 2*delta and 4*delta from ``end``, nearest it first."""
    return PI - delta * FIT_MULTIPLES if end == "pi" else delta * FIT_MULTIPLES


def _fit_rows(nodes: np.ndarray, end: str, delta: float) -> np.ndarray:
    """The rows of the ascending ``nodes`` at the fit nodes of ``end``, nearest it first."""
    return np.searchsorted(nodes, _fit_nodes(end, delta))


def _two_branch_fit(model: OperatorModel, lam, end: str, x, vals, delta):
    """Fit the local model at ``end`` through (x, vals): A and B, and the residual.

    The model is u ~ A*(1 + b_reg*d) + B*d^e*(1 + b_pow*d) in the distance d
    to ``end``, with (e, b_reg, b_pow) = ``endpoint_branches(model, lam, end)``.
    The rows of ``x`` and ``vals`` are the three fit nodes (``_fit_rows``),
    nearest the end first; A and B come from the first two, the residual
    from the third.  Trailing axes are independent fits, with ``lam`` and
    the cutoff ``delta`` broadcasting against them.  Returns (A, B, residual).
    """
    at = PI if end == "pi" else 0.0
    dist = np.abs(np.asarray(x) - at)
    if np.any(dist[0] > 10 * delta):
        raise SolverError("no trace nodes close enough to the endpoint for a stable fit")
    expo, b_reg, b_pow = endpoint_branches(model, lam, end)

    def basis(d):
        return 1.0 + b_reg * d, d ** expo * (1.0 + b_pow * d)

    g11, g12 = basis(dist[0])
    g21, g22 = basis(dist[1])
    det = g11 * g22 - g12 * g21
    scale = np.maximum(np.maximum(abs(g11 * g22), abs(g12 * g21)), 1e-300)
    if np.any(abs(det) < 1e-8 * scale):
        raise SolverError("endpoint fit ill-conditioned: trailing nodes too close; "
                          "increase the cutoff spacing")
    A = (vals[0] * g22 - g12 * vals[1]) / det
    B = (g11 * vals[1] - vals[0] * g21) / det
    g31, g32 = basis(dist[2])
    return A, B, abs(A * g31 + B * g32 - vals[2])


def compute_phi_at_pi(model: OperatorModel, lam, delta: float,
                      config: SolverConfig = DEFAULT_CONFIG) -> complex:
    """Boundary value phi(pi, lam) from one adaptive scalar shot; phi(-pi, lam) is this at -lam.

    The shot is seeded at ``delta``, as a mesh with that cutoff is, lands on
    the profile's breakpoints and ends on the fit nodes at pi, which give phi(pi).
    """
    fit = _fit_nodes("pi", delta)
    xs, us, _ = _run(model, lam, delta, fit[0], *seed_regular_origin(model, lam, delta),
                     config, fit[1:])
    rows = _fit_rows(xs, "pi", delta)
    A, _, _ = _two_branch_fit(model, lam, "pi", xs[rows], us[rows], delta)
    return complex(A)


@dataclass(frozen=True, eq=False)
class SolutionPairs:
    """phi and psi at lam (column 0) and -lam (column 1) on one mesh in (0, pi).

    ``nodes`` ascends from the cutoff delta to pi - delta, and
    ``requested`` indexes the nodes the caller asked for, in the caller's
    order.  Value and quasi-derivative arrays have one row per node.  psi
    is scaled per column by ``wronskian``, the Wronskian of the unscaled
    psi at the node nearest pi/2; ``wronskian_deviation`` is the largest
    |W/W0 - 1| over every node and both columns.  Since psi steps through
    the adjugates of phi's steps, W is conserved up to rounding whatever
    the steps' truncation error: the deviation checks that phi and psi
    are paired through the same propagators, not how accurate they are.
    The endpoint parts are two-branch fits: phi's regular part and psi's
    singular part at pi, and psi's singular part (exponent -sigma) at 0,
    each in the local model of its own endpoint
    (``singular.endpoint_branches``).  ``rounds`` counts the marches of
    the mesh refinement, the last one on the accepted mesh.
    """

    lam: complex
    nodes: np.ndarray
    requested: np.ndarray
    phi: np.ndarray
    phi_qd: np.ndarray
    psi: np.ndarray
    psi_qd: np.ndarray
    phi_at_pi: np.ndarray
    psi_at_pi: np.ndarray
    psi_at_origin: np.ndarray
    delta: float
    wronskian: np.ndarray
    wronskian_deviation: float
    rounds: int


def _start_mesh(model: OperatorModel, nodes: np.ndarray, delta: float) -> np.ndarray:
    """The requested nodes, the fit nodes, the breakpoints and the step cap's collar.

    The collar is delta*(1 + CAP_FRAC)^k from each end up to pi/2, and pi/2
    itself: the longest steps the scalar stepper's endpoint cap allows, in
    either direction.
    """
    fit = np.concatenate([_fit_nodes("origin", delta), _fit_nodes("pi", delta)])
    collar = delta * (1.0 + CAP_FRAC) ** np.arange(
        math.ceil(math.log(PI / (2.0 * delta)) / math.log1p(CAP_FRAC)))
    inside = [b for b in model.profile.breakpoints if delta < b < PI - delta]
    return sorted_distinct(np.concatenate([nodes, fit, collar, PI - collar,
                                           [PI / 2], inside]))


def _check_budget(count: float, x_reached) -> None:
    if not math.isfinite(count):
        raise IntegrationError(f"the march overflows at x = {x_reached:.6g}, where its "
                               "error estimate is not finite", x_reached=x_reached)
    if count > MAX_STEPS:
        raise IntegrationError(f"step budget exhausted: the mesh needs {count:.6g} nodes, "
                               f"more than {MAX_STEPS}", x_reached=x_reached)


def _local_errors(errs: np.ndarray, kappa: np.ndarray, us: np.ndarray, ws: np.ndarray,
                  config: SolverConfig) -> np.ndarray:
    """The scalar stepper's err of every marched step, the largest over the columns.

    ``errs`` holds the steps' error polynomials and (us, ws) the marched
    states, both in travel order; err <= 1 accepts a step.
    """
    eu, ew = _apply(linear_step_matrices(errs[:, None], kappa), us[:-1], ws[:-1])
    sc_u = config.atol + config.rtol * np.maximum(np.abs(us[:-1]), np.abs(us[1:]))
    sc_w = config.atol + config.rtol * np.maximum(np.abs(ws[:-1]), np.abs(ws[1:]))
    return np.max(np.sqrt(0.5 * ((np.abs(eu) / sc_u) ** 2 + (np.abs(ew) / sc_w) ** 2)), axis=1)


def _split(model: OperatorModel, mesh: np.ndarray, steps: tuple, err: np.ndarray):
    """Split each interval whose err exceeds 1 into ceil(SPLIT_SAFETY*err^(1/5)) parts.

    The parts are equal in log d, d the distance to the nearer end, where a
    step's error depends on h/d; pi/2 is a node of every start mesh, so no
    interval crosses it.  ``steps`` holds the step and error polynomials
    of the ascending intervals; those of unsplit intervals are kept, and
    the new parts' are built forward.  Returns the new mesh and its
    ``steps``.
    """
    fail = ~(err <= 1.0)                                  # nan fails too
    parts = np.where(fail, np.ceil(SPLIT_SAFETY * np.nan_to_num(err, nan=np.inf) ** 0.2), 1.0)
    _check_budget(len(mesh) + float(np.sum(parts - 1.0)), mesh[int(np.argmax(fail))])
    parts = parts.astype(int)
    owner = np.repeat(np.arange(len(parts)), parts)
    frac = (np.arange(len(owner)) - np.repeat(np.cumsum(parts) - parts, parts)) / parts[owner]
    a, b = mesh[:-1][owner], mesh[1:][owner]
    at_pi = a >= PI / 2                                   # the nearer end is pi
    da, db = np.where(at_pi, PI - a, a), np.where(at_pi, PI - b, b)
    d = da * (db / da) ** frac
    new = np.append(np.where(frac == 0.0, a, np.where(at_pi, PI - d, d)), mesh[-1])
    changed = (parts > 1)[owner]
    start, h = new[:-1][changed], np.diff(new)[changed]
    small = h < 1e-14 * np.maximum(np.abs(start), 1.0)
    if np.any(small):
        x0 = float(start[int(np.argmax(small))])
        raise IntegrationError(f"step size underflow at x = {x0:.6g}; the coefficient "
                               "degenerates faster than the mesh can follow", x_reached=x0)
    out = []
    for old, built in zip(steps, _step_coefficients(model, start, h)):
        arr = np.empty((len(owner),) + old.shape[1:])
        arr[~changed] = old[owner[~changed]]
        arr[changed] = built
        out.append(arr)
    return new, tuple(out)


def _accepted_mesh(model: OperatorModel, lams: np.ndarray, nodes, delta: float,
                   config: SolverConfig, with_psi: bool = False):
    """The mesh from ``_start_mesh`` split until every marched step passes the stepper's test.

    phi is seeded at delta and marched forward, and with ``with_psi`` psi
    is seeded at pi - delta and marched backward through the adjugates of
    the same steps and checked by the adjugates of their error polynomials,
    one column per lam in ``lams``; every interval whose step fails in any
    column is split, and the marches repeat until every step passes.  Only
    forward steps are built: on the start mesh and for the parts of each
    split.  More than
    ``MAX_STEPS`` nodes, or a split below 1e-14 relative, raises
    IntegrationError.  Returns the mesh, the forward step polynomials,
    phi's states (u, w) and psi's (None without ``with_psi``) on every node
    in travel order, and the number of marches run, the last one on the
    accepted mesh.
    """
    mesh = _start_mesh(model, nodes, delta)
    kappa = -1j * lams / model.epsilon
    phi_seed = seed_regular_origin(model, lams, delta)
    _check_budget(len(mesh), mesh[min(MAX_STEPS, len(mesh) - 1)])
    steps = _step_coefficients(model, mesh[:-1], np.diff(mesh))
    if with_psi:
        psi_seed = seed_vanishing_at_pi(model, lams, delta)
    rounds = 0
    while True:
        rounds += 1
        every = np.arange(len(mesh))
        with np.errstate(over="ignore", invalid="ignore"):     # a non-finite err fails
            phi = _march(steps[0], kappa, *phi_seed, every)
            err = _local_errors(steps[1], kappa, *phi, config)
            psi = None
            if with_psi:
                back, back_err = _adjugate(steps[0][::-1]), _adjugate(steps[1][::-1])
                psi = _march(back, kappa, *psi_seed, every)
                err = np.maximum(err, _local_errors(back_err, kappa, *psi, config)[::-1])
        if np.all(err <= 1.0):
            return mesh, steps[0], phi, psi, rounds
        mesh, steps = _split(model, mesh, steps, err)


def solution_pairs(model: OperatorModel, lam, nodes,
                   config: SolverConfig = DEFAULT_CONFIG) -> SolutionPairs:
    """phi and psi at lam and -lam, marched through one mesh that contains ``nodes``.

    The mesh is accepted by ``_accepted_mesh`` at the one cutoff delta for
    phi and psi, with lam and -lam as its two marched columns.  A Wronskian below
    WRONSKIAN_FLOOR times max |phi*w_psi| means lam is numerically an
    eigenvalue.
    """
    nodes = np.asarray(nodes, dtype=float).ravel()
    delta = _cutoff(lam, nodes)
    lams = np.array([lam, -lam], dtype=complex)
    mesh, _, (phi, phi_qd), (psi, psi_qd), rounds = _accepted_mesh(
        model, lams, nodes, delta, config, with_psi=True)
    psi, psi_qd = psi[::-1], psi_qd[::-1]

    W = psi_qd * phi - phi_qd * psi
    W0 = W[np.argmin(np.abs(mesh - PI / 2))]
    floor = WRONSKIAN_FLOOR * np.max(np.abs(phi) * np.abs(psi_qd), axis=0)
    if np.any(np.abs(W0) < floor):
        raise EigenvalueProximityError(
            f"Wronskian collapsed (|W0| = {np.min(np.abs(W0)):.3e} < {np.max(floor):.3e}): "
            f"lam = {lam} is numerically an eigenvalue")
    psi, psi_qd = psi / W0, psi_qd / W0

    at_pi, at_0 = _fit_rows(mesh, "pi", delta), _fit_rows(mesh, "origin", delta)
    phi_at_pi = _two_branch_fit(model, lams, "pi", mesh[at_pi], phi[at_pi], delta)[0]
    psi_at_pi = _two_branch_fit(model, lams, "pi", mesh[at_pi], psi[at_pi], delta)[1]
    psi_at_0 = _two_branch_fit(model, lams, "origin", mesh[at_0], psi[at_0], delta)[1]
    return SolutionPairs(lam=complex(lam), nodes=mesh, requested=np.searchsorted(mesh, nodes),
                         phi=phi, phi_qd=phi_qd, psi=psi, psi_qd=psi_qd,
                         phi_at_pi=phi_at_pi, psi_at_pi=psi_at_pi, psi_at_origin=psi_at_0,
                         delta=delta, wronskian=W0,
                         wronskian_deviation=float(np.max(np.abs(W / W0 - 1.0))),
                         rounds=rounds)


@dataclass(frozen=True, eq=False)
class SharedMesh:
    """Nodes in (0, pi) that a batched march steps every lam through.

    The first node is the cutoff delta every column is seeded at, and
    ``coeffs`` holds each interval's DOPRI5 step as a polynomial in kappa
    (``linear_step_coefficients``).  Every step passes the scalar
    stepper's acceptance test for phi at every lam it was laid out for,
    the largest |lam| being ``lam_max``; ``phi_at_pi`` holds phi(pi) at
    those lam, from the march that accepted the mesh, whose marches
    ``rounds`` counts.
    """

    nodes: np.ndarray
    coeffs: np.ndarray
    phi_at_pi: np.ndarray
    lam_max: float
    rounds: int


def _step_coefficients(model: OperatorModel, x0: np.ndarray, h: np.ndarray) -> tuple:
    """Step and error polynomials of the steps from x0 to x0 + h, coefficients read at the stage points."""
    out = np.empty((len(h), 2, 2, KAPPA_DEGREE + 1))
    err = np.empty((len(h), 2, 2, KAPPA_DEGREE + 2))
    for i in range(0, len(h), STEP_BLOCK):
        part = slice(i, i + STEP_BLOCK)
        x = x0[part, None] + np.outer(h[part], STAGE_FRACTIONS)
        pf = np.asarray(compute_p_over_f(model, x))
        inv_p = 1.0 / (np.asarray(eval_f(model.profile, x)) * pf)
        out[part], err[part] = linear_step_coefficients(h[part], inv_p, pf)
    return out, err


def _adjugate(coeffs: np.ndarray) -> np.ndarray:
    """adj C = [[C11, -C01], [-C10, C00]] of every interval's 2x2 polynomial, coefficient-wise."""
    out = np.empty_like(coeffs)
    out[:, 0, 0], out[:, 1, 1] = coeffs[:, 1, 1], coeffs[:, 0, 0]
    out[:, 0, 1], out[:, 1, 0] = -coeffs[:, 0, 1], -coeffs[:, 1, 0]
    return out


def _apply(P, u, w):
    return P[..., 0, 0] * u + P[..., 0, 1] * w, P[..., 1, 0] * u + P[..., 1, 1] * w


def _march(coeffs: np.ndarray, kappa: np.ndarray, u: np.ndarray, w: np.ndarray, keep):
    """Columns (u, w), one per kappa, stepped through the step polynomials ``coeffs`` in order.

    Returns the states (u, w) at the nodes ``keep``, indices in travel
    order (node 0 is the start, node k where step k lands), one row per
    entry of ``keep``.  Propagators are built MARCH_BLOCK (interval x column)
    at a time.  Within such a chunk the intervals are walked in blocks of
    L: the prefix products of every block's propagators are formed for all
    blocks at once, one elementwise 2x2 product per position in a block,
    and then one step per block carries the columns across the chunk, so
    the chunk costs about L + chunk/L numpy calls instead of chunk.  L is
    isqrt(intervals / columns): with many columns every call already has
    enough work, and L stays 1.  Since L and the chunk depend on the column
    count, a column's rounding depends on how many columns share its march:
    D(lam) is not bit-identical across batch sizes, and ``solution_pairs``
    at a real lam, which marches lam and -lam as two columns, differs at
    rounding level from a march of lam alone.
    """
    keep = np.asarray(keep)
    us = np.empty((len(keep), len(kappa)), dtype=complex)
    ws = np.empty_like(us)
    us[keep == 0], ws[keep == 0] = u, w
    chunk = max(1, MARCH_BLOCK // len(kappa))
    for k0 in range(0, len(coeffs), chunk):
        P = linear_step_matrices(coeffs[k0:k0 + chunk, None], kappa)
        n = len(P)
        L = max(1, math.isqrt(n // len(kappa)))
        if n % L:                                 # pad the last block with identity steps
            P = np.concatenate([P, np.broadcast_to(np.eye(2), (L - n % L,) + P.shape[1:])])
        P = P.reshape(-1, L, *P.shape[1:])
        q00, q01, q10, q11 = P[..., 0, 0], P[..., 0, 1], P[..., 1, 0], P[..., 1, 1]
        for j in range(1, L):                     # P[:, j] becomes the product of steps 0..j
            a00, a01, a10, a11 = q00[:, j], q01[:, j], q10[:, j], q11[:, j]
            b00, b01, b10, b11 = q00[:, j - 1], q01[:, j - 1], q10[:, j - 1], q11[:, j - 1]
            q00[:, j], q01[:, j] = a00 * b00 + a01 * b10, a00 * b01 + a01 * b11
            q10[:, j], q11[:, j] = a10 * b00 + a11 * b10, a10 * b01 + a11 * b11
        t00, t01, t10, t11 = q00[:, -1], q01[:, -1], q10[:, -1], q11[:, -1]
        starts = []
        for i in range(len(P)):
            starts.append((u, w))
            u, w = t00[i] * u + t01[i] * w, t10[i] * u + t11[i] * w
        rows = (keep > k0) & (keep <= k0 + n)
        if np.any(rows):
            b, j = np.divmod(keep[rows] - k0 - 1, L)
            su, sw = np.array(starts).transpose(1, 0, 2)[:, b]
            us[rows] = q00[b, j] * su + q01[b, j] * sw
            ws[rows] = q10[b, j] * su + q11[b, j] * sw
    return us, ws


def boundary_values(model: OperatorModel, mesh: SharedMesh, lams) -> np.ndarray:
    """phi(pi, lam) for every lam in ``lams``, marched together through ``mesh``.

    Every lam is one marched column: it is seeded at the mesh's cutoff
    delta = nodes[0], steps through every interval and is fitted at pi, as
    ``compute_phi_at_pi`` does with that cutoff.  Only the fit nodes'
    states are kept, so memory stays O(mesh + lams).
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if np.any(np.abs(lams) > mesh.lam_max):
        raise ValidationError(f"|lam| exceeds {mesh.lam_max}, the largest the mesh was checked for")
    delta = float(mesh.nodes[0])
    rows = _fit_rows(mesh.nodes, "pi", delta)
    vals, _ = _march(mesh.coeffs, -1j * lams / model.epsilon,
                     *seed_regular_origin(model, lams, delta), rows)
    A, _, _ = _two_branch_fit(model, lams, "pi", mesh.nodes[rows], vals, delta)
    return A


def shared_mesh(model: OperatorModel, lams,
                config: SolverConfig = DEFAULT_CONFIG) -> SharedMesh:
    """A mesh for every |lam| <= max |lams|, laid out as ``solution_pairs`` lays out its own.

    ``lams`` is one real lam or a set of them; a non-real lam raises
    ValidationError.  The mesh starts from ``_start_mesh`` without
    requested nodes, at the default cutoff of lam_max = max |lams|, which
    is the smallest of any |lam| it serves, and is accepted by
    ``_accepted_mesh`` for phi alone, one column per lam, whose last march
    gives phi(pi) at the lams.  For a real profile, phi(pi, -lam) is the
    conjugate of phi(pi, lam), and a step's error at -lam is the same
    number as at lam, so the mesh serves -lam as well as lam.  Since the
    seed error is O(delta^2), that cutoff serves every column at least as
    well as the column's own default would.  Raises IntegrationError as
    ``_accepted_mesh`` does.
    """
    lams = _real_lams(lams).astype(complex)
    lam_max = float(np.max(np.abs(lams)))
    delta = _cutoff(lam_max)
    nodes, coeffs, (phi, _), _, rounds = _accepted_mesh(model, lams, np.empty(0), delta, config)
    rows = _fit_rows(nodes, "pi", delta)
    at_pi = _two_branch_fit(model, lams, "pi", nodes[rows], phi[rows], delta)[0]
    return SharedMesh(nodes=nodes, coeffs=coeffs, phi_at_pi=at_pi, lam_max=lam_max,
                      rounds=rounds)
