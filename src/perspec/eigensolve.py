"""Real eigenvalues as zeros of the dispersion function.

D(lam) = phi(pi, lam) - phi(-pi, lam), with phi(-pi, lam) obtained as
phi(pi, -lam) through the half-interval reduction -- the negative half is
never integrated.  For a real profile and real lam the two boundary
values are exact complex conjugates (the construction mirrors bit for
bit), so D is purely imaginary and its imaginary part is a real secular
function whose sign changes bracket the eigenvalues.

D(-lam) = -D(lam) holds exactly (the same two boundary values swap), so
only the positive half-axis is scanned and the result is mirrored.

The scan and the refinement march on one shared mesh (``shooting.shared_mesh``),
laid out by the marches' own step-error test at the top of the grid:
every grid point is one column of a single batched march
(``dispersion_batch``, which returns the array of D) seeded at the mesh's
one cutoff, and the brackets are refined together by an Illinois
(modified regula falsi) iteration, one batched march per step.  The
residuals reported for the refined eigenvalues come from ``dispersion``,
independently of the scan's mesh: each of 0 and the positive roots is
marched as the columns lam and -lam on a mesh of its own, accepted for
those two columns at lam's own cutoff, and D is read off the march that
accepted it; the residuals are mirrored like the eigenvalues.
``eigenfunction`` reads its trace and D from one ``shooting.solution_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, StaleEigenvalueError, ValidationError
from .profiles import OperatorModel
from .shooting import (DEFAULT_CONFIG, SharedMesh, SolutionTrace, SolverConfig,
                       boundary_values, shared_mesh, solution_pairs)

MAX_REFINE_ITERATIONS = 100
STALE_TOL = 1e-6                # relative dispersion residual an eigenfunction needs


@dataclass(frozen=True)
class DispersionValue:
    lam: float
    D: complex
    phi_plus: complex      # phi(pi, lam)
    phi_minus: complex     # phi(-pi, lam) = phi(pi, -lam)

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.phi_plus), abs(self.phi_minus))


@dataclass(frozen=True, eq=False)
class EigenvalueList:
    model: OperatorModel
    eigenvalues: np.ndarray          # ascending, contains 0
    residuals: np.ndarray            # |D(lam_n)|
    relative_residuals: np.ndarray   # |D| / max(1, |phi+|, |phi-|)
    lam_max: float
    resolution: float
    skipped: list                    # grid points where the integrator failed
    mesh_nodes: int                  # nodes of the shared mesh (0 when none was built)
    mesh_rounds: int                 # marches that laid the mesh out (0 when none was built)
    marches: int                     # batched marches: mesh layout, scan and refinement
    refine_iterations: list          # lockstep iterations per positive root

    def positive(self) -> np.ndarray:
        return self.eigenvalues[self.eigenvalues > 1e-14]

    def as_dict(self) -> dict:
        return {
            "model": self.model.describe(),
            "eigenvalues": self.eigenvalues.tolist(),
            "residuals": self.residuals.tolist(),
            "relative_residuals": self.relative_residuals.tolist(),
            "lam_max": self.lam_max,
            "resolution": self.resolution,
            "skipped": list(self.skipped),
            "mesh_nodes": self.mesh_nodes,
            "mesh_rounds": self.mesh_rounds,
            "batched_marches": self.marches,
            "refine_iterations": list(self.refine_iterations),
            "growth_slope": growth_slope(self),
        }


def dispersion(model: OperatorModel, lam: float,
               config: SolverConfig = DEFAULT_CONFIG) -> DispersionValue:
    """D at a real lam: phi(pi) at lam and -lam, from the march that laid out their mesh.

    The mesh is ``shared_mesh`` at |lam|: accepted for the columns lam and
    -lam at lam's own cutoff, independently of any scan grid.  Complex lam
    go through ``dispersion_batch``.
    """
    if np.imag(lam) != 0:
        raise ValidationError(f"dispersion takes a real lam, got {lam}")
    lam = float(np.real(lam))
    plus, minus = shared_mesh(model, abs(lam), config).phi_at_pi[::-1 if lam < 0 else 1]
    return DispersionValue(lam=lam, D=plus - minus, phi_plus=plus, phi_minus=minus)


def dispersion_batch(model: OperatorModel, lams, mesh: SharedMesh) -> np.ndarray:
    """D(lam) at the mesh's cutoff for every lam in ``lams``, from one batched march.

    The columns lam and -lam are marched together; for real lam and a real
    profile they are exact conjugates, as in the scalar path, so D is
    purely imaginary.  Complex lam march as complex columns.
    """
    lams = np.asarray(lams).ravel()
    if not np.iscomplexobj(lams):
        lams = lams.astype(float)
    phi = boundary_values(model, mesh, np.concatenate([lams, -lams]))
    n = len(lams)
    return phi[:n] - phi[n:]


def _served_mesh(model: OperatorModel, grid: np.ndarray, config: SolverConfig):
    """The shared mesh for the longest leading part of ``grid`` it can be built for.

    Returns (mesh or None, number of grid points served, skipped entries).
    The mesh for the top of the grid is the hardest to lay out; when it
    fails, the largest grid point whose mesh can be laid out is found by
    bisection and every point above it is skipped with the reason of the
    failure just above it.
    """
    try:
        return shared_mesh(model, float(grid[-1]), config), len(grid), []
    except IntegrationError as exc:
        reason = str(exc)
    mesh, lo, hi = None, 0, len(grid)          # grid[:lo] served, grid[hi - 1] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            mesh, lo = shared_mesh(model, float(grid[mid - 1]), config), mid
        except IntegrationError as exc:
            hi, reason = mid, str(exc)
    return mesh, lo, [{"lam": float(lam), "reason": reason} for lam in grid[lo:]]


def _refine(model: OperatorModel, mesh: SharedMesh, brackets: list) -> tuple[list, list, int]:
    """Illinois iteration on every bracket in lockstep: one batched march per iteration.

    ``brackets`` holds (lo, hi, r_lo, r_hi) with a sign change of Im D, or
    lo == hi at an exact root.  Each bracket is refined to
    width 1e-10*(1 + hi); returns the midpoints, the iterations each took
    and the marches run.  Every iterate stays a quarter of that width
    inside its bracket: once one lands on the root, the next then crosses
    it and closes the bracket, where the far end would otherwise creep in
    by halvings of its residual.
    """
    lo, hi, rlo, rhi = (np.array(col, dtype=float) for col in zip(*brackets))
    kept = np.zeros(len(lo), dtype=int)          # +1 lo moved last, -1 hi moved last
    iters = np.zeros(len(lo), dtype=int)
    marches = 0
    while True:
        width = 1e-10 * (1.0 + hi)
        active = np.flatnonzero((hi - lo > width) & (iters < MAX_REFINE_ITERATIONS))
        if not len(active):
            break
        a, b, ra, rb = lo[active], hi[active], rlo[active], rhi[active]
        x = (a * rb - b * ra) / (rb - ra)
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        x = np.clip(x, a + 0.25 * width[active], b - 0.25 * width[active])
        rx = dispersion_batch(model, x, mesh).imag
        marches += 1
        iters[active] += 1
        for i, xi, ri in zip(active, x, rx):
            if ri == 0.0:
                lo[i] = hi[i] = xi
            elif (ri > 0) == (rlo[i] > 0):
                lo[i], rlo[i] = xi, ri
                if kept[i] == 1:
                    rhi[i] *= 0.5
                kept[i] = 1
            else:
                hi[i], rhi[i] = xi, ri
                if kept[i] == -1:
                    rlo[i] *= 0.5
                kept[i] = -1
    return (0.5 * (lo + hi)).tolist(), iters.tolist(), marches


def scan_and_refine(model: OperatorModel, lam_max: float, resolution: float,
                    config: SolverConfig = DEFAULT_CONFIG) -> EigenvalueList:
    """Bracket sign changes of Im D and refine them in lockstep.

    Roots inside (0, resolution) are attributed to the known zero
    eigenvalue; each bracket is refined to width 1e-10*(1+|lam|).  Grid
    points the shared mesh cannot be built for (the step budget, say) are
    skipped with the reason.
    """
    if lam_max <= 0 or resolution <= 0:
        raise ValidationError("lam_max and resolution must be positive")

    grid = np.arange(resolution, lam_max + resolution / 2, resolution)
    if not len(grid):
        raise ValidationError(f"empty scan grid: resolution {resolution} >= 2*lam_max")
    mesh, served, skipped = _served_mesh(model, grid, config)
    marches = 0
    if served:
        r = dispersion_batch(model, grid[:served], mesh).imag
        marches = mesh.rounds + 1

    spans = []                                   # (lo, hi, r_lo, r_hi); lo == hi: exact root
    for k in range(served - 1):
        ra, rb = r[k], r[k + 1]
        if ra == 0.0:
            spans.append((float(grid[k]), float(grid[k]), ra, rb))
        elif ra * rb < 0.0:
            spans.append((float(grid[k]), float(grid[k + 1]), ra, rb))
    roots, iterations = [], []
    if spans:
        roots, iterations, refine_marches = _refine(model, mesh, spans)
        marches += refine_marches

    # attribute near-zero roots to the known zero eigenvalue, and drop the
    # roots the grid's last half step finds above lam_max
    keep = [i for i, r in enumerate(roots) if resolution / 2 <= r <= lam_max]
    roots = [roots[i] for i in keep]
    iterations = [iterations[i] for i in keep]

    # D(-lam) = -D(lam) from the same two columns: certify 0 and the positive
    # roots, and mirror their residuals as the eigenvalues are mirrored
    eigs = np.concatenate([[-r for r in reversed(roots)], [0.0], roots])
    half = np.array([(abs(dv.D), abs(dv.D) / dv.scale)
                     for dv in (dispersion(model, lam, config) for lam in [0.0] + roots)])
    resid, rel = np.concatenate([half[:0:-1], half]).T

    return EigenvalueList(model=model, eigenvalues=eigs, residuals=resid,
                          relative_residuals=rel, lam_max=float(lam_max),
                          resolution=float(resolution), skipped=skipped,
                          mesh_nodes=len(mesh.nodes) if mesh else 0,
                          mesh_rounds=mesh.rounds if mesh else 0,
                          marches=marches, refine_iterations=iterations)


def eigenfunction(model: OperatorModel, lam_n: float,
                  config: SolverConfig = DEFAULT_CONFIG) -> SolutionTrace:
    """The phi-trace at a refined eigenvalue, scaled to unit max modulus; D is read off its march."""
    pairs = solution_pairs(model, lam_n, (), config)     # column 0 is lam_n
    plus, minus = pairs.phi_at_pi
    dv = DispersionValue(lam=float(lam_n), D=plus - minus, phi_plus=plus, phi_minus=minus)
    rel = abs(dv.D) / dv.scale
    if rel > STALE_TOL:
        raise StaleEigenvalueError(
            f"lam = {lam_n} no longer satisfies the dispersion condition "
            f"(relative residual {rel:.3e} > {STALE_TOL:.1e})")
    phi, phi_qd = pairs.phi[:, 0], pairs.phi_qd[:, 0]
    norm = float(np.max(np.abs(phi)))
    meta = {"rtol": config.rtol, "atol": config.atol, "eigenvalue": float(lam_n),
            "dispersion_residual": abs(dv.D), "normalization": norm,
            "boundary_value": dv.phi_plus / norm}
    return SolutionTrace(lam=pairs.lam, grid=pairs.nodes, values=phi / norm,
                         quasi_derivatives=phi_qd / norm, delta=pairs.delta, meta=meta)


def growth_slope(eigs: EigenvalueList) -> float | None:
    """Least-squares slope of log(lam_n) against log(n) for the positive half."""
    pos = eigs.positive()
    if len(pos) < 2:
        return None
    n = np.arange(1, len(pos) + 1, dtype=float)
    return float(np.polyfit(np.log(n), np.log(pos), 1)[0])
