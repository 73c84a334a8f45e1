"""Real eigenvalues as zeros of the dispersion function.

D(lam) = phi(pi, lam) - phi(-pi, lam), with phi(-pi, lam) obtained as
phi(pi, -lam) through the half-interval reduction -- the negative half is
never integrated.  For a real profile and real lam the two boundary
values are complex conjugates (the march is conjugate-symmetric in
kappa = -i*lam/eps, so a column -lam would come out as the conjugate of
the column lam bit for bit), so D(lam) = 2i*Im phi(pi, lam) is purely
imaginary and its imaginary part is a real secular function whose sign
changes bracket the eigenvalues.  Every march here is of real lam, and
each marches the column lam alone and reads -lam as its conjugate.

D(-lam) = -D(lam) holds exactly (the same two boundary values swap), so
only the positive half-axis is scanned and the result is mirrored.

The scan does not march its grid.  On one shared mesh
(``shooting.shared_mesh``), laid out by the marches' own step-error test
at the top of the grid, D is an entire function of lam, so Im D on
[-top, top] is represented to rounding by a short Chebyshev series (Boyd,
SIAM J. Numer. Anal. 40, 2002).  ``_chebyshev_proxy`` samples it at nested
Clenshaw-Curtis points: being odd, it is marched at the positive points
only, in one batched march (``dispersion_batch``) per degree, and the
degree doubles until the tail of the odd coefficients reaches the
rounding plateau (Aurentz & Trefethen, ACM TOMS 43, 2017), or until its
positive points would outnumber the grid's.  The proxy is
evaluated by Clenshaw's recurrence on the grid of step ``resolution``,
which costs no march; a grid point whose proxy value lies within the
proxy's tail bound has no trusted sign and is marched on the true D.
Im D leaves 0 with slope -2*pi for every model, so a root in
(0, resolution) is bracketed too.  The brackets are refined together by
an Illinois (modified regula falsi) iteration on the true D, one batched
march per step.

The residuals reported for the refined eigenvalues are measured
independently of the scan's mesh: one further ``shared_mesh`` is laid out
for the positive roots alone, accepted for the column of every root at
the cutoff of the largest root, no larger than any root's own, and D at
each root is read off the march that accepted it; the residuals are
mirrored like the eigenvalues.  The residual at 0 is exact by
construction, not measured: 0 is an eigenvalue (constants solve Lu = 0),
and phi(pi, 0) is real, so D(0) = 0 with no march.

Nothing here calls BLAS, LAPACK or an FFT: the first such call of a
process raises its peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import IntegrationError, SolverError, ValidationError
from .profiles import OperatorModel
from .shooting import (DEFAULT_CONFIG, SharedMesh, SolverConfig, _real_lams,
                       boundary_values, shared_mesh)

MAX_REFINE_ITERATIONS = 100
PROXY_DEGREE = 32          # Chebyshev degree of the proxy's first march
PROXY_PLATEAU = 1e-13      # tail of the odd coefficients, over the largest, that ends the doubling


@dataclass(frozen=True)
class DispersionValue:
    lam: float
    D: complex
    phi_plus: complex      # phi(pi, lam)
    phi_minus: complex     # phi(-pi, lam) = phi(pi, -lam)


@dataclass(frozen=True, eq=False)
class EigenvalueList:
    model: OperatorModel
    eigenvalues: np.ndarray          # ascending, contains 0
    residuals: np.ndarray            # |D(lam_n)|; at 0 exact by construction, not measured
    relative_residuals: np.ndarray   # |D| / max(1, |phi(pi, lam)|), as large at -lam
    lam_max: float
    resolution: float                # bracketing step: the proxy's sign is read this far apart
    skipped: list                    # grid points the shared mesh cannot be built for
    mesh_nodes: int                  # nodes of the shared mesh
    mesh_rounds: int                 # marches that laid the mesh out
    proxy_degree: int                # Chebyshev degree n of the proxy of Im D
    proxy_tail: float                # largest of its last odd coefficients over its largest
    marches: int                     # batched marches: the scan mesh's layout, the proxy's
                                     # points (one per degree), the doubtful grid points (at
                                     # most one), refinement and the certifying mesh's layout
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
            "proxy_degree": self.proxy_degree,
            "proxy_tail": self.proxy_tail,
            "batched_marches": self.marches,
            "refine_iterations": list(self.refine_iterations),
            "growth_slope": growth_slope(self),
        }


def dispersion(model: OperatorModel, lam: float,
               config: SolverConfig = DEFAULT_CONFIG) -> DispersionValue:
    """D at a real lam: phi(pi, lam) from the march that laid out its mesh, and its conjugate.

    The mesh is ``shared_mesh`` at lam: accepted for the column lam at
    lam's own cutoff, independently of any scan grid; phi(pi, -lam) is the
    conjugate of phi(pi, lam).  A non-real lam raises ValidationError, as
    in ``shared_mesh`` and ``dispersion_batch``.  No command calls it:
    ``scan_and_refine`` certifies all of its roots on one mesh.
    """
    plus = shared_mesh(model, lam, config).phi_at_pi[0]
    minus = np.conj(plus)
    return DispersionValue(lam=float(np.real(lam)), D=plus - minus, phi_plus=plus,
                           phi_minus=minus)


def dispersion_batch(model: OperatorModel, lams, mesh: SharedMesh) -> np.ndarray:
    """D(lam) = 2i*Im phi(pi, lam) at the mesh's cutoff for every real lam in ``lams``.

    One batched march steps one column per lam; phi(pi, -lam) is the
    conjugate of phi(pi, lam), so D is purely imaginary.  A non-real lam
    raises ValidationError.
    """
    return 2j * boundary_values(model, mesh, _real_lams(lams)).imag


def _served_mesh(model: OperatorModel, grid: np.ndarray, config: SolverConfig):
    """The shared mesh for the longest leading part of ``grid`` it can be built for.

    Returns (mesh or None, number of grid points served, skipped entries).
    The mesh for the top of the grid is the hardest to lay out; when it
    fails, the largest grid point whose mesh can be laid out is found by
    bisection and every point above it is skipped with the reason of the
    failure just above it; when no point is served, the mesh is None.
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


def _odd_dct(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients c_0..c_{n-1} of the degree-n interpolant of an odd function.

    ``values`` are the function at the positive points cos(pi*j/n), j < n/2.
    The point 0 (j = n/2) is a root and the negative points are mirrors, so
    the even coefficients and c_n vanish, and the DCT-I folds to
    c_k = (4/n) * sum_j w_j f_j cos(pi*j*k/n) for odd k, w_0 = 1/2 and the
    other w_j = 1, summed against the cosine table.  Neither a matrix
    product nor einsum: with glibc's mmap threshold pinned at 128 KB, an
    einsum here raised a spectrum pass's peak memory by about 0.25 MB.
    """
    n = 2 * len(values)
    j = np.arange(n // 2)
    table = np.cos(np.pi / n * np.outer(np.arange(1, n, 2), j))
    coeffs = np.zeros(n)
    coeffs[1::2] = (4.0 / n) * np.sum(table * (np.where(j == 0, 0.5, 1.0) * values), axis=1)
    return coeffs


def _chebyshev_proxy(model: OperatorModel, mesh: SharedMesh, top: float, points: int):
    """Chebyshev series of Im D on [-top, top], from nested Clenshaw-Curtis points.

    The degree n starts at PROXY_DEGREE, or at 2*points when that is
    smaller, and doubles, marching only the new points, while the tail of
    the odd coefficients (the largest of their last quarter) exceeds
    PROXY_PLATEAU times the largest coefficient and the n/2 positive points
    stay no more than ``points``.  Returns the coefficients in x/top, the
    tail bound (as many times the tail as there are odd coefficients; no
    value of the series is trusted to be closer than that to D), the tail
    ratio and the marches run.
    """
    n = min(PROXY_DEGREE, 2 * points)
    values = dispersion_batch(model, top * np.cos(np.pi / n * np.arange(n // 2)), mesh).imag
    marches = 1
    while True:
        coeffs = _odd_dct(values)
        odd = np.abs(coeffs[1::2])
        tail = float(np.max(odd[-max(1, len(odd) // 4):]))
        ratio = tail / float(np.max(odd)) if tail else 0.0
        if ratio <= PROXY_PLATEAU or n > points:
            return coeffs, len(odd) * tail, ratio, marches
        n *= 2
        new = dispersion_batch(model, top * np.cos(np.pi / n * np.arange(1, n // 2, 2)), mesh).imag
        values = np.stack([values, new], axis=1).ravel()
        marches += 1


def _brackets(grid: np.ndarray, r: np.ndarray) -> list:
    """(lo, hi, r_lo, r_hi) for every sign change of Im D from 0 to the last of ``grid``.

    ``r`` is Im D on the (nonempty) ``grid``; lo == hi marks an exact root.  Im D leaves
    0 with slope -2*pi for every model (to first order in lam the constant
    solution is 1 + lam*v with eps*f*v' + v = -i*x, whose regular branch
    has v(pi) = -i*pi, and D'(0) = 2*v(pi)), so it is negative just right of
    0, and a positive first value brackets a root in (0, grid[0]).  That
    bracket's end 0 carries -r[0], so that its first iterate bisects.
    """
    spans = []
    if r[0] > 0.0:
        spans.append((0.0, float(grid[0]), -r[0], r[0]))
    for k in range(len(r) - 1):
        ra, rb = r[k], r[k + 1]
        if ra == 0.0:
            spans.append((float(grid[k]), float(grid[k]), ra, rb))
        elif ra * rb < 0.0:
            spans.append((float(grid[k]), float(grid[k + 1]), ra, rb))
    return spans


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
    """Bracket sign changes of Im D on a Chebyshev proxy and refine them in lockstep on D.

    The proxy (``_chebyshev_proxy``) is fitted on [-top, top], top the
    highest grid point the shared mesh serves, and its sign is read on the
    grid ``resolution``, 2*resolution, ... up to lam_max + resolution/2,
    which costs no march: ``resolution`` is the bracketing step, so two
    roots closer than it may go unseen.  Grid points where the proxy lies
    within its tail bound are marched on the true D.  Im D is negative
    just right of 0, so a root in (0, resolution) is bracketed too.  Each
    bracket is refined on the true D to width 1e-10*(1+|lam|).  Grid points
    the shared mesh cannot be built for (the step budget, say) are skipped
    with the reason; when that is every point, SolverError is raised, naming
    epsilon, sigma and the first point's reason.  The positive roots are
    certified together on one mesh of their own; 0 is an eigenvalue by
    construction.
    """
    if lam_max <= 0 or resolution <= 0:
        raise ValidationError("lam_max and resolution must be positive")

    grid = np.arange(resolution, lam_max + resolution / 2, resolution)
    if not len(grid):
        raise ValidationError(f"empty scan grid: resolution {resolution} >= 2*lam_max")
    mesh, served, skipped = _served_mesh(model, grid, config)
    if not served:
        raise SolverError(f"no scan point can be served at epsilon {model.epsilon:g} "
                          f"(sigma = {model.sigma:.4g}); at lam = {skipped[0]['lam']:g}: "
                          f"{skipped[0]['reason']}")
    grid = grid[:served]
    top = float(grid[-1])
    coeffs, bound, tail, proxy_marches = _chebyshev_proxy(model, mesh, top, served)
    marches = mesh.rounds + proxy_marches
    r = chebval(grid / top, coeffs)
    doubtful = np.abs(r) <= bound
    if np.any(doubtful):
        r[doubtful] = dispersion_batch(model, grid[doubtful], mesh).imag
        marches += 1
    spans = _brackets(grid, r)
    roots, iterations = [], []
    if spans:
        roots, iterations, refine_marches = _refine(model, mesh, spans)
        marches += refine_marches

    # drop the roots the grid's last half step finds above lam_max
    keep = [i for i, r in enumerate(roots) if r <= lam_max]
    roots = [roots[i] for i in keep]
    iterations = [iterations[i] for i in keep]

    # D(-lam) = -D(lam) from the same two boundary values, and D(0) = 0 exactly:
    # certify the positive roots on one mesh, and mirror their residuals as
    # the eigenvalues are mirrored
    eigs = np.concatenate([[-r for r in reversed(roots)], [0.0], roots])
    resid = rel = np.zeros(0)
    if roots:
        certified = shared_mesh(model, roots, config)
        marches += certified.rounds
        resid = 2.0 * np.abs(certified.phi_at_pi.imag)
        rel = resid / np.maximum(1.0, np.abs(certified.phi_at_pi))
    resid, rel = (np.concatenate([half[::-1], [0.0], half]) for half in (resid, rel))

    return EigenvalueList(model=model, eigenvalues=eigs, residuals=resid,
                          relative_residuals=rel, lam_max=float(lam_max),
                          resolution=float(resolution), skipped=skipped,
                          mesh_nodes=len(mesh.nodes), mesh_rounds=mesh.rounds,
                          proxy_degree=len(coeffs), proxy_tail=tail,
                          marches=marches, refine_iterations=iterations)


def growth_slope(eigs: EigenvalueList) -> float | None:
    """Least-squares slope of log(lam_n) against log(n) for the positive half.

    The closed form sum((x - mean x)*y) / sum((x - mean x)^2) gives polyfit's
    number without a LAPACK call, whose first use raises the peak memory of
    the process.
    """
    pos = eigs.positive()
    if len(pos) < 2:
        return None
    x = np.log(np.arange(1, len(pos) + 1, dtype=float))
    x -= x.mean()
    return float(np.sum(x * np.log(pos)) / np.sum(x * x))
