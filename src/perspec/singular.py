"""Integrating factor and endpoint seeds.

The weight p satisfies p'/p = f'/f + 1/(eps*f).  Because 1/f has simple
poles at 0 and pi (residues pi/2 by the slope normalization), the
integral of 1/f is split as

    1/f(s) = pi/(2s) + pi/(2(pi-s)) + rb(s)

with rb bounded on (0, pi).  The pole parts integrate to logarithms and
produce the endpoint power laws; the remainder integral

    RB(x) = int_0^x rb(s) ds

is computed once per model by composite Gauss panels and stored as the
cubic Hermite table (``profiles.PiecewiseCubic``) of the panel sums with
slope RB' = rb at every panel edge; at the ends rb takes its limits
-1/2 - (pi^2/8) f''(0+) and -1/2 - (pi^2/8) f''(pi-), which are finite
because f'(0) = -f'(pi) = 2/pi.  The table is local, so a kink of f stays
a kink of RB''.  In the gauge p(x)/x^(1+sigma) -> 1 at the origin
(sigma = c/eps):

    log p(x)     = log f(x) + log(p/f)(x)
    log(p/f)(x)  = sigma*(log x - log(pi-x) + log pi) + RB(x)/eps + log(pi/2)

Both endpoint exponents and the coefficient of the pure power at pi then
come out of the same table.

The local model at both degenerate endpoints is one table,
``endpoint_branches``: the exponent of the power branch and the
first-order Frobenius coefficients of both branches, labelled by the
branch they belong to.  The seeds of the two fundamental solutions
(first-order truncations, in the quasi-derivative state (u, p*u')) and
every two-branch endpoint fit in ``shooting`` read it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError, ValidationError
from .profiles import (CoefficientProfile, OperatorModel, PiecewiseCubic,
                       end_curvatures, eval_f, scalar_f, sorted_distinct)

PI = math.pi
LOG_PI = math.log(PI)
LOG_HALF_PI = math.log(PI / 2.0)

# Largest cutoff delta the seeds accept (``shooting._cutoff`` stays far
# below): the endpoint fits read u at delta, 2*delta and 4*delta from an
# end, and their first-order local model needs the middle node within 0.1.
MAX_CUTOFF = 0.05

_RB_PANELS = 2048
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True, eq=False)
class IntegratingFactor:
    """Per-model table behind compute_log_p and friends; it holds no reference to the model."""

    rb: PiecewiseCubic              # RB(x) on [0, pi]
    rb_at_pi: float
    coef: Callable                  # x -> ((p/f)(x), p(x)), one float x in (0, pi)


def _remainder(profile: CoefficientProfile, s: np.ndarray) -> np.ndarray:
    f = np.asarray(eval_f(profile, s))
    return 1.0 / f - PI / (2.0 * s) - PI / (2.0 * (PI - s))


def _build(model: OperatorModel) -> IntegratingFactor:
    profile = model.profile
    edges = np.linspace(0.0, PI, _RB_PANELS + 1)
    extra = profile.breakpoints
    if extra:
        extra = np.asarray(extra, float)
        # drop uniform edges that would crowd an inserted point
        near = np.min(np.abs(edges[:, None] - extra[None, :]), axis=1)
        keep = (near > 1e-9) | (edges == 0.0) | (edges == PI)
        edges = sorted_distinct(np.concatenate([edges[keep], extra]))

    a = edges[:-1]
    h = np.diff(edges)
    nodes = a[:, None] + np.outer(h, (_GAUSS_NODES + 1.0) / 2.0)
    vals = _remainder(profile, nodes.ravel()).reshape(nodes.shape)
    panel = (vals @ _GAUSS_WEIGHTS) * (h / 2.0)
    rb_vals = np.concatenate([[0.0], np.cumsum(panel)])

    # RB' = rb: _remainder at the interior edges, its limits at the ends
    limits = -0.5 - PI ** 2 / 8 * np.array(end_curvatures(profile))
    slopes = np.concatenate([limits[:1], _remainder(profile, edges[1:-1]), limits[1:]])
    rb = PiecewiseCubic.hermite(edges, rb_vals, slopes)

    return IntegratingFactor(rb=rb, rb_at_pi=float(rb_vals[-1]),
                             coef=_scalar_coefficients(model, rb))


def _scalar_coefficients(model: OperatorModel, rb: PiecewiseCubic):
    """The stepper's coefficient pair at one point: ((p/f)(x), p(x)).

    Same formula as ``compute_log_p_over_f``, on plain floats with the
    math module, since the stepper calls it six times per step.
    """
    f = scalar_f(model.profile)
    rb_at = rb.scalar()
    sigma = model.sigma
    eps = model.epsilon

    def coef(x):
        log_pf = sigma * (math.log(x) - math.log(PI - x) + LOG_PI) + rb_at(x) / eps + LOG_HALF_PI
        pf = math.exp(log_pf)
        return pf, f(x) * pf

    return coef


# a value that referred to its weak key would keep the entry alive for good
_CACHE: "weakref.WeakKeyDictionary[OperatorModel, IntegratingFactor]" = weakref.WeakKeyDictionary()


def integrating_factor(model: OperatorModel) -> IntegratingFactor:
    fac = _CACHE.get(model)
    if fac is None:
        fac = _build(model)
        _CACHE[model] = fac
    return fac


def _interior(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= PI):
        raise DomainError("x must lie strictly inside (0, pi)")
    return x


def compute_log_p_over_f(model: OperatorModel, x):
    """log of p/f at x in (0, pi)."""
    x = _interior(x)
    fac = integrating_factor(model)
    sigma = model.sigma
    out = (sigma * (np.log(x) - np.log(PI - x) + LOG_PI)
           + fac.rb(x) / model.epsilon + LOG_HALF_PI)
    return out if np.ndim(out) else float(out)


def compute_log_p(model: OperatorModel, x):
    """log p(x) in the gauge p(x)/x^(1+sigma) -> 1 at the origin."""
    x = _interior(x)
    out = np.log(np.asarray(eval_f(model.profile, x))) + compute_log_p_over_f(model, x)
    return out if np.ndim(out) else float(out)


def compute_p_over_f(model: OperatorModel, x):
    out = np.exp(compute_log_p_over_f(model, x))
    return out if np.ndim(out) else float(out)


def log_pf_coefficient_at_pi(model: OperatorModel) -> float:
    """log K with p/f ~ K*(pi-x)^(-sigma) at pi (K = (pi/2)*lim p/(pi-x)^(1-sigma))."""
    fac = integrating_factor(model)
    return 2.0 * model.sigma * LOG_PI + fac.rb_at_pi / model.epsilon + LOG_HALF_PI


def default_cutoff(lam) -> float:
    """The lambda-aware seed cutoff; local series error grows with |lam|."""
    return 1e-4 / math.sqrt(1.0 + abs(lam))


def endpoint_branches(model: OperatorModel, lam, end: str):
    """The local model at ``end`` ("origin" or "pi"): (e, b_reg, b_pow).

    With d the distance to the endpoint, every solution is, to first order,

        u ~ A*(1 + b_reg*d) + B*d^e*(1 + b_pow*d).

    Near the endpoint f = (2/pi)*(d + beta*d^2) + O(d^3) with beta = (pi/4)*f''
    at that end (``profiles.end_curvatures``), and the equation reads
    (d + beta*d^2)*u'' + (1 - e + 2*beta*d)*u' = -i*lam*sigma*u
    (derivatives in d), with indicial exponents 0 and e = +sigma at pi,
    -sigma at 0.  The branch d^r has first-order coefficient
    (-i*lam*sigma - beta*r*(r + 1))/((r + 1)*(r + 1 - e)):

        at pi:  (sigma, alpha1, a1 - beta*sigma);   at 0:  (-sigma, a1, alpha1 + beta*sigma),

    with a1 = -i*lam*sigma/(1 + sigma) and alpha1 = -i*lam*sigma/(1 - sigma).
    ``lam`` may be an array.  The resonant case sigma = 1 (eps = pi/2)
    makes the two exponents at pi collide and is refused.
    """
    if end not in ("origin", "pi"):
        raise ValidationError(f'endpoint must be "origin" or "pi", got {end!r}')
    sigma = model.sigma
    if abs(sigma - 1.0) < 1e-3:
        raise SolverError("eps too close to pi/2: coincident endpoint exponents "
                          "(resonant local expansion) are not supported")
    e = sigma if end == "pi" else -sigma
    beta = PI / 4.0 * end_curvatures(model.profile)[1 if end == "pi" else 0]
    k = 1j * lam * sigma
    return e, -k / (1.0 - e), -k / (1.0 + e) - beta * e


def _check_cutoff(model: OperatorModel, delta: float, need_power: bool):
    if not 0.0 < delta <= MAX_CUTOFF:
        raise ValidationError(f"cutoff delta must lie in (0, {MAX_CUTOFF}], got {delta}")
    if need_power and model.sigma * math.log(1.0 / delta) > 600.0:
        raise SolverError("delta^sigma underflows: epsilon is too small for the seed at pi")


def seed_regular_origin(model: OperatorModel, lam, delta: float):
    """(value, p*u') at delta of the solution normalized to 1 at the origin, per lam.

    With b the regular branch's coefficient at the origin
    (``endpoint_branches``), value = 1 + b*delta and the quasi-derivative
    is the once-integrated local model -i*lam/eps * int_0^delta (p/f),
    which is b*delta^(1+sigma) in this gauge.  Truncation error is
    O(delta^2) in the value.  ``lam`` may be an array.
    """
    _check_cutoff(model, delta, need_power=False)
    _, b, _ = endpoint_branches(model, lam, "origin")
    return 1.0 + b * delta, b * delta ** (1.0 + model.sigma)


def seed_vanishing_at_pi(model: OperatorModel, lam, delta: float):
    """(value, p*u') at pi - delta of the branch (pi - x)^sigma, pre-normalization, per lam.

    The quasi-derivative is p(pi-delta) times the derivative of the local
    branch; to leading order it is the constant -sigma * K with
    p ~ K*(pi-x)^(1-sigma).  ``lam`` may be an array.
    """
    _check_cutoff(model, delta, need_power=True)
    sigma, _, b = endpoint_branches(model, lam, "pi")
    p_near = math.exp(compute_log_p(model, PI - delta))
    value = delta ** sigma * (1.0 + b * delta)
    qd = -(p_near / delta ** (1.0 - sigma)) * (sigma + (1.0 + sigma) * b * delta)
    return value, qd
