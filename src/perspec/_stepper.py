"""Adaptive integration of the transformed equation in quasi-derivative form.

State vector is (u, w) with w = p*u', integrated over a subinterval of
(0, pi):

    u' = w / p(x)
    w' = -(i*lam/eps) * (p/f)(x) * u

The coefficients come from a scalar evaluator ``coef(x) -> ((p/f)(x), p(x))``
that ``singular`` builds once per model; it reconstructs p and p/f from the
analytic split of the poles of 1/f at both endpoints.

The stepper is a Dormand-Prince 5(4) pair with FSAL, per-step error
control, steps capped at a fraction of the distance to the singular
endpoints, and exact landing on a caller-supplied list of forced nodes
(the endpoint fit's nodes, profile breakpoints, terminal point), which
are the only nodes it records.  It is plain Python; the six coefficient
evaluations of a step read Python lists, not numpy arrays.  No command
runs it: ``shooting.compute_phi_at_pi`` wraps it as the tests'
independent reference for the marches.

``linear_step_coefficients`` writes one step of the same tableau, for
fixed nodes, as a matrix polynomial in kappa = -i*lam/eps, so that many
lam can share one mesh, together with the step's embedded error estimate
as a second polynomial, so that a mesh can be checked against the
stepper's own acceptance test without the stepper.
"""

import math

import numpy as np

PI = math.pi

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_MAX_STEPS = 2

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0

# The same tableau as rows, for ``linear_step_coefficients``.
STAGE_FRACTIONS = (0.0, _C2, _C3, _C4, _C5, 1.0)
_A_ROWS = ((), (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
           (_A61, _A62, _A63, _A64, _A65))
_B_ROW = (_B1, 0.0, _B3, _B4, _B5, _B6)
_E_ROW = (_E1, 0.0, _E3, _E4, _E5, _E6, _E7)
KAPPA_DEGREE = 3


def _rhs(x, u, w, lam, eps, coef):
    pf, p = coef(x)
    du = w / p
    dw = -(1j * lam / eps) * pf * u
    return du, dw


def integrate_quasi_system(x0, x1, u0, w0, lam, eps, coef, forced,
                           rtol, atol, max_steps, cap_frac):
    """Integrate from x0 to x1 landing exactly on every node in ``forced``.

    ``forced`` must be sorted in travel order, lie strictly between x0 and
    x1 except for its last entry which must equal x1.  Returns
    ``(status, x_reached, n_out, xs, us, ws, n_steps)`` where the recorded
    nodes are x0 itself and the forced nodes reached, and ``n_steps``
    counts attempted steps, rejected ones included.
    """
    direction = 1.0 if x1 > x0 else -1.0
    # Nodes are read from ``forced`` as numpy float64 scalars on purpose:
    # they turn the step and the state into numpy scalars, and results are
    # pinned to numpy's complex arithmetic (its division by a real rounds
    # differently from Python's).
    n_forced = forced.shape[0]

    x = x0
    u = u0 + 0j
    w = w0 + 0j
    xs, us, ws = [x], [u], [w]

    ptr = 0
    dist_end = min(x, PI - x)
    h = direction * min(1e-2, cap_frac * dist_end, abs(x1 - x0))
    if n_forced > 0:
        gap = abs(forced[0] - x)
        if gap > 0 and gap < abs(h):
            h = direction * gap

    k1u, k1w = _rhs(x, u, w, lam, eps, coef)
    n_steps = 0
    status = STATUS_OK

    while ptr < n_forced:
        if n_steps >= max_steps:
            status = STATUS_MAX_STEPS
            break

        dist_end = min(x, PI - x)
        hmax = cap_frac * dist_end
        if abs(h) > hmax:
            h = direction * hmax

        # a step ending short of the target by less than the underflow
        # threshold lands on it: the gap left would be the next step
        tiny = 1e-14 * max(abs(x), 1.0)
        target = forced[ptr]
        landing = False
        if direction * (x + h - target) >= -tiny:
            h = target - x
            landing = True

        if abs(h) < tiny:
            status = STATUS_STEP_UNDERFLOW
            break

        k2u, k2w = _rhs(x + _C2 * h, u + h * _A21 * k1u, w + h * _A21 * k1w, lam, eps, coef)
        k3u, k3w = _rhs(x + _C3 * h,
                        u + h * (_A31 * k1u + _A32 * k2u),
                        w + h * (_A31 * k1w + _A32 * k2w),
                        lam, eps, coef)
        k4u, k4w = _rhs(x + _C4 * h,
                        u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                        w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w),
                        lam, eps, coef)
        k5u, k5w = _rhs(x + _C5 * h,
                        u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
                        w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w),
                        lam, eps, coef)
        k6u, k6w = _rhs(x + h,
                        u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
                        w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w),
                        lam, eps, coef)
        u_new = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        w_new = w + h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        x_new = x + h
        k7u, k7w = _rhs(x_new, u_new, w_new, lam, eps, coef)

        err_u = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        err_w = h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w + _E6 * k6w + _E7 * k7w)
        sc_u = atol + rtol * max(abs(u), abs(u_new))
        sc_w = atol + rtol * max(abs(w), abs(w_new))
        err = math.sqrt(0.5 * ((abs(err_u) / sc_u) ** 2 + (abs(err_w) / sc_w) ** 2))
        n_steps += 1

        if err <= 1.0:
            # land bitwise on forced nodes so traces share grid nodes exactly
            x = target if landing else x_new
            u = u_new
            w = w_new
            k1u, k1w = k7u, k7w
            if landing:
                xs.append(x)
                us.append(u)
                ws.append(w)
                ptr += 1
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * factor
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)

    return (status, x, len(xs), np.array(xs, np.float64), np.array(us, np.complex128),
            np.array(ws, np.complex128), n_steps)


def linear_step_coefficients(h, inv_p, pf):
    """The fifth-order DOPRI5 step and its error estimate as polynomials in kappa = -i*lam/eps.

    The system is Y' = (A(x) + kappa*B(x)) Y with A = [[0, 1/p], [0, 0]] and
    B = [[0, 0], [p/f, 0]], so one step maps (u, w) at x to (u, w) at x + h
    by a 2x2 matrix P(kappa) = sum_m C_m kappa^m with real C_m.  A and B are
    nilpotent, so a term of P alternates them; six stages nest at most six
    factors, hence at most three B's and degree KAPPA_DEGREE.  The embedded
    error estimate (``integrate_quasi_system``'s err_u, err_w) is E(kappa)
    applied to the step's start state; its FSAL stage at x + h multiplies P
    by one more factor, so E has degree KAPPA_DEGREE + 1.

    The seven stage derivatives are held stage-major, K[i, r, s, m, k] for
    interval k, so the state a stage reads is one product of its tableau
    row with the earlier stages, and E is one more with the error row.
    ``np.einsum`` forms them without BLAS, whose first call alone costs a
    process about 0.5 MB of resident memory.

    ``h`` has shape (n,); ``inv_p`` and ``pf`` have shape (n, 6): 1/p and
    p/f at x + c*h for c in STAGE_FRACTIONS.  Returns (C, E) of shapes
    (n, 2, 2, KAPPA_DEGREE + 1) and (n, 2, 2, KAPPA_DEGREE + 2), C[k, r, s, m]
    being the kappa^m coefficient of P_k[r, s].
    """
    K = np.zeros((7, 2, 2, KAPPA_DEGREE + 2, h.shape[0]))
    y0 = np.zeros(K.shape[1:-1] + (1,))
    y0[0, 0, 0] = y0[1, 1, 0] = 1.0
    inv_p, pf = inv_p.T, pf.T
    # the six stages, then the FSAL stage at x + h from the step's end state
    for i, row in enumerate(_A_ROWS + (_B_ROW,)):
        y = y0 + h * np.einsum("j,j...->...", row, K[:i]) if row else y0
        K[i, 0] = inv_p[min(i, 5)] * y[1]
        K[i, 1, :, 1:] = pf[min(i, 5)] * y[0, :, :-1]        # times kappa
    err = h * np.einsum("j,j...->...", _E_ROW, K)
    return np.moveaxis(y[..., :-1, :], -1, 0), np.moveaxis(err, -1, 0)   # y is the end state


def linear_step_matrices(coeffs, kappa):
    """P(kappa) from coefficients such as ``linear_step_coefficients``'s, by Horner's rule.

    ``kappa`` broadcasts against ``coeffs[..., 0, 0, 0]``.
    """
    kappa = np.asarray(kappa)[..., None, None]
    out = coeffs[..., -1] * kappa
    for m in range(coeffs.shape[-1] - 2, 0, -1):
        out = (out + coeffs[..., m]) * kappa
    return out + coeffs[..., 0]
