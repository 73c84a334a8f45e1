"""Coefficient profiles and the operator model.

A profile f is 2*pi-periodic, antiperiodic across half a period
(f(x+pi) = -f(x)), odd, positive on (0, pi), and normalized so that
f'(0) = 2/pi.  Three families are supported:

* ``sine``             f(x) = (2/pi) sin x
* ``piecewise-linear`` the odd, antiperiodic tent: (2/pi) x near 0 matched
                       to (2/pi)(pi - x) near pi, kink at pi/2
* ``tabulated``        user samples of f on [0, pi], extended by the
                       symmetries; interpolated with a shape-preserving
                       (pchip) cubic so the extension stays positive

Profiles are immutable after construction and all evaluations are pure,
so they are safe to share across threads.

``PiecewiseCubic`` is the one piecewise-cubic type of the package: the
pchip interpolant of a tabulated profile and the not-a-knot spline of the
integrating factor's remainder table (``singular``) are both built and
evaluated by it, in numpy alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError

PI = np.pi
HALF_PI = PI / 2.0
NORMALIZATION_SLOPE = 2.0 / np.pi

KINDS = ("sine", "piecewise-linear", "tabulated")


@dataclass(frozen=True, eq=False)
class PiecewiseCubic:
    """A piecewise cubic on ascending ``breaks``, in scipy's PPoly layout.

    On piece i, with t = x - breaks[i], the value is
    c[0, i]*t**3 + c[1, i]*t**2 + c[2, i]*t + c[3, i].  A point equal to a
    break belongs to the piece on its right (the last break to the last
    piece), and points outside the breaks are evaluated on the first or
    last piece.
    """

    breaks: np.ndarray
    c: np.ndarray                   # shape (4, len(breaks) - 1)

    @classmethod
    def _hermite(cls, x, y, s) -> "PiecewiseCubic":
        """The cubic Hermite interpolant of values ``y`` and slopes ``s`` at nodes ``x``."""
        h = np.diff(x)
        slope = np.diff(y) / h
        t = (s[:-1] + s[1:] - 2 * slope) / h
        return cls(breaks=x, c=np.stack((t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1])))

    @classmethod
    def not_a_knot(cls, x, y) -> "PiecewiseCubic":
        """The C2 cubic spline through (x, y) with not-a-knot end conditions (de Boor, 1978).

        The nodal slopes solve the tridiagonal system that scipy's
        ``CubicSpline`` sets up, by a Thomas sweep in the order of LAPACK's
        ``gtsv`` when it needs no row exchange, so the coefficients agree
        with scipy's to rounding.  With two or three points the spline is
        the line or parabola through them.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        h = np.diff(x)
        m = np.diff(y) / h
        if n < 4:
            a = (m[-1] - m[0]) / (x[-1] - x[0])
            return cls._hermite(x, y, np.concatenate([m - a * h, [m[-1] + a * h[-1]]]))
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag = np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]]).tolist()
        upper = np.concatenate([[d0], h[:-1]]).tolist()
        lower = np.concatenate([h[1:], [d1]]).tolist()
        rhs = np.concatenate([[((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0],
                              3 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
                              [(h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1]]
                             ).tolist()
        for i in range(n - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            rhs[i + 1] -= fact * rhs[i]
        s = [0.0] * n
        s[-1] = rhs[-1] / diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
        return cls._hermite(x, y, np.array(s))

    @classmethod
    def pchip(cls, x, y) -> "PiecewiseCubic":
        """The monotone cubic through (x, y) (Fritsch & Carlson, 1980), as scipy's pchip builds it.

        Interior slopes are the weighted harmonic means of the neighbouring
        secants (Fritsch & Butland, 1984), zero where the secants change
        sign or one vanishes; the end slopes are the one-sided three-point
        estimate, limited to keep the shape.  Needs at least three points.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        s = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            s[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3 * np.abs(m0))
        s[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(overshoot, 3 * m0, end))
        return cls._hermite(x, y, s)

    def __call__(self, x):
        """Values at an array of points, summed by powers of t as scipy's PPoly sums them."""
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.breaks[1:-1], x, side="right")    # the piece, clamped
        t = x - self.breaks.take(i)
        c0, c1, c2, c3 = self.c.take(i, axis=1)                    # fresh: scaled in place
        t2 = t * t
        c2 *= t
        c1 *= t2
        t2 *= t
        c0 *= t2
        c3 += c2
        c3 += c1
        c3 += c0
        return c3

    def scalar(self):
        """Plain-float evaluator at one point, for the stepper.

        Horner form on the piece found by a left bisection, so a point
        equal to a break takes the piece on its left; the pieces agree
        there up to rounding.
        """
        breaks = self.breaks.tolist()
        c0, c1, c2, c3 = self.c.tolist()
        last = len(breaks) - 2

        def cubic(x):
            i = bisect_left(breaks, x) - 1
            if i < 0:
                i = 0
            elif i > last:
                i = last
            t = x - breaks[i]
            return ((c0[i] * t + c1[i]) * t + c2[i]) * t + c3[i]

        return cubic


@dataclass(frozen=True, eq=False)
class CoefficientProfile:
    """One member of the admissible coefficient family.

    ``kinks`` lists interior points of (0, pi) where f is not
    differentiable; integrators place grid nodes on them (mirrored to the
    negative half automatically).
    """

    kind: str
    kinks: tuple[float, ...] = ()
    table_x: Optional[np.ndarray] = None
    _interp: Optional[PiecewiseCubic] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        for k in self.kinks:
            if not 0.0 < k < PI:
                raise ValidationError(f"kink {k} outside (0, pi)")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior points of (0, pi) where f is not smooth, ascending.

        The kinks, and for a tabulated profile its interior table nodes,
        where the interpolant's second derivative jumps.  Integrators land
        on them and quadrature panels end on them.
        """
        pts = set(self.kinks)
        if self.table_x is not None:
            pts.update(self.table_x[1:-1].tolist())
        return tuple(sorted(pts))


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a float array without nan, ascending: ``np.unique``.

    ``np.unique`` (numpy 2) imports ``numpy.ma`` on its first call, about
    12 ms that every command would otherwise pay.
    """
    a = np.sort(np.ravel(values))
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def sine_profile() -> CoefficientProfile:
    return CoefficientProfile(kind="sine")


def piecewise_linear_profile() -> CoefficientProfile:
    return CoefficientProfile(kind="piecewise-linear", kinks=(PI / 2,))


def tabulated_profile(x, f, kinks=()) -> CoefficientProfile:
    """Profile from samples of f on [0, pi].

    The grid must ascend from 0 to pi and the endpoint values must vanish
    (they are the zeros forced by the symmetries); both are checked to
    1e-9 and then snapped exactly.
    """
    x = np.ascontiguousarray(x, dtype=float)
    f = np.ascontiguousarray(f, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or len(x) < 4:
        raise ValidationError("tabulated profile needs two equal-length 1-d columns, >= 4 rows")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("tabulated x values must be strictly ascending")
    if abs(x[0]) > 1e-9 or abs(x[-1] - PI) > 1e-9:
        raise ValidationError("tabulated grid must cover [0, pi] exactly")
    if abs(f[0]) > 1e-9 or abs(f[-1]) > 1e-9:
        raise ValidationError("tabulated f must vanish at 0 and pi")
    x = x.copy()
    f = f.copy()
    x[0], x[-1] = 0.0, PI
    f[0], f[-1] = 0.0, 0.0
    interp = PiecewiseCubic.pchip(x, f)
    return CoefficientProfile(kind="tabulated", kinks=tuple(kinks),
                              table_x=x, _interp=interp)


def load_tabulated(path) -> CoefficientProfile:
    """Read a whitespace-separated two-column file (x, f(x)), x in [0, pi]."""
    try:
        data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read profile table {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: expected two columns, got {data.shape[1]}")
    return tabulated_profile(data[:, 0], data[:, 1])


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > PI * (1 + 1e-14) + 1e-14):
        raise DomainError("x outside [-pi, pi]")
    return x


def eval_f(profile: CoefficientProfile, x):
    """f(x) on [-pi, pi]; scalars and arrays both work."""
    x = _check_domain(x)
    if profile.kind == "sine":
        out = NORMALIZATION_SLOPE * np.sin(x)
    elif profile.kind == "piecewise-linear":
        ax = np.abs(x)
        out = np.sign(x) * NORMALIZATION_SLOPE * np.minimum(ax, PI - ax)
    else:
        ax = np.clip(np.abs(x), 0.0, PI)
        out = np.sign(x) * profile._interp(ax)
    return out if np.ndim(out) else float(out)


def scalar_f(profile: CoefficientProfile):
    """f as a plain-float function of one point in (0, pi), for the stepper."""
    if profile.kind == "sine":
        return lambda x: NORMALIZATION_SLOPE * math.sin(x)
    if profile.kind == "piecewise-linear":
        def tent(x):
            if x <= HALF_PI:
                return NORMALIZATION_SLOPE * x
            return NORMALIZATION_SLOPE * (PI - x)
        return tent
    return profile._interp.scalar()


def eval_f_prime(profile: CoefficientProfile, x):
    """f'(x), refusing declared kinks (and their mirror images)."""
    x = _check_domain(x)
    xs = np.atleast_1d(x)
    for k in profile.kinks:
        hit = np.abs(np.abs(xs) - k) < 1e-12
        if np.any(hit):
            raise DomainError(f"f is not differentiable at the declared kink x = +-{k!r}")
    if profile.kind == "sine":
        out = NORMALIZATION_SLOPE * np.cos(x)
    elif profile.kind == "piecewise-linear":
        out = np.where(np.abs(x) < PI / 2, NORMALIZATION_SLOPE, -NORMALIZATION_SLOPE)
        out = out + 0.0
    else:
        # centered difference of the interpolant, one-sided at the ends;
        # f' is even since f is odd, so |x| suffices
        ax = np.clip(np.abs(x), 0.0, PI)
        h = np.min(np.diff(profile.table_x)) / 4.0
        lo = np.clip(ax - h, 0.0, PI)
        hi = np.clip(ax + h, 0.0, PI)
        out = (profile._interp(hi) - profile._interp(lo)) / (hi - lo)
    return out if np.ndim(x) else float(np.asarray(out).reshape(()))


@dataclass(frozen=True)
class ValidationReport:
    """Maximum violations of the structural hypotheses over a sample grid."""

    antiperiodicity: float
    oddness: float
    positivity: float
    slope: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        return max(self.antiperiodicity, self.oddness, self.positivity, self.slope) <= self.tolerance

    def as_dict(self):
        return {
            "antiperiodicity": self.antiperiodicity,
            "oddness": self.oddness,
            "positivity": self.positivity,
            "slope": self.slope,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "passed": self.passed,
        }


def validate_profile(profile: CoefficientProfile, samples: int = 256) -> ValidationReport:
    """Check antiperiodicity, oddness, interior positivity and the slope.

    The tolerance is 1e-6 for a tabulated profile and 1e-10 otherwise.
    The slope check evaluates the profile's own derivative at 0+, so for
    tabulated profiles it certifies the interpolant, not the unknown
    underlying function.
    """
    if samples < 16:
        raise ValidationError("samples must be >= 16")
    tolerance = 1e-6 if profile.kind == "tabulated" else 1e-10

    xg = np.linspace(-PI, 0.0, samples)
    anti = float(np.max(np.abs(eval_f(profile, xg + PI) + eval_f(profile, xg))))

    xo = np.linspace(0.0, PI, samples)
    odd = float(np.max(np.abs(eval_f(profile, -xo) + eval_f(profile, xo))))

    xi = np.linspace(0.0, PI, samples + 1)[1:-1]
    vals = np.asarray(eval_f(profile, xi))
    pos = float(max(0.0, -np.min(vals)))
    if np.any(vals == 0.0):
        pos = max(pos, tolerance * 2)

    slope = float(abs(eval_f_prime(profile, 0.0) - NORMALIZATION_SLOPE))

    return ValidationReport(antiperiodicity=anti, oddness=odd, positivity=pos,
                            slope=slope, tolerance=tolerance, samples=samples)


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """The operator's data: a coefficient profile and the small parameter.

    The slope normalization pins c = pi/2 (``HALF_PI``); ``sigma = c/epsilon``
    is the indicial exponent that controls every endpoint rate downstream.
    """

    profile: CoefficientProfile
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < PI:
            raise ValidationError(f"epsilon must lie in (0, pi), got {self.epsilon}")

    @property
    def sigma(self) -> float:
        return HALF_PI / self.epsilon

    def describe(self) -> dict:
        return {"profile": self.profile.kind, "epsilon": self.epsilon, "c": HALF_PI}
