"""Coefficient profiles and the operator model.

A profile f is 2*pi-periodic, antiperiodic across half a period
(f(x+pi) = -f(x)), odd, positive on (0, pi), and normalized so that
f'(0) = 2/pi.  Three families are supported:

* ``sine``             f(x) = (2/pi) sin x
* ``piecewise-linear`` the odd, antiperiodic tent: (2/pi) x near 0 matched
                       to (2/pi)(pi - x) near pi, kink at pi/2
* ``tabulated``        user samples of f on [0, pi], extended by the
                       symmetries; interpolated by a cubic Hermite table
                       with pchip's shape-preserving interior slopes, so
                       the extension stays positive, and the normalized
                       end slopes +-2/pi, which the model fixes; the
                       table's own end secants are checked against them
                       by ``validate_profile``

Profiles are immutable after construction and all evaluations are pure,
so they are safe to share across threads.

``PiecewiseCubic`` is the one piecewise-cubic type of the package, and
``PiecewiseCubic.hermite`` its one constructor: the interpolant of a
tabulated profile and the integrating factor's remainder table
(``singular``) are both cubic Hermite tables from slopes the model knows,
built and evaluated in numpy alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
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
    def hermite(cls, x, y, s) -> "PiecewiseCubic":
        """The cubic Hermite interpolant of values ``y`` and slopes ``s`` at nodes ``x``.

        Coefficients as scipy's ``CubicHermiteSpline`` computes them.
        """
        h = np.diff(x)
        slope = np.diff(y) / h
        t = (s[:-1] + s[1:] - 2 * slope) / h
        return cls(breaks=x, c=np.stack((t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1])))

    def _pieces(self, x):
        """Offsets from, and coefficients of, the piece each point lies on."""
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.breaks[1:-1], x, side="right")    # the piece, clamped
        return x - self.breaks.take(i), self.c.take(i, axis=1)

    def __call__(self, x):
        """Values at an array of points, summed by powers of t as scipy's PPoly sums them."""
        t, (c0, c1, c2, c3) = self._pieces(x)                      # fresh: scaled in place
        t2 = t * t
        c2 *= t
        c1 *= t2
        t2 *= t
        c0 *= t2
        c3 += c2
        c3 += c1
        c3 += c0
        return c3

    def derivative(self, x):
        """Slopes at an array of points, on the pieces ``__call__`` reads."""
        t, (c0, c1, c2, _) = self._pieces(x)
        return (3 * c0 * t + 2 * c1) * t + c2

    def curvature(self, x):
        """Second derivatives at an array of points, on the pieces ``__call__`` reads."""
        t, (c0, c1, _, _) = self._pieces(x)
        return 6 * c0 * t + 2 * c1

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


def pchip_slopes(x, y) -> np.ndarray:
    """pchip's slopes at the interior nodes of (x, y), bit for bit scipy's.

    Each is the weighted harmonic mean of the neighbouring secants
    (Fritsch & Butland, 1984), or zero where the secants change sign or
    one vanishes, so the Hermite cubic keeps the data's shape inside
    (Fritsch & Carlson, 1980).  The end slopes are the caller's.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))


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
    1e-9 and then snapped exactly.  The interpolant takes pchip's interior
    slopes and the normalized end slopes f'(0) = 2/pi, f'(pi) = -2/pi.
    """
    x = np.array(x, dtype=float)                 # copies: the ends are snapped below
    f = np.array(f, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or len(x) < 4:
        raise ValidationError("tabulated profile needs two equal-length 1-d columns, >= 4 rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
        raise ValidationError("tabulated x and f values must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("tabulated x values must be strictly ascending")
    if abs(x[0]) > 1e-9 or abs(x[-1] - PI) > 1e-9:
        raise ValidationError("tabulated grid must cover [0, pi] exactly")
    if abs(f[0]) > 1e-9 or abs(f[-1]) > 1e-9:
        raise ValidationError("tabulated f must vanish at 0 and pi")
    x[0], x[-1] = 0.0, PI
    f[0], f[-1] = 0.0, 0.0
    slopes = np.concatenate([[NORMALIZATION_SLOPE], pchip_slopes(x, f), [-NORMALIZATION_SLOPE]])
    return CoefficientProfile(kind="tabulated", kinks=tuple(kinks),
                              table_x=x, _interp=PiecewiseCubic.hermite(x, f, slopes))


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
    else:                                    # f' is even since f is odd
        out = profile._interp.derivative(np.clip(np.abs(x), 0.0, PI))
    return out if np.ndim(x) else float(np.asarray(out).reshape(()))


def end_curvatures(profile: CoefficientProfile) -> tuple[float, float]:
    """f''(0+) and f''(pi-): zero for sine and tent, the end pieces' own for a table."""
    if profile._interp is None:
        return 0.0, 0.0
    return tuple(profile._interp.curvature([0.0, PI]).tolist())


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
    def failed(self) -> dict:
        """The violations above the tolerance, by check name."""
        return {name: value for name, value in asdict(self).items()
                if name not in ("tolerance", "samples") and not value <= self.tolerance}

    @property
    def passed(self) -> bool:
        return not self.failed

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def validate_profile(profile: CoefficientProfile, samples: int = 256) -> ValidationReport:
    """Check antiperiodicity, oddness, interior positivity and the slope.

    The tolerance is 1e-6 for a tabulated profile and 1e-10 otherwise.
    The slope check compares the end secants with f'(0) = 2/pi and
    f'(pi) = -2/pi, beyond what the curvature allows; it takes a table's
    own rows, since its interpolant has those end slopes pinned.
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

    # an end secant misses the end slope by at most h/2*max|f''|; twice
    # that, with f'' from the second divided difference, is allowed
    xs = xo if profile.table_x is None else profile.table_x
    h = np.diff(xs)[[0, 1, -1, -2]]
    s = np.diff(eval_f(profile, xs))[[0, 1, -1, -2]] / h
    allowed = 2 * h[::2] * np.abs(s[1::2] - s[::2]) / (h[::2] + h[1::2])
    miss = np.abs(s[::2] - [NORMALIZATION_SLOPE, -NORMALIZATION_SLOPE]) - allowed
    slope = float(max(0.0, np.max(miss)))

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
