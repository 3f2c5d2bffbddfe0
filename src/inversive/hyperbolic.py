"""Hyperbolic spheres in the hyperboloid model.

Points of hyperbolic n-space sit on the upper sheet u_0^2 - u_1^2 - ... -
u_n^2 = 1.  A sphere of hyperbolic radius s > 0 about a point g on the sheet
is the slice {u : g_0 u_0 - sum g_j u_j = cosh s}, and its coordinate row is

    w- = (coth s, u_0/sinh s, ..., u_n/sinh s).

The signed form J~ = diag(1, -1, 1, ..., 1) gives w- J~ w- = 1 on such rows
(coth^2 s - 1/sinh^2 s = 1) and -1 on externally tangent pairs.  Hyperplane
slices that miss the upper sheet have no real sphere behind them; those rows
are carried as coordinates with a classification instead of a center and
radius.  The coth entry separates the cases: above 1 in absolute value a
real sphere, exactly 1 a horocycle, below 1 virtual.

As with caps, a rational coth s forces an irrational sinh s in general, so
exact arithmetic happens on rows and the center/radius view is approximate.
"""

import math
from dataclasses import dataclass

from . import forms
from .scalars import (DEFAULT_TOL, ExactnessError, coerce_row, div, mode_of,
                      near, sqrt_scalar)

REAL_SPHERE = "real-sphere"
HOROCYCLE = "horocycle"
VIRTUAL = "virtual"


@dataclass(frozen=True)
class HyperboloidPoint:
    """Point on the upper sheet: u_0 > 0 and u_0^2 - sum u_j^2 = 1."""

    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        if len(self.u) < 2:
            raise ValueError("need at least two coordinates")
        if not self.u[0] > 0:
            raise ValueError("not on the upper sheet, u_0 must be positive")
        q = self.u[0] * self.u[0] - sum(x * x for x in self.u[1:])
        if not near(q, 1, 1e-9):
            raise ValueError(f"not on the hyperboloid, u_0^2 - |u'|^2 = {q}")

    @property
    def n(self):
        return len(self.u) - 1


@dataclass(frozen=True)
class BallPoint:
    """Point of the unit-ball model: |y| < 1."""

    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(self.y))
        if not sum(float(v) * float(v) for v in self.y) < 1:
            raise ValueError("ball points need |y| < 1")

    @property
    def n(self):
        return len(self.y)


@dataclass(frozen=True)
class HyperbolicSphere:
    """Real hyperbolic sphere; row is the optional exact coordinate backing."""

    center: HyperboloidPoint
    radius: float
    row: tuple = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("hyperbolic radius must be positive")

    @property
    def n(self):
        return self.center.n

    @property
    def coth(self):
        """Exact when row-backed, float otherwise."""
        if self.row is not None:
            return self.row[0]
        return math.cosh(self.radius) / math.sinh(self.radius)


@dataclass(frozen=True)
class HypRowClass:
    """A coordinate row together with its locus classification."""

    classification: str
    row: forms.CoordRow

    def __post_init__(self):
        if self.classification not in (REAL_SPHERE, HOROCYCLE, VIRTUAL):
            raise ValueError(f"unknown classification {self.classification!r}")


def hyp_coords(sphere):
    """Coordinate row (coth s, u/sinh s) of a real sphere."""
    if sphere.row is not None:
        return forms.CoordRow(forms.HYPERBOLIC, sphere.row)
    sh = math.sinh(sphere.radius)
    ch = math.cosh(sphere.radius)
    entries = (ch / sh,) + tuple(float(x) / sh for x in sphere.center.u)
    return forms.CoordRow(forms.HYPERBOLIC, entries)


def classify_row(row, tol=DEFAULT_TOL):
    """Classify a valid row by its coth entry: real sphere beyond 1 in
    absolute value, horocycle at 1, virtual below."""
    entries = forms.unit_row_entries(forms.HYPERBOLIC, row, "row", tol)
    c = entries[0]
    coord = forms.CoordRow(forms.HYPERBOLIC, coerce_row(entries, mode_of(entries)))
    if near(abs(c), 1, tol):
        kind = HOROCYCLE
    elif abs(c) > 1:
        kind = REAL_SPHERE
    else:
        kind = VIRTUAL
    return HypRowClass(kind, coord)


def sphere_from_linear_form(g_vec, g):
    """Sphere cut by the slice {u : <g_vec, u> = g} with g_vec on the sheet.

    For g > 1 this is the real sphere of radius arccosh(g) about g_vec, with
    orientation carried by the sign of g.  At or below 1 no real sphere with
    positive radius exists and the row is returned with its classification
    instead: |g| = 1 classifies as horocycle, |g| < 1 as virtual, g < -1 as
    an orientation-reversed real sphere.  Rows with |g| > 1 are normalized
    to self product 1; the degenerate |g| <= 1 rows keep the raw entries
    (g, g_vec) as classification carriers only.
    """
    center = HyperboloidPoint(g_vec)
    mode = mode_of((g,) + center.u)
    if abs(g) > 1:
        try:
            inv_sinh = div(1, sqrt_scalar(g * g - 1))
            row = coerce_row(tuple(x * inv_sinh for x in (g,) + center.u),
                             mode)
        except ExactnessError:  # exact g with an irrational sinh
            row = None
        if g > 1:
            return HyperbolicSphere(center, math.acosh(float(g)), row=row)
        entries = row if row is not None else (g,) + center.u
        return HypRowClass(REAL_SPHERE,
                           forms.CoordRow(forms.HYPERBOLIC, entries))
    kind = HOROCYCLE if near(abs(g), 1, DEFAULT_TOL) else VIRTUAL
    raw = forms.CoordRow(forms.HYPERBOLIC, coerce_row((g,) + center.u, mode))
    return HypRowClass(kind, raw)


def ball_to_hyperboloid(p):
    """Unit ball to upper sheet: u_0 = 2/D - 1, u_j = 2 y_j/D, D = 1 - |y|^2."""
    y = p.y if isinstance(p, BallPoint) else tuple(p)
    inv = div(2, 1 - sum(v * v for v in y))
    return HyperboloidPoint((inv - 1,) + tuple(inv * v for v in y))


def hyperboloid_to_ball(u):
    """Upper sheet to unit ball: y_j = u_j / (1 + u_0)."""
    coords = u.u if isinstance(u, HyperboloidPoint) else tuple(u)
    denom = 1 + coords[0]
    return BallPoint(tuple(div(v, denom) for v in coords[1:]))


def cosh_distance_hyperboloid(u, v):
    """cosh of the distance, exact on exact points: u_0 v_0 - sum u_j v_j."""
    a = u.u if isinstance(u, HyperboloidPoint) else tuple(u)
    b = v.u if isinstance(v, HyperboloidPoint) else tuple(v)
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def cosh_distance_ball(p, q):
    """cosh of the distance between ball points, exact on exact points."""
    a = p.y if isinstance(p, BallPoint) else tuple(p)
    b = q.y if isinstance(q, BallPoint) else tuple(q)
    na = sum(v * v for v in a)
    nb = sum(v * v for v in b)
    dot = sum(x * y for x, y in zip(a, b))
    num = (1 + na) * (1 + nb) - 4 * dot
    den = (1 - na) * (1 - nb)
    return div(num, den)


def distance_hyperboloid(u, v):
    return math.acosh(max(1.0, float(cosh_distance_hyperboloid(u, v))))


def distance_ball(p, q):
    return math.acosh(max(1.0, float(cosh_distance_ball(p, q))))


def realize_sphere_config(coths):
    """One configuration of pairwise tangent rows with the given coth values.

    Works like the spherical realizer but under the Lorentz tail form
    diag(-1, 1, ..., 1), with first tail (c_1, 1, 0, ..., 0).  A coth entry
    of absolute value 1 admits the zero tail (the row of the ideal boundary
    itself), which is tried first.  Exact input yields an exact matrix or a
    ValueError.
    """
    return forms._realize_tangent_rows(
        forms.HYPERBOLIC, coths, "coth",
        lambda c0, one: ([()] if abs(c0) == 1 else []) + [(c0, one)])
