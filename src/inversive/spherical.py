"""Spherical caps on the unit n-sphere.

A cap with unit center y and angular radius alpha in (0, pi) has coordinate
row

    w+ = (cot alpha, y_0/sin alpha, ..., y_n/sin alpha)

and the Lorentz-like form J = diag(-1, 1, ..., 1) plays the role the
tangency form plays in the plane: w+ J w+ = 1 for every cap, and two caps
are externally tangent exactly when the product is -1.

Exactness lives at the row level.  A rational cot alpha almost always comes
with an irrational sin alpha, so exact caps carry their rational row and the
radian/center view is derived (and approximate) rather than stored.
"""

import math
from dataclasses import dataclass

from . import forms
from .scalars import EXACT, mode_of, near


@dataclass(frozen=True)
class SphericalCap:
    """Cap on the unit sphere; row is the optional exact coordinate backing."""

    center: tuple
    angular_radius: float
    row: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if not 0 < self.angular_radius < math.pi:
            raise ValueError("angular radius must lie in (0, pi)")
        norm2 = sum(float(y) * float(y) for y in self.center)
        if not near(norm2, 1, 1e-9):
            raise ValueError("cap center must be a unit vector")

    @property
    def n(self):
        return len(self.center) - 1

    @property
    def cot(self):
        """Exact when row-backed, float otherwise."""
        if self.row is not None:
            return self.row[0]
        return math.cos(self.angular_radius) / math.sin(self.angular_radius)


@dataclass(frozen=True)
class CapLinearForm:
    """Halfspace condition f_vec . y >= f cutting a cap out of the sphere."""

    f_vec: tuple
    f: object

    def __post_init__(self):
        object.__setattr__(self, "f_vec", tuple(self.f_vec))
        norm2 = sum(float(x) * float(x) for x in self.f_vec)
        if not near(norm2, 1, 1e-9):
            raise ValueError("linear form vector must be a unit vector")
        if not abs(float(self.f)) < 1:
            raise ValueError("constant term must satisfy |f| < 1; the "
                             "intersection is empty or degenerate otherwise")


def cap_coords(cap):
    """Coordinate row (cot alpha, y/sin alpha) of a cap."""
    if cap.row is not None:
        return forms.CoordRow(forms.SPHERICAL, cap.row)
    s = math.sin(cap.angular_radius)
    c = math.cos(cap.angular_radius)
    entries = (c / s,) + tuple(float(y) / s for y in cap.center)
    return forms.CoordRow(forms.SPHERICAL, entries)


def cap_from_coords(row):
    """Cap encoded by a coordinate row.

    The validity product row J row = 1 pins down sin alpha, so the row
    determines a unique alpha in (0, pi) and a unit center.  Exact rows are
    kept as the cap's backing so cot alpha stays rational.
    """
    entries = forms.unit_row_entries(forms.SPHERICAL, row, "cap row")
    c = float(entries[0])
    alpha = math.atan2(1.0, c)
    s = math.sin(alpha)
    center = tuple(float(q) * s for q in entries[1:])
    backing = entries if mode_of(entries) == EXACT else None
    return SphericalCap(center, alpha, row=backing)


def cap_from_linear_form(form):
    """Cap {y : f_vec . y >= f}: center f_vec, angular radius arccos(f)."""
    alpha = math.acos(float(form.f))
    return SphericalCap(tuple(float(x) for x in form.f_vec), alpha)


def complementary_cap(cap):
    """The closure of the cap's complement; angular radii sum to pi."""
    center = tuple(-y for y in cap.center)
    backing = None if cap.row is None else tuple(-x for x in cap.row)
    return SphericalCap(center, math.pi - cap.angular_radius, row=backing)


def realize_cap_config(cots):
    """One configuration of pairwise tangent caps with the given cot values.

    Rows are found sequentially: the first tail is (1, c_1, 0, ..., 0) and
    each later tail solves the linear tangency conditions against the
    earlier rows plus its own quadratic norm condition.  With rational cots
    the search sticks to rational tails and raises if none of its candidate
    branches closes, so a returned matrix is exact whenever the input is.
    """
    return forms._realize_tangent_rows(forms.SPHERICAL, cots, "cot",
                                       lambda c0, one: [(one, c0)])
