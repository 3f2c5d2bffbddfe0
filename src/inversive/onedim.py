"""Oriented intervals on the line and the 3x3 augmented identity.

Three intervals cover the line: two touching finite ones and the infinite
complement of their union, whose "radius" is minus half the complement's
length, so the three oriented radii sum to zero.  Each interval gets an
augmented row (bbar, b, b*center) exactly as circles do, except that the
infinite interval has no center of its own: its curvature-times-center
entry is defined through the reflection x -> 1/x, which maps it to a finite
interval.  When 0 is not interior to the complement that reflection fails
to produce a finite image, so the recipe is applied in a shifted frame
centered on the complement and the row is translated back afterwards.

The resulting 3x3 matrix W satisfies W^T Q_1 W = [[0,-4,0],[-4,0,0],[0,0,2]]
with Q_1 the Descartes form on three variables.
"""

from dataclasses import dataclass

from . import forms
from .scalars import div, mode_of


@dataclass(frozen=True)
class OrientedInterval:
    """Finite interval [a, b], or the complement of (a, b) when infinite.

    The oriented radius is half the length, negated for the infinite
    interval, so complementary pairs have opposite radii.  A float interval
    whose radius rounds to zero, half a subnormal length, has no curvature
    and raises ValueError.
    """

    a: object
    b: object
    infinite: bool = False

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not self.r:
            raise ValueError(f"interval ({self.a}, {self.b}) has a radius "
                             "that rounds to zero")

    @property
    def r(self):
        length = div(self.b - self.a, 2)
        return -length if self.infinite else length

    @property
    def curvature(self):
        return div(1, self.r)


@dataclass(frozen=True)
class OneDimConfig:
    """Two touching finite intervals plus the infinite complement."""

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if len(self.intervals) != 3:
            raise ValueError("need exactly three intervals")
        finite = [i for i in self.intervals if not i.infinite]
        inf = [i for i in self.intervals if i.infinite]
        if len(inf) != 1:
            raise ValueError("need exactly one infinite interval")
        lo = min(i.a for i in finite)
        hi = max(i.b for i in finite)
        f1, f2 = finite
        touching = f1.b == f2.a or f2.b == f1.a
        if not touching:
            raise ValueError("finite intervals must share exactly one endpoint")
        if inf[0].a != lo or inf[0].b != hi:
            raise ValueError("infinite interval must complement the union")

    @property
    def mode(self):
        return mode_of(tuple(x for i in self.intervals for x in (i.a, i.b)))


def complete_line(i1, i2):
    """Configuration of two touching finite intervals and their complement."""
    for i in (i1, i2):
        if i.infinite:
            raise ValueError("inputs must be finite intervals")
    if not (i1.b == i2.a or i2.b == i1.a):
        if i1.b < i2.a or i2.b < i1.a:
            raise ValueError("intervals do not touch")
        raise ValueError("intervals overlap")
    lo = min(i1.a, i2.a)
    hi = max(i1.b, i2.b)
    return OneDimConfig((i1, i2, OrientedInterval(lo, hi, infinite=True)))


def _finite_row(interval):
    a, b = interval.a, interval.b
    length = b - a
    curv = div(2, length)
    # image of [a, b] under x -> 1/x has oriented curvature 2ab/(b - a),
    # covering the 0-in-interior and 0-endpoint cases uniformly
    bbar = div(2 * a * b, length)
    center = div(a + b, 2)
    return (bbar, curv, curv * center)


def _infinite_row(interval):
    length = interval.b - interval.a
    shift = div(interval.a + interval.b, 2)
    # in the frame shifted by -shift the complement is symmetric around 0,
    # x -> 1/x maps the infinite interval onto [-2/L, 2/L], and that image
    # has curvature L/2 and center 0
    curv = -div(2, length)
    return (div(length, 2) + shift * shift * curv, curv, curv * shift)


def augmented_1d(config):
    """3x3 augmented matrix of a covering configuration, rows in input
    order; satisfies the n = 1 Gram identity exactly on exact input."""
    rows = [_infinite_row(i) if i.infinite else _finite_row(i)
            for i in config.intervals]
    return forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows, mode=config.mode)


def solve_third_curvature(a2, a3):
    """The unique curvature completing two touching intervals: Q_1 is linear
    in each variable, so unlike higher dimensions there is no second
    solution and reflections fix the configuration."""
    s = a2 + a3
    if s == 0:
        raise ValueError("degenerate pair, curvatures cancel")
    return div(-a2 * a3, s)
