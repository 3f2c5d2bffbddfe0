"""Oriented intervals on the line and the 3x3 augmented identity.

Three intervals cover the line: two touching finite ones and the infinite
complement of their union, whose "radius" is minus half the complement's
length, so the three oriented radii sum to zero.  Each interval gets an
augmented row (bbar, b, b*center) exactly as circles do: a finite [a, b]
of length L = b - a has the row (2ab/L, 2/L, (a+b)/L), whose bbar is the
curvature of its image under x -> 1/x, and the complement of (a, b) has
the negated row.  Each row is formed from the exact values of its
endpoints, so a float entry is rounded once.

The resulting 3x3 matrix W satisfies W^T Q_1 W = [[0,-4,0],[-4,0,0],[0,0,2]]
with Q_1 the Descartes form on three variables.
"""

from dataclasses import dataclass
from fractions import Fraction

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


def _row(interval):
    a, b = Fraction(interval.a), Fraction(interval.b)
    length = b - a
    row = (2 * a * b / length, 2 / length, (a + b) / length)
    return tuple([-x for x in row]) if interval.infinite else row


def augmented_1d(config):
    """3x3 augmented matrix of a covering configuration, rows in input
    order, each entry computed exactly from the endpoints and rounded once
    in float mode; satisfies the n = 1 Gram identity exactly on exact
    input.  A float entry beyond the float range raises ValueError."""
    rows = [_row(i) for i in config.intervals]
    try:
        return forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows,
                                            mode=config.mode)
    except OverflowError:
        raise ValueError("an entry of the configuration of these intervals "
                         "is beyond the float range") from None
