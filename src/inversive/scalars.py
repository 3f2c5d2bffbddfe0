"""Dual-mode scalar arithmetic.

Every quantity in this package is either exact (python Fraction, with int
accepted and normalized) or floating point.  Operations stay generic over the
mode; the helpers here are the only place the two modes are told apart.
"""

import math
from fractions import Fraction
from sys import float_info

DEFAULT_TOL = 1e-9

# the bound on the residual of a quadratic relation in float values scaled
# to at most 1: the rounding of the values and of the residual's sums of
# products
ROUNDING = 64 * float_info.epsilon

EXACT = "exact"
FLOAT = "float"


class ExactnessError(ArithmeticError):
    """Raised when a result is irrational but exact arithmetic was requested."""


def is_exact(x):
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


_EXACT_TYPES = frozenset((Fraction, int))


def all_exact(values):
    if not isinstance(values, (tuple, list)):
        values = tuple(values)
    # the type test settles the common case; the full one sees subclasses
    return _EXACT_TYPES.issuperset(map(type, values)) or \
        all(map(is_exact, values))


def mode_of(values):
    return EXACT if all_exact(values) else FLOAT


def coerce(x, mode):
    """Normalize one scalar to the requested mode.

    Exact mode accepts ints, Fractions and p/q strings; floats are rejected
    rather than silently rationalized.
    """
    if mode == EXACT:
        if type(x) is Fraction:  # immutable, so the value itself will do
            return x
        if isinstance(x, float):
            raise ExactnessError(f"float {x!r} not accepted in exact mode")
        return Fraction(x)
    return float(x)


# the one type coerce gives every scalar of a mode
_FRACTIONS = frozenset((Fraction,))
_FLOATS = frozenset((float,))


def of_mode_type(values, mode):
    """Whether every value is exactly of the type coerce gives in mode, so
    that coercing would return each value as it is."""
    types = _FRACTIONS if mode == EXACT else _FLOATS
    return types.issuperset(map(type, values))


def coerce_row(values, mode):
    """The values coerced to mode, as a tuple; a row already of the mode's
    type is returned without a coerce call per entry."""
    values = tuple(values)
    if of_mode_type(values, mode):
        return values
    return tuple([coerce(x, mode) for x in values])


def integer_rows(rows):
    """(int rows, s) for exact rows: the rows times the least common
    multiple s of their denominators, as tuples of ints."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    s = math.lcm(*[d for row in ratios for _, d in row])
    return tuple([tuple([a * (s // d) for a, d in row]) for row in ratios]), s


def reduced_rows(rows, scale):
    """The frame of scaled_rows of the values x / scale, as tuples: int rows
    over a positive int scale divided with it by their one gcd, so that the
    scale is the LCM of the reduced denominators, and float rows over 1.0
    as they are."""
    if scale.__class__ is float:
        return tuple(map(tuple, rows)), scale
    g = math.gcd(scale, *[x for row in rows for x in row])
    if g == 1:
        return tuple(map(tuple, rows)), scale
    return tuple([tuple([x // g for x in row]) for row in rows]), scale // g


def scaled_rows(rows, mode):
    """(rows, scale): the frame in which a kernel runs one body for both
    modes.

    Exact mode gives the int rows and the LCM scale of integer_rows, so
    that frame_quotient(EXACT)(x, scale) is an entry of the input again and
    only results become Fractions.  Float mode gives the rows as floats and
    1.0, over which frame_quotient(FLOAT) is true division.
    """
    if mode == EXACT:
        return integer_rows(rows)
    return tuple([tuple(map(float, row)) for row in rows]), 1.0


def frame_quotient(mode):
    """The quotient(x, scale) that takes an int or Fraction entry x of an
    int frame back to mode: Fraction, or the float x / scale rounds to (int
    true division rounds correctly, and so does float() of a Fraction)."""
    return Fraction if mode == EXACT else _rounded_quotient


def _rounded_quotient(x, scale):
    return float(x / scale)


def unscaled_rows(rows, scale, mode):
    """Rows of an int frame back in the mode, each entry x the
    frame_quotient(mode)(x, scale); the float rows of a float frame
    (scaled_rows, over 1.0) as they are.

    Float mode makes one correctly rounded true division per entry: x /
    scale for an int entry, and float(x / scale) for a Fraction entry (the
    frames of walks with n >= 4), since a Fraction over an int is a
    Fraction.  Exact mode makes one Fraction per distinct entry: building
    them is the cost there, and a packing repeats its entries (equal bends,
    mirrored centers).
    """
    if scale.__class__ is float:
        return rows
    if mode != EXACT:
        return tuple([tuple([x / scale if x.__class__ is int
                             else float(x / scale) for x in row])
                      for row in rows])
    # Fraction(x) is quicker than Fraction(x, 1)
    unscaled = {x: Fraction(x) if scale == 1 else Fraction(x, scale)
                for x in {x for row in rows for x in row}}.__getitem__
    return tuple([tuple(map(unscaled, row)) for row in rows])


def div(a, b):
    """a / b, a Fraction when both operands are exact (so 1/3 stays 1/3)."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) / b
    return a / b


def rational_sqrt(q):
    """Square root of a nonnegative Fraction, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def sqrt_scalar(x):
    """Mode-aware square root.

    For exact input the root must itself be rational, otherwise
    ExactnessError is raised (callers fall back to float mode explicitly).
    """
    if x < 0:
        raise ValueError(f"sqrt({x}) of a negative scalar")
    if is_exact(x):
        root = rational_sqrt(Fraction(x))
        if root is None:
            raise ExactnessError(f"sqrt({x}) is irrational; use float mode")
        return root
    return math.sqrt(x)


def near(x, y, tol=DEFAULT_TOL):
    """Equality up to tol, exact equality when both sides are exact."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(x - y) <= tol


def negligible(residual, values, tol=DEFAULT_TOL, others=None):
    """Whether the residual of a relation quadratic in values is zero:
    within tol, or within ROUNDING after dividing by m = max(1, max|values|)
    twice, the rounding error of float values of size m.  For a relation
    bilinear in values and others the second division is by max(1,
    max|others|) instead.

    When the residual, the values and others are all exact, the residual
    must be zero: no rounding made it, and dividing ints would round.
    A nan residual is never negligible.  The values are only read when the
    residual is not within tol.
    """
    if near(residual, 0, tol):
        return True
    if is_exact(residual) and all_exact(values) and \
            (others is None or all_exact(others)):
        return False
    m = max(1, max(map(abs, values)))
    k = m if others is None else max(1, max(map(abs, others)))
    return near(residual / m / k, 0, ROUNDING)
