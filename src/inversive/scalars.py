"""Dual-mode scalar arithmetic.

Every quantity in this package is either exact (python Fraction, with int
accepted and normalized) or floating point.  Operations stay generic over the
mode; the helpers here coerce scalars, frame rows (scaled_rows,
integer_rows), take them out of an int frame (mode_frame, unscaled_rows),
fold float sums (_sum) and compare within tolerances.  None of them takes a
square root.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add
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


def coerce_row(values, mode):
    """The values coerced to mode, as a tuple; a row already of the mode's
    type is returned without a coerce call per entry."""
    values = tuple(values)
    if (_FRACTIONS if mode == EXACT else _FLOATS).issuperset(map(type, values)):
        return values
    return tuple([coerce(x, mode) for x in values])


def integer_rows(rows):
    """(int rows, s) for exact rows: the rows times the least common
    multiple s of their denominators, as tuples of ints."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    s = math.lcm(*[d for row in ratios for _, d in row])
    return tuple([tuple([a * (s // d) for a, d in row]) for row in ratios]), s


def mode_frame(rows, scale, mode):
    """The frame (scaled_rows) in mode of the values x / scale, x the int or
    Fraction entries of rows and scale a positive int: the one way out of
    an int frame.  Exact rows are put on ints (integer_rows) and divided
    with the scale by their one gcd, so that the scale is the LCM of the
    reduced denominators; float rows are each entry divided once, rounded
    (unscaled_rows), over 1.0, and float rows over 1.0 are kept."""
    if mode != EXACT:
        return unscaled_rows(rows, scale, mode), 1.0
    try:
        g = math.gcd(scale, *[x for row in rows for x in row])
    except TypeError:  # a Fraction entry, as of walks in n > 3
        rows, denominator = integer_rows(rows)
        return mode_frame(rows, scale * denominator, mode)
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

    Float mode rounds each x / scale once: over a scale 2^k, 53 <= k <=
    1022, as float(x) times the exact 2^-k, normal for ints x != 0, which
    is quicker than dividing ints past 2^53 (one map over the flattened
    rows, all of one width, regrouped by zip); else, on a smaller scale (whose
    ints mostly divide as doubles), Fraction entries (walks with n >= 4) or
    past the float range, by one true division per entry.  Exact mode makes
    one Fraction per distinct entry: building them is the cost there, and a
    packing repeats its entries (equal bends, mirrored centers).
    """
    if scale.__class__ is float:
        return rows
    if mode != EXACT:
        if not scale & (scale - 1) and 53 < scale.bit_length() <= 1023:
            flat = map((1.0 / scale).__mul__,
                       map(int.__float__, chain.from_iterable(rows)))
            try:  # regrouped into rows of the first row's width
                return tuple(zip(*[flat] * len(rows[0]))) if rows else ()
            except (TypeError, OverflowError):
                pass
        return tuple([tuple([x / scale if x.__class__ is int
                             else float(x / scale) for x in row])
                      for row in rows])
    # Fraction(x) is quicker than Fraction(x, 1)
    unscaled = {x: Fraction(x) if scale == 1 else Fraction(x, scale)
                for x in {x for row in rows for x in row}}.__getitem__
    return tuple([tuple(map(unscaled, row)) for row in rows])


def _sum(values, start=0):
    """sum() of floats as before Python 3.12: left to right, uncompensated.
    Int sums use the built-in sum(): their order cannot change their value,
    and its int fast path is quicker."""
    return reduce(add, values, start)


def div(a, b):
    """a / b, a Fraction when both operands are exact (so 1/3 stays 1/3)."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) / b
    return a / b


def near(x, y, tol=DEFAULT_TOL):
    """Equality up to tol, exact equality when both sides are exact."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(x - y) <= tol


def negligible(residual, values, scale):
    """Whether the residual of a relation quadratic in values is zero:
    within DEFAULT_TOL, or within ROUNDING after dividing by m = max(1, max|values|)
    twice, the rounding error of float values of size m.  The residual is
    given times scale^2, scale 1 or, for a float residual, a power of two
    below 1: the relation's residual on the values times scale, so that a
    residual past the float range is judged too.

    When the residual and the values are all exact, the residual must be
    zero: no rounding made it, and dividing ints would round.  A nan
    residual is never negligible.  The values are only read when the
    residual is not within DEFAULT_TOL.
    """
    if near(residual, 0, DEFAULT_TOL * scale * scale):
        return True
    if is_exact(residual) and all_exact(values):
        return False
    m = max(1, max(map(abs, values))) * scale
    return near(residual / m / m, 0, ROUNDING)
