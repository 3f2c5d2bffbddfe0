"""Exact/float scalar layer: coercion, mode detection, frames."""

import math
import random
from fractions import Fraction as F
from operator import truediv

import pytest

from inversive import scalars
from inversive.scalars import EXACT, FLOAT


def test_mode_detection():
    assert scalars.is_exact(F(1, 3))
    assert scalars.is_exact(4)
    assert not scalars.is_exact(0.25)
    assert scalars.mode_of([F(1), 2, F(-3, 7)]) == EXACT
    assert scalars.mode_of([F(1), 2.0]) == FLOAT
    assert scalars.all_exact((1, F(2))) and not scalars.all_exact((1, 2.0))


def test_coerce():
    assert scalars.coerce(3, EXACT) == F(3)
    assert isinstance(scalars.coerce(3, EXACT), F)
    assert scalars.coerce(F(1, 2), FLOAT) == 0.5
    assert isinstance(scalars.coerce(F(1, 2), FLOAT), float)
    row = scalars.coerce_row([1, F(1, 2), 3], EXACT)
    assert row == (F(1), F(1, 2), F(3))
    assert all(isinstance(x, F) for x in row)


def test_near():
    assert scalars.near(F(1), F(1), 0)
    assert scalars.near(1.0, 1.0 + 1e-12, 1e-9)
    assert not scalars.near(1.0, 1.1, 1e-9)


@pytest.mark.parametrize("residual, values", (
    (5, (10**30, 5)),
    (-7, (1, 10**30)),
    (10**30, (10**30, 1)),
    (1, (F(10**30, 7), 2)),
))
def test_exact_residuals_must_be_zero(residual, values):
    # ints are exact: dividing them by the values' sizes rounded to floats
    # and called a nonzero residual negligible
    assert not scalars.negligible(residual, values, 1)
    assert not scalars.negligible(F(residual), tuple(map(F, values)), 1)
    assert scalars.negligible(0, values, 1)
    # float values this large round away residuals this small
    assert scalars.negligible(float(residual), tuple(map(float, values)), 1)


def test_scaled_rows():
    rows = ((F(1, 2), F(-1, 3), F(0), F(1)), (F(5, 6), F(2), F(1, 4), F(0)))
    scaled, scale = scalars.scaled_rows(rows, EXACT)
    assert scale == 12
    assert scaled == ((6, -4, 0, 12), (10, 24, 3, 0))
    assert all(type(x) is int for r in scaled for x in r)
    integral, one = scalars.scaled_rows(((F(3), F(-1)),), EXACT)
    assert one == 1 and integral == ((3, -1),)

    floats, scale = scalars.scaled_rows(((0.5, -0.0), (F(1, 4), 3)), FLOAT)
    assert scale == 1.0
    assert floats == ((0.5, 0.0), (0.25, 3.0))
    assert all(type(x) is float for r in floats for x in r)
    assert math.copysign(1.0, floats[0][1]) == -1.0


def test_frame_quotient():
    rows = ((F(1, 2), F(-1, 3), F(0), F(1)), (F(5, 6), F(2), F(1, 4), F(0)))
    scaled, scale = scalars.scaled_rows(rows, EXACT)
    quotient = scalars.frame_quotient(EXACT)
    assert quotient is F
    back = tuple(tuple(quotient(x, scale) for x in r) for r in scaled)
    assert back == rows and all(type(x) is F for r in back for x in r)

    # over the 1.0 of a float frame the float quotient is true division,
    # to the bit
    floats, one = scalars.scaled_rows(((0.5, -0.0), (F(1, 3), 3)), FLOAT)
    quotient = scalars.frame_quotient(FLOAT)
    for x in (x for r in floats for x in r):
        q = quotient(x, one)
        assert type(q) is float and repr(q) == repr(truediv(x, one))
    # an int frame's entry is rounded once
    assert quotient(1, 3) == 1 / 3 and quotient(10 ** 400, 10 ** 399) == 10.0


def test_float_frames_leave_by_one_rounded_division():
    # every entry x of an int frame over scale leaves in float mode as
    # float(Fraction(x, scale)), a float, for int and Fraction entries
    # alike: float(x) / scale would round twice, and a Fraction over an
    # int stays a Fraction until float() of it
    scale = 3 * 2 ** 70
    rows = (((2 ** 53 + 1) << 70, -(2 ** 53 + 1), 0, 10 ** 320),
            (F(2 ** 123 + 1, 7), F(-(2 ** 53 + 1), 5), F(0), F(10 ** 320, 7)))
    out = scalars.unscaled_rows(rows, scale, FLOAT)
    assert [[(type(x), x) for x in r] for r in out] == [
        [(float, float(F(x, scale))) for x in r] for r in rows]
    # (2^53 + 1) / 3 is an int, and float(2^53 + 1) is 2^53
    assert out[0][0] == 3002399751580331.0 != float(rows[0][0]) / scale
    # an entry past the float range raises, as the loxodromic replay needs
    for x in (10 ** 400, F(10 ** 400, 7)):
        with pytest.raises(OverflowError):
            scalars.unscaled_rows(((1, x),), 3, FLOAT)
    # exact mode keeps its Fractions
    exact = scalars.unscaled_rows(rows[:1], scale, EXACT)
    assert exact == (tuple(F(x, scale) for x in rows[0]),)
    assert {type(x) for x in exact[0]} == {F}


def _divided(rows, scale):
    """The float exit of an int frame as one true division per entry,
    rounded once: the reference of unscaled_rows in float mode."""
    return tuple(tuple(x / scale if type(x) is int else float(x / scale)
                       for x in row) for row in rows)


def _hexes_or_error(f, rows, scale):
    try:
        out = f(rows, scale)
    except Exception as e:  # the exception type is compared
        return type(e)
    assert all(type(x) is float for row in out for x in row)
    return [[x.hex() for x in row] for row in out]


def _exit_rows(entries, width=4):
    """The entries as rows of a frame, all of one width, padded by ones."""
    entries = list(entries) + [1] * (-len(entries) % width)
    return tuple(tuple(entries[i:i + width])
                 for i in range(0, len(entries), width))


def test_float_exit_is_one_rounded_division_per_entry():
    # over a power-of-two scale 2^k, k <= 1022, unscaled_rows multiplies
    # float(x) by 2^-k; every other frame divides per entry.  Both must
    # give the bits of x / scale, or raise as it does
    rng = random.Random(36)
    edge = [0, 1, -1, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 54 + 2, 2 ** 53 - 1,
            2 ** 1023, -(2 ** 1023), 2 ** 1024 - 2 ** 970 - 1,
            (2 ** 53 - 1) << 971]
    edge += [rng.getrandbits(rng.randrange(1, 1024)) * rng.choice((1, -1))
             for _ in range(60)]
    # below 2^1024 - 2^970, which rounds to 2^1024
    edge += [rng.randrange(2 ** 1023, 2 ** 1024 - 2 ** 970) for _ in range(7)]
    rows = _exit_rows(edge)
    scales = ([2 ** k for k in range(1023)] + [2 ** 1023, 2 ** 1100]
              + [3 * 2 ** 10, 10 ** 6])
    fast = lambda rows, scale: scalars.unscaled_rows(rows, scale, FLOAT)
    for scale in scales:
        want = _hexes_or_error(_divided, rows, scale)
        assert isinstance(want, list)
        assert _hexes_or_error(fast, rows, scale) == want, scale
    # Fraction entries, as of walks with n >= 4; quotients that are
    # subnormal tell one rounding from two
    fractions = [F(rng.getrandbits(64) | 1, 3 * 2 ** rng.randrange(990, 1040))
                 for _ in range(200)]
    fractions += [F(2 ** 123 + 1, 7), F(-(2 ** 53 + 1), 5), F(0), 5]
    for k in (0, 20, 40, 60, 80, 1022):
        frows = _exit_rows(fractions)
        got = _hexes_or_error(fast, frows, 2 ** k)
        assert got == _hexes_or_error(_divided, frows, 2 ** k), k
    # entries of 2^1024 and more: a quotient in the float range is rounded
    # as any other, one past it raises OverflowError at every scale
    for x, scale in ((2 ** 1030, 2 ** 10), (-(2 ** 1030), 2 ** 7),
                     (2 ** 1024, 1), (2 ** 1024 - 1, 1), (2 ** 1024 - 1, 2),
                     (2 ** 1024 - 2 ** 970, 1), (2 ** 1100, 2 ** 20), (2 ** 1024, 3),
                     (10 ** 400, 10 ** 6), (F(10 ** 400, 7), 2 ** 4),
                     (2 ** 2000, 2 ** 1100)):
        xrows = ((1, 2, 3, x),)
        got = _hexes_or_error(fast, xrows, scale)
        assert got == _hexes_or_error(_divided, xrows, scale), (x, scale)


@pytest.mark.parametrize("width", (1, 3, 4, 7, 12))
def test_float_exit_keeps_the_rows_of_every_width(width):
    # the power-of-two exit maps the flattened rows and regroups them by
    # zip: every width gives back the rows of _divided, a Fraction or an
    # entry past the float range in the last row included
    rng = random.Random(width)
    entries = [rng.getrandbits(rng.randrange(1, 200)) * rng.choice((1, -1))
               for _ in range(6 * width)]
    rows = _exit_rows(entries, width)
    fast = lambda rows, scale: scalars.unscaled_rows(rows, scale, FLOAT)
    for scale in (2 ** 54, 2 ** 80, 2 ** 1022):
        got = _hexes_or_error(fast, rows, scale)
        assert got == _hexes_or_error(_divided, rows, scale), scale
        assert len(got) == 6 and {len(row) for row in got} == {width}
        for last in (F(1, 3), 2 ** 1100):
            edited = rows[:-1] + (rows[-1][:-1] + (last,),)
            assert _hexes_or_error(fast, edited, scale) == \
                _hexes_or_error(_divided, edited, scale), (scale, last)
    assert scalars.unscaled_rows((), 2 ** 60, FLOAT) == ()
