"""Exact/float scalar layer: coercion, mode detection, square roots."""

import math
from fractions import Fraction as F
from operator import truediv

import pytest

from inversive import scalars
from inversive.scalars import EXACT, FLOAT, ExactnessError


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


def test_rational_sqrt():
    assert scalars.rational_sqrt(F(9, 4)) == F(3, 2)
    assert scalars.rational_sqrt(F(0)) == 0
    assert scalars.rational_sqrt(F(2)) is None
    assert scalars.rational_sqrt(F(49)) == 7


def test_sqrt_scalar():
    assert scalars.sqrt_scalar(F(9, 4)) == F(3, 2)
    assert scalars.sqrt_scalar(2.0) == pytest.approx(math.sqrt(2))
    with pytest.raises(ExactnessError, match="irrational"):
        scalars.sqrt_scalar(F(2))
    with pytest.raises(ValueError):
        scalars.sqrt_scalar(F(-1))


def test_near():
    assert scalars.near(F(1), F(1), 0)
    assert scalars.near(1.0, 1.0 + 1e-12, 1e-9)
    assert not scalars.near(1.0, 1.1, 1e-9)


@pytest.mark.parametrize("residual, values, others", (
    (5, (10**30, 5), None),
    (-7, (1, 10**30), None),
    (10**30, (10**30, 1), None),
    (3, (10**20, 2), (10**25,)),
    (1, (F(10**30, 7), 2), None),
))
def test_exact_residuals_must_be_zero(residual, values, others):
    # ints are exact: dividing them by the values' sizes rounded to floats
    # and called a nonzero residual negligible
    twin = (F(residual), tuple(map(F, values)),
            None if others is None else tuple(map(F, others)))
    assert not scalars.negligible(residual, values, others=others)
    assert not scalars.negligible(*twin[:2], others=twin[2])
    assert scalars.negligible(0, values, others=others)
    # float values this large round away residuals this small
    assert scalars.negligible(float(residual), tuple(map(float, values)),
                              others=others)


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
