"""Hyperbolic spheres: models, distances, classification, realization."""

import math
import random
from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, hyperbolic
from inversive.scalars import EXACT


HORO_ROWS = ((-1, 0, 0, 0), (1, 1, 1, 0), (1, 1, -1, 0), (1, 2, 0, 2))
DEEP_ROWS = ((-2, -2, 1, 0), (3, 3, -1, 0), (5, 7, -5, 0), (6, 8, -5, 2))


def test_ball_hyperboloid_roundtrip_exact():
    p = hyperbolic.BallPoint((F(1, 2), F(0)))
    u = hyperbolic.ball_to_hyperboloid(p)
    assert u.u == (F(5, 3), F(4, 3), F(0))
    back = hyperbolic.hyperboloid_to_ball(u)
    assert back.y == (F(1, 2), F(0))


def test_ball_hyperboloid_roundtrip_random(rng):
    for _ in range(50):
        y = (F(rng.randrange(-80, 81), 100), F(rng.randrange(-50, 51), 100))
        p = hyperbolic.BallPoint(y)
        assert hyperbolic.hyperboloid_to_ball(hyperbolic.ball_to_hyperboloid(p)).y == y


def test_cosh_distance_two_routes_agree(rng):
    # ball-model formula against the Minkowski product on the hyperboloid
    for _ in range(50):
        a = hyperbolic.BallPoint((F(rng.randrange(-70, 71), 100),
                                  F(rng.randrange(-70, 71), 100)))
        b = hyperbolic.BallPoint((F(rng.randrange(-70, 71), 100),
                                  F(rng.randrange(-70, 71), 100)))
        lhs = hyperbolic.cosh_distance_ball(a, b)
        ua = hyperbolic.ball_to_hyperboloid(a)
        ub = hyperbolic.ball_to_hyperboloid(b)
        rhs = hyperbolic.cosh_distance_hyperboloid(ua, ub)
        assert lhs == rhs
        assert hyperbolic.distance_hyperboloid(ua, ub) == pytest.approx(
            hyperbolic.distance_ball(a, b))


def test_cosh_distance_oracle():
    a = hyperbolic.BallPoint((F(0), F(0)))
    b = hyperbolic.BallPoint((F(1, 2), F(0)))
    assert hyperbolic.cosh_distance_ball(a, b) == F(5, 3)
    assert hyperbolic.distance_ball(a, b) == pytest.approx(math.acosh(5 / 3))
    # rounding guard: coincident points never feed acosh below 1
    assert hyperbolic.distance_ball(a, a) == 0.0


def test_point_validation():
    with pytest.raises(ValueError):
        hyperbolic.BallPoint((F(1), F(0)))
    with pytest.raises(ValueError):
        hyperbolic.HyperboloidPoint((F(-5, 3), F(4, 3), F(0)))
    with pytest.raises(ValueError):
        hyperbolic.HyperboloidPoint((F(2), F(0), F(0)))


def test_classify_row():
    absolute = hyperbolic.classify_row((F(-1), F(0), F(0), F(0)))
    assert absolute.classification == hyperbolic.HOROCYCLE
    horo = hyperbolic.classify_row((F(1), F(1), F(1), F(0)))
    assert horo.classification == hyperbolic.HOROCYCLE
    virt = hyperbolic.classify_row((F(0), F(0), F(1), F(0)))
    assert virt.classification == hyperbolic.VIRTUAL
    real = hyperbolic.classify_row((F(-2), F(-2), F(1), F(0)))
    assert real.classification == hyperbolic.REAL_SPHERE
    with pytest.raises(ValueError):
        hyperbolic.classify_row((F(1), F(1), F(1), F(1)))


def test_hyp_coords_row_backing():
    sphere = hyperbolic.sphere_from_linear_form((F(1), F(0), F(0)), F(5, 4))
    assert sphere.row == (F(5, 3), F(4, 3), F(0), F(0))
    assert sphere.coth == F(5, 3)
    assert sphere.center.u == (F(1), F(0), F(0))
    assert hyperbolic.hyp_coords(sphere).entries == sphere.row
    assert forms.pair_product(forms.HYPERBOLIC, sphere.row, sphere.row) == 1


def test_sphere_from_linear_form_branches():
    real = hyperbolic.sphere_from_linear_form((F(1), F(0), F(0)), F(2))
    assert isinstance(real, hyperbolic.HyperbolicSphere)
    assert real.coth == pytest.approx(2 / math.sqrt(3))
    flipped = hyperbolic.sphere_from_linear_form((F(1), F(0), F(0)), F(-2))
    assert isinstance(flipped, hyperbolic.HypRowClass)
    assert flipped.classification == hyperbolic.REAL_SPHERE
    horo = hyperbolic.sphere_from_linear_form((F(1), F(0), F(0)), F(1))
    assert horo.classification == hyperbolic.HOROCYCLE
    virt = hyperbolic.sphere_from_linear_form((F(1), F(0), F(0)), F(1, 2))
    assert virt.classification == hyperbolic.VIRTUAL


def test_soddy_check():
    def residual(coths):
        return forms.bend_residual(forms.HYPERBOLIC, coths)

    assert residual((F(-1), F(1), F(1), F(1))) == 0
    assert residual((F(-2), F(3), F(5), F(6))) == 0
    assert residual((F(1), F(1), F(1), F(1))) == -6
    assert abs(residual((-1.0, 1.0, 1.0, 1.0))) < 1e-12


def _hyp_gram_ok(w):
    res = forms.check_identity(
        w, forms.descartes_form(w.n, w.mode),
        forms.target_for(forms.HYPERBOLIC, w.n, w.mode),
        tol=1e-9,
    )
    return res.ok


def test_realize_horocycle_seed():
    w = hyperbolic.realize_sphere_config((F(-1), F(1), F(1), F(1)))
    assert tuple(r.entries for r in w.rows) == HORO_ROWS
    assert _hyp_gram_ok(w)


def test_realize_deep_seed():
    w = hyperbolic.realize_sphere_config((F(-2), F(3), F(5), F(6)))
    assert tuple(r.entries for r in w.rows) == DEEP_ROWS
    assert _hyp_gram_ok(w)


def test_realize_deep_seed_float_matches_exact():
    # the exact realization passes a double root at row 2; in float its
    # discriminant rounds to about 3.5e-15, which must not strand row 3
    w = apollonian.realize_bends(forms.HYPERBOLIC, (-2.0, 3.0, 5.0, 6.0))
    for row, exact in zip(w.rows, DEEP_ROWS):
        assert row.entries == pytest.approx(exact, abs=1e-9)
    assert _hyp_gram_ok(w)


def test_realize_rejects_bad_coths():
    with pytest.raises(ValueError):
        hyperbolic.realize_sphere_config((F(-1), F(1), F(1), F(2)))


def test_tangency_products_on_realized():
    for rows in (HORO_ROWS, DEEP_ROWS):
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                expect = 1 if i == j else -1
                assert forms.pair_product(forms.HYPERBOLIC, a, b) == expect
