"""Hyperbolic spheres: the Soddy relation, realization, tangency."""

from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, hyperbolic


HORO_ROWS = ((-1, 0, 0, 0), (1, 1, 1, 0), (1, 1, -1, 0), (1, 2, 0, 2))
DEEP_ROWS = ((-2, -2, 1, 0), (3, 3, -1, 0), (5, 7, -5, 0), (6, 8, -5, 2))


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
