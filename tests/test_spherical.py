"""Caps on the unit sphere: coordinates, tangency, Soddy relation, realization."""

import math
from fractions import Fraction as F

import pytest

from inversive import forms, spherical
from inversive.scalars import EXACT

import oracles


SEED_ROWS = ((0, 1, 0, 0), (1, -1, 1, 0), (1, -1, -1, 0), (2, -1, 0, 2))


def test_cap_coords_from_row_backing():
    cap = oracles.cap_from_coords((F(0), F(1), F(0), F(0)))
    assert cap.row == (0, 1, 0, 0)
    assert cap.cot == 0
    assert cap.angular_radius == pytest.approx(math.pi / 2)
    assert oracles.cap_coords(cap).entries == (0, 1, 0, 0)


def test_cap_coords_float():
    alpha = 0.7
    center = (0.6, 0.8, 0.0)
    cap = oracles.SphericalCap(center, alpha)
    row = oracles.cap_coords(cap).entries
    assert row[0] == pytest.approx(math.cos(alpha) / math.sin(alpha))
    for got, y in zip(row[1:], center):
        assert got == pytest.approx(y / math.sin(alpha))
    back = oracles.cap_from_coords(row)
    assert back.angular_radius == pytest.approx(alpha)
    for got, y in zip(back.center, center):
        assert got == pytest.approx(y)


def test_cap_from_coords_validates_self_product():
    with pytest.raises(ValueError):
        oracles.cap_from_coords((F(1), F(1), F(1), F(1)))


def test_cap_pair_product_on_seed():
    for i, a in enumerate(SEED_ROWS):
        for j, b in enumerate(SEED_ROWS):
            expect = 1 if i == j else -1
            assert forms.pair_product(forms.SPHERICAL, a, b) == expect


def test_pair_product_rejects_rows_of_another_geometry():
    cap = forms.CoordRow(forms.SPHERICAL, SEED_ROWS[0])
    plane = forms.CoordRow(forms.EUCLIDEAN, SEED_ROWS[0])
    assert forms.pair_product(forms.SPHERICAL, cap, SEED_ROWS[0]) == 1
    for a, b in ((plane, cap), (cap, plane)):
        with pytest.raises(ValueError, match="expected spherical rows, got "
                           "euclidean"):
            forms.pair_product(forms.SPHERICAL, a, b)


def test_soddy_check():
    def residual(cots):
        return forms.bend_residual(forms.SPHERICAL, cots)

    assert residual((F(0), F(1), F(1), F(2))) == 0
    assert residual((F(1), F(1), F(1), F(1))) == -2
    assert abs(residual((0.0, 1.0, 1.0, 2.0))) < 1e-12


def test_realize_cap_config_exact():
    w = spherical.realize_cap_config((F(0), F(1), F(1), F(2)))
    assert tuple(r.entries for r in w.rows) == SEED_ROWS
    res = forms.check_identity(
        w, forms.descartes_form(2), forms.target_for(forms.SPHERICAL, 2)
    )
    assert res.ok and res.max_abs_entry_error == 0


def test_realize_cap_config_rejects_bad_cots():
    with pytest.raises(ValueError):
        spherical.realize_cap_config((F(0), F(1), F(1), F(3)))


def test_realize_cap_config_higher_dimension_float():
    n = 4
    c = math.sqrt(n / (n + 2))
    w = spherical.realize_cap_config((c,) * (n + 2))
    res = forms.check_identity(
        w,
        forms.descartes_form(n, "float"),
        forms.target_for(forms.SPHERICAL, n, "float"),
        tol=1e-9,
    )
    assert res.ok


def test_realized_rows_roundtrip_caps(word_fuzz, rng):
    for w in word_fuzz(forms.SPHERICAL, 2, EXACT, 30, 6, rng):
        for r in w.rows:
            cap = oracles.cap_from_coords(r.entries)
            assert oracles.cap_coords(cap).entries == r.entries


def test_cap_center_must_be_unit():
    with pytest.raises(ValueError):
        oracles.SphericalCap((1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        oracles.SphericalCap((1.0, 0.0, 0.0), math.pi)
