"""Conversions between the three geometries, at matrix level and against
the object routes of tests/oracles.py."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from inversive import apollonian, forms, transform
from inversive.scalars import EXACT, FLOAT

import oracles


GEOMS = (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC)


def test_conversion_matrices_inverse_pairs():
    for n in (2, 3, 4):
        for src in GEOMS:
            for dst in GEOMS:
                m = np.array(transform.conversion_matrix(src, dst, n))
                back = np.array(transform.conversion_matrix(dst, src, n))
                prod = m @ back
                eye = np.array(forms._rows(
                    [[F(int(i == j)) for j in range(n + 2)] for i in range(n + 2)]
                ))
                assert (prod == eye).all(), (src, dst, n)


def test_euclid_to_spherical_matrix_literal():
    m = transform.conversion_matrix(forms.EUCLIDEAN, forms.SPHERICAL, 2)
    expect = [
        [F(1, 2), F(-1, 2), 0, 0],
        [F(1, 2), F(1, 2), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert [list(r) for r in m] == [[F(x) for x in row] for row in expect]


def test_seed_conversion_bends():
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    assert seed.bends == (F(-1), F(2), F(2), F(3))
    caps = transform.convert_matrix(seed, forms.SPHERICAL)
    assert caps.bends == (F(0), F(1), F(1), F(2))
    spheres = transform.convert_matrix(seed, forms.HYPERBOLIC)
    assert spheres.bends == (F(-1), F(1), F(1), F(1))


def test_gram_transported_exactly():
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    for dst in GEOMS:
        out = transform.convert_matrix(seed, dst)
        assert out.geometry == dst
        assert out.mode == EXACT
        res = forms.check_identity(
            out, forms.descartes_form(out.n, EXACT),
            forms.target_for(dst, out.n, EXACT),
        )
        assert res.ok and res.max_abs_entry_error == 0


def test_round_trips_are_identity():
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    original = tuple(r.entries for r in seed.rows)
    for mid in (forms.SPHERICAL, forms.HYPERBOLIC):
        there = transform.convert_matrix(seed, mid)
        back = transform.convert_matrix(there, forms.EUCLIDEAN)
        assert tuple(r.entries for r in back.rows) == original
    cycle = transform.convert_matrix(
        transform.convert_matrix(
            transform.convert_matrix(seed, forms.SPHERICAL), forms.HYPERBOLIC
        ),
        forms.EUCLIDEAN,
    )
    assert tuple(r.entries for r in cycle.rows) == original


def test_convert_rejects_invalid_input():
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    rows = [list(r.entries) for r in seed.rows]
    rows[2][0] += 1
    bad = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows)
    with pytest.raises(ValueError):
        transform.convert_matrix(bad, forms.SPHERICAL)


def test_bend_triple_linear_relations(word_fuzz, rng):
    # the scalar shadow of the conversion: a Euclidean row (bbar, b, ...)
    # goes to the cap with cot alpha = (b + bbar)/2 and the hyperbolic
    # sphere with coth s = (b - bbar)/2
    for w in word_fuzz(forms.EUCLIDEAN, 2, EXACT, 50, 8, rng):
        caps = transform.convert_matrix(w, forms.SPHERICAL)
        spheres = transform.convert_matrix(w, forms.HYPERBOLIC)
        for row, cot, coth in zip(w.rows, caps.bends, spheres.bends):
            bbar, b = row.entries[:2]
            assert (cot + coth, cot - coth) == (b, bbar)


def test_cap_to_plane_tilted_cap():
    cap = oracles.SphericalCap((0.0, 1.0, 0.0), math.pi / 4)
    obj = oracles.cap_to_plane(cap)
    assert isinstance(obj, oracles.OrientedSphere)
    assert obj.curvature == pytest.approx(1.0)
    assert obj.center[0] == pytest.approx(math.sqrt(2))
    assert obj.center[1] == pytest.approx(0.0)


def test_cap_to_plane_polar_cap():
    for alpha in (0.3, 0.6, 1.2):
        cap = oracles.SphericalCap((1.0, 0.0, 0.0), alpha)
        obj = oracles.cap_to_plane(cap)
        assert obj.center[0] == pytest.approx(0.0)
        assert obj.center[1] == pytest.approx(0.0)
        assert obj.radius == pytest.approx(math.tan(alpha / 2))


def test_cap_to_plane_through_pole_gives_hyperplane():
    cap = oracles.SphericalCap((0.0, 0.0, 1.0), math.pi / 2)
    obj = oracles.cap_to_plane(cap)
    assert isinstance(obj, oracles.OrientedHyperplane)
    assert abs(obj.offset) < 1e-12
    assert obj.normal[0] == pytest.approx(0.0)
    assert abs(obj.normal[1]) == pytest.approx(1.0)


def test_plane_to_cap_exact_lifts():
    s = oracles.OrientedSphere(F(2), (F(1, 2), F(0)))
    cap = oracles.plane_to_cap(s)
    assert cap.row == (F(1), F(1), F(1), F(0))
    assert cap.cot == F(1)

    unit = oracles.plane_to_cap(oracles.OrientedSphere(F(1), (F(0), F(0))))
    assert unit.row == (F(0), F(1), F(0), F(0))

    h = oracles.plane_to_cap(oracles.OrientedHyperplane((F(0), F(1)), F(0)))
    assert h.row == (F(0), F(0), F(0), F(1))

    back = oracles.cap_to_plane(cap)
    assert back.curvature == F(2) and tuple(back.center) == (F(1, 2), F(0))


def _object_route(row):
    # cap object -> plane object -> augmented coordinates
    cap = oracles.cap_from_coords(row)
    obj = oracles.cap_to_plane(cap)
    return oracles.augmented_coords(obj).entries


def _matrix_route(row, n, mode):
    m = transform.conversion_matrix(forms.SPHERICAL, forms.EUCLIDEAN, n, mode)
    return tuple((np.array(forms._rows([row])) @ np.array(m))[0])


def test_object_and_matrix_routes_agree_exact(word_fuzz, rng):
    # the two conversion routes share no code path past the row level
    configs = word_fuzz(forms.SPHERICAL, 2, EXACT, 50, 8, rng)
    checked = 0
    for w in configs:
        for r in w.rows:
            assert _object_route(r.entries) == _matrix_route(r.entries, 2, EXACT)
            checked += 1
    assert checked == 200


def test_object_and_matrix_routes_agree_float(word_fuzz, rng):
    configs = word_fuzz(forms.SPHERICAL, 2, FLOAT, 50, 8, rng)
    for w in configs:
        for r in w.rows:
            left = _object_route(r.entries)
            right = _matrix_route(r.entries, 2, FLOAT)
            assert max(abs(a - b) for a, b in zip(left, right)) < 1e-9


def test_conversion_matrix_rejects_unknown_geometry():
    with pytest.raises(ValueError):
        transform.conversion_matrix("parabolic", forms.EUCLIDEAN, 2)
