"""Euclidean oriented spheres, hyperplanes, inversion, and realization."""

import random
from fractions import Fraction as F

import pytest

from inversive import apollonian, euclid, forms, linalg, transform
from inversive.scalars import EXACT, FLOAT


def test_augmented_coords_sphere():
    s = euclid.OrientedSphere(F(1), (F(3), F(0)))
    row = euclid.augmented_coords(s)
    # inverted bend |x|^2 b - 1/b = 9 - 1
    assert row.entries == (8, 1, 3, 0)
    assert euclid.object_from_augmented(row) == s


def test_augmented_coords_hyperplane():
    h = euclid.OrientedHyperplane((F(0), F(1)), F(2))
    row = euclid.augmented_coords(h)
    assert row.entries == (4, 0, 0, 1)
    assert euclid.object_from_augmented(row) == h


def test_curvature_center():
    s = euclid.OrientedSphere(F(2), (F(1, 2), F(-1)))
    assert euclid.curvature_center(s) == (2, 1, -2)
    h = euclid.OrientedHyperplane((F(1), F(0)), F(5))
    assert euclid.curvature_center(h) == (0, 1, 0)


def test_invert_unit_sphere():
    # transform.inversion, the swap of the first two columns, on objects
    # inverted by hand: (x - 3)^2 + y^2 = 1 meets the x axis at 2 and 4,
    # whose images 1/2 and 1/4 span the image circle
    g = transform.inversion(2)

    def inverted(obj):
        row = euclid.augmented_coords(obj).entries
        return euclid.object_from_augmented(linalg.matmul([row], g)[0])

    s = euclid.OrientedSphere(F(1), (F(3), F(0)))
    image = inverted(s)
    assert image == euclid.OrientedSphere(F(8), (F(3, 8), F(0)))
    assert inverted(image) == s
    # a hyperplane off the origin inverts to a sphere through it: y = 2 to
    # the circle through 0 and 1/2 i
    h = euclid.OrientedHyperplane((F(0), F(1)), F(2))
    circle = inverted(h)
    assert circle == euclid.OrientedSphere(F(4), (F(0), F(1, 4)))
    # a sphere through the origin inverts to a hyperplane: x = 1/2
    through = euclid.OrientedSphere(F(1), (F(1), F(0)))
    back = inverted(through)
    assert back == euclid.OrientedHyperplane((F(1), F(0)), F(1, 2))


def test_sphere_validation():
    with pytest.raises(ValueError):
        euclid.OrientedSphere(F(0), (F(1), F(1)))
    with pytest.raises(ValueError):
        euclid.OrientedHyperplane((F(1), F(1)), F(0))  # not a unit normal
    assert euclid.OrientedSphere(F(-2), (0, 0)).radius == F(-1, 2)


def test_object_from_augmented_tolerance():
    row = (2.0, 1e-12, 0.0, 1.0)
    obj = euclid.object_from_augmented(row, tol=1e-9)
    assert isinstance(obj, euclid.OrientedHyperplane)
    with pytest.raises(ValueError):
        euclid.object_from_augmented((1.0, 2.0, 3.0, 4.0))  # self-product != 1


def test_pair_product_tangency():
    rows = [
        euclid.augmented_coords(euclid.OrientedSphere(F(1), (F(0), F(0)))),
        euclid.augmented_coords(euclid.OrientedSphere(F(1), (F(2), F(0)))),
    ]
    assert forms.pair_product(forms.EUCLIDEAN, rows[0], rows[0]) == 1
    assert forms.pair_product(forms.EUCLIDEAN, rows[0].entries,
                              rows[1].entries) == -1


def test_descartes_check():
    def residual(bends):
        return forms.bend_residual(forms.EUCLIDEAN, bends)

    assert residual((F(-1), F(2), F(2), F(3))) == 0
    assert residual((F(1), F(1), F(1), F(1))) == -4
    assert abs(residual((-1.0, 2.0, 2.0, 3.0))) < 1e-12


def test_complex_descartes_check(euclid_seed):
    bends = euclid_seed.bends
    centers = []
    for r in euclid_seed.rows:
        b = r.entries[1]
        centers.append((r.entries[2] / b, r.entries[3] / b))
    res = euclid.complex_descartes_check(bends, centers)
    assert res == ((0, 0), (0, 0))
    moved = centers[:3] + [(centers[3][0] + 1, centers[3][1])]
    bad = euclid.complex_descartes_check(bends, moved)
    assert bad != ((0, 0), (0, 0))


def test_complex_descartes_accepts_complex():
    res = euclid.complex_descartes_check(
        (-1.0, 2.0, 2.0, 3.0),
        (0j, complex(0.5, 0), complex(-0.5, 0), complex(0, 2 / 3)),
    )
    for pair in res:
        for x in pair:
            assert abs(x) < 1e-12


def test_complete_to_descartes():
    spheres = [
        euclid.OrientedSphere(F(-1), (F(0), F(0))),
        euclid.OrientedSphere(F(2), (F(1, 2), F(0))),
        euclid.OrientedSphere(F(2), (F(-1, 2), F(0))),
    ]
    a, b = euclid.complete_to_descartes(*spheres)
    fourth_a = a.rows[3].entries
    fourth_b = b.rows[3].entries
    assert {fourth_a, fourth_b} == {(1, 3, 0, 2), (1, 3, 0, -2)}
    for w in (a, b):
        res = forms.check_identity(
            w, forms.descartes_form(2), forms.target_for(forms.EUCLIDEAN, 2)
        )
        assert res.ok


def test_complete_to_descartes_rejects_non_tangent():
    with pytest.raises(ValueError):
        euclid.complete_to_descartes(
            euclid.OrientedSphere(F(1), (F(0), F(0))),
            euclid.OrientedSphere(F(1), (F(5), F(0))),
            euclid.OrientedSphere(F(1), (F(0), F(5))),
        )


def _gram_ok(w, tol=0.0):
    mode = w.mode
    res = forms.check_identity(
        w,
        forms.descartes_form(w.n, mode),
        forms.target_for(forms.EUCLIDEAN, w.n, mode),
        tol=tol or 1e-9,
    )
    return res.ok


def test_realize_curvature_vector_exact():
    w = euclid.realize_curvature_vector((F(-1), F(2), F(2), F(3)))
    assert w.bends == (-1, 2, 2, 3)  # input order preserved
    assert _gram_ok(w)


def test_realize_strip():
    w = euclid.realize_curvature_vector((F(0), F(0), F(1), F(1)))
    assert w.bends == (0, 0, 1, 1)
    assert _gram_ok(w)
    kinds = [euclid.object_from_augmented(r) for r in w.rows]
    assert sum(isinstance(o, euclid.OrientedHyperplane) for o in kinds) == 2


def test_realize_flip():
    # fewer than two positive bends: realized through global orientation flip
    w = euclid.realize_curvature_vector((F(1), F(-2), F(-2), F(-3)))
    assert w.bends == (1, -2, -2, -3)
    assert _gram_ok(w)


def test_realize_float():
    w = euclid.realize_curvature_vector((-1.0, 2.0, 2.0, 3.0))
    assert w.mode == FLOAT
    assert _gram_ok(w)


ROOTS = ((-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 4, 12, 13), (-3, 5, 8, 8),
         (-4, 8, 9, 9), (-6, 10, 15, 19), (-10, 14, 35, 39), (-12, 21, 28, 37))


def test_realize_float_keeps_the_bends():
    # the rows carry the requested bends unchanged, also at 10^12, where
    # the float Descartes residual is rounded by far more than 1e-9
    for root in ROOTS:
        for v in (root, tuple(-x for x in root)):
            for s in (1.0, 1e12):
                bends = tuple(s * x for x in v)
                w = euclid.realize_curvature_vector(bends)
                assert w.bends == bends
                assert s > 1 or _gram_ok(w)


def test_realize_float_rejects_bends_off_the_relation():
    # off by 1e-4 in the bend 3, where the residual is quadratic in the
    # error: 5e-9 at scale 1, 5e-3 at scale 10^3; beyond 1e-9 absolute and
    # beyond rounding relative to the squared bends
    for s in (1.0, 1e3):
        with pytest.raises(ValueError, match="Descartes relation"):
            euclid.realize_curvature_vector((-s, 2 * s, 2 * s, 3.0001 * s))
    # within 1e-9 absolute (residual 4.5e-10), as float bends carried over
    # from an earlier computation may be
    bends = (-1.0, 2.0, 2.0, 3.00003)
    assert euclid.realize_curvature_vector(bends).bends == bends
    # squares past the float range: a nan residual, not an OverflowError
    with pytest.raises(ValueError, match="Descartes relation"):
        euclid.realize_curvature_vector((-1e200, 2e200, 2e200, 3e200))


def test_realize_exact_at_any_scale():
    bends = tuple(F(x * 10 ** 200) for x in (-1, 2, 2, 3))
    w = euclid.realize_curvature_vector(bends)
    assert w.bends == bends
    assert _gram_ok(w)


def test_realize_rejects_non_descartes():
    with pytest.raises(ValueError):
        euclid.realize_curvature_vector((F(1), F(1), F(1), F(1)))


def test_realize_random_gasket_bends(euclid_packing_1000, rng):
    configs = euclid_packing_1000.value.configs
    for _ in range(25):
        w = configs[rng.randrange(len(configs))]
        again = euclid.realize_curvature_vector(w.bends)
        assert again.bends == w.bends
        assert _gram_ok(again)


def _translated(obj, v):
    """A sphere or hyperplane translated by v, by hand."""
    if isinstance(obj, euclid.OrientedSphere):
        return euclid.OrientedSphere(
            obj.curvature, tuple(x + d for x, d in zip(obj.center, v)))
    shift = sum(h * d for h, d in zip(obj.normal, v))
    return euclid.OrientedHyperplane(obj.normal, obj.offset + shift)


def _dilated(obj, s):
    """A sphere or hyperplane dilated by s > 0 about the origin, by hand."""
    if isinstance(obj, euclid.OrientedSphere):
        return euclid.OrientedSphere(obj.curvature / s,
                                     tuple(x * s for x in obj.center))
    return euclid.OrientedHyperplane(obj.normal, obj.offset * s)


def test_translate_scale_roundtrip(euclid_seed):
    # transform.translation and dilation on the seed, a reflected seed and
    # the strip, whose rows include hyperplanes, against objects moved by
    # hand; the moves back restore each configuration
    reflected = apollonian.reflect(apollonian.reflect(euclid_seed, 0), 3)
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (0, 0, 1, 1))
    for w in (euclid_seed, reflected, strip):
        objs = euclid.objects_from_config(w)
        for v in ((F(3, 7), F(-2, 5)), (F(-12345, 7), F(0))):
            moved = transform.moved(w, transform.translation(v))
            assert moved == euclid.config_from_objects(
                [_translated(o, v) for o in objs])
            back = transform.translation(tuple(-x for x in v))
            assert transform.moved(moved, back) == w
        for s in (F(5, 3), F(1, 10**7)):
            moved = transform.moved(w, transform.dilation(s, 2))
            assert moved == euclid.config_from_objects(
                [_dilated(o, s) for o in objs])
            assert _gram_ok(moved)
            assert transform.moved(moved, transform.dilation(1 / s, 2)) == w


def test_scale_requires_positive():
    for s in (0, F(-1)):
        with pytest.raises(ValueError, match="positive"):
            transform.dilation(s, 2)


def test_objects_config_roundtrip(euclid_seed):
    objs = euclid.objects_from_config(euclid_seed)
    w = euclid.config_from_objects(objs)
    assert w.rows == euclid_seed.rows
