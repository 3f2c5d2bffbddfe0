"""Euclidean oriented spheres, hyperplanes, inversion, and realization."""

import math
from fractions import Fraction as F

import pytest

from inversive import apollonian, euclid, forms, linalg, transform
from inversive.scalars import FLOAT

import oracles


def test_augmented_coords_sphere():
    s = oracles.OrientedSphere(F(1), (F(3), F(0)))
    row = oracles.augmented_coords(s)
    # inverted bend |x|^2 b - 1/b = 9 - 1
    assert row.entries == (8, 1, 3, 0)
    assert oracles.object_from_augmented(row) == s


def test_augmented_coords_hyperplane():
    h = oracles.OrientedHyperplane((F(0), F(1)), F(2))
    row = oracles.augmented_coords(h)
    assert row.entries == (4, 0, 0, 1)
    assert oracles.object_from_augmented(row) == h


def test_invert_unit_sphere():
    # transform.inversion, the swap of the first two columns, on objects
    # inverted by hand: (x - 3)^2 + y^2 = 1 meets the x axis at 2 and 4,
    # whose images 1/2 and 1/4 span the image circle
    g = transform.inversion(2)

    def inverted(obj):
        row = oracles.augmented_coords(obj).entries
        return oracles.object_from_augmented(linalg.matmul([row], g)[0])

    s = oracles.OrientedSphere(F(1), (F(3), F(0)))
    image = inverted(s)
    assert image == oracles.OrientedSphere(F(8), (F(3, 8), F(0)))
    assert inverted(image) == s
    # a hyperplane off the origin inverts to a sphere through it: y = 2 to
    # the circle through 0 and 1/2 i
    h = oracles.OrientedHyperplane((F(0), F(1)), F(2))
    circle = inverted(h)
    assert circle == oracles.OrientedSphere(F(4), (F(0), F(1, 4)))
    # a sphere through the origin inverts to a hyperplane: x = 1/2
    through = oracles.OrientedSphere(F(1), (F(1), F(0)))
    back = inverted(through)
    assert back == oracles.OrientedHyperplane((F(1), F(0)), F(1, 2))


def test_sphere_validation():
    with pytest.raises(ValueError):
        oracles.OrientedSphere(F(0), (F(1), F(1)))
    with pytest.raises(ValueError):
        oracles.OrientedHyperplane((F(1), F(1)), F(0))  # not a unit normal
    assert oracles.OrientedSphere(F(-2), (0, 0)).radius == F(-1, 2)


def test_object_from_augmented_tolerance():
    row = (2.0, 1e-12, 0.0, 1.0)
    obj = oracles.object_from_augmented(row)
    assert isinstance(obj, oracles.OrientedHyperplane)
    with pytest.raises(ValueError):
        oracles.object_from_augmented((1.0, 2.0, 3.0, 4.0))  # self-product != 1


def test_pair_product_tangency():
    rows = [
        oracles.augmented_coords(oracles.OrientedSphere(F(1), (F(0), F(0)))),
        oracles.augmented_coords(oracles.OrientedSphere(F(1), (F(2), F(0)))),
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
    res = oracles.complex_descartes_check(bends, centers)
    assert res == ((0, 0), (0, 0))
    moved = centers[:3] + [(centers[3][0] + 1, centers[3][1])]
    bad = oracles.complex_descartes_check(bends, moved)
    assert bad != ((0, 0), (0, 0))


def test_complex_descartes_accepts_complex():
    res = oracles.complex_descartes_check(
        (-1.0, 2.0, 2.0, 3.0),
        (0j, complex(0.5, 0), complex(-0.5, 0), complex(0, 2 / 3)),
    )
    for pair in res:
        for x in pair:
            assert abs(x) < 1e-12


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
    kinds = [oracles.object_from_augmented(r) for r in w.rows]
    assert sum(isinstance(o, oracles.OrientedHyperplane) for o in kinds) == 2


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


def _float_vectors():
    """(geometry, bends) of float vectors: the roots and their negations, at
    10^12 too, where the float Descartes residual is rounded by far more
    than 1e-9, curved vectors, and vectors with a -0.0 bend or a zero that
    the plane mirror negates."""
    out = [(forms.EUCLIDEAN, tuple(s * x for x in v)) for root in ROOTS
           for v in (root, tuple(-x for x in root)) for s in (1.0, 1e12)]
    out += [(forms.SPHERICAL, (0.0, 1.0, 1.0, 2.0)),
            (forms.SPHERICAL, (-0.0, 1.0, 1.0, 2.0)),
            (forms.SPHERICAL, (2.0, 5.0, -0.0, 1.0)),
            (forms.HYPERBOLIC, (-2.0, 3.0, 5.0, 6.0)),
            (forms.HYPERBOLIC, (-0.0, 1.0, -1.0, 0.0)),
            (forms.HYPERBOLIC, (0.0, -0.0, 1.0, 3.0)),
            (forms.EUCLIDEAN, (-0.0, 1.0, 1.0, 4.0)),
            (forms.EUCLIDEAN, (0.0, -1.0, -1.0, -4.0)),
            (forms.EUCLIDEAN, (-0.0, -1.0, -1.0, -4.0)),
            (forms.EUCLIDEAN, (-0.0, 0.0, 1.0, 1.0)),
            (forms.EUCLIDEAN, (0.0, -0.0, -1.0, -1.0))]
    return out


def test_realize_float_keeps_the_bends():
    # the rows carry the requested bends unchanged, -0.0 included (repr
    # tells it from 0.0), and pass the Gram check
    for geometry, bends in _float_vectors():
        w = apollonian.realize_bends(geometry, bends)
        assert repr(w.bends) == repr(bends), (geometry, bends)
        assert w.residual().ok, (geometry, bends)
        if geometry == forms.EUCLIDEAN and sum(b > 0 for b in bends) < 2:
            # the mirror negates the float rows, so their zeros are -0.0
            mirror = apollonian.realize_bends(geometry,
                                              tuple(-b for b in bends))
            assert repr(w.matrix()) == repr(tuple(
                tuple(-x for x in row) for row in mirror.matrix())), bends
            assert "-0.0" in repr(w.matrix()), bends


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
    # squares past the float range, off the relation as at scale 1e3: a
    # residual past the float range, judged over 4**e
    with pytest.raises(ValueError, match="Descartes relation by inf"):
        euclid.realize_curvature_vector((-1e200, 2e200, 2e200, 3.0001e200))
    # a row entry past the float range, bbar = 4/s of a subnormal bend s:
    # a ValueError, not an OverflowError or an inf entry
    for bends in ((0.0, 0.0, 1e-310, 1e-310), (-1e-310, 2e-310, 2e-310, 3e-310)):
        with pytest.raises(ValueError, match="beyond the float range"):
            euclid.realize_curvature_vector(bends)



def test_realize_float_refuses_bends_of_no_sign_majority():
    # within the absolute 1e-9 of the bend check (residual 2e-10), but with
    # one positive and one negative bend: no exact vector meets the relation
    # so, and the mirror input, flipped for its majority orientation, had
    # the same shape again, which recursed without end
    for bends in ((1e-5, -1e-5, 0.0, 0.0), (0.0, -1e-5, 0.0, 1e-5),
                  (1e-5, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="fewer than two positive") as e:
            apollonian.realize_bends(forms.EUCLIDEAN, bends)
        assert ", ".join(map(str, bends)) in str(e.value)


# float bends whose squares (1e155 and up), or whose rows' bbar entries
# squared (1e-160 and down), are past the float range
FAR_SCALES = (1e155, 1e200, 1e300, 1e-160, 1e-300)


@pytest.mark.parametrize("s", FAR_SCALES)
def test_realize_and_walk_float_bends_across_the_float_range(s):
    bends = tuple(s * x for x in (-1.0, 2.0, 2.0, 3.0))
    w = apollonian.realize_bends(forms.EUCLIDEAN, bends)
    assert w.bends == bends and w.residual().ok
    walk = apollonian.generate(w, 20 * s)
    exact = apollonian.generate(apollonian.realize_bends(
        forms.EUCLIDEAN, tuple(map(F, (-1, 2, 2, 3)))), F(20))
    assert len(walk.rows) == len(exact.rows) == 23
    # a row (bbar, b, b x, b y) is the exact row with bbar over s and b
    # times s, to the rounding of a few float operations
    for row, twin in zip(walk.rows, exact.rows):
        for x, y, f in zip(row.entries, twin.entries, (1 / s, s, 1, 1)):
            assert math.isclose(x, y * f, rel_tol=1e-13, abs_tol=1e-13 * f), \
                (row, twin)


def test_bend_residual_rounds_as_unscaled_arithmetic():
    # dividing by a power of two changes no rounding, so wherever the
    # unscaled sums stay in the float range they give the same float; past
    # it the residual reads inf
    for geometry, bends in _float_vectors() + [
            (forms.EUCLIDEAN, (-1e150, 2.0e150, 2.0e150, 3.1e150)),
            (forms.SPHERICAL, (0.1, 1.3, 1.7, 2.9))]:
        n = len(bends) - 2
        total = sum(bends)
        assert forms.bend_residual(geometry, bends) == (
            sum(b * b for b in bends) - total * total / n
            + 2 * forms.CURVATURE_SIGN[geometry]), (geometry, bends)
    # squares past the float range, a residual 0.005 (1e155)^2 within it
    assert math.isclose(forms.bend_residual(
        forms.EUCLIDEAN, (-1e155, 2e155, 2e155, 3.1e155)), 5e307, rel_tol=1e-9)
    assert forms.bend_residual(forms.EUCLIDEAN,
                               (-1e200, 2e200, 2e200, 3.0001e200)) == math.inf


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
    if isinstance(obj, oracles.OrientedSphere):
        return oracles.OrientedSphere(
            obj.curvature, tuple(x + d for x, d in zip(obj.center, v)))
    shift = sum(h * d for h, d in zip(obj.normal, v))
    return oracles.OrientedHyperplane(obj.normal, obj.offset + shift)


def _dilated(obj, s):
    """A sphere or hyperplane dilated by s > 0 about the origin, by hand."""
    if isinstance(obj, oracles.OrientedSphere):
        return oracles.OrientedSphere(obj.curvature / s,
                                     tuple(x * s for x in obj.center))
    return oracles.OrientedHyperplane(obj.normal, obj.offset * s)


def test_translate_scale_roundtrip(euclid_seed):
    # transform.translation and dilation on the seed, a reflected seed and
    # the strip, whose rows include hyperplanes, against objects moved by
    # hand; the moves back restore each configuration
    reflected = apollonian.reflect(apollonian.reflect(euclid_seed, 0), 3)
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (0, 0, 1, 1))
    for w in (euclid_seed, reflected, strip):
        objs = oracles.objects_from_config(w)
        for v in ((F(3, 7), F(-2, 5)), (F(-12345, 7), F(0))):
            moved = transform.moved(w, transform.translation(v))
            assert moved == oracles.config_from_objects(
                [_translated(o, v) for o in objs])
            back = transform.translation(tuple(-x for x in v))
            assert transform.moved(moved, back) == w
        for s in (F(5, 3), F(1, 10**7)):
            moved = transform.moved(w, transform.dilation(s, 2))
            assert moved == oracles.config_from_objects(
                [_dilated(o, s) for o in objs])
            assert _gram_ok(moved)
            assert transform.moved(moved, transform.dilation(1 / s, 2)) == w


def test_scale_requires_positive():
    for s in (0, F(-1)):
        with pytest.raises(ValueError, match="positive"):
            transform.dilation(s, 2)


def test_objects_config_roundtrip(euclid_seed):
    objs = oracles.objects_from_config(euclid_seed)
    w = oracles.config_from_objects(objs)
    assert w.rows == euclid_seed.rows
