"""Quadratic forms, Gram targets, and the identity checker."""

import itertools
import time
from fractions import Fraction as F

import numpy as np
import pytest

from inversive import apollonian, forms, linalg, shell
from inversive.scalars import EXACT, FLOAT, ExactnessError

import oracles
from test_reference_kernels import _bend_vectors


def test_descartes_form_matrix():
    q = forms.descartes_form(2)
    m = np.array(
        [[F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)],
         [F(-1, 2), F(1, 2), F(-1, 2), F(-1, 2)],
         [F(-1, 2), F(-1, 2), F(1, 2), F(-1, 2)],
         [F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2)]],
        dtype=object,
    )
    assert (np.array(forms._rows(q)) == m).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_descartes_form_inverse(n):
    q = np.array(forms._rows(forms.descartes_form(n)))
    qi = np.array(forms._rows(oracles.descartes_form_inverse(n)))
    assert (q @ qi == np.eye(n + 2, dtype=object) + 0 * q).all()
    # closed form: I - (1/2) * ones
    expect = np.full((n + 2, n + 2), F(-1, 2), dtype=object)
    expect[np.diag_indices(n + 2)] += 1
    assert (qi == expect).all()


def test_bend_vector_in_kernel_of_form():
    v = np.array([F(-1), F(2), F(2), F(3)], dtype=object)
    q = np.array(forms._rows(forms.descartes_form(2)))
    assert v @ q @ v == 0
    bad = np.array([F(1), F(1), F(1), F(1)], dtype=object)
    assert bad @ q @ bad == -4  # Q(1,1,1,1) = 4 - 16/2


def test_gram_targets():
    t = np.array(forms._rows(forms.target_for(forms.EUCLIDEAN, 2)))
    assert t.tolist() == [[0, -4, 0, 0], [-4, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    t = np.array(forms._rows(forms.target_for(forms.SPHERICAL, 2)))
    assert t.tolist() == [[-2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    t = np.array(forms._rows(forms.target_for(forms.HYPERBOLIC, 2)))
    assert t.tolist() == [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    t = np.array(forms._rows(oracles.centers_gram_target(3)))
    assert t.tolist() == [[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]


def test_onedim_target_is_n1_slice():
    t = np.array(forms._rows(forms.target_for(forms.EUCLIDEAN, 1)))
    assert t.tolist() == [[0, -4, 0], [-4, 0, 0], [0, 0, 2]]


@pytest.mark.parametrize(
    "geometry", [forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC]
)
def test_seed_identities(geometry):
    w = apollonian.standard_seed(geometry)
    res = forms.check_identity(
        w, forms.descartes_form(2), forms.target_for(geometry, 2)
    )
    assert res.ok and res.max_abs_entry_error == 0


@pytest.mark.parametrize("geometry", forms.GEOMETRIES)
def test_bend_residual_against_gram_identity(geometry):
    """The unified Descartes relation is exactly zero on both completions of
    every exact configuration and within 1e-9 on the float seeds of
    n = 3..5; the Gram identity on the same configurations is the oracle."""
    def gram_ok(w, mode=EXACT):
        return forms.check_identity(w, forms.descartes_form(w.n, mode),
                                    forms.target_for(geometry, w.n, mode)).ok

    packing = apollonian.generate(apollonian.standard_seed(geometry), 40,
                                  keep_configs=True, max_configs=200)
    for w in packing.configs:
        assert gram_ok(w)
        bends = w.bends
        assert forms.bend_residual(geometry, bends) == 0
        for i in range(4):
            rest = bends[:i] + bends[i + 1:]
            roots = shell.complete_bend(geometry, rest)
            for r in roots:
                assert forms.bend_residual(geometry, rest + (r,)) == 0
            # the two completions are this configuration and its reflection
            other = apollonian.reflect(w, i)
            assert gram_ok(other)
            assert sorted((bends[i], other.bends[i])) == list(roots)
        assert forms.bend_residual(geometry, bends[:3] + (bends[3] + 1,)) != 0
    for n in (3, 4, 5):
        w = apollonian.standard_seed(geometry, n, mode=FLOAT)
        assert gram_ok(w, FLOAT)
        assert abs(forms.bend_residual(geometry, w.bends)) <= 1e-9


def test_check_identity_flags_corruption(euclid_seed):
    rows = [r.entries for r in euclid_seed.rows]
    rows[2] = rows[2][:1] + (rows[2][1] + 1,) + rows[2][2:]
    w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows, mode=EXACT)
    res = forms.check_identity(
        w, forms.descartes_form(2), forms.target_for(forms.EUCLIDEAN, 2)
    )
    assert not res.ok and res.max_abs_entry_error > 0


def test_check_identity_float_tolerance(euclid_seed):
    rows = [tuple(float(x) for x in r.entries) for r in euclid_seed.rows]
    rows[0] = (rows[0][0] + 5e-8,) + rows[0][1:]
    w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows, mode=FLOAT)
    q = forms.descartes_form(2, FLOAT)
    t = forms.target_for(forms.EUCLIDEAN, 2, FLOAT)
    assert not forms.check_identity(w, q, t, tol=1e-9).ok
    assert forms.check_identity(w, q, t, tol=1e-5).ok


@pytest.mark.parametrize(
    "geometry", [forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC]
)
def test_pair_products_on_seed(geometry):
    w = apollonian.standard_seed(geometry)
    rows = [r.entries for r in w.rows]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            expect = 1 if i == j else -1
            assert forms.pair_product(geometry, a, b) == expect


@pytest.mark.parametrize("read,row,message", (
    (oracles.object_from_augmented, (1, 1, 0, 0),
     "not a valid augmented row, self product -1"),
    (oracles.object_from_augmented, (0.5, 1.0, 0.0, 0.0),
     "not a valid augmented row, self product -0.5"),
    (oracles.cap_from_coords, (F(1, 2), 1, 0, 0),
     "not a valid cap row, self product 3/4"),
    (oracles.cap_from_coords,
     forms.CoordRow(forms.SPHERICAL, (2.0, 1.0, 0.0)),
     "not a valid cap row, self product -3.0"),
))
def test_rows_off_the_unit_self_product_are_refused(read, row, message):
    # the readers of single rows share oracles._unit_row_entries; each keeps
    # the wording of its own message
    with pytest.raises(ValueError) as err:
        read(row)
    assert str(err.value) == message


def test_bend_column():
    assert forms.bend_column(forms.EUCLIDEAN) == 1
    assert forms.bend_column(forms.SPHERICAL) == 0
    assert forms.bend_column(forms.HYPERBOLIC) == 0
    with pytest.raises(ValueError):
        forms.bend_column("elliptic")


def test_coord_row_validation():
    with pytest.raises(ValueError):
        forms.CoordRow("nowhere", (1, 2, 3))
    with pytest.raises(ValueError):
        forms.CoordRow(forms.EUCLIDEAN, (1, 2))


def test_config_matrix_validation():
    with pytest.raises(ValueError):
        forms.ConfigMatrix.from_rows(
            forms.EUCLIDEAN, [(1, -1, 0, 0), (0, 2, 1, 0)], mode=EXACT
        )
    with pytest.raises(Exception):
        # mixed exact and float entries in one matrix
        forms.ConfigMatrix.from_rows(
            forms.EUCLIDEAN,
            [(F(1), F(-1), F(0), F(0)), (0.0, 2.0, 1.0, 0.0),
             (0, 2, -1, 0), (1, 3, 0, 2)],
            mode=EXACT,
        )


def test_bends_property(euclid_seed):
    assert euclid_seed.bends == (F(-1), F(2), F(2), F(3))
    ws = apollonian.standard_seed(forms.SPHERICAL)
    assert ws.bends == (0, 1, 1, 2)


def test_inverse_conjugation_exact_seeds():
    for geometry in (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC):
        w = apollonian.standard_seed(geometry)
        res = oracles.inverse_conjugation_check(
            linalg.transpose(w.matrix()),
            forms.descartes_form(2),
            forms.target_for(geometry, 2),
        )
        assert res.ok and res.max_abs_entry_error == 0


def test_inverse_conjugation_random_words(word_fuzz, rng):
    for w in word_fuzz(forms.SPHERICAL, 2, EXACT, 40, 8, rng):
        res = oracles.inverse_conjugation_check(
            linalg.transpose(w.matrix()),
            forms.descartes_form(2),
            forms.target_for(forms.SPHERICAL, 2),
        )
        assert res.ok and res.max_abs_entry_error == 0


def test_lorentz_like_form():
    j = np.array(forms._rows(oracles.lorentz_like_form(2)))
    assert j.tolist() == [
        [-1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


@pytest.mark.parametrize("geometry,bends", (
    (forms.SPHERICAL, (0, 1, 1, 2)),
    (forms.HYPERBOLIC, (-2, 3, 5, 6))))
def test_float_tangent_rows_accept_rounded_walk_vectors(geometry, bends):
    # the loxodromic walk passes 10^12 within 60 steps and its bends reach
    # about 10^28, past the ints that floats hold; every bend vector on it
    # meets the relation, so float mode realizes each with the bends as
    # given, its Gram identity ok (forms.check_identity) and its
    # rows within rounding of the exact realization's
    seed = apollonian.realize_bends(geometry, tuple(map(F, bends)))
    configs = apollonian.loxodromic(seed, 60).configs
    assert len(configs) == 61
    for w in configs:
        values = tuple(map(float, w.bends))
        got = apollonian.realize_bends(geometry, values)
        assert got.bends == values and got.residual().ok, \
            w.bends
        exact = apollonian.realize_bends(geometry, w.bends)
        assert _max_rel_diff(got, exact) <= 1e-15, w.bends


def _max_rel_diff(w, exact):
    """Largest entry difference of w from the exact configuration, over
    the largest absolute entry of the exact one."""
    rows = [tuple(map(float, r.entries)) for r in exact.rows]
    scale = max(abs(x) for row in rows for x in row)
    return max(abs(a - b) for r, row in zip(w.rows, rows)
               for a, b in zip(r.entries, row)) / scale


@pytest.mark.parametrize("scale", (F(1, 3), F(2, 7), F(1, 10)))
def test_float_coths_within_rounding_of_the_isotropic_case(scale):
    # W0 (1, 5, 3, 4) scale has e - W0^{-1} c isotropic; its float values
    # miss that by rounding, where one reflection would divide by the
    # rounding, so they take the two reflections of the exact vector
    g = (1, 5 * scale, 3 * scale, 4 * scale)
    coths = tuple(sum(x * y for x, y in zip(row, g))
                  for row in oracles.BASE_ROWS["hyperbolic"])
    assert oracles.isotropic_reflection("hyperbolic", coths)
    values = tuple(map(float, coths))
    assert not oracles.isotropic_reflection("hyperbolic", values)
    w = apollonian.realize_bends(forms.HYPERBOLIC, values)
    assert w.bends == values and w.residual().ok
    exact = apollonian.realize_bends(forms.HYPERBOLIC, coths)
    assert _max_rel_diff(w, exact) <= 1e-14


# the coth vectors near 10^12 of test_reference_kernels._bend_vectors that
# the float tail search found no realization for
FLOAT_COTHS_NEAR_10_12 = (
    (45082821006, 130291770859, 376550206413, 1088250294038),
    (F(7447083396327, 10), F(445804466481, 5), F(10761235232017, 5),
     F(2576797640623, 10)))


@pytest.mark.parametrize("coths", FLOAT_COTHS_NEAR_10_12
                         + tuple(tuple(-x for x in v)
                                 for v in FLOAT_COTHS_NEAR_10_12))
def test_float_coth_vectors_near_10_12_realize(coths):
    assert forms.bend_residual(forms.HYPERBOLIC, coths) == 0
    values = tuple(map(float, coths))
    w = apollonian.realize_bends(forms.HYPERBOLIC, values)
    assert w.bends == values and w.residual().ok
    if all(type(x) is int for x in coths):  # the float values are exact
        twin = apollonian.realize_bends(forms.HYPERBOLIC, coths)
        assert repr([r.entries for r in w.rows]) == repr(
            [tuple(map(float, r.entries)) for r in twin.rows])


# the rows of the bases that curved plane bends are reflected from
BASES = {forms.SPHERICAL: ((0, 1, 1, 2), oracles.BASE_ROWS["spherical"]),
         forms.HYPERBOLIC: ((-2, 3, 5, 6), oracles.BASE_ROWS["hyperbolic"])}


@pytest.mark.parametrize("geometry", sorted(BASES))
def test_base_bends_give_the_base_rows_in_both_modes(geometry):
    # float base bends realize as their exact twins, bit for bit, so float
    # walks of these seeds run on small ints
    bends, rows = BASES[geometry]
    exact = apollonian.realize_bends(geometry, bends)
    assert tuple(r.entries for r in exact.rows) == rows
    assert all(type(x) is F for r in exact.rows for x in r.entries)
    fl = apollonian.realize_bends(geometry, tuple(map(float, bends)))
    assert repr([r.entries for r in fl.rows]) == repr(
        [tuple(map(float, r)) for r in rows])


def test_an_isotropic_reflection_is_made_of_two():
    # for (-3, 5, 7, 9) the vector e - W0^{-1} c is isotropic, so the
    # realizer reflects twice
    coths = (-3, 5, 7, 9)
    assert oracles.isotropic_reflection("hyperbolic", coths)
    for mode in (EXACT, FLOAT):
        values = tuple(map(F if mode == EXACT else float, coths))
        w = apollonian.realize_bends(forms.HYPERBOLIC, values)
        assert w.bends == values and w.mode == mode
        res = w.residual()
        assert res.ok and res.max_abs_entry_error == 0
        assert [r.entries for r in w.rows] == [
            (c,) + tuple(row[1:]) for c, row in
            zip(values, oracles.reflected_base("hyperbolic", coths))]


def _sheet_breaks(w):
    """Rows of |coth| >= 1 with a nonzero tail whose q_0 has the other sign
    than their coth: points of the lower sheet."""
    return [r.entries for r in w.rows
            if abs(r.entries[0]) >= 1 and any(r.entries[1:])
            and (r.entries[0] > 0) != (r.entries[1] > 0)]


def test_hyperbolic_rows_lie_on_the_upper_sheet():
    realized = 0
    for v in _bend_vectors(forms.HYPERBOLIC) + [(-1, 1, 2, 2), (-3, 5, 7, 9)]:
        for values in (v, tuple(map(float, v))):
            try:
                w = apollonian.realize_bends(forms.HYPERBOLIC, values)
            except ValueError:
                continue
            assert _sheet_breaks(w) == [], values
            realized += 1
    assert realized >= 2 * 70, realized


def test_a_reflection_with_another_factor_fails_the_exact_gate():
    # the check that realize_bends passes tells the reflection from one
    # with its 2 turned into 1, which is no isometry of the Gram target
    for geometry, coths in ((forms.SPHERICAL, (8, 1, 1, 2)),
                            (forms.HYPERBOLIC, (-1, 1, 2, 2)),
                            (forms.HYPERBOLIC, (-3, 5, 7, 9))):
        for factor, ok in ((2, True), (1, False)):
            rows = oracles.reflected_base(geometry, coths, factor)
            w = forms.ConfigMatrix.from_rows(geometry, rows)
            assert (w.residual().ok and w.bends == coths) is ok, \
                (geometry, coths, factor)


# --- exact bends above the plane -------------------------------------------

CURVED = (forms.SPHERICAL, forms.HYPERBOLIC)
# the entries of the exact vectors of each dimension with an exact base
EXACT_RANGES = {1: range(-20, 21), 8: range(-5, 4), 9: range(-5, 4)}


def _exact_vectors(geometry, n):
    """The non-decreasing int vectors of n+2 entries in EXACT_RANGES[n] that
    meet the geometry's bend relation."""
    return [v for v in itertools.combinations_with_replacement(
        EXACT_RANGES[n], n + 2) if forms.bend_residual(geometry, v) == 0]


@pytest.mark.parametrize("geometry", CURVED)
def test_every_exact_vector_above_the_plane_reflects_the_exact_base(
        geometry, monkeypatch):
    """Every exact vector of n = 1, 8 and 9 with entries in EXACT_RANGES
    that meets the bend relation is realized with the bends as given, and
    its rows are those of oracles.reflected_base on Fractions from the
    exact base of its dimension, which meet W^T Q_n W = T by the Fraction
    Gram formula, as the base does; the spherical base has the cot values
    of its table.  The hyperbolic inputs whose e - g is isotropic take the
    two reflections of forms._carried."""
    carried = []
    inner = forms._carried
    monkeypatch.setattr(forms, "_carried",
                        lambda *args: carried.append(args) or inner(*args))
    isotropic, counts = [], {}
    for n in EXACT_RANGES:
        rows, sigma = forms._base(geometry, n, EXACT)[:2]
        w0 = [[F(x, sigma) for x in row] for row in rows]
        assert oracles.curved_identity_holds(geometry, w0), n
        if geometry == forms.SPHERICAL:
            assert tuple(r[0] for r in w0) == forms._EXACT_BASE_COTS[n]
        vectors = _exact_vectors(geometry, n)
        for v in vectors:
            before = len(carried)
            w = apollonian.realize_bends(geometry, v)
            got = tuple(r.entries for r in w.rows)
            assert w.mode == EXACT and w.bends == v, v
            assert got == oracles.reflected_base(geometry, v, w0=w0), v
            assert oracles.curved_identity_holds(geometry, got), v
            assert w.residual().max_abs_entry_error == 0, v
            if len(carried) > before:
                isotropic.append(v)
        counts[n] = len(vectors)
    if geometry == forms.SPHERICAL:
        assert counts == {1: 14, 8: 42, 9: 73} and isotropic == []
    else:
        assert counts == {1: 67, 8: 68, 9: 110}
        assert sorted(isotropic) == [(-17, -7, 5), (-11, -4, 3),
                                     (-5,) * 8 + (-1, 1), (-5, -1, 1)]


def test_an_n8_coth_vector_the_search_refused_is_realized():
    # a tail search gave up on these coth values after about 4 s
    coths = (-5, -5, -4, -3, -3, -3, -2, -1, -1, -1)
    w = apollonian.realize_bends(forms.HYPERBOLIC, coths)
    assert w.mode == EXACT and w.bends == coths
    assert w.residual().max_abs_entry_error == 0


# exact vectors meeting the bend relation in n = 18 and 25, which have
# rational configurations but no exact base
_NO_BASE_BENDS = {
    forms.SPHERICAL: ((-3,) * 11 + (-2,) * 6 + (-1,) * 3,
                      (-3,) * 19 + (-2,) * 5 + (-1,) * 3),
    forms.HYPERBOLIC: ((-3,) * 18 + (-1, 1), (-3,) * 25 + (-1, 1)),
}


@pytest.mark.parametrize("geometry", CURVED)
def test_exact_dimensions_with_no_base_refuse_at_once(geometry, monkeypatch):
    searches = []
    monkeypatch.setattr(linalg, "realize_tails",
                        lambda *args: searches.append(args))
    for bends, n in zip(_NO_BASE_BENDS[geometry], (18, 25)):
        assert len(bends) == n + 2
        assert forms.bend_residual(geometry, bends) == 0
        start = time.perf_counter()
        with pytest.raises(ExactnessError, match=f"^no exact base "
                           f"configuration is known for n = {n};"):
            apollonian.realize_bends(geometry, bends)
        assert time.perf_counter() - start < 0.01, n
    assert searches == []


@pytest.mark.parametrize("geometry", CURVED)
def test_each_exact_base_is_searched_once(geometry, monkeypatch):
    # the tail search finds the base of a dimension, and every exact vector
    # of that dimension is then reflected from it
    searches = []
    inner = linalg.realize_tails
    monkeypatch.setattr(linalg, "realize_tails",
                        lambda *args: searches.append(args) or inner(*args))
    forms._base.cache_clear()
    vectors = _exact_vectors(geometry, 8)
    for v in vectors:
        assert apollonian.realize_bends(geometry, v).bends == v
    assert len(vectors) > 40 and len(searches) == 1


@pytest.mark.parametrize("geometry,bends,moved", (
    (forms.SPHERICAL, (0, 1, 1, 2), 1e-4 / 2),
    (forms.SPHERICAL, (2494144, 103325, 298613, 863010), 1e-9),
    (forms.HYPERBOLIC, (132782, 383751, 1109049, 45942), 1e-9)))
def test_float_tangent_rows_reject_near_misses(geometry, bends, moved):
    # the last two vectors lie on the loxodromic walks from (0, 1, 1, 2) and
    # (-2, 3, 5, 6); each vector's largest entry is moved by moved relative
    assert forms.bend_residual(geometry, tuple(map(F, bends))) == 0
    near_miss = list(map(float, bends))
    i = max(range(4), key=near_miss.__getitem__)
    near_miss[i] *= 1 + moved
    with pytest.raises(ValueError, match="violate the bend relation"):
        apollonian.realize_bends(geometry, tuple(near_miss))
