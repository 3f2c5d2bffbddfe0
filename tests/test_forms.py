"""Quadratic forms, Gram targets, and the identity checker."""

from fractions import Fraction as F

import numpy as np
import pytest

from inversive import apollonian, forms, linalg, shell
from inversive.scalars import EXACT, FLOAT

import oracles


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


@pytest.mark.parametrize("geometry,bends,realized", (
    (forms.SPHERICAL, (0, 1, 1, 2), 45),
    (forms.HYPERBOLIC, (-2, 3, 5, 6), 46)))
def test_float_tangent_rows_accept_rounded_walk_vectors(geometry, bends,
                                                        realized):
    # the loxodromic walk passes 10^12 within 60 steps; every bend vector on
    # it meets the relation, so float mode may not reject one for its
    # residual, which is float rounding that grows with the square of the
    # bends (the tail search may still find no realization)
    seed = apollonian.realize_bends(geometry, tuple(map(F, bends)))
    count = 0
    for w in apollonian.loxodromic(seed, 60).configs:
        try:
            apollonian.realize_bends(geometry, tuple(map(float, w.bends)))
        except ValueError as e:
            assert "violate" not in str(e), w.bends
        else:
            count += 1
    assert count == realized


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
