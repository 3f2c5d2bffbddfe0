"""Moebius moves as one right multiplication, W -> W G.

A Moebius map acts on the rows of a configuration from the right, while
the Apollonian reflections act from the left (Lagarias, Mallows, Wilks;
Graham, Lagarias, Mallows, Wilks, Yan I).  So generate, loxodromic and
convert_matrix commute with transform.moved: walking a moved seed gives
the moved walk, as long as the bound sees the same bends.  Translations
keep the bends, a dilation by s divides them by s (and the bound with
them), and the other moves are checked on walks capped by depth under a
bound that prunes nothing.

Exact results compare with ==, float results in row count and to 1e-12
relative to each row's largest entry.  tests/test_euclid.py checks the
matrices against objects moved by hand, from their centers, radii,
normals and offsets.
"""

import functools
import math
import sys
from bisect import bisect_left
from fractions import Fraction as F

import pytest

import oracles
from inversive import apollonian, forms, linalg, transform
from inversive.scalars import EXACT, FLOAT, ExactnessError, coerce_row

E, S = forms.EUCLIDEAN, forms.SPHERICAL
GEOMS = forms.GEOMETRIES
MODES = (EXACT, FLOAT)
# every dimension and mode with a standard seed here: no exact n = 3 exists
DIMENSIONS = [(2, EXACT), (2, FLOAT), (3, FLOAT)]
REL = 1e-12


def _v(n):
    return (F(3, 7), F(-2, 5), F(1, 3))[:n]


def _moves(n):
    """The moves of the oracle on n-space, by name."""
    t, d, i = (transform.translation(_v(n)), transform.dilation(F(5, 3), n),
               transform.inversion(n))
    return {"translation": t, "dilation": d, "inversion": i,
            "composite": linalg.matmul(linalg.matmul(t, d), i)}


def _moved_rows(geometry, rows, g, mode):
    """Rows of the geometry moved one by one: converted to Euclidean rows,
    times g, converted back."""
    n = len(g) - 2
    to_e = transform.conversion_matrix(geometry, E, n, mode)
    from_e = transform.conversion_matrix(E, geometry, n, mode)
    g = [coerce_row(row, mode) for row in g]
    return [linalg.matmul(linalg.matmul(linalg.matmul([r], to_e), g),
                          from_e)[0] for r in rows]


def _close(a, b):
    scale = max(1.0, max(map(abs, a)), max(map(abs, b)))
    return all(abs(x - y) <= REL * scale for x, y in zip(a, b))


def _same_rows(got, want, col):
    """Whether two row lists hold the same rows: equal as multisets in
    exact mode, matched one to one within REL in float mode."""
    if len(got) != len(want):
        return False
    if all(isinstance(x, F) for row in got for x in row):
        return sorted(got) == sorted(want)
    pool = sorted(want, key=lambda r: r[col])
    bends = [r[col] for r in pool]
    used = [False] * len(pool)
    # no bend of a match is further off than REL times the largest entry
    window = REL * max(1.0, max(abs(x) for row in got + want for x in row))
    for row in got:
        b = row[col]
        i = bisect_left(bends, b - window)
        while i < len(pool) and bends[i] <= b + window:
            if not used[i] and _close(row, pool[i]):
                used[i] = True
                break
            i += 1
        else:
            return False
    return True


def _check_generate(seed, g, bound, moved_bound, **caps):
    """generate of the moved seed against the moved generate, with the
    walk's counters."""
    mode, geometry = seed.mode, seed.geometry
    plain = apollonian.generate(seed, bound, **caps)
    moved = apollonian.generate(transform.moved(seed, g), moved_bound, **caps)
    assert (moved.explored, moved.depth, moved.truncated) == (
        plain.explored, plain.depth, plain.truncated)
    want = _moved_rows(geometry, [r.entries for r in plain.rows], g, mode)
    assert _same_rows([r.entries for r in moved.rows], want,
                      forms.bend_column(geometry))
    return len(plain.rows)


# --- generate -------------------------------------------------------------

# the bound and row count of the walks of the standard seeds below
_BOUNDED = {2: (1000, 3329), 3: (6, 732)}


@pytest.mark.parametrize("move", ["translation", "dilation"])
@pytest.mark.parametrize("n,mode", DIMENSIONS)
def test_generate_commutes_with_euclidean_moves(n, mode, move):
    # a translation keeps every bend, a dilation by s divides them by s,
    # and the bound with them
    g = _moves(n)[move]
    bound, rows = _BOUNDED[n]
    bound, s = (F(bound), g[0][0]) if mode == EXACT else (bound, float(g[0][0]))
    seed = apollonian.standard_seed(E, n, mode)
    assert _check_generate(seed, g, bound, bound / s) == rows


@pytest.mark.parametrize("s", [1e7, 1e-7])
def test_generate_commutes_with_extreme_dilations_float_n3(s):
    # float rows are deduplicated by exact equality and the bound widened
    # relative to the bound and the seed, so the walk is the same at any
    # scale; the cap only guards against a walk that would not end
    seed = apollonian.standard_seed(E, 3, FLOAT)
    assert _check_generate(seed, transform.dilation(s, 3), 6.0, 6.0 / s,
                           max_configs=20000) == _BOUNDED[3][1]


@pytest.mark.parametrize("geometry", GEOMS)
@pytest.mark.parametrize("move", ["translation", "dilation", "inversion",
                                  "composite"])
@pytest.mark.parametrize("n,mode", DIMENSIONS)
def test_capped_generate_commutes_with_every_move(n, mode, move, geometry):
    # the moves of the curved geometries, and inversion, change the bends;
    # a bound that prunes nothing leaves the walk to the depth cap
    seed = apollonian.standard_seed(geometry, n, mode)
    bound = F(10**9) if mode == EXACT else 1e9
    rows = _check_generate(seed, _moves(n)[move], bound, bound,
                           max_depth=4 if n == 2 else 3)
    assert rows > 40


# --- float dilations by powers of two --------------------------------------

# the float seed realized from its bends, whose int frame has the scale
# 2^54, and its walk at 200.0, of 413 rows; the frames of the dilated seeds
# have scales from 2^54 to 2^1052 (k = -1000), so their walks leave them
# by both float exits of scalars.unscaled_rows: by one division per entry
# past 2^1022, and as float(x) times 2^-k up to it
_DILATED_KS = range(-1000, 1016, 50)


@functools.lru_cache(maxsize=None)
def _power_of_two_walk():
    seed = apollonian.realize_bends(E, (-1.0, 2.0, 2.0, 3.0))
    return seed, apollonian.generate(seed, 200.0)


def _power_of_two_moved(seed, k):
    return transform.moved(seed, transform.dilation(2.0 ** k, 2))


def _hexes(rows):
    return [tuple(x.hex() for x in row) for row in rows]


@pytest.mark.parametrize("k", _DILATED_KS)
def test_float_walks_commute_with_power_of_two_dilations_to_the_bit(k):
    seed, plain = _power_of_two_walk()
    assert len(plain.rows) == 413
    moved_seed = _power_of_two_moved(seed, k)
    assert _hexes(r.entries for r in moved_seed.rows) == _hexes(
        oracles.power_of_two_dilated([r.entries for r in seed.rows], k))
    moved = apollonian.generate(moved_seed, math.ldexp(200.0, -k))
    assert (moved.explored, moved.depth) == (plain.explored, plain.depth)
    assert _hexes(r.entries for r in moved.rows) == _hexes(
        oracles.power_of_two_dilated([r.entries for r in plain.rows], k))


def test_power_of_two_dilations_reach_both_float_exits():
    seed, _ = _power_of_two_walk()
    scales = [_power_of_two_moved(seed, k).int_frame[1] for k in _DILATED_KS]
    assert min(scales) <= 2 ** 1022 < max(scales)


def test_power_of_two_dilations_past_the_float_range_are_refused():
    seed, _ = _power_of_two_walk()
    # the walk's rows pass 2^1024 on their way out of the frame
    moved_seed = _power_of_two_moved(seed, 1020)
    with pytest.raises(ValueError, match="is beyond the float range$"):
        apollonian.generate(moved_seed, math.ldexp(200.0, -1020))
    # 1/s = 2^-k of the dilation matrix is past the float range
    for k in (-1040, -1074):
        with pytest.raises(ValueError, match="does not keep the Euclidean "
                           "Gram target"):
            _power_of_two_moved(seed, k)


# --- loxodromic -----------------------------------------------------------

@pytest.mark.parametrize("move", ["translation", "dilation"])
@pytest.mark.parametrize("n,mode", DIMENSIONS)
def test_loxodromic_commutes_with_euclidean_moves(n, mode, move):
    seed = apollonian.standard_seed(E, n, mode)
    g = _moves(n)[move]
    s = g[0][0] if mode == EXACT else float(g[0][0])
    plain = apollonian.loxodromic(seed, 24)
    moved = apollonian.loxodromic(transform.moved(seed, g), 24)
    want = [transform.moved(w, g) for w in plain.configs]
    assert len(moved.configs) == len(want) == 25
    if mode == EXACT:
        assert moved.bends == tuple(b / s for b in plain.bends)
        assert list(moved.configs) == want
        return
    assert all(_close((a,), (b / s,))
               for a, b in zip(moved.bends, plain.bends))
    for got, w in zip(moved.configs, want):
        assert all(_close(a.entries, b.entries)
                   for a, b in zip(got.rows, w.rows))


# --- convert_matrix -------------------------------------------------------

@pytest.mark.parametrize("src", GEOMS)
@pytest.mark.parametrize("n,mode", DIMENSIONS)
def test_convert_matrix_commutes_with_every_move(n, mode, src):
    w = apollonian.reflect(apollonian.standard_seed(src, n, mode), 1)
    for name, g in _moves(n).items():
        for to in GEOMS:
            got = transform.convert_matrix(transform.moved(w, g), to)
            want = transform.moved(transform.convert_matrix(w, to), g)
            assert got.geometry == want.geometry == to
            if mode == EXACT:
                assert got == want, (name, to)
            else:
                assert all(_close(a.entries, b.entries)
                           for a, b in zip(got.rows, want.rows)), (name, to)


# --- the matrices and moved ------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_move_matrices_keep_the_gram_target(n, mode):
    target = forms.target_for(E, n, mode)
    for name, g in _moves(n).items():
        g = [coerce_row(row, mode) for row in g]
        res = forms.check_identity(g, target, target)
        assert res.ok, name
        if mode == EXACT:
            assert res.max_abs_entry_error == 0


def test_moved_round_trip_in_every_geometry():
    for geometry in GEOMS:
        w = apollonian.standard_seed(geometry, 2, EXACT)
        v, s = (F(3, 7), F(-2, 5)), F(5, 3)
        there = linalg.matmul(transform.translation(v),
                              transform.dilation(s, 2))
        back = linalg.matmul(transform.dilation(1 / s, 2),
                             transform.translation(tuple(-x for x in v)))
        out = transform.moved(w, there)
        assert out.geometry == geometry and out.mode == EXACT
        assert out.residual().max_abs_entry_error == 0
        assert out != w and transform.moved(out, back) == w


def test_moved_keeps_the_mode():
    w = apollonian.standard_seed(S, 2, FLOAT)
    out = transform.moved(w, transform.translation(_v(2)))
    assert out.mode == FLOAT and out.residual().ok
    assert transform.moved(w, transform.translation((0.5, 0.25))).mode == FLOAT
    # a float g is checked entry by entry against the rounding of its
    # columns, as generate checks a seed, so that rounding alone does not
    # refuse a large translation
    seed = apollonian.standard_seed(E, 2, FLOAT)
    for v in ((12345 / 7, -3 / 11), (1e6, 1e6 / 3)):
        far = transform.moved(seed, transform.translation(v))
        assert len(apollonian.generate(far, 100.0).rows) == 169


@pytest.mark.parametrize("geometry", (S, forms.HYPERBOLIC))
@pytest.mark.parametrize("k", (4, 8))
def test_float_curved_dilations_round_each_entry_once(geometry, k):
    """A float curved seed dilated by 10^k is moved on the exact values of
    its rows and of g, each entry rounded once: it passes its Gram check,
    and each entry is within 4 ulp of the exact move of the exact seed.  A
    float product C g C^{-1} has entries near 10^k / 2 that cancel in the
    rows, which left the cot and coth entries near 10^-k off by half."""
    w = transform.moved(apollonian.standard_seed(geometry, 2, FLOAT),
                        transform.dilation(10.0 ** k, 2))
    exact = transform.moved(apollonian.standard_seed(geometry, 2, EXACT),
                            transform.dilation(10 ** k, 2))
    assert w.mode == FLOAT and w.residual().ok
    for row, ref in zip(w.matrix(), exact.matrix()):
        for x, y in zip(row, ref):
            assert abs(x - y) <= 4 * sys.float_info.epsilon * abs(y), (x, y)


def test_moved_rejects_bad_moves():
    w = apollonian.standard_seed(E, 2, EXACT)
    with pytest.raises(ExactnessError):
        transform.moved(w, transform.translation((0.5, 0.25)))
    with pytest.raises(ValueError, match="does not fit"):
        transform.moved(w, transform.inversion(3))
    with pytest.raises(ValueError, match="target shape"):
        transform.moved(w, [row[:3] for row in transform.inversion(2)])
    with pytest.raises(ValueError, match="Gram target"):
        transform.moved(w, linalg.block_diag((), (2, 1, 1, 1), EXACT))
