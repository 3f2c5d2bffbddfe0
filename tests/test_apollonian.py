"""Reflection group, packing generation, loxodromic sequences."""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from inversive import apollonian, forms, linalg, onedim, shell, transform
from inversive.scalars import DEFAULT_TOL, EXACT, FLOAT, ExactnessError, coerce
from test_reference_kernels import (_ref_column_sums, _ref_reflect_entries,
                                    _reference_loxodromic,
                                    _rounded_reference_loxodromic)

import oracles


SEED_ROWS = ((1, -1, 0, 0), (0, 2, 1, 0), (0, 2, -1, 0), (1, 3, 0, 2))

BOUND20_BENDS = (
    [-1, 2, 2, 3, 3] + [6] * 4 + [11] * 4 + [14] * 4 + [15, 15] + [18] * 4
)


def _eye(k):
    return np.array([[F(int(a == b)) for b in range(k)] for a in range(k)])


def test_reflection_matrix_involution_preserves_form():
    for n in (2, 3, 5):
        q = np.array(forms.descartes_form(n).matrix)
        for i in range(n + 2):
            r = np.array(oracles.reflection_matrix(n, i))
            assert (r @ r == _eye(n + 2)).all()
            assert (r.T @ q @ r == q).all()


def test_reflection_matrix_rejects_dimension_one():
    with pytest.raises(ValueError):
        oracles.reflection_matrix(1, 0)


def test_reflect_is_the_reflection_matrix_on_the_left(word_fuzz, rng):
    # reflect(w, i) against R W with the exact R of the paper, computed
    # apart from the reflection kernel: equal on exact configurations of
    # each geometry, within rounding on the float n = 3 seeds
    for geometry in (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC):
        for w in word_fuzz(geometry, 2, EXACT, 40, 8, rng):
            m = np.array(w.matrix())
            for i in range(4):
                r = np.array(oracles.reflection_matrix(2, i))
                assert (np.array(apollonian.reflect(w, i).matrix())
                        == r @ m).all(), (geometry, i)
        w = apollonian.standard_seed(geometry, 3, mode=FLOAT)
        m = np.array(w.matrix())
        for i in range(5):
            r = np.array(oracles.reflection_matrix(3, i))
            got = np.array(apollonian.reflect(w, i).matrix())
            assert np.allclose(got, (r @ m).astype(float), rtol=1e-12,
                               atol=1e-12), (geometry, i)


def test_reflect_first_generation(euclid_seed):
    seed = euclid_seed
    assert tuple(r.entries for r in seed.rows) == SEED_ROWS
    new_bends = [apollonian.reflect(seed, i).bends[i] for i in range(4)]
    assert new_bends == [15, 6, 6, 3]
    r3 = apollonian.reflect(seed, 3)
    assert r3.rows[3].entries == (1, 3, 0, -2)
    again = apollonian.reflect(r3, 3)
    assert tuple(r.entries for r in again.rows) == SEED_ROWS


def test_reflect_validate_flags_broken_input(euclid_seed):
    rows = [list(x.entries) for x in euclid_seed.rows]
    rows[0][0] += 1
    bad = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows)
    # the reflection is applied blindly; its residual flags the input
    assert not apollonian.reflect(bad, 0).residual().ok


def _kernel_rows(width, kind, rng):
    """width rows of width random entries of one kind: ints past 2^64,
    Fractions, or floats over 40 orders of magnitude.  Float rows also
    hold a column whose sum depends on the order of addition, 1.0 added
    left to right and 0.0 right to left, and a column of -0.0."""
    if kind == "int":
        def draw():
            return rng.randrange(-10 ** 20, 10 ** 20)
    elif kind == "fraction":
        def draw():
            return F(rng.randrange(-10 ** 6, 10 ** 6),
                     rng.randrange(1, 10 ** 4))
    else:
        def draw():
            return rng.uniform(-1, 1) * 10.0 ** rng.randrange(-20, 20)
    rows = [[draw() for _ in range(width)] for _ in range(width)]
    if kind == "float":
        cancelling = (1e16, 1.0, -1e16, 1.0) + (0.0,) * (width - 4)
        for row, x in zip(rows, cancelling):
            row[0], row[1] = x, -0.0
    return tuple(map(tuple, rows))


def _kernel_coefficient(width, kind):
    """The coefficient 2/(n-1) of a walk of width n + 2: on int rows an int
    for n = 2 and 3 and a Fraction above (_int_frame), a Fraction on
    Fraction rows, a float on float rows."""
    n = width - 2
    if kind == "float":
        return 2.0 / (n - 1)
    return 2 // (n - 1) if kind == "int" and n <= 3 else F(2, n - 1)


@pytest.mark.parametrize("kind", ("int", "fraction", "float"))
@pytest.mark.parametrize("width", range(4, 11))
def test_row_kernels_match_reference(width, kind, rng):
    # the unrolled kernels against the loops of the reference, to the bit
    # and the entry type (repr tells int, Fraction and float apart), -0.0
    # and the order of float addition included
    sums, reflected = apollonian._row_kernels(width)
    assert apollonian._row_kernels(width) == (sums, reflected)
    coeff = _kernel_coefficient(width, kind)
    for _ in range(5):
        rows = _kernel_rows(width, kind, rng)
        total = sums(rows)
        assert _bits([total]) == _bits([_ref_column_sums(rows)])
        if kind == "float":
            assert repr(total[:2]) == "(1.0, -0.0)"
        for i in range(width):
            expected = _ref_reflect_entries(rows, i, coeff)
            assert _bits([reflected(total, rows[i], coeff)]) \
                == _bits(expected[i:i + 1])
            assert _bits(apollonian._reflect_entries(rows, i, coeff)) \
                == _bits(expected)


def test_generate_bound_twenty(euclid_seed):
    p = apollonian.generate(euclid_seed, 20)
    assert sorted(p.bends) == BOUND20_BENDS
    assert len(p.rows) == 23
    assert (p.geometry, p.n, p.bound) == (forms.EUCLIDEAN, 2, 20)
    assert p.depth == 5 and p.explored == 20
    assert not p.truncated
    assert p.configs is None


def test_generate_keep_configs_all_valid(euclid_seed):
    p = apollonian.generate(euclid_seed, 20, keep_configs=True)
    assert len(p.configs) == 20
    q = forms.descartes_form(2)
    target = forms.target_for(forms.EUCLIDEAN, 2)
    for w in p.configs:
        assert forms.check_identity(w, q, target).ok


def _complex_route_rows(bound):
    """Enumerate the gasket of (-1, 2, 2, 3) by the bend and bend*center
    recurrence alone: reflecting index i sends each coordinate x_i to
    2*(sum of the others) - x_i.  No shared code with generate()."""
    seed = (
        (F(-1), F(0), F(0)),
        (F(2), F(1), F(0)),
        (F(2), F(-1), F(0)),
        (F(3), F(0), F(2)),
    )
    seen = {frozenset(seed)}
    rows = set(seed)
    queue = [seed]
    while queue:
        cfg = queue.pop()
        for i in range(4):
            others = [cfg[j] for j in range(4) if j != i]
            new = tuple(2 * sum(o[k] for o in others) - cfg[i][k] for k in range(3))
            if new[0] > bound:
                continue
            child = cfg[:i] + (new,) + cfg[i + 1:]
            key = frozenset(child)
            if key not in seen:
                seen.add(key)
                rows.add(new)
                queue.append(child)
    return rows


def test_generate_matches_complex_descartes_enumeration(euclid_seed):
    p = apollonian.generate(euclid_seed, 60)
    got = set()
    for r in p.rows:
        bbar, b, m1, m2 = r.entries
        assert b != 0
        # co-curvature is determined by the rest of the row
        assert bbar * b == m1 * m1 + m2 * m2 - 1
        got.add((b, m1, m2))
    assert got == _complex_route_rows(F(60))


# The breadth-first Fraction closure that generate() ran before it moved onto
# scaled integer rows, kept verbatim as an independent oracle.
def _reference_reflect_entries(entry_rows, i, coeff):
    total = entry_rows[0]
    for row in entry_rows[1:]:
        total = tuple(a + b for a, b in zip(total, row))
    old = entry_rows[i]
    new = tuple(coeff * (t - x) - x for t, x in zip(total, old))
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def _reference_row_key(entries, exact):
    if exact:
        return entries
    return tuple(round(float(x), 6) for x in entries)


def _reference_generate(seed, bound, keep_configs=False, max_depth=None,
                        max_configs=None, tol=DEFAULT_TOL, check=True):
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    n = seed.n
    if n < 2:
        raise ValueError("generation needs n >= 2")
    mode = seed.mode
    exact = mode == EXACT
    q = forms.descartes_form(n, mode)
    res = forms.check_identity(seed, q, forms.target_for(seed.geometry, n, mode),
                               tol)
    if check and not res.ok:
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")
    coeff = coerce(2, mode) / (n - 1)
    col = forms.bend_column(seed.geometry)
    if exact:
        bound_value = limit = F(bound)
    else:
        bound_value = float(bound)
        limit = bound_value + tol * max(1.0, bound_value)
    if bound_value < 0:
        raise ValueError("bound must be nonnegative")

    seed_rows = tuple(r.entries for r in seed.rows)
    seed_key = tuple(sorted(_reference_row_key(r, exact) for r in seed_rows))
    seen_configs = {seed_key}
    kept_configs = {seed_key: seed_rows}
    row_map = {}
    for r in seed_rows:
        row_map.setdefault(_reference_row_key(r, exact), r)

    frontier = [seed_rows]
    explored = 0
    depth = 0
    truncated = False
    while frontier:
        if max_depth is not None and depth >= max_depth:
            truncated = True
            break
        explored += len(frontier)
        next_frontier = []
        for entry_rows in frontier:
            for i in range(n + 2):
                new_rows = _reference_reflect_entries(entry_rows, i, coeff)
                if abs(new_rows[i][col]) > limit:
                    continue
                key = tuple(sorted(_reference_row_key(r, exact) for r in new_rows))
                if key in seen_configs:
                    continue
                if max_configs is not None and len(seen_configs) >= max_configs:
                    truncated = True
                    break
                seen_configs.add(key)
                kept_configs[key] = new_rows
                for r in new_rows:
                    row_map.setdefault(_reference_row_key(r, exact), r)
                next_frontier.append(new_rows)
            if truncated:
                break
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    sorted_rows = tuple(
        forms.CoordRow(seed.geometry, row_map[k]) for k in sorted(row_map))
    configs = None
    if keep_configs:
        configs = tuple(
            forms.ConfigMatrix.from_rows(seed.geometry, kept_configs[k],
                                         mode=mode)
            for k in sorted(kept_configs))
    return apollonian.Packing(seed.geometry, n, seed, sorted_rows, bound_value,
                              configs, explored, depth, truncated)


def _fraction_twin(seed):
    """The exact configuration of a float seed's own values: every finite
    float is a dyadic rational."""
    rows = [[F(x) for x in r.entries] for r in seed.rows]
    return forms.ConfigMatrix.from_rows(seed.geometry, rows)


def _rounded_reference(seed, bound, keep_configs=False, tol=DEFAULT_TOL,
                       **caps):
    """The packing of a float seed under the contract of float generate():
    the float seed passes the float check; its Fraction twin is walked by
    _reference_generate, exactly, to the bound widened by tol * max(bound,
    max |seed bend|); and each entry is rounded once.  The twin meets its
    Gram identity only up to the seed's rounding, so its check is the float
    one made first."""
    n = seed.n
    res = forms.check_identity(seed, forms.descartes_form(n, FLOAT),
                               forms.target_for(seed.geometry, n, FLOAT), tol)
    if not res.ok:
        raise ValueError(
            f"invalid seed, Gram residual {res.max_abs_entry_error}")
    bound = float(bound)
    limit = bound + tol * max(bound, *map(abs, seed.bends))
    ref = _reference_generate(_fraction_twin(seed), F(limit), keep_configs,
                              check=False, **caps)
    rows = tuple(forms.CoordRow(seed.geometry, tuple(map(float, r.entries)))
                 for r in ref.rows)
    configs = ref.configs and tuple(map(_float_twin, ref.configs))
    return apollonian.Packing(seed.geometry, n, seed, rows, bound, configs,
                              ref.explored, ref.depth, ref.truncated)


def _dilated(seed, s):
    """A Euclidean configuration scaled by s about the origin: each row
    (bbar, b, m1, m2) becomes (bbar * s, b / s, m1, m2)."""
    rows = [(r.entries[0] * s, r.entries[1] / s) + r.entries[2:] for r in seed.rows]
    return forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows)


def _float_twin(seed):
    rows = [[float(x) for x in r.entries] for r in seed.rows]
    return forms.ConfigMatrix.from_rows(seed.geometry, rows, mode=FLOAT)


def _realized(geometry, bends):
    return lambda: apollonian.realize_bends(geometry, tuple(map(F, bends)))


def _standard_dilated(s):
    return lambda: _dilated(apollonian.standard_seed(forms.EUCLIDEAN), s)


# name: (seed builder, bound, truncation caps)
_ORACLE_INPUTS = {
    "euclidean-1000": (_realized(forms.EUCLIDEAN, (-1, 2, 2, 3)), 1000, {}),
    "euclidean-600": (_realized(forms.EUCLIDEAN, (-8, 16, 16, 24)), 600, {}),
    "strip-configs": (_realized(forms.EUCLIDEAN, (0, 0, 1, 1)), 1,
                      {"max_configs": 60}),
    "strip-depth": (_realized(forms.EUCLIDEAN, (0, 0, 1, 1)), 1, {"max_depth": 6}),
    "spherical-200": (_realized(forms.SPHERICAL, (0, 1, 1, 2)), 200, {}),
    "hyperbolic-200": (_realized(forms.HYPERBOLIC, (-2, 3, 5, 6)), 200, {}),
    "horocycles": (_realized(forms.HYPERBOLIC, (-1, 1, 1, 1)), 1000,
                   {"max_configs": 200}),
    "dilated-1/3": (_standard_dilated(F(1, 3)), 300, {}),
    "dilated-7/2": (_standard_dilated(F(7, 2)), F(200, 7), {}),
}


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("name", sorted(_ORACLE_INPUTS))
def test_generate_matches_reference(name, mode):
    build, bound, caps = _ORACLE_INPUTS[name]
    seed = build()
    reference = _reference_generate
    if mode == FLOAT:
        seed, bound = _float_twin(seed), float(bound)
        reference = _rounded_reference
    ref = reference(seed, bound, keep_configs=True, **caps)
    got = apollonian.generate(seed, bound, **caps)
    kept = apollonian.generate(seed, bound, keep_configs=True, **caps)
    assert shell.dumps_packing(got) == shell.dumps_packing(ref)
    assert kept.configs == ref.configs
    assert (got.explored, got.depth, got.truncated) == (
        ref.explored, ref.depth, ref.truncated)
    entry_type = F if mode == EXACT else float
    for p in (got, kept):
        assert all(type(x) is entry_type for r in p.rows for x in r.entries)
    assert all(type(x) is entry_type
               for w in kept.configs for r in w.rows for x in r.entries)


def test_generate_n3_float_matches_reference():
    seed = apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode=FLOAT)
    ref = _rounded_reference(seed, 4.0, keep_configs=True)
    got = apollonian.generate(seed, 4.0, keep_configs=True)
    assert shell.dumps_packing(got) == shell.dumps_packing(ref)
    assert got.configs == ref.configs
    assert (got.explored, got.depth, got.truncated) == (
        ref.explored, ref.depth, ref.truncated)


def _float_standard(n):
    return lambda: apollonian.standard_seed(forms.EUCLIDEAN, n=n, mode=FLOAT)


# n = 8 has exact configurations, det(W)^2 = 8 * 2^11 being a square; the
# walk coefficient 2/(n-1) = 2/7 is a Fraction, so the exact walk runs on
# Fractions and puts its rows back on ints at the end.  These walks do not
# end uncapped.
_N8_SPHERICAL = _realized(forms.SPHERICAL,
                          (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1))
_N8_HYPERBOLIC = _realized(forms.HYPERBOLIC,
                           (-3, -3, -2, -2, -2, -1, -1, -1, -1, 0))

# (seed builder, bound, truncation caps): each cap stops the walk among
# configurations whose rows are partly new, where row ids are given
_CAPPED_SEEDS = {
    "n3-configs-50": (_float_standard(3), 4.0, {"max_configs": 50}),
    "n3-configs-137": (_float_standard(3), 4.0, {"max_configs": 137}),
    "n3-depth-2": (_float_standard(3), 4.0, {"max_depth": 2}),
    "n3-depth-3": (_float_standard(3), 4.0, {"max_depth": 3}),
    "n4-configs-300": (_float_standard(4), 6.0, {"max_configs": 300}),
    "n8-spherical-configs-300": (_N8_SPHERICAL, 3, {"max_configs": 300}),
    "n8-spherical-depth-2": (_N8_SPHERICAL, 3, {"max_depth": 2}),
    "n8-hyperbolic-configs-300": (_N8_HYPERBOLIC, 3, {"max_configs": 300}),
    "n8-hyperbolic-depth-2": (_N8_HYPERBOLIC, 3, {"max_depth": 2}),
}


@pytest.mark.parametrize("name", _CAPPED_SEEDS)
def test_capped_higher_dimensional_walks_match_reference(name):
    build, bound, caps = _CAPPED_SEEDS[name]
    seed = build()
    reference = (_reference_generate if seed.mode == EXACT
                 else _rounded_reference)
    ref = reference(seed, bound, keep_configs=True, **caps)
    got = apollonian.generate(seed, bound, **caps)
    kept = apollonian.generate(seed, bound, keep_configs=True, **caps)
    assert ref.truncated
    assert shell.dumps_packing(got) == shell.dumps_packing(kept) \
        == shell.dumps_packing(ref)
    assert kept.configs == ref.configs
    for p in (got, kept):
        assert (p.explored, p.depth, p.truncated) == (
            ref.explored, ref.depth, ref.truncated)
    if seed.mode == EXACT:  # the frame of scalars.scaled_rows: int rows
        assert all(type(x) is int for r in got.scaled[0] for x in r)


def _bits(rows):
    """The repr of each entry: equal for floats equal to the bit, the sign
    of a zero included."""
    return [tuple(map(repr, row)) for row in rows]


# (exact seed builder, bound, truncation caps): seeds whose entries are
# dyadic, so that their float twins hold the same values
_DYADIC_SEEDS = {
    "euclidean-standard": (lambda: apollonian.standard_seed(forms.EUCLIDEAN),
                           200, {}),
    "spherical-standard": (lambda: apollonian.standard_seed(forms.SPHERICAL),
                           200, {}),
    "hyperbolic-standard": (lambda: apollonian.standard_seed(forms.HYPERBOLIC),
                            200, {"max_configs": 300}),
    "spherical-0,1,1,2": (_realized(forms.SPHERICAL, (0, 1, 1, 2)), 200, {}),
    "hyperbolic-2,3,5,6": (_realized(forms.HYPERBOLIC, (-2, 3, 5, 6)), 200,
                           {}),
}


@pytest.mark.parametrize("name", _DYADIC_SEEDS)
def test_float_walks_of_dyadic_seeds_are_the_exact_walks_rounded(name):
    # a float packing is the exact walk of its float seed, rounded once:
    # for a seed of dyadic entries that is the exact packing, each entry
    # passed through float(), in the same order, to the bit.  Seeds of
    # other entries are checked against _rounded_reference above
    build, bound, caps = _DYADIC_SEEDS[name]
    exact = build()
    seed = _float_twin(exact)
    assert _fraction_twin(seed) == exact
    ex = apollonian.generate(exact, bound, keep_configs=True, **caps)
    fl = apollonian.generate(seed, float(bound), keep_configs=True, **caps)
    assert len(fl.rows) > 100
    assert (fl.explored, fl.depth, fl.truncated) == (
        ex.explored, ex.depth, ex.truncated)
    assert _bits(r.entries for r in fl.rows) == _bits(
        map(float, r.entries) for r in ex.rows)
    assert [_bits(r.entries for r in w.rows) for w in fl.configs] == [
        _bits(map(float, r.entries) for r in w.rows) for w in ex.configs]
    ex_lox, fl_lox = (apollonian.loxodromic(w, 60) for w in (exact, seed))
    assert _bits([fl_lox.bends]) == _bits([map(float, ex_lox.bends)])
    assert [_bits(r.entries for r in w.rows) for w in fl_lox.configs] == [
        _bits(map(float, r.entries) for r in w.rows) for w in ex_lox.configs]


@pytest.mark.parametrize("s", (F(1, 10**7), F(10**7)), ids=("1e-7", "1e7"))
def test_float_dedup_at_extreme_scales(s):
    # float rows of a far dilated seed must dedup as their exact twins do
    seed = _dilated(apollonian.standard_seed(forms.EUCLIDEAN), s)
    bound = 500 / s
    exact = apollonian.generate(seed, bound)
    fl = apollonian.generate(_float_twin(seed), float(bound))
    assert len(exact.rows) == len(fl.rows) == 1325


def test_generate_is_deterministic(euclid_seed):
    p1 = apollonian.generate(euclid_seed, 200)
    p2 = apollonian.generate(euclid_seed, 200)
    assert tuple(r.entries for r in p1.rows) == tuple(r.entries for r in p2.rows)
    assert len(p1.rows) == 413


def test_generate_float_keeps_bends_on_the_bound():
    # exact mode keeps the |bend| = 600 circles of this seed; float rounding
    # lands some of them just above 600, and they must be kept all the same
    bends = (-8, 16, 16, 24)
    exact = apollonian.generate(
        apollonian.realize_bends(forms.EUCLIDEAN, tuple(map(F, bends))), 600)
    fl = apollonian.generate(
        apollonian.realize_bends(forms.EUCLIDEAN, tuple(map(float, bends))), 600)
    assert len(exact.rows) == len(fl.rows) == 119
    assert sorted(map(float, exact.bends)) == pytest.approx(sorted(fl.bends))


def test_generate_max_depth_truncates(euclid_seed):
    p = apollonian.generate(euclid_seed, 1000, max_depth=2)
    assert p.depth == 2
    assert p.truncated
    assert len(p.rows) == 20


def test_float_generate_takes_an_infinite_bound_with_a_cap():
    seed = apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT)
    p = apollonian.generate(seed, float("inf"), max_depth=3)
    assert p.truncated and p.bound == float("inf")
    assert p.rows == apollonian.generate(seed, 1e9, max_depth=3).rows


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("caps", ({"max_configs": -1}, {"max_depth": -3},
                                  {"max_configs": 5, "max_depth": -1}),
                         ids=("configs", "depth", "both"))
def test_generate_refuses_negative_caps(euclid_seed, caps, mode):
    seed = euclid_seed if mode == EXACT else _float_twin(euclid_seed)
    message = "^max_depth and max_configs must be nonnegative$"
    with pytest.raises(ValueError, match=message):
        apollonian.generate(seed, 10, **caps)


@pytest.mark.parametrize("cap,explored",
                         (("max_configs", 1), ("max_depth", 0)))
def test_generate_takes_zero_caps(euclid_seed, cap, explored):
    # a zero cap keeps the seed alone
    p = apollonian.generate(euclid_seed, 10, **{cap: 0})
    assert (p.truncated, p.explored) == (True, explored)
    assert sorted(r.entries for r in p.rows) == sorted(
        r.entries for r in euclid_seed.rows)


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("geometry,bends,bound", (
    (forms.EUCLIDEAN, (-1, 2, 2, 3), 300),
    (forms.EUCLIDEAN, (F(-1, 2), 1, 1, F(3, 2)), 40),
    (forms.SPHERICAL, (0, 1, 1, 2), 100),
    (forms.HYPERBOLIC, (-2, 3, 5, 6), 100)))
def test_generate_n2_is_a_tree(geometry, bends, bound, mode):
    # the reflections of an n = 2 configuration generate a free product of
    # four copies of Z/2: every configuration after the seed adds one new
    # circle, and no circle comes twice
    seed = apollonian.realize_bends(geometry, tuple(map(F, bends)))
    if mode == FLOAT:
        seed, bound = _float_twin(seed), float(bound)
    p = apollonian.generate(seed, bound)
    assert not p.truncated
    assert len(p.rows) == p.explored + 3
    assert len({r.entries for r in p.rows}) == len(p.rows)
    # and the rows are sorted, each above the one before
    rows = [r.entries for r in p.rows]
    assert all(a < b for a, b in zip(rows, rows[1:]))


def _moved(seed, s, t):
    """seed dilated by s about the origin, then translated by t."""
    return transform.moved(seed, linalg.matmul(transform.dilation(s, 2),
                                               transform.translation(t)))


_MOVES = {"t=(12345/7,-3/11)": (F(1), (F(12345, 7), F(-3, 11))),
          "t=(1e4,0)": (F(1), (F(10**4), F(0))),
          "s=1e7,t=(1/3,2/7)s": (F(10**7), (F(10**7, 3), F(2 * 10**7, 7)))}


@pytest.mark.parametrize("move", sorted(_MOVES))
def test_generate_accepts_float_roundings_of_moved_seeds(move):
    # the Gram residual of a rounded seed grows with the square of its
    # entries; an absolute 1e-9 rejected both (residuals 0.022 and 0.0625)
    s, t = _MOVES[move]
    seed = _moved(apollonian.standard_seed(forms.EUCLIDEAN), s, t)
    fl = _float_twin(seed)
    exact = apollonian.generate(seed, 300 / s)
    rounded = apollonian.generate(fl, float(300 / s))
    assert len(exact.rows) == len(rounded.rows) == 695
    assert sorted(map(float, exact.bends)) == pytest.approx(
        sorted(rounded.bends), rel=1e-9)
    assert apollonian.loxodromic(fl, 5).bends == pytest.approx(
        apollonian.loxodromic(seed, 5).bends, rel=1e-9)
    # the bar-bends (column 0) grow with the square of the distance from
    # the origin, the bends (column 1) do not: moved by 1e4 a bend off by
    # 1e-6 relative is within the rounding of the bar-bends squared, so
    # each Gram entry is checked at the size of its own two columns
    for col in (0, 1):
        rows = [list(r.entries) for r in fl.rows]
        rows[2][col] *= 1 + 1e-6
        off = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, rows, mode=FLOAT)
        with pytest.raises(ValueError, match="invalid seed"):
            apollonian.generate(off, float(300 / s))
        with pytest.raises(ValueError, match="invalid seed"):
            apollonian.loxodromic(off, 5)


def test_root_quadruple():
    assert apollonian.root_quadruple((-1, 2, 2, 3)) == (-1, 2, 2, 3)
    assert apollonian.root_quadruple((15, 2, 2, 3)) == (-1, 2, 2, 3)
    assert apollonian.root_quadruple((-3, -2, -2, 1)) == (3, 2, 2, -1)
    assert apollonian.root_quadruple((4, 0, 1, 1)) == (0, 0, 1, 1)
    assert apollonian.root_quadruple((0, 1, 1, 4)) == (0, 1, 1, 0)
    assert apollonian.root_quadruple(
        (F(15, 2), 1, 1, F(3, 2))) == (F(-1, 2), 1, 1, F(3, 2))
    w = apollonian.standard_seed(forms.EUCLIDEAN)
    for i in (3, 0, 2, 1, 3, 0):
        w = apollonian.reflect(w, i)
    assert apollonian.root_quadruple(w.bends) == (-1, 2, 2, 3)
    # a bound stops the reduction before its first step past the bound
    chain = (0, 1, 100, 121)  # (0, 1, k^2, (k+1)^2) reduces to (k-1)^2
    assert apollonian.root_quadruple(chain) == (0, 1, 0, 1)
    assert apollonian.root_quadruple(chain, 100) == (0, 1, 0, 1)
    assert apollonian.root_quadruple(chain, 80) == chain
    assert apollonian.root_quadruple(chain, 81) == (0, 1, 0, 1)


def test_generate_strip_needs_cap():
    # two parallel lines: the packing translates forever at any bound
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (F(0), F(0), F(1), F(1)))
    assert strip.rows[0].entries == (0, 0, 0, -1)
    p = apollonian.generate(strip, 1, max_configs=50)
    assert p.truncated
    assert len(p.rows) == 53


def test_generate_without_a_cap_refuses_a_strip_it_reaches():
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (F(0), F(0), F(1), F(1)))
    with pytest.raises(apollonian.InfiniteClosure, match="is a strip"):
        apollonian.generate(strip, 1)
    # from deep in a chain the walk reaches the strip (0, 1, 0, 1) only
    # once the bound takes in the next circle of the chain, 81
    deep = apollonian.realize_bends(forms.EUCLIDEAN,
                                    (F(0), F(1), F(100), F(121)))
    assert len(apollonian.generate(deep, 80).rows) == 4
    with pytest.raises(apollonian.InfiniteClosure):
        apollonian.generate(deep, 81)
    assert apollonian.generate(deep, 81, max_depth=3).truncated


@pytest.mark.parametrize("bends", ((0, 1, 10**18, (10**9 + 1)**2),
                                   (-1, 2, 10**18 + 2, (10**9 + 1)**2 + 2)))
def test_generate_without_a_cap_is_quick_deep_in_a_chain(bends):
    # the reduction to the root would take 10^9 steps; at bounds below the
    # next circle of the chain it takes none, as the walk does
    seed = apollonian.realize_bends(forms.EUCLIDEAN, tuple(map(F, bends)))
    t0 = time.perf_counter()
    for bound in (F(1, 2), 1, 10**6):
        p = apollonian.generate(seed, bound)
        assert len(p.rows) == 4 and not p.truncated
    assert time.perf_counter() - t0 < 1.0


def test_horocycle_packing_truncates(horocycle_packing):
    p = horocycle_packing.value
    assert p.geometry == forms.HYPERBOLIC
    assert p.truncated
    assert len(p.rows) > 4000


def test_loxodromic_euclidean(euclid_seed):
    lox = apollonian.loxodromic(euclid_seed, 4)
    assert lox.geometry == forms.EUCLIDEAN
    assert lox.bends == (-1, 2, 2, 3, 15, 38, 110, 323)
    assert len(lox.configs) == 5
    # second step has a bend tie; the earliest index is the one replaced
    assert lox.configs[2].rows[1].entries == (4, 38, -3, 12)
    assert apollonian.recurrence_check(lox)


def test_loxodromic_spherical_and_hyperbolic():
    slox = apollonian.loxodromic(apollonian.standard_seed(forms.SPHERICAL), 2)
    assert slox.bends == (0, 1, 1, 2, 8, 21)
    hlox = apollonian.loxodromic(apollonian.standard_seed(forms.HYPERBOLIC), 4)
    assert hlox.bends == (-1, 1, 1, 1, 7, 17, 49, 145)
    assert apollonian.recurrence_check(slox)
    assert apollonian.recurrence_check(hlox)


def test_loxodromic_rejects_n1():
    line = onedim.augmented_1d(onedim.complete_line(
        onedim.OrientedInterval(F(0), F(1)), onedim.OrientedInterval(F(1), F(3))))
    assert line.n == 1
    with pytest.raises(ValueError, match="needs n >= 2"):
        apollonian.loxodromic(line, 3)


def test_loxodromic_long_run_satisfies_recurrence(euclid_seed):
    lox = apollonian.loxodromic(euclid_seed, 50)
    assert len(lox.bends) == 54
    assert apollonian.recurrence_check(lox)
    fake = apollonian.LoxodromicSequence(
        forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3), F(15), F(38), F(111)), ()
    )
    assert not apollonian.recurrence_check(fake)


def _tie_to_greatest(seed, k):
    """(bends, configs) of the loxodromic walk with ties going to the
    greatest index: a mutant of the walk, which the tie test below must
    tell from the reference."""
    col = forms.bend_column(seed.geometry)
    coeff = coerce(2, seed.mode) / (seed.n - 1)
    rows = tuple(r.entries for r in seed.rows)
    bends = list(seed.bends)
    configs = [seed]
    for _ in range(k):
        column = [r[col] for r in rows]
        i = max(j for j, b in enumerate(column) if b == min(column))
        rows = _ref_reflect_entries(rows, i, coeff)
        bends.append(rows[i][col])
        configs.append(forms.ConfigMatrix.from_rows(seed.geometry, rows))
    return tuple(bends), configs


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_loxodromic_bend_tie_on_a_bend_frame_of_its_own(mode, monkeypatch):
    # realized (-1,2,2,3): the bends are ints, the other columns fifths, so
    # the bend column is walked over scale 1 and replayed over scale 5 (a
    # power of two above 2^50 for the float twin).  The second step meets the
    # bend tie (15,2,2,3) and replaces row 1, the least index
    seed = apollonian.realize_bends(forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3)))
    if mode == FLOAT:
        seed = _float_twin(seed)
    assert apollonian._int_frame(seed, bends_only=True)[1] == 1
    full_scale = apollonian._int_frame(seed)[1]
    if mode == EXACT:
        assert full_scale == 5
    else:
        assert full_scale > 2 ** 50
    replayed = []
    inner = apollonian._reflect_entries
    monkeypatch.setattr(apollonian, "_reflect_entries",
                        lambda rows, i, coeff: replayed.append(i)
                        or inner(rows, i, coeff))
    lox = apollonian.loxodromic(seed, 8)
    reference = (_reference_loxodromic if mode == EXACT
                 else _rounded_reference_loxodromic)(seed, 8)
    assert lox.bends == reference.bends
    assert lox.bends[:6] == (-1, 2, 2, 3, 15, 38)
    assert replayed == []
    assert lox.configs == reference.configs
    assert replayed == [0, 1, 2, 3, 0, 1, 2, 3]
    assert lox.configs[2].rows[1].bend == 38
    assert lox.configs[2].rows[2] is lox.configs[1].rows[2]
    # ties to the greatest index give the same bends here, and other
    # configurations, which the comparison above catches
    bends, configs = _tie_to_greatest(_fraction_twin(seed), 8)
    assert bends == tuple(map(F, reference.bends))
    assert configs[2] != _fraction_twin(reference.configs[2])


def test_float_loxodromic_past_the_float_range_names_the_step():
    # the Euclidean walk passes 1e300 near step 650; the exact walk goes on
    seed = apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT)
    last = apollonian.loxodromic(seed, 667).bends[-1]
    assert 1e307 < last < float("inf")
    with pytest.raises(ValueError, match=r"^the bend of step 668 of the "
                       r"loxodromic sequence is beyond the float range$"):
        apollonian.loxodromic(seed, 700)
    exact = apollonian.loxodromic(apollonian.standard_seed(forms.EUCLIDEAN),
                                  700)
    assert float(exact.bends[667 + 3]) == last and exact.bends[-1] > 2 ** 1024


def test_float_loxodromic_configs_past_the_float_range_name_the_step():
    # the hyperbolic walk's bends stay finite through step 668, up to about
    # 1.58e308, while a row of that step leaves the float range
    seed = apollonian.standard_seed(forms.HYPERBOLIC, mode=FLOAT)
    seq = apollonian.loxodromic(seed, 668)
    assert 1e308 < max(seq.bends) < float("inf")
    with pytest.raises(ValueError, match=r"^the row of step 668 of the "
                       r"loxodromic sequence is beyond the float range$"):
        seq.configs
    assert len(apollonian.loxodromic(seed, 667).configs) == 668


def test_float_loxodromic_on_fractions_past_the_float_range_names_the_step():
    # for n = 4 the walks run on Fractions (coefficient 2/3), which leave
    # the frame by float() of a Fraction: the hyperbolic bends stay finite
    # through step 1611, while a row of that step leaves the float range
    seed = apollonian.standard_seed(forms.HYPERBOLIC, 4, mode=FLOAT)
    with pytest.raises(ValueError, match=r"^the bend of step 1612 of the "
                       r"loxodromic sequence is beyond the float range$"):
        apollonian.loxodromic(seed, 1612)
    seq = apollonian.loxodromic(seed, 1611)
    assert 1e307 < max(seq.bends) < float("inf")
    with pytest.raises(ValueError, match=r"^the row of step 1611 of the "
                       r"loxodromic sequence is beyond the float range$"):
        seq.configs


def test_out_of_range_arguments_are_errors(euclid_seed):
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        apollonian.generate(euclid_seed, -1)
    with pytest.raises(ValueError, match="^step count must be nonnegative$"):
        apollonian.loxodromic(euclid_seed, -1)
    with pytest.raises(ValueError, match="^need at least 5 terms$"):
        apollonian.recurrence_check(euclid_seed.bends)


@pytest.mark.parametrize("geometry", forms.GEOMETRIES)
def test_recurrence_check_scales_the_float_tolerance(geometry):
    # float bends pass 2^53 within 40 steps, where an absolute 1e-6 is below
    # their rounding; a term off by 1e-5 of itself still fails
    seq = apollonian.loxodromic(
        apollonian.standard_seed(geometry, mode=FLOAT), 40)
    assert seq.bends[-1] > 2 ** 60
    assert apollonian.recurrence_check(seq)
    assert apollonian.recurrence_check(seq.bends)
    for j in (6, 20, 43):
        off = list(seq.bends)
        off[j] *= 1 + 1e-5
        assert not apollonian.recurrence_check(off), j
    exact = apollonian.loxodromic(apollonian.standard_seed(geometry), 40)
    assert apollonian.recurrence_check(exact)
    off = list(exact.bends)
    off[-1] += 1
    assert not apollonian.recurrence_check(off)


def test_recurrence_check_takes_the_seed_bends_in_walk_order():
    # the walk replaces the seed bends least first, not in row order: the
    # row order fails the recurrence, the walk order and bends[4:] pass
    seed = apollonian.realize_bends(forms.EUCLIDEAN,
                                    (F(19), F(15), F(10), F(-6)))
    lox = apollonian.loxodromic(seed, 12)
    assert lox.bends[4:6] == (94, 246)
    assert apollonian.recurrence_check(lox)
    assert apollonian.recurrence_check(lox.bends[4:])
    assert not apollonian.recurrence_check(lox.bends)
    off = lox.bends[:10] + (lox.bends[10] + 1,) + lox.bends[11:]
    assert not apollonian.recurrence_check(
        apollonian.LoxodromicSequence(lox.geometry, off, ()))


def test_integrality_report(euclid_seed):
    p = apollonian.generate(euclid_seed, 20)
    rep = apollonian.integrality_report(p)
    assert rep.all_integral
    assert rep.non_integral == ()
    assert dict(rep.bend_counts) == {
        -1: 1, 2: 2, 3: 2, 6: 4, 11: 4, 14: 4, 15: 2, 18: 4,
    }


def _bend_residues(bends, m=24):
    """The residues mod m of the bends in the orbit of a quadruple under the
    four reflections v_i -> 2 (sum v - v_i) - v_i, walked over (Z/m)^4, and
    the number of quadruples in that orbit (Graham, Lagarias, Mallows,
    Wilks, Yan, number theory; by Fuchs, 24 is the full modulus)."""
    start = tuple(b % m for b in bends)
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        total = sum(v)
        for i, b in enumerate(v):
            w = v[:i] + ((2 * (total - b) - b) % m,) + v[i + 1:]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return {b for v in seen for b in v}, len(seen)


def test_bend_residues_walk_the_mod_24_orbit():
    assert _bend_residues((-1, 2, 2, 3)) == ({2, 3, 6, 11, 14, 15, 18, 23}, 40)
    assert _bend_residues((-2, 3, 6, 7)) == ({3, 6, 7, 10, 15, 18, 19, 22}, 40)
    assert _bend_residues((0, 0, 1, 1)) == ({0, 1, 4, 9, 12, 16}, 40)


# (geometry, integral bends of the seed, bound, truncation caps); the strip
# and the horocycle packing are infinite at these bounds
_RESIDUE_PACKINGS = {
    "euclidean-1,2,2,3": (forms.EUCLIDEAN, (-1, 2, 2, 3), 3000, {}),
    "euclidean-2,3,6,7": (forms.EUCLIDEAN, (-2, 3, 6, 7), 3000, {}),
    "euclidean-3,5,8,8": (forms.EUCLIDEAN, (-3, 5, 8, 8), 3000, {}),
    "euclidean-4,8,9,9": (forms.EUCLIDEAN, (-4, 8, 9, 9), 3000, {}),
    "strip": (forms.EUCLIDEAN, (0, 0, 1, 1), 3000, {"max_configs": 20000}),
    "spherical-0,1,1,2": (forms.SPHERICAL, (0, 1, 1, 2), 200, {}),
    "hyperbolic-1,1,1,1": (forms.HYPERBOLIC, (-1, 1, 1, 1), 200,
                           {"max_configs": 5000}),
}


@pytest.mark.parametrize("name", _RESIDUE_PACKINGS)
def test_exact_bends_meet_every_residue_mod_24_and_no_other(name):
    # the reflections act alike on bend, cot and coth columns, so the bends
    # of every integral packing lie in the residues of its seed's orbit, and
    # a packing this large meets all of them
    geometry, bends, bound, caps = _RESIDUE_PACKINGS[name]
    seed = apollonian.realize_bends(geometry, tuple(map(F, bends)))
    report = apollonian.integrality_report(
        apollonian.generate(seed, bound, **caps))
    assert report.all_integral
    assert {b % 24 for b, _ in report.bend_counts} == _bend_residues(bends)[0]


def test_integrality_report_non_integral_bends():
    half = apollonian.realize_bends(
        forms.EUCLIDEAN, (F(-1, 2), F(1), F(1), F(3, 2))
    )
    rep = apollonian.integrality_report(apollonian.generate(half, 10))
    assert not rep.all_integral
    assert F(3, 2) in rep.non_integral


def test_integrality_report_rejects_float_packings():
    seed = apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT)
    p = apollonian.generate(seed, 20)
    with pytest.raises(ValueError):
        apollonian.integrality_report(p)


def test_standard_seed_exact_obstruction():
    for n in (3, 4, 5):
        with pytest.raises(ExactnessError):
            apollonian.standard_seed(forms.EUCLIDEAN, n=n)


@pytest.mark.parametrize("geometry", forms.GEOMETRIES)
def test_standard_seed_exact_messages_tell_the_dimensions_apart(geometry):
    # det(W)^2 = n 2^(n+1), times 4 in the plane, is a rational square
    # exactly when n is an odd square or twice a square
    with pytest.raises(ExactnessError, match="no rational Descartes "
                       "configuration exists for n = 3; the Gram identity "
                       "forces an irrational determinant"):
        apollonian.standard_seed(geometry, n=3)
    for n in (8, 9):
        with pytest.raises(ExactnessError) as info:
            apollonian.standard_seed(geometry, n=n)
        message = str(info.value)
        assert f"no exact standard seed is built for n = {n}" in message
        assert "realize_bends" in message and "no rational" not in message
    # and one exists for n = 8, as the message says
    w = apollonian.realize_bends(
        forms.SPHERICAL, (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1))
    assert w.mode == EXACT and w.residual().max_abs_entry_error == 0


def test_standard_seed_float_high_dimensions():
    for geometry in (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC):
        for n in (3, 4, 5):
            w = apollonian.standard_seed(geometry, n=n, mode=FLOAT)
            res = forms.check_identity(
                w, forms.descartes_form(n, FLOAT),
                forms.target_for(geometry, n, FLOAT), tol=1e-9,
            )
            assert res.ok, (geometry, n, res.max_abs_entry_error)


def test_realize_bends_dispatch():
    e = apollonian.realize_bends(forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3)))
    assert e.bends == (-1, 2, 2, 3)
    res = forms.check_identity(
        e, forms.descartes_form(2), forms.target_for(forms.EUCLIDEAN, 2)
    )
    assert res.ok and res.max_abs_entry_error == 0
    s = apollonian.realize_bends(forms.SPHERICAL, (F(0), F(1), F(1), F(2)))
    assert s.geometry == forms.SPHERICAL and s.bends == (0, 1, 1, 2)
    h = apollonian.realize_bends(forms.HYPERBOLIC, (F(-1), F(1), F(1), F(1)))
    assert h.geometry == forms.HYPERBOLIC and h.rows[0].entries == (-1, 0, 0, 0)
    with pytest.raises(ValueError):
        apollonian.realize_bends("affine", (F(0), F(1), F(1), F(2)))


def test_walk_frame_returns_quotient():
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    rows, scale, coeff, quotient = apollonian._walk_frame(seed, 1e-9, "walk")
    assert (scale, coeff) == (1, 2) and type(coeff) is int
    assert all(type(x) is int for row in rows for x in row)
    assert quotient(3, scale) == 3 and type(quotient(3, scale)) is F
    seed = apollonian.realize_bends(forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3)))
    rows, scale, coeff, quotient = apollonian._walk_frame(seed, 1e-9, "walk")
    assert scale == 5
    assert [[quotient(x, scale) for x in row] for row in rows] == \
        [list(r.entries) for r in seed.rows]
    # a float seed is framed exactly, on ints over a power of two, and
    # the quotient gives its floats back
    float_seed = apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode=FLOAT)
    rows, scale, coeff, quotient = apollonian._walk_frame(float_seed, 1e-9,
                                                          "walk")
    assert coeff == 1 and type(coeff) is int
    assert type(scale) is int and scale > 1 and scale & (scale - 1) == 0
    assert all(type(x) is int for row in rows for x in row)
    back = [[quotient(x, scale) for x in row] for row in rows]
    assert back == [list(r.entries) for r in float_seed.rows]
    assert all(type(x) is float for row in back for x in row)
    # above n = 3 the coefficient 2/(n-1) is a Fraction in both modes
    n4 = apollonian.standard_seed(forms.EUCLIDEAN, n=4, mode=FLOAT)
    assert apollonian._walk_frame(n4, 1e-9, "walk")[2] == F(2, 3)


@pytest.mark.parametrize("bends", ((0, 0, 1, 1), (4, 0, 1, 1),
                                   (F(-1, 2), F(-1, 2), 0, 0)))
def test_generate_without_a_cap_refuses_a_float_strip(bends):
    seed = _float_twin(apollonian.realize_bends(forms.EUCLIDEAN,
                                                tuple(map(F, bends))))
    with pytest.raises(apollonian.InfiniteClosure, match="is a strip"):
        apollonian.generate(seed, 1.0)
    assert apollonian.generate(seed, 1.0, max_configs=50).truncated
    deep = _float_twin(apollonian.realize_bends(
        forms.EUCLIDEAN, (F(0), F(1), F(100), F(121))))
    assert len(apollonian.generate(deep, 80.0).rows) == 4
    with pytest.raises(apollonian.InfiniteClosure):
        apollonian.generate(deep, 81.0)


# (bends, bound, the InfiniteClosure message in exact mode, in float mode)
_STRIP_MESSAGES = (
    ((0, 0, 1, 1), 1, "1: its root quadruple 0,0,1,1",
     "1.0: its root quadruple 0.0,0.0,1.0,1.0"),
    ((4, 0, 1, 1), 1, "1: its root quadruple 0,0,1,1",
     "1.0: its root quadruple 0.0,0.0,1.0,1.0"),
    ((F(-1, 2), F(-1, 2), 0, 0), F(7, 2), "1/2: its root quadruple 1/2,1/2,0,0",
     "0.5: its root quadruple 0.5,0.5,-0.0,-0.0"),
    ((F(2, 3), 0, 0, F(2, 3)), 5, "2/3: its root quadruple 2/3,0,0,2/3",
     "0.6666666666666666: its root quadruple "
     "0.6666666666666666,0.0,0.0,0.6666666666666666"),
    ((0, 1, 100, 121), 81, "1: its root quadruple 0,1,0,1",
     "1.0: its root quadruple 0.0,1.0,0.0,1.0"),
)


@pytest.mark.parametrize("bends, bound, exact_text, float_text",
                         _STRIP_MESSAGES)
def test_strip_refusal_messages_are_pinned(bends, bound, exact_text,
                                           float_text):
    # the root is found on the walk's scaled rows and divided back only for
    # the message, which must read as it did when it was found on Fractions
    seed = apollonian.realize_bends(forms.EUCLIDEAN, tuple(map(F, bends)))
    for w, b, text in ((seed, F(bound), exact_text),
                       (_float_twin(seed), float(bound), float_text)):
        with pytest.raises(apollonian.InfiniteClosure) as e:
            apollonian.generate(w, b)
        assert str(e.value) == ("the packing of this seed is infinite at any "
                                f"bound of at least {text} is a strip between "
                                "two parallel lines")


@pytest.mark.parametrize("bends", ((1e-17, -1e-17, 1.0, 1.0),
                                   (4.0, 1e-17, 1.0, 1.0)))
@pytest.mark.parametrize("s", (1.0, 3.0, 1e10, 1e-10))
def test_float_strips_off_by_rounding_are_refused(bends, s):
    # bends of 1e-17 where a strip has zeros, at any scale: the walk of
    # these float values would not end, and the reduction to the root must
    # not go down the chain of circles that rounding makes of the strip
    seed = transform.moved(apollonian.realize_bends(forms.EUCLIDEAN, bends),
                           transform.dilation(s, 2))
    t0 = time.perf_counter()
    with pytest.raises(apollonian.InfiniteClosure, match="is a strip"):
        apollonian.generate(seed, 1.0 / s)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("s", (1e10, 2.0 ** 500, 2.0 ** -500),
                         ids=("1e10", "2^500", "2^-500"))
def test_far_dilated_float_seeds_are_not_taken_for_strips(s):
    # a root bend counts as zero relative to the root's largest |bend|: an
    # absolute 1e-9 took the whole root (-1e-10, 2e-10, 2e-10, 3e-10) of
    # the seed dilated by 1e10 for zeros, and refused it as a strip
    seed = transform.moved(
        apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT),
        transform.dilation(s, 2))
    t0 = time.perf_counter()
    p = apollonian.generate(seed, 1000 / s)
    assert time.perf_counter() - t0 < 2.0
    assert len(p.rows) == 3329 and not p.truncated


# The Euclidean seeds of the float benchmark: the standard seed at 100, the
# primitive integral root quadruples (-a, b, c, d) with a <= 15 at 60a, and
# (-8, 16, 16, 24) at 600.
_ROOTS = (
    (-2, 3, 6, 7), (-3, 4, 12, 13), (-3, 5, 8, 8), (-4, 5, 20, 21),
    (-4, 8, 9, 9), (-5, 6, 30, 31), (-6, 7, 42, 43), (-6, 10, 15, 19),
    (-6, 11, 14, 15), (-7, 8, 56, 57), (-8, 9, 72, 73), (-9, 10, 90, 91),
    (-10, 14, 35, 39), (-12, 21, 28, 37), (-15, 24, 40, 49),
)
_FLOAT_WALKS = (((-1, 2, 2, 3), 100), ((-8, 16, 16, 24), 600)) + tuple(
    (bends, -60 * bends[0]) for bends in _ROOTS)


@pytest.mark.parametrize("bends, bound", _FLOAT_WALKS)
def test_float_root_quadruples_are_not_refused(bends, bound):
    exact = apollonian.realize_bends(forms.EUCLIDEAN, tuple(map(F, bends)))
    seed = _float_twin(exact)
    assert apollonian.root_quadruple(seed.bends) == \
        apollonian.root_quadruple(exact.bends)
    apollonian._check_finite(seed, float(bound))
    p = apollonian.generate(seed, float(bound))
    assert not p.truncated and len(p.rows) > 4
