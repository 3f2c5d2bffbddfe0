"""The plain-tuple matrix layer and the integer realizers against the code
they replaced.

The first _reference_* functions are the numpy implementations of
check_identity, convert_matrix and loxodromic as the package had them,
copied verbatim together with the helpers they called (_ref_as_matrix,
_ref_max_abs, ...).  Only names changed: those calls point
at the copies here, and conversion_matrix, which now returns a tuple of
rows, is wrapped in np.array.  numpy is a test-only dependency (the [test]
extra).  Exact results must be equal; float results may differ by 1e-12
relative, since the new code adds products in another order than numpy's
BLAS.

The second set is the realize path as it was on Fractions, before exact
realization moved onto integers: solve_affine on lists, the tail search,
bend_residual, the tangent-row realizer and the Euclidean realizer with its
completion, again verbatim but for names.  Spherical and hyperbolic bends
are now realized by reflecting a base configuration in every dimension and
mode, so the spherical tail search is checked where the package still runs
it, through forms._search_tangent_rows, which finds the exact bases above
the plane, on the same exact cot vectors, and the reflection against
oracles.reflected_base.  There every exact output must be the same to the
byte; exact coth values, which no package search realizes any more, must
give the reference's rows up to an exact isometry of the Gram target.
Float Euclidean rows now come from the closed form of exact mode on the
bends' dyadic values, each entry rounded once, and are checked against the
exact rows and held within 1e-15 relative of the old ones.  Float cot
and coth values must keep their bends and be congruent to the reference's
rows wherever the reference finds rows that pass the Gram check (_congruent),
those whose bend residual is float rounding, which the old absolute 1e-9
check rejected, included.

The third set is the base reflection of the curved realizers as it ran on
lists, before it moved onto a kernel generated per row width:
_reference_reflected_base and _ref_carried, verbatim but for names.  The
kernel must give the same int rows and scale on every frame both take.

The fourth set is the walk of apollonian.generate as it ran before one
generated kernel per level replaced its per-child loop: the loop,
the strip check that decided exact seeds on Fractions and root_quadruple
with near() on every step, verbatim but for names and docstrings
(_reference_loop_generate, _reference_check_finite,
_reference_root_quadruple).  generate must give their rows, counts and
kept configurations to the bit, and raise as they do; tests/test_apollonian.py
also holds it to the breadth-first Fraction closure, under caps that stop
a level among one configuration's children and at bounds on a row's bend.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from math import floor, inf, isfinite
from operator import add, mul

import numpy as np
import pytest

from inversive import apollonian, forms, linalg, scalars, shell, transform
from inversive.scalars import (DEFAULT_TOL, EXACT, FLOAT, ExactnessError,
                               _sum, coerce, coerce_row, div, integer_rows,
                               is_exact, mode_frame, mode_of, near,
                               unscaled_rows)

import oracles

E, S, H = forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC
GEOMS = (E, S, H)
ROOTS = ((-1, 2, 2, 3), (-2, 3, 6, 7), (-3, 4, 12, 13), (-3, 5, 8, 8),
         (-4, 8, 9, 9), (-6, 10, 15, 19), (-10, 14, 35, 39), (-12, 21, 28, 37))
BASES = {S: ((0, 1, 1, 2),), H: ((-2, 3, 5, 6), (-1, 1, 1, 1))}
WORDS = ((), (0,), (2, 1), (3, 0, 2, 1))
REL = 1e-12


# --- the numpy code, verbatim --------------------------------------------

def _ref_as_matrix(rows, mode=None):
    """Build a 2-d array from nested scalars, picking the dtype by mode."""
    flat = [x for row in rows for x in row]
    exact = all(is_exact(x) for x in flat) if mode is None else mode == EXACT
    if exact:
        data = [[Fraction(x) for x in row] for row in rows]
        return np.array(data, dtype=object)
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def _ref_max_abs(a):
    """Largest absolute entry; exact scalar for exact input."""
    values = [abs(x) for x in np.asarray(a).flat]
    if not values:
        return 0
    return max(values)


def _ref_as_array(m):
    if isinstance(m, forms.ConfigMatrix):
        return _ref_as_matrix([r.entries for r in m.rows], mode=m.mode)
    if isinstance(m, forms.QuadForm):
        return np.array(m.matrix)
    return np.asarray(m)


def _ref_gram(w, q):
    """W^T Q W for a row matrix and a quadratic form."""
    wm = _ref_as_array(w)
    return wm.T @ _ref_as_array(q) @ wm


def _reference_check_identity(w, q, target, tol=DEFAULT_TOL):
    """Residual of W^T Q W against a target Gram matrix.

    Exact inputs are compared exactly and tol is ignored; float inputs pass
    when the largest entry deviation is within tol.
    """
    g = _ref_gram(w, q)
    diff = g - _ref_as_array(target)
    err = _ref_max_abs(diff)
    return forms.Residual(err, diff, bool(near(err, 0, tol)))


def _reference_convert_matrix(w, to, tol=DEFAULT_TOL):
    """Convert a configuration to another geometry's coordinates.

    The input must satisfy its own Gram identity; the output satisfies the
    target's.  Conversion back is the inverse matrix, so round trips are
    exact in rational mode.
    """
    if not isinstance(w, forms.ConfigMatrix):
        raise TypeError("convert_matrix expects a ConfigMatrix")
    n = w.n
    mode = w.mode
    q = forms.descartes_form(n, mode)
    res = _reference_check_identity(w, q, forms.target_for(w.geometry, n, mode),
                                    tol)
    if not res.ok:
        raise ValueError(
            f"input violates the {w.geometry} identity "
            f"(max residual {res.max_abs_entry_error})")
    m = np.array(transform.conversion_matrix(w.geometry, to, n, mode))
    converted = _ref_as_array(w) @ m
    return forms.ConfigMatrix.from_rows(to, [tuple(r) for r in converted],
                                        mode=mode)


def _ref_column_sums(entry_rows):
    total = entry_rows[0]
    for row in entry_rows[1:]:
        total = tuple(a + b for a, b in zip(total, row))
    return total


def _ref_reflected_row(total, old, coeff):
    return tuple(coeff * (t - x) - x for t, x in zip(total, old))


def _ref_reflect_entries(entry_rows, i, coeff):
    new = _ref_reflected_row(_ref_column_sums(entry_rows), entry_rows[i],
                             coeff)
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def _ref_sqrt(x):
    """The square root of a scalar in its mode, for the reference
    realizers: the Fraction root of an exact x whose root is rational, or
    ExactnessError; math.sqrt of a float; ValueError below 0."""
    if x < 0:
        raise ValueError(f"sqrt({x}) of a negative scalar")
    if not is_exact(x):
        return math.sqrt(x)
    q = Fraction(x)
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ExactnessError(f"sqrt({x}) is irrational; use float mode")
    return Fraction(num, den)


def _reference_loxodromic(seed, k, tol=DEFAULT_TOL, check=True):
    """Reflect k times at the row of minimal bend entry (ties to the least
    index), appending each produced bend."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    n = seed.n
    mode = seed.mode
    q = forms.descartes_form(n, mode)
    res = _reference_check_identity(
        seed, q, forms.target_for(seed.geometry, n, mode), tol)
    if check and not res.ok:
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")
    coeff = coerce(2, mode) / (n - 1)
    col = forms.bend_column(seed.geometry)
    entry_rows = tuple(r.entries for r in seed.rows)
    bends = [r[col] for r in entry_rows]
    configs = [seed]
    for _ in range(k):
        i = min(range(n + 2), key=lambda j: (entry_rows[j][col], j))
        entry_rows = _ref_reflect_entries(entry_rows, i, coeff)
        bends.append(entry_rows[i][col])
        configs.append(forms.ConfigMatrix.from_rows(seed.geometry, entry_rows,
                                                    mode=mode))
    return apollonian.LoxodromicSequence(seed.geometry, tuple(bends),
                                         tuple(configs))


def _rounded_reference_loxodromic(seed, k, tol=DEFAULT_TOL):
    """The loxodromic sequence of a float seed under the contract of float
    loxodromic(): the float seed passes the reference's float check, its
    Fraction twin (every finite float is a dyadic rational) is walked
    exactly, and each entry after the seed is rounded once.  The twin meets
    its Gram identity only up to the seed's rounding, so its check is the
    float one made first."""
    _reference_loxodromic(seed, 0, tol)
    twin = forms.ConfigMatrix.from_rows(
        seed.geometry, [[Fraction(x) for x in r.entries] for r in seed.rows])
    ref = _reference_loxodromic(twin, k, tol, check=False)
    configs = (seed,) + tuple(map(_to_float, ref.configs[1:]))
    return apollonian.LoxodromicSequence(
        seed.geometry, tuple(map(float, ref.bends)), configs)


# --- the grid ----------------------------------------------------------

def _placed(w):
    """w moved by a Mobius map: a rational translation, a dilation and the
    inversion in the unit circle."""
    g = transform.translation((Fraction(3, 7), Fraction(-2, 5)))
    for step in (transform.dilation(Fraction(5, 3), 2), transform.inversion(2)):
        g = linalg.matmul(g, step)
    return transform.moved(w, g)


def _euclidean_grid():
    out = []
    for bends in ROOTS:
        w = apollonian.realize_bends(E, bends)
        out.append(_placed(w))
        for word in WORDS:
            r = w
            for i in word:
                r = apollonian.reflect(r, i)
            out.append(r)
    return out


def _to_float(w):
    return forms.ConfigMatrix.from_rows(w.geometry, [r.entries for r in w.rows],
                                        mode=FLOAT)


def _grid(geometry, mode):
    """Valid n = 2 configurations of the geometry: realized root quadruples
    (Euclidean) or base vectors, their reflections and Mobius placements
    (converted for S and H); float mode adds the n = 3..5 seeds."""
    configs = _euclidean_grid()
    if geometry != E:
        configs = [transform.convert_matrix(w, geometry) for w in configs]
        configs += [apollonian.realize_bends(geometry, b)
                    for b in BASES[geometry]]
    if mode == FLOAT:
        configs = [_to_float(w) for w in configs]
        configs += [apollonian.standard_seed(geometry, n, FLOAT)
                    for n in (3, 4, 5)]
        configs += [apollonian.realize_bends(geometry, tuple(map(float, b)))
                    for b in (ROOTS[:3] if geometry == E else BASES[geometry])]
    return configs


def _multiword_grid(geometry):
    """Exact n = 2 configurations of the geometry whose frames hold ints
    past 2^64 over a scale other than 1: 60-step loxodromic walks of
    Mobius-placed roots, and roots moved by a dilation by 3^41 / 7^20
    (converted for S and H)."""
    configs = []
    for bends in ROOTS[:3]:
        w = apollonian.realize_bends(E, bends)
        configs.append(apollonian.loxodromic(_placed(w), 60).configs[-1])
        configs.append(transform.moved(
            w, transform.dilation(Fraction(3 ** 41, 7 ** 20), 2)))
    if geometry != E:
        configs = [transform.convert_matrix(w, geometry) for w in configs]
    for w in configs:
        rows, scale = w.scaled
        assert scale != 1 and max(abs(x) for r in rows for x in r) >= 2 ** 64
    return configs


def _corrupt(w):
    """w with 1/7 added to one entry: no longer a configuration."""
    rows = [list(r.entries) for r in w.rows]
    rows[1][2] += coerce(Fraction(1, 7), w.mode)
    return forms.ConfigMatrix.from_rows(w.geometry, rows, mode=w.mode)


def _scale(w):
    return max(1.0, max(abs(float(x)) for r in w.rows for x in r.entries))


def _same(new, ref, exact, scale=1.0):
    """Entrywise equality (exact) or agreement within REL * scale (float) of
    two equally shaped nested sequences or scalars."""
    if isinstance(ref, np.ndarray):
        ref = ref.tolist()
    if isinstance(ref, (list, tuple)):
        return len(new) == len(ref) and all(
            _same(a, b, exact, scale) for a, b in zip(new, ref))
    if exact:
        return is_exact(new) and new == ref
    return abs(float(new) - float(ref)) <= REL * scale


def _same_rows(a, b, exact):
    return _same([r.entries for r in a.rows], [r.entries for r in b.rows], exact,
                 _scale(b))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as e:
        return None, e


CASES = [(g, m) for g in GEOMS for m in (EXACT, FLOAT)]


@pytest.mark.parametrize("geometry,mode", CASES)
def test_check_identity_matches_reference(geometry, mode):
    exact = mode == EXACT
    configs = _grid(geometry, mode)
    # multi-word ints in the Gram matrix and its comparison
    wide = _multiword_grid(geometry) if exact else []
    checked = float_targets = 0
    for w in configs + wide + [_corrupt(w) for w in configs + wide]:
        q = forms.descartes_form(w.n, mode)
        t = forms.target_for(geometry, w.n, mode)
        new = forms.check_identity(w, q, t)
        ref = _reference_check_identity(w, q, t)
        # Gram entries are sums of products of row entries
        scale = _scale(w) ** 2
        assert new.ok == ref.ok, w
        assert _same(new.max_abs_entry_error, ref.max_abs_entry_error, exact,
                     scale), w
        assert _same(new.entrywise, ref.entrywise, exact, scale), w
        # the general-form path of _scaled_gram, which transform.moved
        # takes: Q as plain rows, against a zero target
        zeros = ((0,) * (w.n + 2),) * (w.n + 2)
        assert _same(forms.check_identity(w, q.matrix, zeros).entrywise,
                     _ref_gram(w, q), exact, scale), w
        # exact W and Q against a float target compare in float; the
        # reference's absolute tol decides nothing past entries of 2^64
        if exact and scale < 2.0 ** 128:
            t = forms.target_for(geometry, w.n, FLOAT)
            new = forms.check_identity(w, q, t)
            ref = _reference_check_identity(w, q, t)
            assert all(type(x) is float for row in new.entrywise for x in row)
            assert new.ok == ref.ok, w
            assert _same(new.max_abs_entry_error, ref.max_abs_entry_error,
                         False, scale), w
            assert _same(new.entrywise, ref.entrywise, False, scale), w
            float_targets += 1
        checked += 1
    assert checked == 2 * len(configs + wide)
    assert float_targets >= (2 * len(configs) if exact else 0)


def _exact_residual_parts(res):
    """The residual's maximum and entries as plain nested lists, with the
    type of each."""
    entries = res.entrywise
    if isinstance(entries, np.ndarray):
        entries = entries.tolist()
    flat = [x for row in entries for x in row]
    return ([res.max_abs_entry_error] + flat,
            [type(x) for x in [res.max_abs_entry_error] + flat], res.ok)


@pytest.mark.parametrize("geometry", GEOMS)
def test_exact_check_identity_frames_each_target_once(geometry, monkeypatch):
    """Exact checks compare against the int rows of the target, framed once
    per target object; the residuals are the reference's, entry types
    included, also on a target of another denominator, on one that is off
    in its last entry alone, which only the last row of the comparison
    sees, and on one given as lists, which is a new tuple at every call."""
    configs = _grid(geometry, EXACT) + _multiword_grid(geometry)
    configs += [_corrupt(w) for w in configs]
    q = forms.descartes_form(2)
    cached = forms.target_for(geometry, 2)
    thirds = tuple(tuple(x / 3 for x in row) for row in cached)
    last = cached[:-1] + (cached[-1][:-1] + (cached[-1][-1] + 1,),)
    frames = []
    inner = forms.integer_rows
    monkeypatch.setattr(forms, "integer_rows",
                        lambda rows: frames.append(rows) or inner(rows))
    monkeypatch.setattr(forms, "_DERIVED", {})
    for t in (cached, thirds, last):
        for w in configs:
            new = forms.check_identity(w, q, t)
            assert _exact_residual_parts(new) == _exact_residual_parts(
                _reference_check_identity(w, q, t)), w
    assert frames == [cached, thirds, last]
    for w in configs[::7]:
        t = [list(row) for row in thirds]
        assert _exact_residual_parts(forms.check_identity(w, q, t)) == \
            _exact_residual_parts(_reference_check_identity(w, q, t)), w
    assert not any(forms.check_identity(w, q, t).ok
                   for t in (thirds, last) for w in configs)


# --- the generated Gram kernels against the loops they replace -----------

def _ref_float_gram(v, n):
    """The float Descartes Gram V^T (V - ones c^T), c = sigma / n, as the
    loops of forms._scaled_gram had it: each column sum and each entry
    folded from the int 0 with functools.reduce."""
    cols = tuple(zip(*v))
    shift = [reduce(add, col, 0) / n for col in cols]
    pv_cols = [[x - t for x in col] for col, t in zip(cols, shift)]
    return [[reduce(add, map(mul, ca, cb), 0) for cb in pv_cols]
            for ca in cols]


def _ref_float_residual(g, m, t):
    return [tuple([x / m - y for x, y in zip(grow, trow)])
            for grow, trow in zip(g, t)]


def _ref_exact_gram(v, n):
    """n V^T Q_n V on Fractions, Q_n = I - ones ones^T / n: the int matrix
    n V^T V - sigma sigma^T."""
    cols = tuple(zip(*v))
    qv_cols = [[x - Fraction(sum(col), n) for x in col] for col in cols]
    return [[n * sum(map(mul, ca, cb)) for cb in qv_cols] for ca in cols]


def _float_bits(rows):
    """The entries of float rows by float.hex, inf and nan by repr."""
    return [[x.hex() if math.isfinite(x) else repr(x) for x in row]
            for row in rows]


def _float_kernel_rows(width, rng):
    """Square float rows of a width: random magnitudes and signs, -0.0,
    and columns whose sum cancels, so that the order of every fold shows."""
    rows = [[rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randrange(-3, 4)
             for _ in range(width)] for _ in range(width)]
    for row, x in zip(rows, (1e16, 1.0, -1e16, 1.0)):
        row[0] = x
    rows[1][1] = rows[2][2] = -0.0
    return tuple(map(tuple, rows))


KERNEL_WIDTHS = (*range(3, 11), 34)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_float_gram_kernels_match_the_loops(width, rng):
    # float.hex equality of every entry: the kernels keep the order of each
    # fold, -0.0 and the int 0 that each starts from included; inf and nan
    # entries give the loops' inf and nan where they land
    gram, residual = linalg._float_gram(width)
    assert linalg._float_gram(width) is linalg._float_gram(width)
    n = width - 2
    inputs = [_float_kernel_rows(width, rng) for _ in range(4)]
    inputs.append(((-0.0,) * width,) * width)
    if 4 <= width <= 10:
        inputs += [apollonian.standard_seed(g, width - 2, FLOAT).scaled[0]
                   for g in GEOMS]
    for bad in (math.inf, -math.inf, math.nan):
        rows = [list(r) for r in _float_kernel_rows(width, rng)]
        rows[width // 2][width - 1] = bad
        inputs.append(tuple(map(tuple, rows)))
    targets = [tuple(tuple(rng.uniform(-4, 4) for _ in range(width))
                     for _ in range(width)),
               forms.target_for(E, n, FLOAT),
               forms.target_for(H, n, EXACT)]
    for v in inputs:
        g = gram(v, n)
        assert type(g) is tuple and all(type(row) is tuple for row in g)
        ref = _ref_float_gram(v, n)
        assert _float_bits(g) == _float_bits(ref), v
        for m, t in itertools.product((1.0, 4.0, 0.1), targets):
            assert _float_bits(residual(g, m, t)) \
                == _float_bits(_ref_float_residual(ref, m, t)), (v, m)
    assert any(math.isnan(x) for row in gram(inputs[-1], n) for x in row)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_exact_gram_kernels_match_the_fraction_formula(width, rng):
    # == and the int type of every entry, on ints of one word and of many
    gram, holds = linalg._exact_gram(width)
    assert linalg._exact_gram(width) is linalg._exact_gram(width)
    n = width - 2
    inputs = [tuple(tuple(rng.randrange(-bound, bound + 1)
                          for _ in range(width)) for _ in range(width))
              for bound in (1, 9, 2 ** 62, 2 ** 200)]
    if width == 4:
        inputs += [w.scaled[0] for g in GEOMS for w in _multiword_grid(g)]
    for v in inputs:
        g = gram(v, n)
        assert g == tuple(map(tuple, _ref_exact_gram(v, n))), v
        assert all(type(x) is int for row in g for x in row)
        # d g = m t with t = c g and d = m c, and then off in one entry
        m, c = rng.randrange(1, 2 ** 70), rng.randrange(-5, 6) or 7
        t = [[c * x for x in row] for row in g]
        assert holds(g, t, m * c, m) and holds(g, g, 5, 5)
        for i, j in ((0, 0), (width - 1, width - 1), (width // 2, 1)):
            off = [row[:] for row in t]
            off[i][j] += 1
            assert not holds(g, off, m * c, m)


# seeds of the bends-only walk: float n = 3 and n = 4, an exact n = 8 seed
# (coefficient 2/7), the float hyperbolic (-2,3,5,6) seed, whose entries
# are not short dyadics, and (-1,2,2,3) realized, whose bends are ints and
# whose other columns are fifths, with its float twin
_LOX_SEEDS = {
    "float-n3": lambda: apollonian.standard_seed(E, 3, FLOAT),
    "float-n4": lambda: apollonian.standard_seed(E, 4, FLOAT),
    "exact-n8-spherical": lambda: apollonian.realize_bends(
        S, (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1)),
    "float-hyperbolic-2,3,5,6": lambda: apollonian.realize_bends(
        H, (-2.0, 3.0, 5.0, 6.0)),
    "exact-euclidean-fifths": lambda: apollonian.realize_bends(
        E, tuple(map(Fraction, (-1, 2, 2, 3)))),
    "float-euclidean-fifths": lambda: _to_float(apollonian.realize_bends(
        E, tuple(map(Fraction, (-1, 2, 2, 3))))),
}


def _typed_bits(values):
    return [(type(x), repr(x)) for x in values]


@pytest.mark.parametrize("name", _LOX_SEEDS)
def test_bends_only_walk_matches_reference(name, monkeypatch):
    """The walk reflects the bend column alone and records indices; its
    bends, and the configurations replayed from the indices when configs
    is first read, are the reference's to the bit and the entry type.
    Nothing is replayed before configs is read."""
    seed = _LOX_SEEDS[name]()
    reference = (_reference_loxodromic if seed.mode == EXACT
                 else _rounded_reference_loxodromic)
    replayed = []
    inner = apollonian._reflect_entries

    def counted(entry_rows, i, coeff):
        replayed.append(i)
        return inner(entry_rows, i, coeff)

    monkeypatch.setattr(apollonian, "_reflect_entries", counted)
    for k in (0, 1, 24, 60):
        replayed.clear()
        seq = apollonian.loxodromic(seed, k)
        ref = reference(seed, k)
        assert _typed_bits(seq.bends) == _typed_bits(ref.bends), k
        assert replayed == []
        configs = seq.configs
        assert len(replayed) == k and configs[0] is seed
        assert len(configs) == len(ref.configs) == k + 1
        for a, b in zip(configs, ref.configs):
            assert [_typed_bits(r.entries) for r in a.rows] == \
                [_typed_bits(r.entries) for r in b.rows], k
        assert seq == ref
    # the bend column has a frame of its own, at most the full one
    bend_scale = apollonian._bend_frame(seed)[1]
    assert apollonian._int_frame(seed)[1] % bend_scale == 0


@pytest.mark.parametrize("geometry,mode", CASES)
def test_convert_matrix_matches_reference(geometry, mode):
    exact = mode == EXACT
    configs = _grid(geometry, mode)
    for w in configs + [_corrupt(w) for w in configs[:6]]:
        for to in GEOMS:
            new, new_err = _outcome(transform.convert_matrix, w, to)
            ref, ref_err = _outcome(_reference_convert_matrix, w, to)
            if ref_err is not None:
                assert new_err is not None, w
                if exact:
                    assert str(new_err) == str(ref_err)
                continue
            assert new_err is None, new_err
            assert new.geometry == ref.geometry == to
            assert _same_rows(new, ref, exact), (w, to)


@pytest.mark.parametrize("geometry,mode", CASES)
def test_loxodromic_matches_reference(geometry, mode):
    exact = mode == EXACT
    configs = _grid(geometry, mode)
    for w in configs + [_corrupt(w) for w in configs[:6]]:
        new, new_err = _outcome(apollonian.loxodromic, w, 10)
        ref, ref_err = _outcome(_reference_loxodromic, w, 10)
        if ref_err is not None:
            assert new_err is not None, w
            if exact:
                assert str(new_err) == str(ref_err)
            continue
        assert new_err is None, new_err
        assert _same(new.bends, ref.bends, exact, _scale(ref.configs[-1])), w
        assert len(new.configs) == len(ref.configs) == 11
        for a, b in zip(new.configs, ref.configs):
            assert _same_rows(a, b, exact), w


@pytest.mark.parametrize("geometry,mode", CASES)
def test_loxodromic_configs_are_built_when_read(geometry, mode):
    """The walk records its steps, and the configurations built from them
    on first read are the reference's, entry types included; in float mode
    the reference is the exact walk of the float seed, rounded once."""
    configs = _grid(geometry, mode)
    reference = (_reference_loxodromic if mode == EXACT
                 else _rounded_reference_loxodromic)
    for w in configs:
        for k in (0, 1, 24, 60):
            seq = apollonian.loxodromic(w, k)
            ref = reference(w, k)
            assert "configs" not in vars(seq)
            assert seq.bends == ref.bends, (w, k)
            configs = seq.configs
            assert len(configs) == k + 1 and configs[0] is w
            for a, b in zip(configs, ref.configs):
                assert a.geometry == b.geometry == geometry
                for ra, rb in zip(a.rows, b.rows):
                    assert ra.entries == rb.entries, (w, k)
                    assert list(map(type, ra.entries)) == \
                        list(map(type, rb.entries))
            assert seq.configs is configs
            assert seq == ref and repr(seq) == repr(ref)


def _count_checks(monkeypatch):
    """The configurations passed to forms.check_identity from now on, and
    the unpatched function."""
    inner = forms.check_identity
    calls = []

    def counted(w, *args, **kwargs):
        calls.append(w)
        return inner(w, *args, **kwargs)

    monkeypatch.setattr(forms, "check_identity", counted)
    return calls, inner


@pytest.mark.parametrize("geometry,mode", CASES)
def test_each_configuration_is_checked_once(geometry, mode, monkeypatch,
                                            tmp_path, capsys):
    configs = _grid(geometry, mode)
    calls, check = _count_checks(monkeypatch)
    # one document read by the CLI is checked once, though convert and lox
    # each check it twice: on reading it and before using it
    path = tmp_path / "config.json"
    path.write_text(shell.dumps_config(configs[0]))
    to = next(g for g in GEOMS if g != geometry)
    for argv in (["convert", "--in", str(path), "--to", to],
                 ["lox", "--in", str(path), "--steps", "24"]):
        del calls[:]
        assert shell.run(argv) == 0, capsys.readouterr().err
        assert len(calls) == 1, argv
    capsys.readouterr()
    # residual() is check_identity against the configuration's own target,
    # kept per tolerance
    for w in configs:
        q = forms.descartes_form(w.n, mode)
        t = forms.target_for(geometry, w.n, mode)
        for tol in (DEFAULT_TOL, 1e-3):
            res = w.residual(tol)
            assert res == check(w, q, t, tol), w
            assert w.residual(tol) is res
    # a residual kept at one tolerance does not answer another
    w = configs[0]
    rows = [list(r.entries) for r in w.rows]
    rows[1][2] += coerce(Fraction(1, 10 ** 6), mode)
    off = forms.ConfigMatrix.from_rows(geometry, rows, mode=mode)
    del calls[:]
    assert not off.residual(1e-9).ok
    assert off.residual(1e-3).ok == (mode == FLOAT)
    assert not off.residual(1e-9).ok
    assert len(calls) == 2
    # a configuration that fails its identity is refused every time
    for bad in [_corrupt(w) for w in configs[:6]]:
        for _ in range(2):
            with pytest.raises(ValueError, match="identity"):
                transform.convert_matrix(bad, to)
            with pytest.raises(ValueError, match="invalid seed"):
                apollonian.generate(bad, 10)


# --- the Fraction realize path, verbatim ----------------------------------

def _ref_list_max_abs(a):
    """Largest absolute entry of a matrix; exact scalar for exact input."""
    return max([abs(x) for row in a for x in row], default=0)


def _ref_coerced_rows(rows):
    flat = [x for row in rows for x in row]
    mode = mode_of(flat)
    return [list(coerce_row(row, mode)) for row in rows], mode


def _reference_list_solve_affine(a, b):
    """All solutions of a x = b as (particular, kernel basis vectors).

    Works on exact and float matrices; float pivoting is by magnitude with a
    small threshold for rank decisions.  The particular solution and the
    kernel vectors are tuples.
    """
    rows = len(a)
    if len(b) != rows:
        raise ValueError("right-hand side does not match the rows")
    aug, mode = _ref_coerced_rows([tuple(row) + (bi,)
                                   for row, bi in zip(a, b)])
    cols = len(aug[0]) - 1
    exact = mode == EXACT
    zero_tol = 0 if exact else 1e-12 * max(1.0, float(_ref_list_max_abs(a)))
    pivots = []
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(aug[i][c]), default=None)
        if pivot is None or abs(aug[pivot][c]) <= zero_tol:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p = aug[r][c]
        prow = aug[r] = [x / p for x in aug[r]]
        for i in range(rows):
            f = aug[i][c]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], prow)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if abs(aug[i][cols]) > zero_tol:
            raise ValueError("inconsistent linear system")
    one = coerce(1, mode)
    zero = coerce(0, mode)
    particular = [zero] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    kernel = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [zero] * cols
        vec[c] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][c]
        kernel.append(tuple(vec))
    return tuple(particular), kernel


def _ref_assignment_patterns(dim):
    """Deterministic small assignments for all-but-one free coordinate."""
    yield (0,) * dim
    values = (1, -1, 2, -2, 3)
    for j in range(dim):
        for v in values:
            vec = [0] * dim
            vec[j] = v
            yield tuple(vec)
    if dim >= 2:
        for j in range(dim):
            for k in range(j + 1, dim):
                for vj in (1, -1, 2):
                    for vk in (1, -1, 2):
                        vec = [0] * dim
                        vec[j], vec[k] = vj, vk
                        yield tuple(vec)


def _reference_solve_univariate(a, b, c, exact):
    """A root of a u^2 + b u + c = 0 in the working mode, or None."""
    if a == 0:
        if b == 0:
            return None if c != 0 else c - c  # every u solves 0 = 0; take 0
        return -c / b
    disc = b * b - 4 * a * c
    if not exact and abs(disc) <= 1e-12 * max(b * b, abs(4 * a * c), 1.0):
        # a double root that rounding moved off zero; its square root would
        # put an error of about 1e-8 into the tail and strand later rows
        disc = 0.0
    try:
        root = _ref_sqrt(disc)
    except (ValueError, ExactnessError):  # no real or no rational root
        return None
    return (-b + root) / (2 * a)


def _ref_diag_dot(signs, u, v):
    total = 0
    for s, x, y in zip(signs, u, v):
        total = total + (x * y if s > 0 else -(x * y))
    return total


def _ref_axpy(base, u, v):
    """base + u * v entrywise."""
    return tuple(b + u * x for b, x in zip(base, v))


def _reference_tail_candidates(prev_tails, signs, pair_values, self_value,
                               exact):
    """Vectors t with diag-form products against prev_tails prescribed.

    Solves the linear conditions <t_j, t> = pair_values[j] exactly, then
    walks a deterministic list of kernel assignments and yields every
    distinct t for which the remaining quadratic <t, t> = self_value has a
    root in the working mode.  Raises ValueError when the linear conditions
    are already inconsistent.
    """
    m = len(signs)
    if prev_tails:
        a = [[t[i] * signs[i] for i in range(m)] for t in prev_tails]
        p, kernel = _reference_list_solve_affine(a, pair_values)
    else:
        mode = EXACT if exact else FLOAT
        p = (coerce(0, mode),) * m
        kernel = list(linalg.block_diag((), (1,) * m, mode))
    if not kernel:
        residual = _ref_diag_dot(signs, p, p) - self_value
        if near(residual, 0, 1e-8 * max(1.0, abs(float(self_value)))):
            yield p
        return
    dim = len(kernel)
    seen = set()
    for pattern in _ref_assignment_patterns(dim):
        for j in range(dim):
            base = p
            for k in range(dim):
                # an exact zero term adds nothing; a float one can still
                # turn a -0.0 entry into 0.0, so float mode adds it
                if k != j and (pattern[k] or not exact):
                    base = _ref_axpy(base, pattern[k], kernel[k])
            kj = kernel[j]
            a2 = _ref_diag_dot(signs, kj, kj)
            b2 = 2 * _ref_diag_dot(signs, base, kj)
            c2 = _ref_diag_dot(signs, base, base) - self_value
            u = _reference_solve_univariate(a2, b2, c2, exact)
            if u is None:
                continue
            t = _ref_axpy(base, u, kj)
            key = t if exact else tuple(round(float(x), 9) for x in t)
            if key not in seen:
                seen.add(key)
                yield t


def _reference_realize_tails(first_options, signs, pair_value, self_value,
                             count, exact, branch_limit=24):
    """Depth-first search for count tails with prescribed diag-form products.

    pair_value(j, i) and self_value(i) prescribe <t_j, t_i> and <t_i, t_i>.
    The first tail is drawn from first_options; later tails from
    tail_candidates, branching over at most branch_limit candidates per row.
    A greedy first choice can strand a later row (picking a degenerate tail
    whose linear conditions become unsatisfiable), so failed branches are
    abandoned and the next candidate tried.  Returns a list of tuples or
    None.
    """
    def search(tails):
        i = len(tails)
        if i == count:
            return tails
        targets = [pair_value(j, i) for j in range(i)]
        try:
            candidates = _reference_tail_candidates(tails, signs, targets,
                                                    self_value(i), exact)
            for k, t in enumerate(candidates):
                if k >= branch_limit:
                    break
                result = search(tails + [t])
                if result is not None:
                    return result
        except ValueError:
            return None
        return None

    for first in first_options:
        result = search([tuple(first)])
        if result is not None:
            return result
    return None


def _reference_bend_residual(geometry, bends):
    """Residual sum b^2 - (sum b)^2 / n + 2k of the Descartes relation on
    n+2 bends, k the geometry's curvature sign; zero for n+2 pairwise
    tangent spheres, exact on exact bends."""
    bends = tuple(bends)
    n = len(bends) - 2
    if n < 1:
        raise ValueError("need at least 3 bends")
    total = sum(bends)
    square_sum = sum(b * b for b in bends)
    return (square_sum - total * total / coerce(n, mode_of(bends))
            + 2 * forms.CURVATURE_SIGN[geometry])


def _reference_realize_tangent_rows(geometry, bends, n, first_tails,
                                    tol=DEFAULT_TOL):
    """One configuration of pairwise tangent rows (c_i, t_i) with the given
    spherical cot or hyperbolic coth values c_i.

    With k the geometry's curvature sign the tails carry the form
    diag(k, 1, ..., 1), and tangency asks <t_i, t_i> = 1 + k c_i^2 and
    <t_j, t_i> = k c_i c_j - 1.  first_tails(c_0, one) lists the leading
    entries of the first-tail candidates, zero-padded to full length; later
    tails come from linalg.realize_tails, which backtracks out of tail
    choices that strand a later row.  Exact bends give an exact matrix or a
    ValueError.
    """
    bends = tuple(bends)
    if n is None:
        n = len(bends) - 2
    name = "cot" if geometry == forms.SPHERICAL else "coth"
    if len(bends) != n + 2:
        raise ValueError(f"need n+2 {name} values")
    mode = mode_of(bends)
    c = coerce_row(bends, mode)
    residual = _reference_bend_residual(geometry, c)
    if not near(residual, 0, tol):
        raise ValueError(f"{name} values violate the bend relation by {residual}")
    k = forms.CURVATURE_SIGN[geometry]
    one = coerce(1, mode)
    zero = one - one
    first_options = [head + (zero,) * (n + 1 - len(head))
                     for head in first_tails(c[0], one)]
    tails = _reference_realize_tails(
        first_options, (k,) + (1,) * n,
        pair_value=lambda j, i: k * c[i] * c[j] - 1,
        self_value=lambda i: 1 + k * c[i] * c[i],
        count=n + 2, exact=mode == EXACT)
    if tails is None:
        raise ValueError(f"no realization found for these {name} values")
    entry_rows = [(c[i],) + tuple(tails[i]) for i in range(n + 2)]
    return forms.ConfigMatrix.from_rows(geometry, entry_rows, mode=mode)


def _ref_descartes_check(bends):
    """Value of the Descartes form on a bend vector; 0 for every family of
    n+2 mutually tangent spheres."""
    return _reference_bend_residual(forms.EUCLIDEAN, bends)


def _reference_complete_rows(w1, w2, w3, mode):
    """Both augmented rows tangent to three mutually tangent rows."""
    half = coerce(1, mode) / 2
    # row w times the matrix K of pair_product is (-w_1/2, -w_0/2, w_2, ...)
    system = [(-half * w[1], -half * w[0]) + tuple(w[2:]) for w in (w1, w2, w3)]
    particular, kernel = _reference_list_solve_affine(system,
                                                      [-1, -1, -1])
    if len(kernel) != 1:
        raise ValueError("degenerate input rows")
    kv = kernel[0]
    a = forms.pair_product(forms.EUCLIDEAN, kv, kv)
    b = 2 * forms.pair_product(forms.EUCLIDEAN, particular, kv)
    c = forms.pair_product(forms.EUCLIDEAN, particular, particular) - 1
    if a == 0:
        raise ValueError("degenerate tangency arrangement")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("no real completion; tangency points may coincide")
    root = _ref_sqrt(disc)
    if root == 0:
        raise ValueError("completions coincide; tangency points are not distinct")
    u1 = (-b + root) / (2 * a)
    u2 = (-b - root) / (2 * a)
    sol1 = tuple(p + u1 * x for p, x in zip(particular, kv))
    sol2 = tuple(p + u2 * x for p, x in zip(particular, kv))
    return sol1, sol2


def _reference_realize_strip(bends, mode):
    """Two parallel lines and two equal circles, matching bend positions,
    as objects and their augmented rows."""
    zero_pos = [i for i, b in enumerate(bends) if b == 0]
    circle_pos = [i for i, b in enumerate(bends) if b != 0]
    s = bends[circle_pos[0]]
    r = div(1, s)
    one = coerce(1, mode)
    objs = [None] * 4
    objs[zero_pos[0]] = oracles.OrientedHyperplane((0 * one, -one), 0 * one)
    objs[zero_pos[1]] = oracles.OrientedHyperplane((0 * one, one), 2 * r)
    objs[circle_pos[0]] = oracles.OrientedSphere(s, (0 * one, r))
    objs[circle_pos[1]] = oracles.OrientedSphere(s, (2 * r, r))
    return oracles.config_from_objects(objs)


def _reference_realize_curvature_vector(bends, tol=DEFAULT_TOL):
    """Construct one planar configuration with the prescribed bend vector.

    The bends must satisfy the Descartes relation.  Placement is canonical:
    the two largest bends become circles tangent at the origin with centers
    on the x axis, the third circle sits in the upper half plane, and the
    remaining row is the matching completion.  A vector with two zero bends
    yields the two-line strip arrangement instead.  Vectors whose majority
    orientation is outward are realized by reversing all orientations of the
    mirror input.
    """
    bends = tuple(bends)
    if len(bends) != 4:
        raise ValueError("realization is implemented for the plane (4 bends)")
    mode = mode_of(bends)
    bends = coerce_row(bends, mode)
    residual = _ref_descartes_check(bends)
    if not near(residual, 0, tol):
        raise ValueError(f"bends violate the Descartes relation by {residual}")
    if all(b == 0 for b in bends):
        raise ValueError("the zero vector is not a bend vector")
    positives = sum(1 for b in bends if b > 0)
    if positives < 2:
        flipped = _reference_realize_curvature_vector(
            tuple(-b for b in bends), tol)
        return forms.ConfigMatrix.from_rows(
            forms.EUCLIDEAN, [[-x for x in r.entries] for r in flipped.rows])
    zeros = sum(1 for b in bends if b == 0)
    if zeros == 2:
        return _reference_realize_strip(bends, mode)
    order = sorted(range(4), key=lambda i: (-bends[i], i))
    ba, bb, bc, bd = (bends[i] for i in order)
    one = coerce(1, mode)
    ra, rb, rc = one / ba, one / bb, one / bc
    ax, bx = ra, -rb
    cx = rc * (rb - ra) / (ra + rb)
    cy = 2 * _ref_sqrt((ra + rb + rc) * ra * rb * rc) / (ra + rb)
    circle_a = oracles.OrientedSphere(ba, (ax, 0 * one))
    circle_b = oracles.OrientedSphere(bb, (bx, 0 * one))
    circle_c = oracles.OrientedSphere(bc, (cx, cy))
    rows3 = [oracles.augmented_coords(o).entries
             for o in (circle_a, circle_b, circle_c)]
    sol1, sol2 = _reference_complete_rows(rows3[0], rows3[1], rows3[2],
                                          mode)
    if near(sol1[1], bd, tol):
        w4 = sol1
    elif near(sol2[1], bd, tol):
        w4 = sol2
    else:
        raise ValueError("no completion matches the fourth bend")
    placed = rows3 + [w4]
    ordered = [None] * 4
    for slot, original_index in enumerate(order):
        ordered[original_index] = placed[slot]
    return forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, ordered, mode=mode)



def _reference_realize_cap_config(cots, n=None, tol=DEFAULT_TOL):
    return _reference_realize_tangent_rows(forms.SPHERICAL, cots, n,
                                           lambda c0, one: [(one, c0)], tol)


def _reference_realize_sphere_config(coths, n=None, tol=DEFAULT_TOL):
    def first_tails(c0, one):
        return ([()] if abs(c0) == 1 else []) + [(c0, one)]

    return _reference_realize_tangent_rows(forms.HYPERBOLIC, coths, n,
                                           first_tails, tol)


REFERENCE_REALIZERS = {E: _reference_realize_curvature_vector,
                       S: _reference_realize_cap_config,
                       H: _reference_realize_sphere_config}


def _searched(bends):
    """The configuration of the package's tail search for exact cot values
    of any n, after the realizer's bend check: what realize_bends gave for
    n = 2 before curved plane bends were reflected from a base, and what
    finds the exact bases above the plane (forms._base)."""
    c = forms._bend_values(S, bends, "cot values violate the bend relation")[0]
    return forms._search_tangent_rows(c)


# the package realizer that runs the code each reference realizer had on
# exact values, and for H, where no package search is left, realize_bends
SEARCH_REALIZERS = {E: lambda bends: apollonian.realize_bends(E, bends),
                    S: _searched,
                    H: lambda bends: apollonian.realize_bends(H, bends)}


# --- bend vectors --------------------------------------------------------

REALIZE_WORDS = ((), (0,), (2, 1), (3, 0, 2), (1, 3, 0, 2), (0, 2, 1, 3, 0))
# rational cot values of five pairwise tangent caps (n = 3); no exact
# configuration has them, so both searches must give up the same way
N3_COTS = ((-3, Fraction(-5, 2), -1, Fraction(-1, 2), Fraction(-1, 2)),
           (Fraction(-5, 2), Fraction(-5, 2), -2, Fraction(-1, 2), 0),
           (Fraction(-5, 2), -2, -2, Fraction(-3, 2), Fraction(1, 2)))
NOT_DESCARTES = ((1, 2, 3, 4), (1, 1, 1, 1), (0, 0, 0, 0), (1, 2, 2, 3),
                 (1, 2, 3))


def _reflect_bends(v, i):
    """v moved by the Apollonian reflection at index i (n = 2), which acts
    on the bends of all three geometries alike."""
    v = list(v)
    v[i] = 2 * (sum(v) - v[i]) - v[i]
    return tuple(v)


def _large(v):
    """v reflected at its smallest entry until some entry passes 10^12."""
    while max(abs(x) for x in v) < 10 ** 12:
        v = _reflect_bends(v, min(range(4), key=lambda i: (v[i], i)))
    return v


def _bend_vectors(geometry):
    """Exact bend vectors: root or base vectors moved by reflection words of
    length 0-5, Fraction and outward (negated) vectors, vectors near
    10^12, the strip and horocycle seeds, vectors that are no bend vectors,
    and spherical n = 3 cots."""
    if geometry == E:
        bases = ROOTS + ((0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 4))
    else:
        bases = BASES[geometry] + tuple(
            transform.convert_matrix(apollonian.realize_bends(E, r),
                                     geometry).bends for r in ROOTS[:4])
    out = []
    for v in bases:
        for word in REALIZE_WORDS:
            r = v
            for i in word:
                r = _reflect_bends(r, i)
            out.append(r)
    if geometry == E:
        out += [tuple(Fraction(x, 2) for x in v) for v in ROOTS[:4]]
        out += [tuple(Fraction(2 * x, 3) for x in v) for v in ROOTS[4:]]
        out += [tuple(x * 10 ** 12 for x in v) for v in ROOTS[:3]]
    out += [_large(v) for v in bases[:3]]
    if geometry == S:
        out += list(N3_COTS)
    out += [tuple(-x for x in v) for v in out]
    return out + list(NOT_DESCARTES)


def _outcome_bytes(fn, *args):
    """repr of the rows fn returns, or the type and message of its error;
    equal reprs mean equal Fractions or bit-equal floats."""
    try:
        w = fn(*args)
    except (ValueError, ArithmeticError) as e:
        return (type(e), str(e))
    return (w.geometry, w.mode, repr([r.entries for r in w.rows]))


def _max_rel_diff(rows, ref_rows):
    """Largest entry difference over the largest absolute entry of ref_rows."""
    scale = max(abs(x) for row in ref_rows for x in row)
    return max(abs(a - b) for row, ref in zip(rows, ref_rows)
               for a, b in zip(row, ref)) / scale


def _check_float_euclidean(v, bends, ref):
    """Float Euclidean rows come from the closed form of exact mode, not
    from the reference's radii placement and completion: float mode must
    fail exactly where exact mode fails, keep the requested bends, give the
    float of every exact row where the float bends are the exact ones (up
    to the sign of zero, which the orientation flip makes -0.0 in float
    mode), and stay within 1e-15 relative of the exact rows and of every
    row the reference still realizes."""
    twin, twin_err = _outcome(apollonian.realize_bends, E, v)
    w, err = _outcome(apollonian.realize_bends, E, bends)
    assert (err is None) == (twin_err is None), (v, err, twin_err)
    if err is not None:
        return
    assert w.mode == FLOAT and w.bends == bends, v
    rows = [r.entries for r in w.rows]
    exact_rows = [tuple(map(float, r.entries)) for r in twin.rows]
    if all(Fraction(b) == x for b, x in zip(bends, v)):
        assert repr([tuple(x + 0.0 for x in row) for row in rows]) == \
            repr(exact_rows), v
    else:
        assert _max_rel_diff(rows, exact_rows) <= 1e-15, v
    if not isinstance(ref[0], type):
        ref_rows = [r.entries for r in REFERENCE_REALIZERS[E](bends).rows]
        assert _max_rel_diff(rows, ref_rows) <= 1e-15, v


def _violates(outcome):
    return isinstance(outcome[0], type) and "violate" in outcome[1]


def _congruent(w, ref):
    """Whether the rows of w are those of ref times an isometry of their
    Gram target T: G = W_ref^{-1} W, on the exact values of both, each entry
    rounded once, passes check_identity(G, T, T)."""
    g = linalg.matmul(linalg.mat_inv(ref.matrix()),
                      [tuple(map(Fraction, row)) for row in w.matrix()])
    t = forms.target_for(w.geometry, w.n, FLOAT)
    return forms.check_identity([tuple(map(float, row)) for row in g],
                                t, t).ok


def _reference_rows(geometry, bends):
    """The reference tail search's configuration for float values, with its
    bend check switched off, or None where it finds none or none within
    the rounding of its entries of the Gram identity (check_identity at
    tol 0): an absolute 1e-9 passes rows too far off for G of _congruent
    to be an isometry within rounding."""
    try:
        ref = REFERENCE_REALIZERS[geometry](bends, None, math.inf)
    except ValueError:
        return None
    return ref if ref.residual(0.0).ok else None


def _check_float_curved(geometry, v, bends, new, ref):
    """Float cot and coth values are realized by reflecting a base in every
    dimension.  They fail only where their exact twin v misses the bend
    relation, with the reference's error, and otherwise come out with the
    bends as given, pass the Gram check, and are congruent to the
    reference's rows wherever it finds rows.  Returns (whether the
    reference's absolute check refused rounding, whether rows were
    compared)."""
    if forms.bend_residual(geometry, v):
        assert new == ref, bends
        return False, False
    w = apollonian.realize_bends(geometry, bends)
    assert w.bends == bends and w.residual().ok, bends
    w_ref = _reference_rows(geometry, bends)
    if w_ref is not None:
        assert _congruent(w, w_ref), bends
    return _violates(ref), w_ref is not None


def _check_exact_hyperbolic(bends, new, ref):
    """Exact coth values are realized by reflecting a base, not by the tail
    search the reference runs.  They fail only where they miss the bend
    relation, with the reference's error, and otherwise come out with the
    bends as given and an exactly zero Gram residual, and are the
    reference's rows times an exact isometry G = W_ref^{-1} W of the Gram
    target wherever the reference finds rows."""
    if isinstance(new[0], type):
        assert new == ref and _violates(ref), bends
        return
    w = apollonian.realize_bends(H, bends)
    assert w.bends == bends and w.residual().max_abs_entry_error == 0, bends
    if not isinstance(ref[0], type):
        w_ref = REFERENCE_REALIZERS[H](bends)
        g = linalg.matmul(linalg.mat_inv(w_ref.matrix()), w.matrix())
        t = forms.target_for(H, w.n)
        assert forms.check_identity(g, t, t).max_abs_entry_error == 0, bends


def _rounded_plane_rows(bends, exact_rows):
    """The plane rows of float bends as the realizer must give them: the
    rows exact_rows gives their Fraction twin, each entry rounded once, with
    the bends as given, -0.0 included.  Bends with fewer than two positive
    entries give the rows of their negation negated, so that a zero entry
    there is -0.0."""
    if sum(1 for b in bends if b > 0) < 2:
        return [tuple(-x for x in row) for row in _rounded_plane_rows(
            tuple(-b for b in bends), exact_rows)]
    rows = exact_rows(tuple(map(Fraction, bends)))
    return [(float(r[0]), b, *map(float, r[2:])) for b, r in zip(bends, rows)]


def test_strip_frames_are_the_object_route_rows():
    """The closed-form frame of a strip is the configuration of its lines
    and circles built as objects, at every position of the zero bends and
    in both orientations: to the entry in exact mode, and in float mode to
    the bit and the entry type of the object route's rows of the Fraction
    twin, each entry rounded once (_rounded_plane_rows)."""
    rng = random.Random(12)
    sizes = [Fraction(1), Fraction(1, 3), Fraction(7, 5), Fraction(10 ** 9, 7)]
    sizes += [rng.uniform(0.5, 2) * 10.0 ** rng.randrange(-8, 10)
              for _ in range(60)]
    sizes += [1e-8, 1e9]
    for s in sizes:
        zero = s * 0
        for zeros in itertools.combinations(range(4), 2):
            strip = tuple(zero if i in zeros else s for i in range(4))
            for v in (strip, tuple(-x for x in strip)):
                new = apollonian.realize_bends(E, v)
                if isinstance(s, float):
                    ref = _rounded_plane_rows(v, lambda twin: (
                        _reference_realize_curvature_vector(twin).matrix()))
                else:
                    ref = _reference_realize_curvature_vector(v).matrix()
                assert [_typed_bits(row) for row in new.matrix()] == \
                    [_typed_bits(row) for row in ref], v


def _fraction_bend_vectors(geometry):
    """Exact bend vectors with Fraction entries: the bends of the exact
    grid, the multi-word one included, each also with 1/7 added to one
    entry, and the vectors of _bend_vectors as Fractions over 3 (their
    thirds in the plane, where the relation is homogeneous)."""
    on = [w.bends for w in _grid(geometry, EXACT) + _multiword_grid(geometry)]
    off = [v[:2] + (v[2] + Fraction(1, 7),) + v[3:] for v in on]
    third = Fraction(1, 3) if geometry == E else Fraction(3, 3)
    mixed = [tuple(x * third for x in v) for v in _bend_vectors(geometry)]
    return on + off + mixed


@pytest.mark.parametrize("geometry", GEOMS)
def test_exact_bend_checks_match_reference(geometry):
    """bend_residual on the int frame of Fraction bends is the reference's
    Fraction arithmetic, and _bend_values passes exactly the vectors whose
    reference residual is 0, with their values and int frame, and refuses
    the others with that residual in its message."""
    met = missed = 0
    for v in _fraction_bend_vectors(geometry):
        ref = _reference_bend_residual(geometry, v)
        new = forms.bend_residual(geometry, v)
        assert type(new) is Fraction and new == ref, v
        if ref == 0:
            c, mode, ((ints,), s) = forms._bend_values(geometry, v, "off")
            assert (c, mode) == (tuple(v), EXACT), v
            assert [Fraction(x, s) for x in ints] == list(v), v
            assert s == math.lcm(*[Fraction(x).denominator for x in v]), v
            met += 1
        else:
            with pytest.raises(ValueError) as info:
                forms._bend_values(geometry, v, "off")
            assert str(info.value) == f"off by {ref}", v
            missed += 1
    assert met >= 100 and missed >= 50, (met, missed)


@pytest.mark.parametrize("geometry,mode", CASES)
def test_realize_bends_matches_reference(geometry, mode):
    exact = mode == EXACT
    realized = failed = rounding = compared = 0
    realize = SEARCH_REALIZERS[geometry] if exact else \
        (lambda bends: apollonian.realize_bends(geometry, bends))
    for v in _bend_vectors(geometry):
        bends = v if exact else tuple(float(x) for x in v)
        new = _outcome_bytes(realize, bends)
        ref = _outcome_bytes(REFERENCE_REALIZERS[geometry], bends)
        if (geometry, mode) == (E, FLOAT):
            _check_float_euclidean(v, bends, ref)
        elif not exact:
            refused, found = _check_float_curved(geometry, v, bends, new, ref)
            rounding += refused
            compared += found
        elif geometry == H:
            _check_exact_hyperbolic(bends, new, ref)
        else:
            assert new == ref, (geometry, bends)
        if isinstance(new[0], type):
            failed += 1
        else:
            realized += 1
            if exact:
                assert new[1] == EXACT
    assert realized >= 60 and failed >= len(NOT_DESCARTES), (realized, failed)
    if (geometry, mode) in ((S, FLOAT), (H, FLOAT)):
        assert rounding >= 4 and compared >= 30, (rounding, compared)


# exact vectors meeting the bend relation for n = 8, where a rational
# configuration exists
DIMENSION_8_BENDS = {
    S: (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1),
    H: (-3, -3, -2, -2, -2, -1, -1, -1, -1, 0),
}


def _cap_words(geometry, rng):
    """(n, bends) for n = 3..6: the bends of the float equal caps
    (standard_seed) moved by one reflection word of each length 0-12, no
    letter twice in a row."""
    out = []
    for n in range(3, 7):
        seed = apollonian.standard_seed(geometry, n, FLOAT)
        for length in range(13):
            w, last = seed, None
            for _ in range(length):
                last = rng.choice([i for i in range(n + 2) if i != last])
                w = apollonian.reflect(w, last)
            out.append((n, w.bends))
    return out


@pytest.mark.parametrize("geometry", (S, H))
def test_float_realizations_are_congruent_to_the_reference(geometry):
    """Float cot and coth values above the plane, the reflected bends of
    the equal caps and the n = 8 vector of DIMENSION_8_BENDS, are realized
    with the bends as given and a residual() that is ok, in rows congruent
    (_congruent) to the reference tail search's wherever it finds rows
    within rounding, and to the exact rows of the n = 8 vector."""
    rng = random.Random(32)
    compared = set()
    for n, bends in _cap_words(geometry, rng):
        w = apollonian.realize_bends(geometry, bends)
        assert w.n == n and w.bends == bends and w.residual().ok, bends
        ref = _reference_rows(geometry, bends)
        if ref is not None:
            assert _congruent(w, ref), bends
            compared.add(n)
    exact = DIMENSION_8_BENDS[geometry]
    bends = tuple(map(float, exact))
    w = apollonian.realize_bends(geometry, bends)
    assert w.mode == FLOAT and w.bends == bends and w.residual().ok
    assert _congruent(w, apollonian.realize_bends(geometry, exact))
    assert compared == {3, 4, 5, 6}, compared


@pytest.mark.parametrize("geometry", (S, H))
def test_curved_plane_realize_bends_matches_the_base_reflection(geometry):
    """realize_bends of n = 2 cot and coth vectors against
    oracles.reflected_base: exact rows equal to the oracle's, with the
    bends as given and an exactly zero Gram residual; float rows equal to
    the oracle's on the dyadic values of the float bends, each entry
    rounded once, with the float bends as the bend column; and the
    reference's error, in both modes, for a vector that is no bend vector.
    """
    realized = refused = 0
    for v in _bend_vectors(geometry):
        if len(v) != 4:
            continue
        for bends in (tuple(map(Fraction, v)), tuple(map(float, v))):
            new = _outcome_bytes(apollonian.realize_bends, geometry, bends)
            if forms.bend_residual(geometry, tuple(map(Fraction, v))):
                assert new == _outcome_bytes(REFERENCE_REALIZERS[geometry],
                                             bends), bends
                refused += 1
                continue
            w = apollonian.realize_bends(geometry, bends)
            oracle = oracles.reflected_base(geometry, bends)
            if is_exact(bends[0]):
                assert tuple(r.entries for r in w.rows) == oracle, v
                assert w.bends == bends and w.mode == EXACT
                res = w.residual()
                assert res.ok and res.max_abs_entry_error == 0, v
            else:
                rounded = [(b,) + tuple(map(float, row[1:]))
                           for b, row in zip(bends, oracle)]
                assert repr([r.entries for r in w.rows]) == repr(rounded), v
                assert w.residual().ok, v
            realized += 1
    assert realized >= 2 * 60 and refused == 2 * 4, (realized, refused)


# --- the base reflection on lists, verbatim ------------------------------

def _ref_carried(rows, a, b, t):
    """(V, m): int rows R times the map G: x -> x - 2 (x^T t v) / m v of
    column vectors, v = a - b and m = 2 a^T t v != 0, as V = m R G, that
    is r -> m r - 2 (r.v) (t v)^T on each row.  G carries a to b whatever
    their norms; when a and b have one norm of the diagonal form t,
    m = v^T t v and G is the reflection of t in v, an isometry."""
    v = [x - y for x, y in zip(a, b)]
    tv = [x * y for x, y in zip(t, v)]
    m = 2 * sum(map(mul, tv, a))
    return [[m * x - f * y for x, y in zip(r, tv)]
            for r, f in zip(rows, [2 * sum(map(mul, r, v)) for r in rows])], m


def _reference_reflected_base(geometry, frame, mode):
    """(V, m): the int rows V over the positive int m of the rows W = W0 G
    of a configuration with bends c, given as the int frame ((v,), s) of
    their exact values in either mode (_bend_values), v = s c."""
    (ints,), s = frame
    w0, sigma, inverse, d, t = forms._base(geometry, len(ints) - 2, mode)
    e = [d * s] + [0] * (len(ints) - 1)
    terms = list(map(mul, inverse[0], ints))
    g = [sum(terms)] + [sum(map(mul, row, ints)) for row in inverse[1:]]
    v0 = e[0] - g[0]
    if mode == EXACT:
        isotropic = not v0
    else:
        isotropic = abs(v0) <= scalars.ROUNDING * sum(map(abs, terms))
    if g == e:
        rows, m = w0, 1
    elif not isotropic:
        rows, m = _ref_carried(w0, e, g, t)
    else:
        # G carries e to -g and then -g to g, so W0 G = (W0 G_2) G_1
        minus_g = [-x for x in g]
        rows, m = _ref_carried(w0, minus_g, g, t)
        rows, m2 = _ref_carried(rows, e, minus_g, t)
        m *= m2
    if m < 0:  # a frame's scale is positive
        rows, m = [[-x for x in r] for r in rows], -m
    m *= sigma
    if geometry == H:
        # the first row of |c_i| = |r_0 / m| >= 1 with a nonzero q_0 = r_1 / m
        for r in rows:
            if r[1] and abs(r[0]) >= m:
                if (r[0] > 0) != (r[1] > 0):
                    rows = [(r[0], -r[1], *r[2:]) for r in rows]
                break
    return rows, m


def _isotropic_coths():
    """Coth values whose e - W0^{-1} c is isotropic: (-3, 5, 7, 9) and
    W0 (1, 5l, 3l, 4l) for a few l, the last two multi-word."""
    base = oracles.BASE_ROWS["hyperbolic"]
    out = [(-3, 5, 7, 9)]
    for lam in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 10), 1, 7,
                Fraction(3 ** 41, 7 ** 20), 5 ** 40):
        g = (1, 5 * lam, 3 * lam, 4 * lam)
        out.append(tuple(sum(x * y for x, y in zip(row, g)) for row in base))
    return out


def _reflection_inputs(geometry):
    """(bends, exact) pairs that realize_bends reflects a base for: the n = 2
    grid in both modes, the loxodromic multi-word ints of _multiword_grid
    and, for H, the isotropic coth vectors, each also as floats, and the
    float bends of the n = 3..16 standard seeds moved by words of 0-6
    letters."""
    rng = random.Random(39)
    exact = [w.bends for w in _grid(geometry, EXACT)
             + _multiword_grid(geometry)]
    if geometry == H:
        exact += _isotropic_coths()
    out = exact + [tuple(map(float, v)) for v in exact]
    out += [w.bends for w in _grid(geometry, FLOAT)]
    for n in range(3, 17):
        seed = apollonian.standard_seed(geometry, n, FLOAT)
        for length in range(7):
            w, last = seed, None
            for _ in range(length):
                last = rng.choice([i for i in range(n + 2) if i != last])
                w = apollonian.reflect(w, last)
            out.append(w.bends)
    return out


def _edge_frames(geometry):
    """Int frames ((x,), s) at the edge of the float isotropy test,
    |v_0| 2^46 = sum_j |D_0j x_j|, and just past it.  The spherical n = 2
    base has D_0 = (2, 1, 1, 0) over d = 2, so x = (2^46, 0, 0, x_3) over
    s = 2^46 +- 1 gives v_0 = +-2 and the sum 2^47, and x_0 = 2^46 - 1
    over 2^46 gives v_0 = 2 and the sum 2^47 - 2.  They meet no bend
    relation; the kernel is checked on them as a map of ints."""
    if geometry != S:
        return []
    k = 2 ** 46
    return [(((k, 0, 0, 0),), k + 1), (((k, 0, 0, 5),), k - 1),
            (((k - 1, 0, 0, 0),), k)]


@pytest.mark.parametrize("geometry", (S, H))
def test_base_reflection_kernel_matches_the_list_loops(geometry):
    """forms._reflected_base, on the kernel of linalg._base_reflection,
    gives the (V, m) of the list loops it replaced on the int frame of
    every input, in its mode, and takes the isotropic path on the same
    inputs: a sign flipped in the kernel's row expression, or < in place
    of <= in the float isotropy test, fails here."""
    compared = isotropic = edges = 0
    for bends in _reflection_inputs(geometry):
        c, mode, frame = forms._bend_values(geometry, bends, "off")
        rows, m = forms._reflected_base(geometry, frame, mode)
        ref_rows, ref_m = _reference_reflected_base(geometry, frame, mode)
        assert type(m) is int and m > 0 and m == ref_m, bends
        assert [list(r) for r in rows] == [list(r) for r in ref_rows], bends
        assert all(type(x) is int for r in rows for x in r), bends
        compared += 1
        isotropic += len(bends) == 4 and oracles.isotropic_reflection(
            geometry, bends)
    for (ints,), s in _edge_frames(geometry):
        for mode in (EXACT, FLOAT):
            got = forms._reflected_base(geometry, ((ints,), s), mode)
            ref = _reference_reflected_base(geometry, ((ints,), s), mode)
            assert [list(r) for r in got[0]] == [list(r) for r in ref[0]]
            assert got[1] == ref[1], (ints, s, mode)
            edges += 1
    assert compared >= 200, compared
    if geometry == H:
        assert isotropic >= len(_isotropic_coths()), isotropic
    else:
        assert edges == 6


@pytest.mark.parametrize("geometry", GEOMS)
def test_float_realizations_above_n_16_pass_their_gram_check(geometry):
    """The n = 17..39 float standard seeds pass their Gram check, and for
    the curved geometries (the plane realizer takes 4 bends) the seeds'
    bends moved by one reflection are realized with the bends as given and
    a residual() that is ok: the isotropy test decides on ints, where the
    list loops turned an int past 2^1024 into a float."""
    for n in range(17, 40):
        seed = apollonian.standard_seed(geometry, n, FLOAT)
        assert seed.n == n and seed.residual().ok, n
        if geometry == E:
            continue
        bends = apollonian.reflect(seed, n % (n + 2)).bends
        w = apollonian.realize_bends(geometry, bends)
        assert w.n == n and w.bends == bends and w.residual().ok, n


def test_each_reflection_kernel_is_built_once_per_width(monkeypatch):
    # three widths, each realized from three times over, in both curved
    # geometries, build three kernels
    built = []
    compiled = linalg._compiled

    def counted(source):
        if source.startswith("def kernel(x, s, r, sigma, inverse, d, t):"):
            built.append(source)
        return compiled(source)

    monkeypatch.setattr(linalg, "_compiled", counted)
    linalg._base_reflection.cache_clear()
    for _ in range(3):
        for geometry in (S, H):
            for n in (2, 3, 5):
                seed = apollonian.standard_seed(geometry, n, FLOAT)
                apollonian.realize_bends(geometry, apollonian.reflect(
                    seed, 0).bends)
            apollonian.realize_bends(geometry, BASES[geometry][0])
    assert len(built) == 3, built
    assert linalg._base_reflection(4) is linalg._base_reflection(4)


def _tail_searches(geometry):
    """(prev_tails, signs, pair_values, self_value) for every row of the
    exact tail search along each configuration the reference search finds
    for the geometry."""
    k = forms.CURVATURE_SIGN[geometry]
    out = []
    for v in _bend_vectors(geometry):
        try:
            w = REFERENCE_REALIZERS[geometry](v)
        except ValueError:
            continue
        c = [r.entries[0] for r in w.rows]
        tails = [r.entries[1:] for r in w.rows]
        signs = (k,) + (1,) * (len(c) - 2)
        for i in range(1, len(c)):
            out.append((tails[:i], signs, [k * c[i] * c[j] - 1
                                           for j in range(i)],
                        1 + k * c[i] * c[i]))
    return out


@pytest.mark.parametrize("geometry", (S, H))
def test_exact_tail_candidates_match_reference(geometry):
    """The integer tail search yields the same tails in the same order as
    the Fraction one, each in lowest terms over a positive denominator."""
    searches = _tail_searches(geometry)
    for prev, signs, pair_values, self_value in searches:
        int_prev = [ints + (e,) for (ints,), e in
                    (integer_rows([t]) for t in prev)]
        (values,), den = integer_rows([[*pair_values, self_value]])
        new = list(linalg._exact_tail_candidates(int_prev, signs,
                                                 list(values), den))
        ref = list(_reference_tail_candidates(prev, signs, pair_values,
                                              self_value, True))
        for t in new:
            assert t[-1] > 0 and math.gcd(*t) == 1, t
        assert [tuple(Fraction(x, t[-1]) for x in t[:-1])
                for t in new] == ref
    assert len(searches) >= 100


def test_tail_candidates_along_an_isotropic_kernel_vector_match_reference():
    """The earlier tail t = (1, 1, 0) is isotropic for diag(-1, 1, 1), and
    <t, x> = 0 puts t into the kernel, so along it the quadratic has a = 0
    and b = 0: every u solves it when its constant is 0 (u = 0 is taken),
    none when it is not.  The search yields the reference's tails."""
    signs, prev, values = (-1, 1, 1), (1, 1, 0), [0, 1]
    exact = list(linalg._exact_tail_candidates([prev + (1,)], signs, values,
                                               1))
    ref = list(_reference_tail_candidates([tuple(map(Fraction, prev))], signs,
                                          [Fraction(0)], Fraction(1), True))
    assert [tuple(Fraction(x, t[-1]) for x in t[:-1]) for t in exact] == ref
    assert len(ref) == 7


def test_tail_search_stops_at_the_branch_limit(monkeypatch):
    """The second tail has 31 candidates, and only the last one leaves the
    third a rational tail.  The search gives up after BRANCH_LIMIT = 24
    candidates, as the reference does, and finds the tails when the limit
    lets it reach the 31st."""
    signs = (-1, 1, 1, 1)
    first = [tuple(map(Fraction, (2, 0, -2, -2)))]
    targets = [[4], [-2, 1], [2, -1, -3]]

    def search(limit):
        return _reference_realize_tails(
            first, signs, lambda j, i: Fraction(targets[i][j]),
            lambda i: Fraction(targets[i][-1]), len(targets), True, limit)

    assert linalg.BRANCH_LIMIT == 24
    assert linalg.realize_tails(first, signs, targets, 1) is None
    assert search(24) is None
    monkeypatch.setattr(linalg, "BRANCH_LIMIT", 31)
    found = linalg.realize_tails(first, signs, targets, 1)
    assert found is not None and list(found) == search(31)


# the search is exact and spherical only; the one case keeps the test's id
@pytest.mark.parametrize("geometry,mode", [(S, EXACT)])
def test_tail_search_takes_its_fast_paths(geometry, mode, monkeypatch):
    """On cot values that are already Fractions, tangency values reach the
    candidates as ints over one positive int denominator, the tails of each
    realization become rows in one unscaled_rows call, and no entry is
    coerced on the way, not by from_rows either; the rows are those of the
    reference tail search.  The package runs the search for the exact
    bases above the plane, and here on the n = 2 vectors of
    _bend_vectors."""
    inputs = [tuple(map(Fraction, v)) for v in _bend_vectors(geometry)]
    refs = [_outcome_bytes(REFERENCE_REALIZERS[geometry], bends)
            for bends in inputs]
    values, conversions, coerced, searches = [], [], [], []
    candidates, unscaled = linalg._exact_tail_candidates, linalg.unscaled_rows
    realize_tails, coerce = linalg.realize_tails, scalars.coerce

    def recording(prev_tails, signs, row, den):
        values.append((row, den))
        return candidates(prev_tails, signs, row, den)

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "_exact_tail_candidates", recording)
    monkeypatch.setattr(linalg, "unscaled_rows",
                        counted(unscaled, conversions))
    monkeypatch.setattr(linalg, "realize_tails", counted(realize_tails,
                                                         searches))
    monkeypatch.setattr(scalars, "coerce", counted(coerce, coerced))
    realized = 0
    for bends, ref in zip(inputs, refs):
        new = _outcome_bytes(_searched, bends)
        assert new == ref, bends
        realized += not isinstance(new[0], type)
    assert coerced == [], coerced[:3]
    assert values and all(type(den) is int and den > 0 and
                          all(type(x) is int for x in row)
                          for row, den in values)
    assert len(conversions) == realized
    assert realized >= 60 and len(searches) >= realized, realized


# --- generate's per-child loop, verbatim -----------------------------------

def _reference_check_finite(seed, bound):
    """_check_finite as it decided exact seeds on Fractions."""
    if seed.geometry != forms.EUCLIDEAN or seed.n != 2:
        return
    if seed.mode == EXACT:
        (bends,), scale, _ = apollonian._bend_frame(seed)
        root = tuple([Fraction(b, scale) for b in
                      _reference_root_quadruple(bends, floor(bound * scale))])
    else:
        root = _reference_root_quadruple(seed.bends, bound)
    tol = DEFAULT_TOL * max(map(abs, root))
    zeros = sum(near(b, 0, tol) for b in root)
    if zeros >= 2 and max(root) <= bound:
        raise apollonian.InfiniteClosure(
            f"the packing of this seed is infinite at any bound of at least "
            f"{max(root)}: its root quadruple {','.join(map(str, root))} is "
            "a strip between two parallel lines")


def _reference_loop_generate(seed, bound, keep_configs=False, max_depth=None,
                             max_configs=None, tol=DEFAULT_TOL):
    """generate() as it ran with the per-child loop in Python: the column
    sums once per configuration and the new row by plain loops, the bound
    tested per child."""
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    seed_rows, scale, coeff, _ = apollonian._walk_frame(
        seed, tol, "generation", apollonian._int_frame)
    n, mode = seed.n, seed.mode
    col = forms.bend_column(seed.geometry)
    if mode == EXACT:
        if isinstance(bound, float) and not isfinite(bound):
            raise ValueError(
                f"an exact walk needs a finite bound, not {bound}")
        bound_value = limit = Fraction(bound)
    else:
        bound_value = float(bound)
        if bound_value != bound_value:
            raise ValueError("bound must be a number, not nan")
        limit = bound_value + tol * max(bound_value, *map(abs, seed.bends))
        if limit == inf and max_depth is None and max_configs is None:
            raise apollonian.InfiniteClosure(
                f"the bound {bound} prunes nothing, so the walk never ends; "
                "pass max_depth or max_configs")
    if bound_value < 0:
        raise ValueError("bound must be nonnegative")
    if max_depth is None and max_configs is None:
        _reference_check_finite(seed, limit)
    elif (max_depth or 0) < 0 or (max_configs or 0) < 0:
        raise ValueError("max_depth and max_configs must be nonnegative")
    # an int is within the bound when within its floor: the bound test on
    # int rows stays in int arithmetic.  An infinite float bound prunes
    # nothing as it is.
    if isfinite(limit):
        limit = Fraction(limit) * scale
        if type(coeff) is int:
            limit = floor(limit)

    dedup = n > 2
    # n >= 3: an int id per distinct row, and the configurations met, each
    # as the sorted ids of its rows
    ids = {}
    seed_ids = (tuple([ids.setdefault(r, len(ids)) for r in seed_rows])
                if dedup else None)
    seen_configs = {tuple(sorted(seed_ids))} if dedup else None
    kept_configs = ({tuple(sorted(seed_rows)): seed_rows} if keep_configs
                    else None)
    rows = list(seed_rows)

    # (rows, row ids for n >= 3, index that produced it; -1 for the seed)
    frontier = [(seed_rows, seed_ids, -1)]
    found = 1  # configurations, the seed included
    explored = 0
    depth = 0
    truncated = False
    while frontier:
        if max_depth is not None and depth >= max_depth:
            truncated = True
            break
        explored += len(frontier)
        next_frontier = []
        for entry_rows, entry_ids, parent in frontier:
            total = _ref_column_sums(entry_rows)
            total_bend = total[col]
            for i in range(n + 2):
                if i == parent:
                    continue
                old = entry_rows[i]
                if abs(coeff * (total_bend - old[col]) - old[col]) > limit:
                    continue
                new = _ref_reflected_row(total, old, coeff)
                child_ids = None
                if dedup:
                    new_id = ids.get(new)
                    # every row of a configuration met has an id, so a row
                    # without one makes a new configuration
                    if new_id is not None:
                        child_ids = entry_ids[:i] + (new_id,) + entry_ids[i + 1:]
                        key = tuple(sorted(child_ids))
                        if key in seen_configs:
                            continue
                if max_configs is not None and found >= max_configs:
                    truncated = True
                    break
                found += 1
                child = entry_rows[:i] + (new,) + entry_rows[i + 1:]
                if not dedup:
                    rows.append(new)
                else:
                    if new_id is None:  # an id only for a row kept
                        new_id = ids[new] = len(ids)
                        rows.append(new)
                        child_ids = entry_ids[:i] + (new_id,) + entry_ids[i + 1:]
                        key = tuple(sorted(child_ids))
                    seen_configs.add(key)
                if keep_configs:
                    kept_configs[tuple(sorted(child))] = child
                next_frontier.append((child, child_ids, i))
            if truncated:
                break
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    rows.sort()
    configs = None
    try:
        if keep_configs:
            configs = tuple(
                forms.ConfigMatrix(seed.geometry,
                                   mode_frame(kept_configs[k], scale, mode))
                for k in sorted(kept_configs))
        if type(coeff) is not int:
            rows, denominator = integer_rows(rows)
            scale *= denominator
        if mode != EXACT:  # each entry leaves the frame once, rounded
            rows, scale = unscaled_rows(rows, scale, mode), 1.0
    except OverflowError:
        raise ValueError(f"a row of the packing within the bound {bound} is "
                         "beyond the float range") from None
    return apollonian.Packing(seed.geometry, n, seed, None, bound_value,
                              configs, explored, depth, truncated,
                              scaled=(tuple(rows), scale))


def _reference_root_quadruple(bends, bound=None):
    """root_quadruple as it called near() on every step taken."""
    v = list(bends)
    if _sum(v) < 0:
        v = [-b for b in v]
    while True:
        i = max(range(len(v)), key=v.__getitem__)
        new = 2 * (_sum(v) - v[i]) - v[i]
        if new >= v[i] or near(new, v[i], DEFAULT_TOL * v[i]) or (
                bound is not None and abs(new) > bound):
            return tuple(v)
        v[i] = new


def _strip_outcome(check, seed, bound):
    """None, or the text of the InfiniteClosure that check raises."""
    try:
        check(seed, bound)
    except apollonian.InfiniteClosure as e:
        return str(e)
    return None


# Euclidean bend vectors for the strip check: strips, seeds down a chain of
# circles tangent to two fixed ones, roots, and roots moved off by a word
_STRIP_BENDS = ((0, 0, 1, 1), (4, 0, 1, 1), (Fraction(-1, 2), Fraction(-1, 2), 0, 0),
                (Fraction(2, 3), 0, 0, Fraction(2, 3)), (0, 1, 100, 121),
                (Fraction(4, 3), 0, Fraction(1, 3), Fraction(1, 3)),
                (0, -1, 0, -1), (0, 1, 4, 9), *ROOTS,
                *[_reflect_bends(_reflect_bends(v, 0), 3) for v in ROOTS[:4]])


def test_strip_checks_match_the_fraction_check():
    """_check_finite decides an exact seed on its ints as the Fraction check
    did, and a float seed as before, refusal text included, at bounds
    below, on and above the root's largest bend; root_quadruple takes the
    steps that near() took, on int, Fraction, float and mixed bends."""
    bounds = (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(4, 3), 2, 80,
              81, 121, 10 ** 6)
    refused = 0
    for bends in _STRIP_BENDS:
        seed = apollonian.realize_bends(E, tuple(map(Fraction, bends)))
        for w in (seed, _to_float(seed)):
            for bound in bounds:
                b = Fraction(bound) if w.mode == EXACT else float(bound)
                got = _strip_outcome(apollonian._check_finite, w, b)
                assert got == _strip_outcome(_reference_check_finite, w, b), (
                    bends, w.mode, bound)
                refused += got is not None
        for v in (bends, tuple(map(Fraction, bends)), tuple(map(float, bends)),
                  (float(bends[0]),) + tuple(bends[1:])):
            for bound in (None, 1, 80, 81):
                assert apollonian.root_quadruple(v, bound) == \
                    _reference_root_quadruple(v, bound), (v, bound)
    assert refused >= 40, refused


def test_each_walk_level_is_built_once_per_width_and_bend_column(monkeypatch):
    # generate at n = 2 in the three geometries (bend columns 1, 0 and 0)
    # and at n = 3, each three times over, builds three level kernels
    built = []
    compiled = linalg._compiled

    def counted(source):
        if source.startswith(
                "def kernel(frontier, c, limit, ids, seen, found, nxt, room):"):
            built.append(source)
        return compiled(source)

    monkeypatch.setattr(linalg, "_compiled", counted)
    linalg._walk_level.cache_clear()
    for _ in range(3):
        for geometry in GEOMS:
            apollonian.generate(apollonian.standard_seed(geometry), 30,
                                max_configs=40)
        apollonian.generate(apollonian.standard_seed(E, 3, FLOAT), 4.0,
                            max_configs=40)
    assert len(built) == 3, [source.splitlines()[1] for source in built]
    assert linalg._walk_level(4, 1) is linalg._walk_level(4, 1)
    assert linalg._walk_level(4, 1) is not linalg._walk_level(4, 0)


@pytest.mark.parametrize("n,bound,caps", (
    (2, 300, {}), (2, 300, {"max_configs": 100}), (2, 300, {"max_depth": 3}),
    (3, 4.0, {}), (3, 4.0, {"max_configs": 137}), (3, 4.0, {"max_depth": 5})))
def test_generate_calls_its_level_kernel_once_per_level(monkeypatch, n, bound,
                                                        caps):
    # one call of the generated kernel per level walked, the level a cap
    # stops included: no per-configuration or per-child loop in Python
    calls = []
    compiled = linalg._compiled

    def counted(source):
        kernel = compiled(source)
        if not source.startswith("def kernel(frontier, c, limit, ids, seen,"):
            return kernel

        def level(*args):
            calls.append(len(args[0]))
            return kernel(*args)
        return level

    monkeypatch.setattr(linalg, "_compiled", counted)
    linalg._walk_level.cache_clear()
    try:
        seed = apollonian.standard_seed(E, n, EXACT if n == 2 else FLOAT)
        p = apollonian.generate(seed, bound, keep_configs=True, **caps)
    finally:
        linalg._walk_level.cache_clear()
    assert p.truncated == bool(caps)
    if "max_configs" in caps:  # the cap stops a level
        assert len(p.configs) == caps["max_configs"]
    assert len(calls) == p.depth > 2
    assert sum(calls) == p.explored
