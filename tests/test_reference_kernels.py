"""The plain-tuple matrix layer against the numpy code it replaced.

The _reference_* functions are the numpy implementations of check_identity,
convert_matrix, loxodromic and solve_affine as the package had them, copied
verbatim together with the helpers they called (_ref_as_matrix,
_ref_identity, ...).  Only names changed: those calls point at the copies
here, and conversion_matrix, which now returns a tuple of rows, is wrapped
in np.array.  numpy is a test-only dependency (the [test] extra).

Exact results must be equal; float results may differ by 1e-12 relative,
since the new code adds products in another order than numpy's BLAS.
"""

from fractions import Fraction

import numpy as np
import pytest

from inversive import apollonian, euclid, forms, linalg, transform
from inversive.scalars import (DEFAULT_TOL, EXACT, FLOAT, coerce, is_exact,
                               near)

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


def _ref_identity(k, exact):
    if exact:
        eye = np.full((k, k), Fraction(0), dtype=object)
        for i in range(k):
            eye[i, i] = Fraction(1)
        return eye
    return np.eye(k)


def _ref_is_exact_matrix(a):
    return a.dtype == object


def _ref_max_abs(a):
    """Largest absolute entry; exact scalar for exact input."""
    values = [abs(x) for x in np.asarray(a).flat]
    if not values:
        return 0
    return max(values)


def _reference_solve_affine(a, b):
    """All solutions of a x = b as (particular, kernel basis columns).

    Works on exact and float matrices; float pivoting is by magnitude with a
    small threshold for rank decisions.
    """
    a = np.array(a)
    rows, cols = a.shape
    exact = _ref_is_exact_matrix(a)
    zero_tol = 0 if exact else 1e-12 * max(1.0, float(_ref_max_abs(a)))
    aug = np.concatenate([a, np.array(b).reshape(rows, 1)], axis=1)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(aug[i, c]), default=None)
        if pivot is None or abs(aug[pivot, c]) <= zero_tol:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        aug[r] = aug[r] / aug[r, c]
        for i in range(rows):
            if i != r and aug[i, c] != 0:
                aug[i] = aug[i] - aug[i, c] * aug[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if abs(aug[i, cols]) > zero_tol:
            raise ValueError("inconsistent linear system")
    eye = _ref_identity(cols, exact)
    particular = 0 * eye[0]
    for i, c in enumerate(pivots):
        particular[c] = aug[i, cols]
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for c in free:
        vec = eye[c].copy()
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i, c]
        kernel.append(vec)
    return particular, kernel


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


def _ref_reflect_entries(entry_rows, i, coeff):
    total = _ref_column_sums(entry_rows)
    old = entry_rows[i]
    new = tuple(coeff * (t - x) - x for t, x in zip(total, old))
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def _reference_loxodromic(seed, k, tol=DEFAULT_TOL):
    """Reflect k times at the row of minimal bend entry (ties to the least
    index), appending each produced bend."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    n = seed.n
    mode = seed.mode
    q = forms.descartes_form(n, mode)
    res = _reference_check_identity(
        seed, q, forms.target_for(seed.geometry, n, mode), tol)
    if not res.ok:
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


# --- the grid ----------------------------------------------------------

def _placed(w):
    """w moved by a Mobius map: a rational translation, a dilation and the
    inversion in the unit circle."""
    v = (Fraction(3, 7), Fraction(-2, 5))
    objs = [euclid.invert_unit_sphere(euclid.scale(euclid.translate(o, v),
                                                   Fraction(5, 3)))
            for o in euclid.objects_from_config(w)]
    return euclid.config_from_objects(objs)


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
    checked = 0
    for w in configs + [_corrupt(w) for w in configs]:
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
        assert _same(forms.gram(w, q), _ref_gram(w, q), exact, scale), w
        checked += 1
    assert checked == 2 * len(configs)


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


def _systems(mode):
    """Linear systems like those of the tail search and of the Euclidean
    completion: leading rows of grid configurations, one with a repeated
    row (rank deficient) and one with a repeated row and another right-hand
    side (inconsistent)."""
    out = []
    for w in _grid(E, mode)[:12] + _grid(S, mode)[:6] + _grid(H, mode)[:6]:
        rows = [r.entries for r in w.rows]
        one = coerce(1, w.mode)
        for k in (1, 2, 3):
            out.append((rows[:k], [-one] * k))
        out.append((rows[:2] + rows[:1], [-one, one, -one]))
        out.append((rows[:2] + rows[:1], [-one, one, one]))
    return out


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_solve_affine_matches_reference(mode):
    exact = mode == EXACT
    inconsistent = 0
    for a, b in _systems(mode):
        new, new_err = _outcome(linalg.solve_affine, a, b)
        ref_a = _ref_as_matrix(a, mode)
        ref, ref_err = _outcome(_reference_solve_affine, ref_a, b)
        if ref_err is not None:
            assert new_err is not None and str(new_err) == str(ref_err)
            inconsistent += 1
            continue
        assert new_err is None, new_err
        scale = max(1.0, float(_ref_max_abs(ref_a)))
        assert _same(new[0], ref[0], exact, scale)
        assert len(new[1]) == len(ref[1])
        assert _same(new[1], [v.tolist() for v in ref[1]], exact, scale)
    assert inconsistent > 0
