"""The plain-tuple matrix layer and the integer realizers against the code
they replaced.

The first _reference_* functions are the numpy implementations of
check_identity, convert_matrix, loxodromic and solve_affine as the package
had them, copied verbatim together with the helpers they called
(_ref_as_matrix, _ref_identity, ...).  Only names changed: those calls point
at the copies here, and conversion_matrix, which now returns a tuple of
rows, is wrapped in np.array.  numpy is a test-only dependency (the [test]
extra).  Exact results must be equal; float results may differ by 1e-12
relative, since the new code adds products in another order than numpy's
BLAS.

The second set is the realize path as it was on Fractions, before exact
realization moved onto integers: solve_affine on lists, the tail search,
bend_residual, the tangent-row realizer and the Euclidean realizer with its
completion, again verbatim but for names.  There every output must be the
same to the byte, in both modes, except for two float cases.  Float
Euclidean rows now come from the closed form of exact mode, and are checked
against the exact rows and held within 1e-15 relative of the old ones.  Float
cot and coth values whose bend residual is float rounding, which the old
absolute 1e-9 check rejected, now go on to the tail search, and must give
what the old realizer gives with its check switched off.

The third set is the float branches of mat_inv and solve_affine as they were
before they shared one elimination, verbatim but for names.  Their results
and errors must be the same to the bit.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from inversive import (apollonian, euclid, forms, linalg, scalars, shell,
                       transform)
from inversive.scalars import (DEFAULT_TOL, EXACT, FLOAT, ExactnessError,
                               coerce, coerce_row, integer_rows, is_exact,
                               mode_of, near, sqrt_scalar)

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
        if exact:  # exact W and Q against a float target compare in float
            t = forms.target_for(geometry, w.n, FLOAT)
            new = forms.check_identity(w, q, t)
            ref = _reference_check_identity(w, q, t)
            assert all(type(x) is float for row in new.entrywise for x in row)
            assert new.ok == ref.ok, w
            assert _same(new.max_abs_entry_error, ref.max_abs_entry_error,
                         False, scale), w
            assert _same(new.entrywise, ref.entrywise, False, scale), w
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


def _int_entries(w):
    """w with its integral Fraction entries given as ints, as a
    ConfigMatrix built from CoordRows directly may hold them."""
    return forms.ConfigMatrix(w.geometry, [
        forms.CoordRow(w.geometry, [int(x) if x.denominator == 1 else x
                                    for x in r.entries]) for r in w.rows])


@pytest.mark.parametrize("geometry,mode", CASES)
def test_loxodromic_configs_are_built_when_read(geometry, mode):
    """The walk records its steps, and the configurations built from them
    on first read are the reference's, entry types included."""
    configs = _grid(geometry, mode)
    if mode == EXACT:
        configs += [_int_entries(w) for w in configs[:3]]
    for w in configs:
        for k in (0, 1, 24, 60):
            seq = apollonian.loxodromic(w, k)
            ref = _reference_loxodromic(w, k)
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
        root = sqrt_scalar(disc)
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
    root = sqrt_scalar(disc)
    if root == 0:
        raise ValueError("completions coincide; tangency points are not distinct")
    u1 = (-b + root) / (2 * a)
    u2 = (-b - root) / (2 * a)
    sol1 = tuple(p + u1 * x for p, x in zip(particular, kv))
    sol2 = tuple(p + u2 * x for p, x in zip(particular, kv))
    return sol1, sol2


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
        rows = tuple(
            forms.CoordRow(forms.EUCLIDEAN, tuple(-x for x in r.entries))
            for r in flipped.rows)
        return forms.ConfigMatrix(forms.EUCLIDEAN, rows)
    zeros = sum(1 for b in bends if b == 0)
    if zeros == 2:
        return euclid._realize_strip(bends, mode)
    order = sorted(range(4), key=lambda i: (-bends[i], i))
    ba, bb, bc, bd = (bends[i] for i in order)
    one = coerce(1, mode)
    ra, rb, rc = one / ba, one / bb, one / bc
    ax, bx = ra, -rb
    cx = rc * (rb - ra) / (ra + rb)
    cy = 2 * sqrt_scalar((ra + rb + rc) * ra * rb * rc) / (ra + rb)
    circle_a = euclid.OrientedSphere(ba, (ax, 0 * one))
    circle_b = euclid.OrientedSphere(bb, (bx, 0 * one))
    circle_c = euclid.OrientedSphere(bc, (cx, cy))
    rows3 = [euclid.augmented_coords(o).entries
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


@pytest.mark.parametrize("geometry,mode", CASES)
def test_realize_bends_matches_reference(geometry, mode):
    exact = mode == EXACT
    realized = failed = rounding = 0
    for v in _bend_vectors(geometry):
        bends = v if exact else tuple(float(x) for x in v)
        new = _outcome_bytes(apollonian.realize_bends, geometry, bends)
        ref = _outcome_bytes(REFERENCE_REALIZERS[geometry], bends)
        if (geometry, mode) == (E, FLOAT):
            _check_float_euclidean(v, bends, ref)
        elif not exact and _violates(ref) and \
                not _violates(_outcome_bytes(apollonian.realize_bends,
                                             geometry, v)):
            # the exact twin meets the relation, so the float residual is
            # rounding: the old code rejected it, the new one searches on
            assert new == _outcome_bytes(REFERENCE_REALIZERS[geometry],
                                         bends, None, math.inf), bends
            rounding += 1
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
        assert rounding >= 4, rounding


def _tail_searches(geometry):
    """(prev_tails, signs, pair_values, self_value) for every row of the
    exact tail search along each realized configuration of the geometry."""
    k = forms.CURVATURE_SIGN[geometry]
    out = []
    for v in _bend_vectors(geometry):
        try:
            w = apollonian.realize_bends(geometry, v)
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
    none when it is not.  Both modes yield the reference's tails."""
    signs, prev, values = (-1, 1, 1), (1, 1, 0), [0, 1]
    exact = list(linalg._exact_tail_candidates([prev + (1,)], signs, values,
                                               1))
    ref = list(_reference_tail_candidates([tuple(map(Fraction, prev))], signs,
                                          [Fraction(0)], Fraction(1), True))
    assert [tuple(Fraction(x, t[-1]) for x in t[:-1]) for t in exact] == ref
    assert len(ref) == 7
    floats = list(linalg._float_tail_candidates(
        [tuple(map(float, prev))], signs, list(map(float, values))))
    assert repr(floats) == repr(list(_reference_tail_candidates(
        [tuple(map(float, prev))], signs, [0.0], 1.0, False)))


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


@pytest.mark.parametrize("geometry,mode", [(g, m) for g in (S, H)
                                           for m in (EXACT, FLOAT)])
def test_tail_search_takes_its_fast_paths(geometry, mode, monkeypatch):
    """On cot and coth values that are already Fractions or floats, exact
    tangency values reach the candidates as ints over one positive int
    denominator, the tails of each exact realization become rows in one
    unscaled_rows call, and no entry is coerced on the way, neither by
    float solve_affine nor by from_rows; the rows are those of the
    reference tail search."""
    exact = mode == EXACT
    inputs = [tuple(map(Fraction if exact else float, v))
              for v in _bend_vectors(geometry)]
    refs = []
    for bends in inputs:
        ref = _outcome_bytes(REFERENCE_REALIZERS[geometry], bends)
        if _violates(ref):  # rounding that the new bend check accepts
            ref = (ref, _outcome_bytes(REFERENCE_REALIZERS[geometry], bends,
                                       None, math.inf))
        refs.append(ref)
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
        new = _outcome_bytes(apollonian.realize_bends, geometry, bends)
        assert new == ref or (isinstance(ref[0], tuple) and new in ref), bends
        realized += not isinstance(new[0], type)
    assert coerced == [], coerced[:3]
    if exact:
        assert values and all(type(den) is int and den > 0 and
                              all(type(x) is int for x in row)
                              for row, den in values)
        assert len(conversions) == realized
    else:
        assert values == [] and conversions == []
    assert realized >= 60 and len(searches) >= realized, realized


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_solve_affine_rejects_malformed_systems(mode):
    one = coerce(1, mode)
    for a, b in (([], []), ([[one, 2 * one], [one]], [one, one])):
        with pytest.raises(ValueError):
            linalg.solve_affine(a, b)


# --- the float eliminations, verbatim ------------------------------------

def _reference_float_mat_inv(a):
    """Gauss-Jordan inverse with partial pivoting, for float entries."""
    a, mode = _ref_coerced_rows(a)
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("square matrix required")
    aug = [row + [1.0 if j == i else 0.0 for j in range(k)]
           for i, row in enumerate(a)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        prow = aug[col] = [x / p for x in aug[col]]
        for r in range(k):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return tuple(tuple(row[k:]) for row in aug)


def _reference_float_solve_affine(a, b):
    """All solutions of a x = b as (particular, kernel basis vectors), for
    float systems; pivoting is by magnitude with a small threshold for rank
    decisions.  The particular solution and the kernel vectors are tuples.
    """
    rows = len(a)
    if len(b) != rows:
        raise ValueError("right-hand side does not match the rows")
    if not rows or any(len(row) != len(a[0]) for row in a):
        raise ValueError("need at least one row, all of the same length")
    aug, mode = _ref_coerced_rows([tuple(row) + (bi,)
                                   for row, bi in zip(a, b)])
    cols = len(aug[0]) - 1
    zero_tol = 1e-12 * max(1.0, float(_ref_list_max_abs(a)))
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
    particular = [0.0] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    kernel = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [0.0] * cols
        vec[c] = 1.0
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][c]
        kernel.append(tuple(vec))
    return tuple(particular), kernel


def _repr_outcome(fn, *args):
    """repr of what fn returns, or the type and message of its error; equal
    reprs mean bit-equal floats, signed zeros included."""
    try:
        return repr(fn(*args))
    except ValueError as e:
        return (type(e), str(e))


def _random_float_rows(rng, m, k):
    """m rows of k floats: small integers (so that eliminations cancel to
    exact zeros), wide-range values, and +-0.0."""
    def entry():
        roll = rng.random()
        if roll < 0.4:
            return float(rng.randint(-3, 3))
        if roll < 0.5:
            return rng.choice((0.0, -0.0))
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)
    return [[entry() for _ in range(k)] for _ in range(m)]


def _random_float_systems():
    """(a, b) systems of a fixed seed: full rank, rank-deficient (a row
    repeated or a combination of two others), inconsistent (a repeated row
    with another right-hand side), square, under- and overdetermined."""
    rng = random.Random(20011)
    out = []
    for _ in range(1200):
        m, k = rng.randint(1, 6), rng.randint(1, 7)
        a = _random_float_rows(rng, m, k)
        b = _random_float_rows(rng, 1, m)[0]
        roll = rng.random()
        if m >= 2 and roll < 0.3:
            i, j = rng.sample(range(m), 2)
            a[i] = list(a[j])
            b[i] = b[j] if rng.random() < 0.5 else b[j] + 1.0
        elif m >= 3 and roll < 0.5:
            i, j, l = rng.sample(range(m), 3)
            f = float(rng.randint(-2, 2))
            a[i] = [x + f * y for x, y in zip(a[j], a[l])]
            b[i] = b[j] + f * b[l]
        out.append((a, b))
    return out


def _random_square_matrices():
    """Square float matrices of a fixed seed, a third of them made singular
    by a repeated row, a zero column or a row combination."""
    rng = random.Random(20012)
    out = []
    for _ in range(800):
        k = rng.randint(1, 7)
        a = _random_float_rows(rng, k, k)
        roll = rng.random()
        if k >= 2 and roll < 0.1:
            i, j = rng.sample(range(k), 2)
            a[i] = list(a[j])
        elif roll < 0.2:
            c = rng.randrange(k)
            for row in a:
                row[c] = rng.choice((0.0, -0.0))
        elif k >= 3 and roll < 0.3:
            i, j, l = rng.sample(range(k), 3)
            a[i] = [x - y for x, y in zip(a[j], a[l])]
        out.append(a)
    return out


def _tail_search_systems(geometry, monkeypatch):
    """Every system the float tail search hands to solve_affine while
    realizing the float bend vectors of the geometry."""
    seen = []
    solve = linalg.solve_affine

    def recording(a, b):
        seen.append(([list(row) for row in a], list(b)))
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(linalg, "solve_affine", recording)
        for v in _bend_vectors(geometry):
            _outcome_bytes(apollonian.realize_bends, geometry,
                           tuple(float(x) for x in v))
    return seen


def test_float_solve_affine_matches_reference(monkeypatch):
    systems = _random_float_systems()
    searched = _tail_search_systems(S, monkeypatch) + \
        _tail_search_systems(H, monkeypatch)
    assert len(searched) >= 400
    inconsistent = deficient = 0
    for a, b in systems + searched:
        new = _repr_outcome(linalg.solve_affine, a, b)
        assert new == _repr_outcome(_reference_float_solve_affine, a, b), \
            (a, b)
        if isinstance(new, tuple):
            inconsistent += 1
        elif "), [(" in new:
            deficient += 1
    assert inconsistent >= 50 and deficient >= 500, (inconsistent, deficient)


def test_float_mat_inv_matches_reference():
    singular = 0
    for a in _random_square_matrices():
        new = _repr_outcome(linalg.mat_inv, a)
        assert new == _repr_outcome(_reference_float_mat_inv, a), a
        singular += isinstance(new, tuple)
    assert singular >= 100, singular
