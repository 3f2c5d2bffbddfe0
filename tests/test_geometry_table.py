"""The geometry table of forms against itself and against the per-geometry
branches it replaced.

The _reference_* functions are bend_column, target_for (with the three
named targets it called), pair_product and conversion_matrix as the
package had them before the table, copied verbatim but for names: calls
point at the copies here, and the tags are forms'.  The table-driven
functions must give the same values in exact mode and the same repr in
float mode, so that signed zeros and the last bit count.
"""

import importlib
import inspect
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from inversive import apollonian, forms, linalg, shell, svg, transform
from inversive.scalars import EXACT, FLOAT, coerce, mode_of

GEOMS = forms.GEOMETRIES
MODES = (EXACT, FLOAT)


# --- the per-geometry branches, verbatim ----------------------------------

def _reference_bend_column(geometry):
    if geometry == forms.EUCLIDEAN:
        return 1
    if geometry in (forms.SPHERICAL, forms.HYPERBOLIC):
        return 0
    raise ValueError(f"unknown geometry {geometry!r}")


def _reference_augmented_gram_target(n, mode=EXACT):
    return linalg.block_diag(((0, -4), (-4, 0)), (2,) * n, mode)


def _reference_spherical_gram_target(n, mode=EXACT):
    return linalg.block_diag((), (-2,) + (2,) * (n + 1), mode)


def _reference_hyperbolic_gram_target(n, mode=EXACT):
    return linalg.block_diag((), (2, -2) + (2,) * n, mode)


def _reference_target_for(geometry, n, mode=EXACT):
    if geometry == forms.EUCLIDEAN:
        return _reference_augmented_gram_target(n, mode)
    if geometry == forms.SPHERICAL:
        return _reference_spherical_gram_target(n, mode)
    if geometry == forms.HYPERBOLIC:
        return _reference_hyperbolic_gram_target(n, mode)
    raise ValueError(f"unknown geometry {geometry!r}")


def _reference_pair_product(geometry, row_a, row_b):
    a = row_a.entries if isinstance(row_a, forms.CoordRow) else tuple(row_a)
    b = row_b.entries if isinstance(row_b, forms.CoordRow) else tuple(row_b)
    if len(a) != len(b):
        raise ValueError("row length mismatch")
    if geometry == forms.EUCLIDEAN:
        half = coerce(1, mode_of(a + b)) / 2
        tail = sum((x * y for x, y in zip(a[2:], b[2:])), start=a[0] * 0)
        return -half * (a[0] * b[1] + a[1] * b[0]) + tail
    if geometry == forms.SPHERICAL:
        return -a[0] * b[0] + sum(x * y for x, y in zip(a[1:], b[1:]))
    if geometry == forms.HYPERBOLIC:
        rest = sum(x * y for x, y in zip(a[2:], b[2:]))
        return a[0] * b[0] - a[1] * b[1] + rest
    raise ValueError(f"unknown geometry {geometry!r}")


_ORDER = (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC)


def _block(first_two_rows, n, mode):
    return linalg.block_diag(first_two_rows, (1,) * n, mode)


def _reference_conversion_matrix(src, dst, n, mode=EXACT):
    for tag in (src, dst):
        if tag not in _ORDER:
            raise ValueError(f"unknown geometry {tag!r}")
    half = coerce(1, mode) / 2
    if src == dst:
        return _block([(1, 0), (0, 1)], n, mode)
    if (src, dst) == (forms.SPHERICAL, forms.EUCLIDEAN):
        return _block([(1, 1), (-1, 1)], n, mode)
    if (src, dst) == (forms.EUCLIDEAN, forms.SPHERICAL):
        return _block([(half, -half), (half, half)], n, mode)
    if (src, dst) == (forms.SPHERICAL, forms.HYPERBOLIC) or \
       (src, dst) == (forms.HYPERBOLIC, forms.SPHERICAL):
        return _block([(0, 1), (1, 0)], n, mode)
    if (src, dst) == (forms.HYPERBOLIC, forms.EUCLIDEAN):
        return _block([(-1, 1), (1, 1)], n, mode)
    if (src, dst) == (forms.EUCLIDEAN, forms.HYPERBOLIC):
        return _block([(-half, half), (half, half)], n, mode)
    raise ValueError(f"no conversion from {src} to {dst}")


# --- the table against itself ---------------------------------------------

def _eye(k, mode):
    return linalg.block_diag((), (1,) * k, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(1, 6))
def test_conversions_carry_targets_and_invert(n, mode):
    for src in GEOMS:
        for dst in GEOMS:
            c = transform.conversion_matrix(src, dst, n, mode)
            back = transform.conversion_matrix(dst, src, n, mode)
            carried = linalg.matmul(linalg.transpose(c), linalg.matmul(
                forms.target_for(src, n, mode), c))
            assert carried == forms.target_for(dst, n, mode), (src, dst)
            assert linalg.matmul(c, back) == _eye(n + 2, mode), (src, dst)


def test_curvature_sign_is_the_bend_entry_of_the_target():
    for geometry in GEOMS:
        c = forms.bend_column(geometry)
        for n in range(1, 6):
            for mode in MODES:
                t = forms.target_for(geometry, n, mode)
                assert forms.CURVATURE_SIGN[geometry] == -t[c][c] / 2


# --- the table against the branches it replaced ---------------------------

_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.75, 1e-320, -1e-300, 1e300,
           -1e308, 1e308)
_EXACTS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3))


def _row_pairs(values, seed):
    """Seeded pairs of rows of 3 to 6 entries drawn from values, plus every
    pair of rows of one repeated value."""
    rng = random.Random(seed)
    pairs = [((x,) * 4, (y,) * 4) for x in values for y in values]
    for _ in range(3000):
        k = rng.randint(3, 6)
        pairs.append((tuple(rng.choice(values) for _ in range(k)),
                      tuple(rng.choice(values) for _ in range(k))))
    return pairs


@pytest.mark.parametrize("geometry", GEOMS)
def test_pair_product_matches_reference(geometry):
    for a, b in _row_pairs(_FLOATS, 1):
        assert (repr(forms.pair_product(geometry, a, b))
                == repr(_reference_pair_product(geometry, a, b))), (a, b)
    for a, b in _row_pairs(_EXACTS, 2):
        got = forms.pair_product(geometry, a, b)
        assert got == _reference_pair_product(geometry, a, b), (a, b)
        assert mode_of((got,)) == EXACT
    rows = [r for r in apollonian.standard_seed(geometry).rows]
    for a in rows:
        for b in rows:
            assert (forms.pair_product(geometry, a, b)
                    == _reference_pair_product(geometry, a, b))


def _same(got, ref, mode):
    if mode == EXACT:
        return got == ref
    return repr(got) == repr(ref)


@pytest.mark.parametrize("mode", MODES)
def test_targets_and_conversions_match_reference(mode):
    for n in range(1, 6):
        for geometry in GEOMS:
            assert _same(forms.target_for(geometry, n, mode),
                         _reference_target_for(geometry, n, mode), mode)
            for dst in GEOMS:
                assert _same(
                    transform.conversion_matrix(geometry, dst, n, mode),
                    _reference_conversion_matrix(geometry, dst, n, mode), mode)
    for geometry in GEOMS:
        assert forms.bend_column(geometry) == _reference_bend_column(geometry)


# --- one error for an unknown geometry ------------------------------------

@pytest.mark.parametrize("tag", ["elliptic", ["euclidean"]])
def test_unknown_geometry_is_one_error(tag, tmp_path, capsys):
    message = f"unknown geometry {tag!r}"
    seed = apollonian.standard_seed(forms.EUCLIDEAN)
    rows = [r.entries for r in seed.rows]
    document = shell.json.dumps({"geometry": tag, "n": 2, "mode": "exact",
                                 "rows": [[str(x) for x in r] for r in rows]})
    calls = [
        lambda: forms.ConfigMatrix.from_rows(tag, rows),
        lambda: forms.ConfigMatrix(tag, ()),
        lambda: forms.CoordRow(tag, (1, 2, 3)),
        lambda: forms.bend_column(tag),
        lambda: forms.pair_product(tag, rows[0], rows[1]),
        lambda: apollonian.realize_bends(tag, (-1, 2, 2, 3)),
        lambda: apollonian.standard_seed(tag, 3, "float"),
        lambda: svg.render(types.SimpleNamespace(geometry=tag, n=2)),
        lambda: shell.parse_document(document),
    ]
    if isinstance(tag, str):  # the cached ones need a hashable tag
        calls += [
            lambda: forms.target_for(tag, 2),
            lambda: transform.conversion_matrix(tag, forms.EUCLIDEAN, 2),
            lambda: transform.conversion_matrix(forms.EUCLIDEAN, tag, 2),
            lambda: transform.convert_matrix(seed, tag),
        ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert shell.run(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


_ROW = (1, 0, 0, 0)

# a call with otherwise valid arguments of every public function that takes
# a geometry tag, and of the realizer behind the curved ones
_GEOMETRY_CALLS = {
    "forms.bend_column": lambda tag: forms.bend_column(tag),
    "forms.target_for": lambda tag: forms.target_for(tag, 2),
    "forms.pair_product": lambda tag: forms.pair_product(tag, _ROW, _ROW),
    "forms.bend_residual": lambda tag: forms.bend_residual(tag, (0, 1, 1, 2)),
    "forms._realize_tangent_rows": lambda tag: forms._realize_tangent_rows(
        tag, (0, 1, 1, 2), "cot", lambda c0, one: [(one, c0)]),
    "apollonian.standard_seed": lambda tag: apollonian.standard_seed(tag),
    "apollonian.realize_bends":
        lambda tag: apollonian.realize_bends(tag, (0, 1, 1, 2)),
    "shell.complete_bend": lambda tag: shell.complete_bend(tag, (1, 1, 2)),
    "transform.conversion_matrix":
        lambda tag: transform.conversion_matrix(tag, forms.EUCLIDEAN, 2),
    "transform.convert_matrix": lambda tag: transform.convert_matrix(
        apollonian.standard_seed(forms.SPHERICAL), tag),
}


def _functions_taking_a_geometry():
    """module.name of every public module-level function of the package
    with a parameter for a geometry tag."""
    found = set()
    for path in sorted(Path(forms.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"inversive.{path.stem}")
        for name, f in vars(module).items():
            f = inspect.unwrap(f)  # through the caches of lru_cache
            if (inspect.isfunction(f) and f.__module__ == module.__name__
                    and not name.startswith("_")
                    and {"geometry", "src", "dst", "to"}
                    & set(inspect.signature(f).parameters)):
                found.add(f"{path.stem}.{name}")
    return found


def test_every_function_taking_a_geometry_is_called_below():
    assert _functions_taking_a_geometry() <= set(_GEOMETRY_CALLS)


@pytest.mark.parametrize("name", sorted(_GEOMETRY_CALLS))
def test_an_unknown_geometry_is_named_by_every_function(name):
    # each reads the geometry table through forms._by_geometry, so none
    # raises a bare KeyError
    with pytest.raises(ValueError) as info:
        _GEOMETRY_CALLS[name]("elliptic")
    assert str(info.value) == "unknown geometry 'elliptic'"


def test_cli_geometry_choices_are_the_table():
    parser = shell._build_parser()
    sub = parser._subparsers._group_actions[0].choices
    for command in ("solve", "gen", "lox", "render"):
        (geometry,) = [a for a in sub[command]._actions if a.dest == "geometry"]
        assert tuple(geometry.choices) == GEOMS
    (to,) = [a for a in sub["convert"]._actions if a.dest == "target"]
    assert tuple(to.choices) == GEOMS
