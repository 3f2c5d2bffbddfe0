"""Configurations held as their frames (ConfigMatrix.scaled) against rows
computed entry by entry: every producer gives the rows, entry types
included, that a Fraction or float computation of the same configuration
gives, the frame is scalars.scaled_rows of those rows, and the Gram check,
the document writers, pickling, equality and hashing agree with the
configuration built from the rows by ConfigMatrix.from_rows.  A float
walk configuration, of reflect(), loxodromic() or generate(), is the one
of the float rows' exact twin, each entry rounded once, and a float
realized configuration the one of its bends' twin, with the bends as
given.  The CLI commands that read, check and write configurations, and
the checks and writers of loxodromic configurations, build no CoordRow at
all."""

import hashlib
import json
import pickle
import random
from fractions import Fraction as F

import pytest

import oracles
from inversive import apollonian, forms, linalg, onedim, shell, transform
from inversive.scalars import EXACT, FLOAT, coerce, scaled_rows
from test_apollonian import _reference_generate, _rounded_reference
from test_cli_bytes import CASES, LOX_CASES, SOLVE_CASES
from test_document_reader import DOCUMENTS, _reference_scalar_from_json
from test_euclid import ROOTS
from test_reference_kernels import (_ref_reflect_entries,
                                    _reference_loxodromic,
                                    _rounded_reference_loxodromic,
                                    _rounded_plane_rows)

E, S, H = forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC
GEOMETRIES = (E, S, H)
BASES = {E: (-1, 2, 2, 3), S: (0, 1, 1, 2), H: (-2, 3, 5, 6)}
WORDS = ((), (0,), (3, 0), (1, 3, 2))


def _reflected_bends(bends, word):
    v = list(bends)
    for i in word:
        v[i] = 2 * (sum(v) - v[i]) - v[i]
    return tuple(v)


def _vectors():
    """Descartes vectors per geometry: the base reflected by each word, its
    negative, and the bends of the base moved by a rational Moebius map,
    which are no integers."""
    g = linalg.matmul(transform.translation((F(3, 7), F(-2, 5))),
                      transform.dilation(F(5, 3), 2))
    out = {}
    for geometry, base in BASES.items():
        vectors = [_reflected_bends(base, word) for word in WORDS]
        vectors.append(tuple(-b for b in vectors[1]))
        w = apollonian.realize_bends(geometry, tuple(map(F, base)))
        vectors.append(transform.moved(w, g).bends)
        out[geometry] = tuple(vectors)
    out[H] += ((-1, 1, 1, 1), (30, 215, 73, 630))
    return out


VECTORS = _vectors()
# cot values of the exact base of n = 8 (forms._base)
COTS_8 = (-3, -3, -3, -3, -2, -2, -1, -1, -1, -1)


def _typed(rows):
    """Entries with their types; repr tells -0.0 from 0.0."""
    return [[(type(x), repr(x)) for x in row] for row in rows]


def _rows_document(w):
    """The configuration document of w written entry by entry from its
    rows."""
    return {"geometry": w.geometry, "n": w.n, "mode": w.mode,
            "rows": [[shell.scalar_to_json(x) for x in r.entries]
                     for r in w.rows]}


def _in_mode(bends, mode):
    return tuple(coerce(F(b), EXACT) if mode == EXACT else float(F(b))
                 for b in bends)


def _check(make, ref_rows):
    """make(), called once, gives a configuration from a producer, ref_rows
    the rows of the same configuration computed on Fractions or floats.  The
    producer builds no rows for the frame, the checks, the writers, the
    bends or a pickle."""
    w = make()
    geometry, mode = w.geometry, w.mode
    ref_rows = [tuple(r) for r in ref_rows]
    eager = forms.ConfigMatrix.from_rows(geometry, ref_rows)
    assert mode == eager.mode and w.n == eager.n == len(ref_rows) - 2
    assert "rows" not in vars(w)
    rows, scale = w.scaled
    want_rows, want_scale = scaled_rows(ref_rows, mode)
    assert (rows, scale) == (want_rows, want_scale)
    assert _typed(rows) == _typed(want_rows)
    assert type(scale) is type(want_scale)
    n = w.n
    q, target = forms.descartes_form(n, mode), forms.target_for(geometry, n, mode)
    assert repr(w.residual()) == repr(forms.check_identity(eager, q, target))
    assert repr(forms.check_identity(w, q, target)) == repr(w.residual())
    document = _rows_document(eager)
    assert shell.dumps_config(w) == json.dumps(
        document, separators=(",", ":")) + "\n"
    assert json.dumps(shell.document_from_config(w)) == json.dumps(document)
    assert _typed([w.bends]) == _typed([eager.bends])
    copy = pickle.loads(pickle.dumps(w))
    assert "rows" not in vars(w) and "rows" not in vars(copy)
    assert copy.scaled == w.scaled and copy.mode == mode
    assert copy == eager and hash(copy) == hash(eager)
    assert w == eager and hash(w) == hash(eager)
    assert _typed(r.entries for r in w.rows) == _typed(ref_rows)
    assert _typed(r.entries for r in copy.rows) == _typed(ref_rows)


def _realized(geometry, bends, mode):
    return apollonian.realize_bends(geometry, _in_mode(bends, mode))


def _sources(mode):
    """Configurations of every geometry: realized vectors, and an exact
    n = 8 one in exact mode."""
    out = [_realized(g, v, mode) for g in GEOMETRIES for v in VECTORS[g]]
    if mode == EXACT:
        out.append(_realized(S, COTS_8, EXACT))
    return out


# --- parse_document --------------------------------------------------------

def _accepted_documents():
    out = []
    for name, text in DOCUMENTS:
        try:
            config = shell.parse_document(text).config
        except (ValueError, ArithmeticError):
            continue
        raw = json.loads(text)
        rows = [[_reference_scalar_from_json(v, raw["mode"]) for v in row]
                for row in raw["rows"]]
        out.append((name, text, config.mode, rows))
    return out


def test_parse_document_frames_match_the_entry_reader():
    accepted = _accepted_documents()
    assert len(accepted) >= 400
    names = {name for name, *_ in accepted}
    # JSON ints and non-canonical texts are read into the frame too
    assert any(name.endswith("-ints") for name in names)
    assert any(name.endswith("exact-6-00") for name in names)  # "2/4"
    for name, text, mode, rows in accepted:
        _check(lambda: shell.parse_document(text).config, rows)
        doc = shell.parse_document(text)
        assert _typed(doc.rows) == _typed(rows), name


# --- convert_matrix ------------------------------------------------------

def _rows_converted(w, to):
    """The rows of convert_matrix computed on entries: the first two
    entries mixed by the conversion head, the rest kept."""
    (a, b), (c, d) = transform.conversion_matrix(w.geometry, to, 0, w.mode)
    return [(x * a + y * c, x * b + y * d) + tuple(tail)
            for x, y, *tail in (r.entries for r in w.rows)]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_convert_matrix_frames_match_rows(mode):
    for w in _sources(mode):
        for to in GEOMETRIES:
            _check(lambda: transform.convert_matrix(w, to),
                   _rows_converted(w, to))


def _json_document(w):
    """The configuration document of w as json writes it."""
    return json.dumps(shell.document_from_config(w), separators=(",", ":")) + "\n"


def _written_configurations():
    """Configurations on each path of dumps_config: converted mirrored
    ones, with -0.0 entries, one with int entries and one of n = 1, in
    both modes; the float n = 1 one of intervals too short for their
    curvatures, with infinities and a NaN, and a float one with a NaN,
    both infinities and -0.0; the float n = 3 seed and the exact n = 8
    seed."""
    out = []
    for mode in (EXACT, FLOAT):
        mirrored = _realized(E, tuple(-b for b in VECTORS[E][1]), mode)
        out += [transform.convert_matrix(mirrored, to) for to in GEOMETRIES]
        out.append(_realized(H, BASES[H], mode))  # int entries
        out.append(onedim.augmented_1d(onedim.complete_line(
            onedim.OrientedInterval(*_in_mode((-1, F(1, 3)), mode)),
            onedim.OrientedInterval(*_in_mode((F(1, 3), 2), mode)))))
    out.append(onedim.augmented_1d(onedim.complete_line(
        onedim.OrientedInterval(0.0, 1e-323),
        onedim.OrientedInterval(1e-323, 2e-323))))  # curvatures past the range
    nan, inf = float("nan"), float("inf")
    out.append(forms.ConfigMatrix(E, (
        ((nan, 1.0, 2.0), (inf, -0.0, 0.5), (-inf, 2.0, 3.0)), 1.0)))
    out.append(apollonian.standard_seed(E, 3, FLOAT))
    out.append(apollonian.standard_seed(S, 8, EXACT))
    return out


def test_dumps_config_writes_what_json_writes():
    written = _written_configurations()
    for w in written:
        assert shell.dumps_config(w) == _json_document(w), w
    text = "".join(map(shell.dumps_config, written))
    for part in ("NaN", ",Infinity", "-Infinity", '"n":1,', '"n":3,', '"n":8,'):
        assert part in text, part
    assert "-0.0" in [repr(x) for w in written if w.mode == FLOAT
                      for row in w.matrix() for x in row]
    # exact frames at scale 1, written by %d, and over other scales
    assert {w.scaled[1] == 1 for w in written if w.mode == EXACT} == {True, False}


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_cached_conversion_head_is_the_framed_head(mode):
    for src in GEOMETRIES:
        for dst in GEOMETRIES:
            head = transform._framed_head(src, dst, mode)
            want = scaled_rows(transform.conversion_matrix(src, dst, 0, mode), mode)
            assert head == want
            assert _typed(head[0]) == _typed(want[0])
            assert type(head[1]) is type(want[1])
            assert transform._framed_head(src, dst, mode) is head


# --- realize_bends -------------------------------------------------------

def _placed_rows(ba, bb, bc, bd):
    """The canonical plane rows of Fraction bends computed on entries: on
    the bends in the frame of scalars.scaled_rows, each entry one
    quotient."""
    ((ia, ib, ic, id_),), l = scaled_rows([(ba, bb, bc, bd)], EXACT)
    s = ia + ib
    q = abs(id_ - s - ic)
    zero, one = F(0), F(1)
    bbar = F(4 * l, s)
    x = F(ia - ib, s)
    y = F(q, s)
    y_d = F(q - 2 * s if id_ < s + ic else q + 2 * s, s)
    return [(zero, ba, one, zero), (zero, bb, -one, zero), (bbar, bc, x, y),
            (bbar, bd, x, y_d)]


def _rows_plane_rows(bends, mode):
    """The plane rows of bends computed on entries: float bends give the
    rows of their Fraction twin rounded once (_rounded_plane_rows)."""
    if mode == FLOAT:
        return _rounded_plane_rows(bends,
                                  lambda twin: _rows_plane_rows(twin, EXACT))
    if sum(1 for b in bends if b > 0) < 2:
        return [tuple(-x for x in r)
                for r in _rows_plane_rows(tuple(-b for b in bends), mode)]
    order = sorted(range(4), key=bends.__getitem__, reverse=True)
    placed = _placed_rows(*(bends[i] for i in order))
    rows = [None] * 4
    for slot, index in enumerate(order):
        rows[index] = placed[slot]
    return rows


# plane vectors for the realizer alone: the roots of test_euclid and their
# negations, scaled so that float bends are large, or no dyadic values
PLANE_VECTORS = tuple(tuple(k * x for x in v) for root in ROOTS
                      for v in (root, tuple(-x for x in root))
                      for k in (1, 10 ** 12, F(1, 10), F(10 ** 9, 7)))


def _rows_curved_rows(geometry, bends, mode):
    rows = oracles.reflected_base(geometry, bends)
    if mode == EXACT:
        return rows
    return [(c,) + tuple(map(float, r[1:])) for c, r in zip(bends, rows)]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_realize_bends_frames_match_rows(geometry, mode):
    """Realized frames are the rows computed on entries; float plane rows
    are those of the Fraction twin rounded once, at any scale."""
    vectors = VECTORS[geometry] + (PLANE_VECTORS if geometry == E else ())
    for v in vectors:
        bends = _in_mode(v, mode)
        rows = (_rows_plane_rows(bends, mode) if geometry == E
                else _rows_curved_rows(geometry, bends, mode))
        _check(lambda: apollonian.realize_bends(geometry, bends), rows)


def test_realized_frames_above_the_plane_are_the_searched_rows():
    _check(lambda: _realized(S, COTS_8, EXACT),
           [r.entries for r in _realized(S, COTS_8, EXACT).rows])
    seed = apollonian.standard_seed(E, 3, FLOAT)
    _check(lambda: apollonian.standard_seed(E, 3, FLOAT),
           [r.entries for r in seed.rows])


# --- reflect, moved, loxodromic, generate ----------------------------------

def _twin_reflection(w, i):
    """The rows of reflect(w, i) worked out on the Fraction twin of w's
    entries by the reference loop, each entry rounded once for a float w."""
    rows = _ref_reflect_entries(_twin_rows(w), i, F(2, w.n - 1))
    return rows if w.mode == EXACT else _rounded(rows)


def _twin_rows(w):
    """The entries of w as Fractions: every finite float is a dyadic
    rational."""
    return tuple(tuple(map(F, row)) for row in w.matrix())


def _rounded(rows):
    return [tuple(map(float, row)) for row in rows]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_reflect_frames_match_rows(mode):
    sources = _sources(mode)
    if mode == FLOAT:
        sources.append(apollonian.standard_seed(E, 3, FLOAT))
    for w in sources:
        for i in range(w.n + 2):
            _check(lambda: apollonian.reflect(w, i), _twin_reflection(w, i))
        twice = apollonian.reflect(apollonian.reflect(w, 1), 1)
        if mode == EXACT:
            assert twice.scaled == w.scaled


def _rows_moved(w, g):
    """W C g C^{-1} on the exact values of the entries of W and of g in w's
    mode, each float entry rounded once."""
    n = w.n
    g = [[F(coerce(x, w.mode)) for x in row] for row in g]
    m = linalg.matmul(
        linalg.matmul(transform.conversion_matrix(w.geometry, E, n), g),
        transform.conversion_matrix(E, w.geometry, n))
    rows = linalg.matmul([[F(x) for x in row] for row in w.matrix()], m)
    return rows if w.mode == EXACT else [[float(x) for x in row]
                                         for row in rows]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_moved_frames_match_rows(mode):
    moves = [transform.translation((F(3, 7), F(-2, 5))),
             transform.dilation(F(5, 3), 2), transform.inversion(2)]
    moves.append(linalg.matmul(linalg.matmul(moves[0], moves[1]), moves[2]))
    for w in _sources(mode):
        if w.n != 2:
            continue
        for g in moves:
            _check(lambda: transform.moved(w, g), _rows_moved(w, g))


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_loxodromic_configs_match_rows(mode):
    """Each configuration of the walk after the seed is built from the
    frame of its step, as generate() builds its kept ones: the reference's
    rows, which in float mode are those of the exact walk of the seed's
    twin, each entry rounded once."""
    reference = (_reference_loxodromic if mode == EXACT
                 else _rounded_reference_loxodromic)
    for w in _sources(mode):
        configs = apollonian.loxodromic(w, 12).configs
        ref = reference(w, 12).configs
        assert configs[0] is w
        for k in range(1, 13):
            _check(lambda: configs[k], [r.entries for r in ref[k].rows])
        assert configs == ref


_GENERATED = ((E, (-1, 2, 2, 3), 40), (E, (F(-1, 2), 1, 1, F(3, 2)), 20),
              (S, (0, 1, 1, 2), 20), (H, (-2, 3, 5, 6), 30))


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_generate_kept_configs_match_rows(mode):
    cases = [(_realized(g, v, mode), bound, {}) for g, v, bound in _GENERATED]
    if mode == EXACT:
        cases.append((_realized(S, COTS_8, EXACT), 3, {"max_configs": 12}))
    else:
        cases.append((apollonian.standard_seed(E, 3, FLOAT), 4, {}))
    reference = _reference_generate if mode == EXACT else _rounded_reference
    for seed, bound, caps in cases:
        bound = F(bound) if mode == EXACT else float(bound)
        configs = apollonian.generate(seed, bound, keep_configs=True,
                                      **caps).configs
        ref = reference(seed, bound, keep_configs=True, **caps).configs
        assert len(configs) == len(ref) > 1
        for k in range(len(ref)):
            _check(lambda: configs[k], [r.entries for r in ref[k].rows])


def test_a_walk_from_a_frame_backed_seed_keeps_its_packing_frame():
    seed = _realized(E, (-6, 10, 15, 19), EXACT)
    eager = forms.ConfigMatrix.from_rows(E, [r.entries for r in seed.rows])
    a = apollonian.generate(_realized(E, (-6, 10, 15, 19), EXACT), F(200))
    b = apollonian.generate(eager, F(200))
    assert a.scaled == b.scaled
    assert shell.dumps_packing(a) == shell.dumps_packing(b)


# --- strips, and the CLI without rows -------------------------------------

STRIPS = (
    ((0, 0, 1, 1), EXACT, "1: its root quadruple 0,0,1,1"),
    ((0, 0, 1, 1), FLOAT, "1.0: its root quadruple 0.0,0.0,1.0,1.0"),
    ((F(4, 3), 0, F(1, 3), F(1, 3)), EXACT,
     "1/3: its root quadruple 0,0,1/3,1/3"),
    ((F(4, 3), 0, F(1, 3), F(1, 3)), FLOAT,
     "0.3333333333333333: its root quadruple -2.220446049250313e-16,0.0,"
     "0.3333333333333333,0.3333333333333333"),
    ((0, -1, 0, -1), EXACT, "1: its root quadruple 0,1,0,1"),
)


@pytest.mark.parametrize("bends, mode, tail", STRIPS)
def test_infinite_closure_message_of_a_strip_seed_is_pinned(bends, mode, tail):
    seed = _realized(E, bends, mode)
    with pytest.raises(apollonian.InfiniteClosure) as caught:
        apollonian.generate(seed, F(10) if mode == EXACT else 10.0)
    assert str(caught.value) == (
        f"the packing of this seed is infinite at any bound of at least {tail}"
        " is a strip between two parallel lines")


def test_exact_strip_check_reduces_the_int_bends(monkeypatch):
    """An exact seed is reduced on the ints of its frame, not on Fractions."""
    seen = []
    inner = apollonian.root_quadruple

    def recording(bends, bound=None):
        seen.append((tuple(map(type, bends)), type(bound)))
        return inner(bends, bound)

    monkeypatch.setattr(apollonian, "root_quadruple", recording)
    apollonian.generate(_realized(E, (F(-1, 2), 1, 1, F(3, 2)), EXACT), F(20))
    apollonian.generate(_realized(E, (-1, 2, 2, 3), FLOAT), 20.0)
    assert seen == [((int,) * 4, int), ((float,) * 4, float)]


def _counted_rows(monkeypatch):
    """A list that grows by one for each CoordRow built from now on."""
    built = []
    inner = forms.CoordRow.__post_init__

    def counting(self):
        built.append(self)
        inner(self)

    monkeypatch.setattr(forms.CoordRow, "__post_init__", counting)
    return built


def _run(capsys, args):
    assert shell.run(args) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("geometry, bends, mode, solve_digest, converted",
                         SOLVE_CASES,
                         ids=[f"{g}-{m}" for g, _, m, _, _ in SOLVE_CASES])
def test_solve_convert_verify_build_no_rows(geometry, bends, mode,
                                            solve_digest, converted,
                                            monkeypatch, capsys, tmp_path):
    """The pinned stdout of solve | convert | verify, in process, with a
    count of the CoordRows built on the way: none."""
    built = _counted_rows(monkeypatch)
    out = _run(capsys, ["solve", "--geometry", geometry, f"--seed={bends}",
                        "--mode", mode])
    assert hashlib.sha256(out).hexdigest() == solve_digest
    document = tmp_path / "document.json"
    document.write_text(json.dumps(json.loads(out)["configurations"][-1]))
    for target, (convert_digest, verify_digest) in converted.items():
        text = _run(capsys, ["convert", "--to", target, "--in", str(document)])
        assert hashlib.sha256(text).hexdigest() == convert_digest, target
        converted_doc = tmp_path / f"{target}.json"
        converted_doc.write_bytes(text)
        report = _run(capsys, ["verify", "--in", str(converted_doc)])
        assert hashlib.sha256(report).hexdigest() == verify_digest, target
        assert json.loads(report)["valid"]
    assert built == []


@pytest.mark.parametrize("case", (2, 9), ids=("spherical", "hyperbolic-float"))
def test_gen_render_lox_build_no_rows(case, monkeypatch, capsys, tmp_path):
    """gen | render and lox of realized seeds, in process, give their pinned
    stdout and build no CoordRow, of the seed or of the packing."""
    args, render_args, gen_digest, svg_digest = CASES[case]
    built = _counted_rows(monkeypatch)
    stream = _run(capsys, ["gen", *args])
    assert hashlib.sha256(stream).hexdigest() == gen_digest
    path = tmp_path / "stream.jsonl"
    path.write_bytes(stream)
    image = _run(capsys, ["render", "--in", str(path), *render_args])
    assert hashlib.sha256(image).hexdigest() == svg_digest
    for lox_args, mode, digest in LOX_CASES:
        out = _run(capsys, ["lox", *lox_args, "--steps", "60", "--mode", mode])
        assert hashlib.sha256(out).hexdigest() == digest
    assert built == []


def test_solve_of_a_strip_and_the_checks_of_loxodromic_configs_build_no_rows(
        monkeypatch, capsys):
    """solve completes (0, 0, 1) to the strip (0, 0, 1, 1), realized as a
    closed-form frame in both modes; the configurations of a loxodromic
    walk are built from frames, and their Gram check and writer read
    them."""
    built = _counted_rows(monkeypatch)
    for mode in (EXACT, FLOAT):
        out = json.loads(_run(capsys, ["solve", "--geometry", E,
                                       "--seed=0,0,1", "--mode", mode]))
        assert len(out["configurations"]) == 2
        assert all(doc is not None for doc in out["configurations"])
    for w in _sources(EXACT) + _sources(FLOAT):
        for c in apollonian.loxodromic(w, 24).configs:
            assert c.residual().ok or w.mode == FLOAT
            shell.dumps_config(c)
    assert built == []


def test_integrality_report_builds_no_rows(monkeypatch):
    """integrality_report reads the bend column of the packing's frame."""
    built = _counted_rows(monkeypatch)
    p = apollonian.generate(_realized(E, (F(-1, 2), 1, 1, F(3, 2)), EXACT),
                            F(20))
    report = apollonian.integrality_report(p)
    assert not report.all_integral and F(3, 2) in report.non_integral
    with pytest.raises(ValueError, match="exact mode"):
        apollonian.integrality_report(apollonian.generate(
            _realized(E, (-1, 2, 2, 3), FLOAT), 20.0))
    assert built == []


# --- float walk configurations: the exact twin's, rounded once -------------

def _moved_float_seeds(rng, count):
    """count float seeds per geometry and n = 2, 3, 4: the standard float
    seed moved by a random translation, so that its entries are floats of
    every last bit; and the plane seed with a -0.0 entry in its row of
    bend 3, which the loxodromic walk reflects fourth."""
    seeds = []
    for n in (2, 3, 4):
        for geometry in GEOMETRIES:
            base = apollonian.standard_seed(geometry, n, FLOAT)
            for _ in range(count):
                v = tuple(rng.uniform(-2, 2) for _ in range(n))
                seeds.append(transform.moved(base, transform.translation(v)))
    signed = [list(r) for r in apollonian.standard_seed(E, 2, FLOAT).matrix()]
    signed[3][2] = -0.0
    seeds.append(forms.ConfigMatrix.from_rows(E, signed))
    return seeds


def _bits(w):
    return repr(_typed(w.matrix()))


def test_float_walk_configurations_are_their_exact_twins_rounded_once():
    """reflect(), loxodromic(...).configs and kept configurations of float
    seeds equal the reference walk of the seeds' exact twins with each
    entry rounded once, by repr, -0.0 included.  What the rule changes
    shows: reflections in float arithmetic differ in their last bits, and
    a seed's -0.0 leaves every later walk configuration as 0.0."""
    seeds = _moved_float_seeds(random.Random(30), 34)
    reflections = float_arithmetic_differs = 0
    for w in seeds:
        n = w.n
        kept = apollonian.generate(w, float("inf"), keep_configs=True,
                                   max_depth=1).configs
        assert len(kept) == n + 3
        kept_bits = {_bits(c) for c in kept}
        for i in range(n + 2):
            got = apollonian.reflect(w, i)
            want = _twin_reflection(w, i)
            assert _bits(got) == repr(_typed(want)), (w, i)
            # bit for bit the depth-1 kept configuration of the same index
            assert _bits(got) in kept_bits, (w, i)
            reflections += 1
            in_float = _ref_reflect_entries(w.matrix(), i, 2.0 / (n - 1))
            float_arithmetic_differs += _typed(in_float) != _typed(want)
        configs = apollonian.loxodromic(w, 6).configs
        ref = _reference_loxodromic(
            forms.ConfigMatrix.from_rows(w.geometry, _twin_rows(w)), 6,
            check=False).configs
        assert configs[0] is w
        for a, b in zip(configs[1:], ref[1:]):
            assert _bits(a) == repr(_typed(_rounded(b.matrix())))
    assert len(seeds) == 307 and reflections == 1534
    assert float_arithmetic_differs > reflections // 3
    signed = seeds[-1]
    assert repr(signed.matrix()[3][2]) == "-0.0"
    later = apollonian.loxodromic(signed, 3).configs[1:]
    kept = apollonian.generate(signed, 20.0, keep_configs=True).configs
    assert [c.bends[3] for c in later] == [3.0] * 3
    assert all(repr(c.matrix()[3][2]) == "0.0" for c in later)
    assert {repr(c.matrix()[3][2]) for c in kept if c.bends[3] == 3} \
        == {"0.0"}


def test_kept_configurations_of_moved_seeds_match_the_twin_walk():
    """Kept configurations of capped walks from moved float seeds are those
    of the exact walk of their twins, each entry rounded once."""
    for w in _moved_float_seeds(random.Random(31), 2):
        bound = max(map(abs, w.bends)) * 4
        configs = apollonian.generate(w, bound, keep_configs=True,
                                      max_configs=10).configs
        ref = _rounded_reference(w, bound, keep_configs=True,
                                 max_configs=10).configs
        assert len(configs) == len(ref) > 1
        for a, b in zip(configs, ref):
            assert _bits(a) == _bits(b)
