"""Packings that hold their rows in the frame of scalars.scaled_rows, checked
against slow oracles on the same inputs: a Packing built from the same rows
as explicit CoordRows, the json path of loads_packing, and a plain json and
Fraction decoder."""

import dataclasses
import json
import math
import types
import warnings
from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, shell, svg
from inversive.scalars import EXACT, FLOAT, coerce_row, mode_of, scaled_rows, \
    unscaled_rows

import reference_svg
from test_shell import _reference_dumps_packing

# (geometry, bends, bound, scale of the realized exact seed)
INPUTS = (
    (forms.EUCLIDEAN, (-1, 2, 2, 3), 200, 5),
    (forms.EUCLIDEAN, (-15, 24, 40, 49), 900, 89),
    (forms.SPHERICAL, (0, 1, 1, 2), 100, 1),
    (forms.HYPERBOLIC, (-2, 3, 5, 6), 150, 1),
)
IDS = ["euclidean", "euclidean-scale-89", "spherical", "hyperbolic"]


def _packing(geometry, bends, bound, mode):
    scalar = F if mode == EXACT else float
    seed = apollonian.realize_bends(geometry, tuple(map(scalar, bends)))
    return apollonian.generate(seed, scalar(bound))


def _explicit(p, rows=None):
    """p with its rows given as CoordRows, rebuilt entry by entry from
    p.scaled (or the given rows); the packing keeps them as given and
    frames them anew."""
    if rows is None:
        ints, scale = p.scaled
        divide = (lambda x: F(x, scale)) if p.seed.mode == EXACT else float
        rows = tuple(forms.CoordRow(p.geometry, tuple(map(divide, r)))
                     for r in ints)
    q = apollonian.Packing(p.geometry, p.n, p.seed, rows, p.bound, p.configs,
                           p.explored, p.depth, p.truncated)
    assert q.rows is rows
    return q


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("geometry, bends, bound, scale", INPUTS, ids=IDS)
def test_walk_rows_dump_and_render_as_explicit_rows(geometry, bends, bound,
                                                    scale, mode):
    p = _packing(geometry, bends, bound, mode)
    ints, got_scale = p.scaled
    if mode == EXACT:
        assert got_scale == scale
        assert all(type(x) is int for r in ints for x in r)
    else:
        assert got_scale == 1.0
    oracle = _explicit(p)
    assert oracle == p and oracle.rows == p.rows
    # framing the CoordRows gives back the frame of the walk
    assert oracle.scaled == p.scaled
    assert type(oracle.scaled[1]) is type(got_scale)
    assert all(type(x) is (F if mode == EXACT else float)
               for r in p.rows for x in r.entries)
    assert shell.dumps_packing(p) == shell.dumps_packing(oracle)
    projections = (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC) \
        if geometry == forms.SPHERICAL else (svg.ORTHOGRAPHIC,)
    for labels in ("bend", "none"):
        for projection in projections:
            o = svg.RenderOptions(labels=labels, projection=projection)
            assert svg.render(p, o) == svg.render(oracle, o)


def _json_path(text):
    """The stream with every row line respaced, which the row regex of
    loads_packing does not match, so each row goes through json."""
    head, *rows = text.splitlines(keepends=True)
    return head + "".join(json.dumps(json.loads(ln)) + "\n" for ln in rows)


def _loads_through_json(monkeypatch, text):
    """loads_packing with its whole-body path refused, so that every row
    line goes through json."""
    with monkeypatch.context() as m:
        m.setattr(shell, "_body_entries", lambda *args: None)
        return shell.loads_packing(text)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("geometry, bends, bound, scale", INPUTS, ids=IDS)
def test_row_regex_matches_the_json_path(monkeypatch, geometry, bends, bound,
                                        scale, mode):
    p = _packing(geometry, bends, bound, mode)
    text = shell.dumps_packing(p)
    spaced = _json_path(text)
    assert spaced != text
    fast = shell.loads_packing(text)
    for slow in (shell.loads_packing(spaced),
                 _loads_through_json(monkeypatch, text)):
        assert fast.scaled == slow.scaled == p.scaled
        assert fast == slow and fast.rows == p.rows
        assert shell.dumps_packing(fast) == shell.dumps_packing(slow) == text


def _oracle_loads(text):
    """Packing from a stream by json.loads and Fraction alone."""
    head, *lines = [ln for ln in text.splitlines() if ln.strip()]
    head = json.loads(head)
    mode = head["mode"]
    seed = forms.ConfigMatrix.from_rows(
        head["geometry"],
        [[shell.scalar_from_json(v, mode) for v in r] for r in head["seed"]],
        mode=mode)
    rows = []
    for ln in lines:
        row = json.loads(ln)["row"]
        if len(row) != seed.n + 2:
            raise ValueError("malformed packing row")
        rows.append(forms.CoordRow(head["geometry"], tuple(
            shell.scalar_from_json(v, mode) for v in row)))
    return apollonian.Packing(head["geometry"], seed.n, seed, tuple(rows),
                              shell.scalar_from_json(head["bound"], mode), None,
                              head["explored"], head["depth"],
                              head["truncated"])


def _stream_with(line):
    p = _packing(forms.EUCLIDEAN, (-1, 2, 2, 3), 20, EXACT)
    head, first, *rest = shell.dumps_packing(p).splitlines(keepends=True)
    return head + line + "".join(rest)


NON_CANONICAL = {
    "spaces": '{"bend": "2", "row": ["0", "2", "-1", "0"]}\n',
    "inner-spaces": '{"bend":"2","row":[ "0","2","-1","0" ]}\n',
    "crlf": '{"bend":"2","row":["0","2","-1","0"]}\r\n',
    "unreduced": '{"bend":"2","row":["0/4","4/2","-2/4","0"]}\n',
    "minus-zero": '{"bend":"2","row":["-0","2","-1","-0"]}\n',
    "leading-zeros": '{"bend":"2","row":["00","002","-1","0"]}\n',
    "bare-ints": '{"bend":2,"row":[0,2,-1,0]}\n',
    "zero-denominator": '{"bend":"2","row":["1/0","2","-1","0"]}\n',
    "narrow": '{"bend":"2","row":["0","2","-1"]}\n',
    "wide": '{"bend":"2","row":["0","2","-1","0","0"]}\n',
    "float": '{"bend":"2","row":[0.5,"2","-1","0"]}\n',
    "no-row": '{"bend":"2"}\n',
}


def _outcome(load, text):
    try:
        return load(text)
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("line", NON_CANONICAL.values(), ids=NON_CANONICAL)
def test_non_canonical_rows_load_as_through_json(monkeypatch, line):
    text = _stream_with(line)
    fast = _outcome(shell.loads_packing, text)
    slow = _outcome(lambda t: _loads_through_json(monkeypatch, t), text)
    assert fast == slow
    try:
        expected = _oracle_loads(text)
    except (ValueError, KeyError):
        assert isinstance(fast, str)
    else:
        assert fast == expected and fast.scaled == slow.scaled


# The float row decode of loads_packing before float rows had a regex,
# kept verbatim as an oracle: every row line through json.
def _float_from_json(v):
    return v if v.__class__ is float else shell.scalar_from_json(v, FLOAT)


def _reference_float_rows(text):
    head, *lines = [ln for ln in text.splitlines() if ln.strip()]
    head = json.loads(head)
    decode = json.JSONDecoder().decode
    width = len(head["seed"][0])
    bend_col = forms.bend_column(head["geometry"])

    def decoded(ln, scalar):
        rec = decode(ln)
        row = rec["row"] if isinstance(rec, dict) else None
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"malformed packing row {ln.strip()[:80]!r}")
        row = tuple(map(scalar, row))
        bend, entry = scalar(rec["bend"]), row[bend_col]
        # the encoder writes a NaN bend column as a NaN bend
        if bend != entry and not (bend != bend and entry != entry):
            raise ValueError(f"packing row bend {bend} is not the bend "
                             f"{entry} of its row")
        return row

    try:
        return tuple([decoded(ln, _float_from_json) for ln in lines])
    except KeyError as e:
        raise ValueError(f"packing stream is missing field {e}")


def _float_rows_outcome(load, text):
    # repr tells -0.0 from 0.0 and shows nan
    try:
        return repr(load(text))
    except ValueError as e:
        return f"ValueError: {e}"


def _loaded_float_rows(text):
    rows, scale = shell.loads_packing(text).scaled
    assert scale.__class__ is float and scale == 1.0
    return rows


def _float_streams():
    for (geometry, bends, bound, _), name in zip(INPUTS, IDS):
        yield name, shell.dumps_packing(_packing(geometry, bends, bound, FLOAT))
    yield "n3", shell.dumps_packing(apollonian.generate(
        apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode=FLOAT), 4.0))


FLOAT_STREAMS = dict(_float_streams())


@pytest.mark.parametrize("name", FLOAT_STREAMS)
def test_float_row_regex_matches_the_json_decoder(name):
    text = FLOAT_STREAMS[name]
    head, *lines = text.splitlines()
    head = json.loads(head)
    # every row line the encoder writes is read on the regex path
    match = shell._row_pattern(head["n"] + 2, forms.bend_column(head["geometry"]),
                               FLOAT).fullmatch
    assert all(map(match, lines))
    got = _float_rows_outcome(_loaded_float_rows, text)
    assert got == _float_rows_outcome(_reference_float_rows, text)
    assert got == _float_rows_outcome(_loaded_float_rows, _json_path(text))


# row lines of a float Euclidean stream (bend column 1) as an editor might
# leave them; each loads as the json decoder read it, or fails with its error
FLOAT_LINES = {
    "repr": '{"bend":2.0,"row":[0.0,2.0,-1.0,0.0]}\n',
    "int-entry": '{"bend":2.0,"row":[0.0,2.0,-1.0,2]}\n',
    "int-bend": '{"bend":2,"row":[0.0,2,-1.0,0.0]}\n',
    "upper-exponent": '{"bend":1E5,"row":[0.0,1E5,-1.0,0.0]}\n',
    "minus-zero": '{"bend":-0.0,"row":[-0.0,-0.0,-1.0,0.0]}\n',
    "minus-zero-bend": '{"bend":-0.0,"row":[0.0,0.0,-1.0,0.0]}\n',
    "exponent": '{"bend":1e+16,"row":[1e+16,1e+16,-1e-07,0.0]}\n',
    "subnormal": '{"bend":5e-324,"row":[0.0,5e-324,-5e-324,0.0]}\n',
    "overflow": '{"bend":1e400,"row":[0.0,1e400,-1.0,0.0]}\n',
    "nan": '{"bend":NaN,"row":[0.0,NaN,-1.0,0.0]}\n',
    "nan-bend-only": '{"bend":NaN,"row":[0.0,2.0,-1.0,0.0]}\n',
    "infinity": '{"bend":Infinity,"row":[-Infinity,Infinity,-1.0,0.0]}\n',
    "spaces": '{"bend":2.0,"row":[0.0, 2.0, -1.0, 0.0]}\n',
    "long-bend": '{"bend":2.00,"row":[0.0,2.0,-1.0,0.0]}\n',
    "long-entry": '{"bend":2.0,"row":[0.0,2.00,-1.0,0.0]}\n',
    "not-its-bend": '{"bend":3.0,"row":[0.0,2.0,-1.0,0.0]}\n',
    "leading-zero": '{"bend":2.0,"row":[00.5,2.0,-1.0,0.0]}\n',
    "bare-point": '{"bend":2.0,"row":[0.0,2.0,-1.,0.0]}\n',
    "plus-sign": '{"bend":2.0,"row":[+0.5,2.0,-1.0,0.0]}\n',
    "string-entry": '{"bend":2.0,"row":["1/2",2.0,-1.0,0.0]}\n',
    "big-int": '{"bend":2.0,"row":[1%s,2.0,-1.0,0.0]}\n' % ("0" * 400),
    "narrow": '{"bend":2.0,"row":[0.0,2.0,-1.0]}\n',
    "no-bend": '{"row":[0.0,2.0,-1.0,0.0]}\n',
    "crlf": '{"bend":2.0,"row":[0.0,2.0,-1.0,0.0]}\r\n',
}


@pytest.mark.parametrize("line", FLOAT_LINES.values(), ids=FLOAT_LINES)
def test_edited_float_rows_load_as_through_json(line):
    head, first, *rest = FLOAT_STREAMS["euclidean"].splitlines(keepends=True)
    text = head + line + "".join(rest)
    assert _float_rows_outcome(_loaded_float_rows, text) == \
        _float_rows_outcome(_reference_float_rows, text)


def test_replaced_rows_win_over_scaled():
    p = _packing(forms.EUCLIDEAN, (-15, 24, 40, 49), 900, EXACT)
    subset = p.rows[::3]
    q = dataclasses.replace(p, rows=subset)
    assert q.rows is subset
    assert q.scaled == scaled_rows([r.entries for r in subset], EXACT)[:2]
    oracle = _explicit(p, subset)
    assert shell.dumps_packing(q) == shell.dumps_packing(oracle)
    assert len(shell.dumps_packing(q).splitlines()) == len(subset) + 1
    assert svg.render(q) == svg.render(oracle)
    assert svg.render(q) != svg.render(p)


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_replacing_a_field_with_rows_none_builds_no_rows(mode):
    p = _packing(forms.EUCLIDEAN, (-15, 24, 40, 49), 900, mode)
    q = dataclasses.replace(p, rows=None, truncated=True)
    assert "rows" not in vars(p) and "rows" not in vars(q)
    assert q.scaled is p.scaled and q.truncated and not p.truncated
    assert q == dataclasses.replace(p, truncated=True)


def test_packing_needs_rows_or_scaled_rows():
    p = _packing(forms.SPHERICAL, (0, 1, 1, 2), 20, EXACT)
    with pytest.raises(ValueError):
        apollonian.Packing(p.geometry, p.n, p.seed, None, p.bound, (), 0, 0,
                           False)
    # rows are built once, on first read, and kept
    assert "rows" not in vars(p)
    assert p.rows is p.rows and "rows" in vars(p)
    with pytest.raises(AttributeError):
        p.no_such_field


# --- the single frame against the CoordRow oracles ------------------------

def _oracle_packings():
    """(id, packing): the walk packings of INPUTS in both modes and one of
    bends that are not integral, and packings given CoordRows: subsets over
    a smaller scale than the walk's, int and Fraction entries mixed,
    non-finite and signed-zero floats, no rows."""
    for (geometry, bends, bound, _), name in zip(INPUTS, IDS):
        for mode in (EXACT, FLOAT):
            yield f"{name}-{mode}", _packing(geometry, bends, bound, mode)
    yield "halves", _packing(forms.EUCLIDEAN, (F(-1, 2), 1, 1, F(3, 2)), 30,
                             EXACT)
    for geometry, bends, bound, scale in INPUTS[:2]:
        p = _packing(geometry, bends, bound, EXACT)
        integral = tuple(r for r in p.rows
                         if all(x.denominator == 1 for x in r.entries))
        q = dataclasses.replace(p, rows=integral)
        assert q.scaled[1] == 1 < scale
        yield f"integral-subset-{scale}", q
        yield f"mixed-{scale}", dataclasses.replace(p, rows=tuple(
            forms.CoordRow(geometry, tuple(
                int(x) if x.denominator == 1 else x for x in r.entries))
            for r in p.rows))
    p = apollonian.generate(
        apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT), 6.0)
    odd = forms.CoordRow(forms.EUCLIDEAN, (math.nan, math.inf, -math.inf, -0.0))
    yield "non-finite", dataclasses.replace(p, rows=p.rows + (odd,))
    yield "empty", dataclasses.replace(p, rows=())


ORACLE_PACKINGS = dict(_oracle_packings())


def _render_outcome(render, packing, options):
    try:
        return render(packing, options)
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("name", ORACLE_PACKINGS)
def test_one_frame_matches_the_coordrow_oracles(name):
    p = ORACLE_PACKINGS[name]
    entries = [r.entries for r in p.rows]
    mode = mode_of([x for row in entries for x in row])
    # the frame divides back to the entries of p.rows, in their mode; repr
    # tells the types apart, and nan and -0.0 from other floats
    assert repr(unscaled_rows(*p.scaled, mode)) \
        == repr(tuple(coerce_row(e, mode) for e in entries))
    assert shell.dumps_packing(p) == _reference_dumps_packing(p)
    # the reference renderer on the CoordRows alone, with no frame to read
    rows_only = types.SimpleNamespace(geometry=p.geometry, n=p.n, rows=p.rows)
    projections = (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC) \
        if p.geometry == forms.SPHERICAL else (svg.ORTHOGRAPHIC,)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for labels in ("bend", "none"):
            for projection in projections:
                o = svg.RenderOptions(labels=labels, projection=projection)
                new = _render_outcome(svg.render, p, o)
                assert new == _render_outcome(reference_svg.render, p, o)
                assert new == _render_outcome(reference_svg.render, rows_only, o)


def _reference_integrality_report(packing):
    """integrality_report as it read the CoordRows of packing.rows."""
    if packing.rows and mode_of(packing.rows[0].entries) != EXACT:
        raise ValueError("integrality is only meaningful in exact mode")
    counts = {}
    bad = []
    for row in packing.rows:
        b = F(row.entries[forms.bend_column(packing.geometry)])
        if b.denominator == 1:
            counts[int(b)] = counts.get(int(b), 0) + 1
        else:
            bad.append(b)
    return apollonian.IntegralityReport(not bad, tuple(sorted(counts.items())),
                                        tuple(bad))


def _report_outcome(report, packing):
    try:
        return repr(report(packing))
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("name", ORACLE_PACKINGS)
def test_integrality_report_matches_the_coordrow_oracle(name):
    p = ORACLE_PACKINGS[name]
    assert _report_outcome(apollonian.integrality_report, p) \
        == _report_outcome(_reference_integrality_report, p)
