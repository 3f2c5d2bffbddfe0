"""Document serialization and the command line front end."""

import dataclasses
import functools
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import inversive
from inversive import apollonian, forms, shell, transform
from inversive.scalars import EXACT, FLOAT
from inversive.shell import scalar_from_json, scalar_to_json

import oracles

ROOT = Path(__file__).resolve().parents[1]


def run(argv, capsys):
    code = shell.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# serialization


def test_scalar_json_forms():
    assert shell.scalar_to_json(F(3, 2)) == "3/2"
    assert shell.scalar_to_json(F(6, 2)) == "3"
    assert shell.scalar_to_json(F(-7)) == "-7"
    assert shell.scalar_to_json(1.5) == 1.5
    assert shell.scalar_from_json("3/2", EXACT) == F(3, 2)
    assert shell.scalar_from_json("3/2", FLOAT) == 1.5
    assert shell.scalar_from_json(1.5, FLOAT) == 1.5
    with pytest.raises(ValueError, match="float entry"):
        shell.scalar_from_json(1.5, EXACT)


def test_config_document_roundtrip(euclid_seed):
    text = shell.dumps_config(euclid_seed)
    assert text.endswith("\n")
    raw = json.loads(text)
    assert raw["rows"][0] == ["1", "-1", "0", "0"]
    back = shell.loads_config(text)
    assert tuple(r.entries for r in back.rows) == tuple(
        r.entries for r in euclid_seed.rows
    )
    assert back.mode == EXACT


def test_loads_config_strict_and_lenient(euclid_seed):
    raw = json.loads(shell.dumps_config(euclid_seed))
    raw["rows"][0][0] = "2"
    bad = json.dumps(raw)
    with pytest.raises(ValueError, match="Gram identity"):
        shell.loads_config(bad)
    w = shell.parse_document(bad).config
    assert w.rows[0].entries[0] == 2
    doc = shell.parse_document(bad)
    assert not doc.valid


def test_parse_document_field_errors(euclid_seed):
    raw = json.loads(shell.dumps_config(euclid_seed))
    del raw["mode"]
    with pytest.raises(ValueError, match="missing field"):
        shell.parse_document(json.dumps(raw))
    raw = json.loads(shell.dumps_config(euclid_seed))
    raw["n"] = 3
    with pytest.raises(ValueError, match="declared n"):
        shell.parse_document(json.dumps(raw))


@pytest.mark.parametrize("field, value, message", [
    ("mode", "xyz", "unknown configuration mode 'xyz'"),
    ("mode", None, "unknown configuration mode None"),
    ("n", "2", "n = '2' is not an integer"),
    ("n", 2.0, "n = 2.0 is not an integer"),
    ("n", True, "n = True is not an integer"),
], ids=["mode-xyz", "mode-null", "n-string", "n-float", "n-bool"])
def test_malformed_mode_or_n_is_an_error(field, value, message, tmp_path,
                                         capsys, euclid_seed):
    raw = json.loads(shell.dumps_config(euclid_seed))
    raw[field] = value
    text = json.dumps(raw)
    with pytest.raises(ValueError, match=re.escape(message)):
        shell.parse_document(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    for argv in (["verify"], ["convert", "--to", "spherical"],
                 ["lox", "--steps", "2"]):
        code, out, err = run([*argv, "--in", str(path)], capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and message in err, argv


def test_packing_roundtrip(euclid_seed):
    p = apollonian.generate(euclid_seed, 20)
    text = shell.dumps_packing(p)
    head = json.loads(text.splitlines()[0])
    assert head["kind"] == "packing"
    assert head["explored"] == 20 and head["depth"] == 5
    back = shell.loads_packing(text)
    assert tuple(r.entries for r in back.rows) == tuple(r.entries for r in p.rows)
    assert (back.geometry, back.n, back.bound) == (p.geometry, p.n, p.bound)
    assert not back.truncated


# The line-by-line json codec the packing stream had before the hand-formatted
# encoder and the integer-aware decoder, kept verbatim as an oracle.
def _reference_dumps_packing(p):
    bend_col = forms.bend_column(p.geometry)
    head = {
        "kind": "packing",
        "geometry": p.geometry,
        "n": p.n,
        "mode": p.seed.mode,
        "bound": scalar_to_json(p.bound),
        "explored": p.explored,
        "depth": p.depth,
        "truncated": p.truncated,
        "seed": [[scalar_to_json(x) for x in r.entries] for r in p.seed.rows],
    }
    lines = [json.dumps(head, separators=(",", ":"))]
    for r in p.rows:
        rec = {
            "bend": scalar_to_json(r.entries[bend_col]),
            "row": [scalar_to_json(x) for x in r.entries],
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _reference_loads_packing(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty packing stream")
    head = json.loads(lines[0])
    if head.get("kind") != "packing":
        raise ValueError("not a packing stream (missing packing header)")
    try:
        geometry, mode = head["geometry"], head["mode"]
        seed_rows = [
            tuple(scalar_from_json(v, mode) for v in row) for row in head["seed"]
        ]
        bound = scalar_from_json(head["bound"], mode)
        seed = forms.ConfigMatrix.from_rows(geometry, seed_rows, mode=mode)
        rows = []
        for ln in lines[1:]:
            rec = json.loads(ln)
            entries = tuple(scalar_from_json(v, mode) for v in rec["row"])
            rows.append(forms.CoordRow(geometry, entries))
        return apollonian.Packing(
            geometry=geometry,
            n=seed.n,
            seed=seed,
            rows=tuple(rows),
            bound=bound,
            configs=None,
            explored=head["explored"],
            depth=head["depth"],
            truncated=head["truncated"],
        )
    except KeyError as e:
        raise ValueError(f"packing stream is missing field {e}")


_CODEC_INPUTS = (
    (forms.EUCLIDEAN, (-1, 2, 2, 3), 200),
    (forms.EUCLIDEAN, (-1, 2, 2, 3), 3000),
    (forms.SPHERICAL, (0, 1, 1, 2), 100),
    (forms.HYPERBOLIC, (-2, 3, 5, 6), 150),
    (forms.EUCLIDEAN, (-8, 16, 16, 24), 600),
)


@functools.lru_cache(maxsize=None)
def _codec_packing(geometry, bends, bound, mode):
    scalar = F if mode == EXACT else float
    seed = apollonian.realize_bends(geometry, tuple(map(scalar, bends)))
    return apollonian.generate(seed, scalar(bound))


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("geometry, bends, bound", _CODEC_INPUTS)
def test_packing_codec_matches_reference(geometry, bends, bound, mode):
    scalar = F if mode == EXACT else float
    p = _codec_packing(geometry, bends, bound, mode)
    text = shell.dumps_packing(p)
    assert text == _reference_dumps_packing(p)
    ref = _reference_loads_packing(text)
    for back in (shell.loads_packing(text), shell.loads_packing(io.StringIO(text))):
        assert back == ref
        # a packing equals its round trip, configs (None) included
        assert back == p
        assert back.rows == p.rows
        assert all(type(x) is scalar for r in back.rows for x in r.entries)


def _ratio_text(v, k):
    """An entry's value as the text of its ratio with both terms times k."""
    a, b = F(v).as_integer_ratio()
    return f"{k * a}/{k * b}"


def _edited_record(edit):
    """An edit of a row line through its decoded record, written back as
    the encoder writes records."""
    def line(ln):
        rec = json.loads(ln)
        edit(rec)
        return json.dumps(rec, separators=(",", ":")) + "\n"
    return line


def _nan_row(rec):
    rec["bend"], rec["row"] = math.nan, [math.nan] * len(rec["row"])


# edits of a stream's last row line, each read on the json path, or
# (zero-padded and tripled entries in an exact stream) on either
_ROW_EDITS = {
    "trailing-space": lambda ln: ln[:-1] + " \n",
    "spaced": lambda ln: json.dumps(json.loads(ln)) + "\n",
    "doubled-bend": _edited_record(
        lambda rec: rec.update(bend=_ratio_text(rec["bend"], 2))),
    "zero-padded-entry": _edited_record(lambda rec: rec["row"].__setitem__(
        -1, re.sub("[0-9]", r"00\g<0>", str(rec["row"][-1]), count=1))),
    "tripled-entry": _edited_record(lambda rec: rec["row"].__setitem__(
        -1, _ratio_text(rec["row"][-1], 3))),
    "nan-row": _edited_record(_nan_row),
    "extra-entry": _edited_record(lambda rec: rec["row"].append(rec["row"][-1])),
}


def _last_row_edited(edit):
    def text_edit(text):
        *lines, last = text.splitlines(keepends=True)
        return "".join(lines) + edit(last)
    return text_edit


_TEXT_EDITS = {
    "as-written": lambda text: text,
    "leading-blank-lines": lambda text: "\n \n" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text[:-1],
    "blank-line": lambda text: text.replace("}\n{", "}\n\n{", 1),
    **{name: _last_row_edited(edit) for name, edit in _ROW_EDITS.items()},
}


def _decoded(text):
    """What loads_packing makes of a stream: its error, or every field of
    the packing, its rows as the repr of scaled, which tells nan, -0.0 and
    the entry types apart and from which the rows are built."""
    try:
        p = shell.loads_packing(text)
    except ValueError as e:
        return f"ValueError: {e}"
    return (repr(p.scaled), p.geometry, p.n, p.seed, p.bound, p.explored,
            p.depth, p.truncated)


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("geometry, bends, bound", _CODEC_INPUTS)
def test_whole_body_decode_matches_the_json_path(monkeypatch, geometry,
                                                 bends, bound, mode):
    """loads_packing gives the packing, or the error, of its json path on
    every codec stream and on each edit of it; an edit of white space or
    line ends gives the packing as written."""
    text = shell.dumps_packing(_codec_packing(geometry, bends, bound, mode))
    found = []
    whole_body = shell._body_entries
    monkeypatch.setattr(shell, "_body_entries",
                        lambda *args: found.append(whole_body(*args)) or found[-1])
    fast = {name: _decoded(edit(text)) for name, edit in _TEXT_EDITS.items()}
    # the stream as written is read on the whole-body path
    assert found[0] is not None
    monkeypatch.setattr(shell, "_body_entries", lambda *args: None)
    for name, edit in _TEXT_EDITS.items():
        assert fast[name] == _decoded(edit(text)), name
    for name in ("leading-blank-lines", "crlf", "no-final-newline",
                 "blank-line", "trailing-space", "spaced"):
        assert fast[name] == fast["as-written"], name


def test_packing_codec_non_finite_floats():
    p = apollonian.generate(apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT), 6.0)
    rows = (forms.CoordRow(forms.EUCLIDEAN, (math.nan, math.inf, -math.inf, -0.0)),)
    p = dataclasses.replace(p, rows=p.rows + rows)
    text = shell.dumps_packing(p)
    assert text == _reference_dumps_packing(p)
    assert text.endswith('{"bend":Infinity,"row":[NaN,Infinity,-Infinity,-0.0]}\n')
    assert repr(shell.loads_packing(text)) == repr(_reference_loads_packing(text))


def _signed_zeros(rows, signs):
    """The rows with their zero entries given the signs in turn."""
    signs = itertools.cycle(signs)
    return tuple(forms.CoordRow(r.kind, tuple(next(signs) if x == 0 else x
                                              for x in r.entries))
                 for r in rows)


@pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0), (-0.0,)],
                         ids=["zero-first", "negative-zero-first",
                              "negative-zero-only"])
def test_packing_codec_negative_zero(signs):
    # 0.0 == -0.0 as a dict key: a finite float body with both zeros must
    # not write them by one text
    p = apollonian.generate(apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT), 6.0)
    p = dataclasses.replace(p, rows=_signed_zeros(p.rows, signs))
    zeros = [repr(x) for r in p.rows for x in r.entries if x == 0]
    assert set(zeros) == set(map(repr, signs)) and len(zeros) > 2
    text = shell.dumps_packing(p)
    assert text == _reference_dumps_packing(p)
    assert shell.dumps_packing(shell.loads_packing(text)) == text


def _one_row_stream(values, mode=EXACT):
    seed = apollonian.standard_seed(forms.EUCLIDEAN, mode=mode)
    head = shell.dumps_packing(apollonian.generate(seed, 6)).splitlines(
        keepends=True)[0]
    return head + json.dumps({"bend": values[1], "row": values}) + "\n"


@pytest.mark.parametrize(
    "v", ["-0", "007", "3/6", "+3", " 3", "1.5", "1e3", "-7/2"])
def test_exact_scalar_grid_matches_fraction_strings(v):
    text = _one_row_stream([v, "1", "-2", "3/4"])
    (row,) = shell.loads_packing(text).rows
    assert row == _reference_loads_packing(text).rows[0]
    assert row.entries[0] == F(v) and type(row.entries[0]) is F


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_packing_row_bend_and_bound_are_checked(mode, tmp_path, capsys):
    """A row whose bend field is not its bend-column entry, and a negative
    bound, are rejected on the regex path, on the json path and by CLI
    render --in; a bend that is only written otherwise loads."""
    p = apollonian.generate(
        apollonian.standard_seed(forms.EUCLIDEAN, mode=mode), 6)
    head, first, *rest = shell.dumps_packing(p).splitlines(keepends=True)
    assert first.startswith('{"bend":' + ('"2"' if mode == EXACT else "2.0"))
    wrong = first.replace("2", "9992", 1)
    spaced = json.dumps(json.loads(wrong)) + "\n"
    negative = json.dumps({**json.loads(head), "bound": scalar_to_json(
        -5 if mode == EXACT else -5.0)}) + "\n"
    bad = {"bend.jsonl": head + wrong, "spaced-bend.jsonl": head + spaced,
           "bound.jsonl": negative + first}
    for name, text in bad.items():
        with pytest.raises(ValueError, match="is not the bend|is negative"):
            shell.loads_packing(text + "".join(rest))
        (tmp_path / name).write_text(text + "".join(rest))
        code, out, err = run(["render", "--in", str(tmp_path / name)], capsys)
        assert (code, out) == (1, ""), name
        assert err.startswith("error: packing "), err
    if mode == EXACT:  # the same bend, written otherwise, goes through json
        other = first.replace('"bend":"2"', '"bend":"4/2"')
        assert shell.loads_packing(head + other + "".join(rest)) == p


def test_exact_packing_rows_are_checked_against_the_bound(tmp_path, capsys):
    """An exact row whose |bend| is above the header bound is rejected on
    the regex path, on the json path and by CLI render --in, unless it is
    one of the seed's rows, which generate keeps at any bound."""
    p = apollonian.generate(apollonian.standard_seed(forms.EUCLIDEAN), 2)
    text = shell.dumps_packing(p)
    assert '{"bend":"3","row":["1","3","0","2"]}' in text  # a seed row
    assert shell.loads_packing(text) == p
    above = '{"bend":"9999","row":["0","9999","-1","0"]}\n'
    not_seed = '{"bend":"-3","row":["1","-3","0","-2"]}\n'
    bad = {"regex.jsonl": (text + above, 9999),
           "json.jsonl": (text + json.dumps(json.loads(above)) + "\n", 9999),
           "not-seed.jsonl": (text + not_seed, -3)}
    for name, (stream, bend) in bad.items():
        message = f"packing row bend {bend} is outside the bound 2"
        with pytest.raises(ValueError, match=message):
            shell.loads_packing(stream)
        (tmp_path / name).write_text(stream)
        code, out, err = run(["render", "--in", str(tmp_path / name)], capsys)
        assert (code, out) == (1, ""), name
        assert err == f"error: {message}\n", err


def test_packing_rows_keep_their_input_errors():
    with pytest.raises(ValueError, match="float entry"):
        shell.loads_packing(_one_row_stream([1.5, "1", "0", "0"]))
    with pytest.raises(ValueError):
        shell.loads_packing(_one_row_stream(["x", "1", "0", "0"]))
    with pytest.raises(ValueError):
        shell.loads_packing(_one_row_stream(["3/4", "1/0", "0", "0"], mode=FLOAT))


BOOLEAN_DOCUMENT = {
    "geometry": "euclidean", "n": 2,
    "rows": [[True, -1, 0, 0], [0, 2, True, 0], [0, 2, -1, False],
             [1, 3, 0, 2]]}


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_booleans_are_no_scalars(mode, capsys, monkeypatch):
    for v in (True, False):
        with pytest.raises(ValueError, match="boolean entry"):
            shell.scalar_from_json(v, mode)
    # as 1 and 0 these rows would be the standard seed, and valid
    text = json.dumps({**BOOLEAN_DOCUMENT, "mode": mode})
    with pytest.raises(ValueError, match="boolean entry true"):
        shell.parse_document(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(["verify"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "boolean entry" in err
    head = _one_row_stream(["0", "2", "-1", "0"], mode).splitlines()[0]
    stream = head + '\n{"bend":true,"row":[true,2,-1,0]}\n'
    with pytest.raises(ValueError, match="boolean entry true"):
        shell.loads_packing(stream)
    head = json.loads(head)
    for field, value in (("bound", True), ("seed", [[True, -1, 0, 0]])):
        text = json.dumps({**head, field: value}) + "\n"
        with pytest.raises(ValueError, match="boolean entry true"):
            shell.loads_packing(text)


def test_complete_bend():
    assert shell.complete_bend(forms.EUCLIDEAN, (F(2), F(2), F(3))) == (-1, 15)
    assert shell.complete_bend(forms.SPHERICAL, (F(0), F(1), F(1))) == (2, 2)
    assert shell.complete_bend(forms.HYPERBOLIC, (F(-1), F(1), F(1))) == (1, 1)


def test_float_completion_is_the_exact_root_rounded_once():
    # the exact roots of the values' Fractions, each rounded once
    cases = [(forms.EUCLIDEAN, (2.0, 2.0, 3.0)),
             (forms.EUCLIDEAN, (-1.5, 7.25, 9.0)),
             (forms.EUCLIDEAN, (-0.1, 0.3, 0.7)),
             (forms.EUCLIDEAN, (1e150, 1.3e150, 2.7e150)),
             (forms.SPHERICAL, (5.0, 5.0, 5.0)),
             (forms.SPHERICAL, (0.0, 1.0, 1.0, 2.0)),
             (forms.HYPERBOLIC, (-2.0, 3.0, 5.0)),
             (forms.HYPERBOLIC, (10.0 / 3, 7.0 / 3, 11.0, 13.0))]
    for geometry, values in cases:
        assert shell.complete_bend(geometry, values) \
            == oracles.rounded_completions(geometry, values)


def _sweep_vectors():
    """60 seeded vectors of values in [-1, 3) times each scale 10^e,
    e = -300, -275, ..., 300, for each geometry and n = 1, 2, 3."""
    rng = random.Random(48)
    for geometry in forms.GEOMETRIES:
        for n in (1, 2, 3):
            for e in range(-300, 301, 25):
                scale = 10.0 ** e
                for _ in range(60):
                    yield geometry, tuple(rng.uniform(-1, 3) * scale
                                          for _ in range(n + 1))


def test_float_completions_of_a_seeded_sweep_are_rounded_once():
    # float sums and a float sqrt over a power-of-two scaling got 6,949 of
    # these 14,546 roots wrong
    roots = 0
    for geometry, values in _sweep_vectors():
        try:
            expected = oracles.rounded_completions(geometry, values)
        except OverflowError:
            expected = None
        try:
            got = shell.complete_bend(geometry, values)
        except ValueError as e:
            reason = "no real" if expected == () else "beyond the float range"
            assert expected in ((), None) and reason in str(e), values
            continue
        assert got == expected, (geometry, values)
        roots += len(got)
    assert roots == 14546


def test_a_rounded_root_below_the_float_range_keeps_its_sign():
    # sqrt(s1^2 -+ 1) is within 2^-71 of |s1|, so at p = 64 one end of the
    # small root's interval is 0, which divides to +0.0 at either sign
    s1, s = 2 ** 70, 2 ** 1100
    lo, hi = shell._rounded_roots(-s1, s1 * s1 - 1, 1, s)
    assert hi == 0 and math.copysign(1.0, hi) == -1.0 and lo < 0
    lo, hi = shell._rounded_roots(s1, s1 * s1 + 1, 1, s)
    assert lo == 0 and math.copysign(1.0, lo) == -1.0 and hi > 0


@pytest.mark.parametrize("values, low", (((1.0, 1.0, 1e-20), -1e-20),
                                         ((1e8, 1e8, 1e-8),
                                          -9.999999999999999e-09)))
def test_float_completion_of_a_cancelling_root(values, low, capsys):
    # s1 - sqrt(D) cancels in floats, which gave 0.0
    code, out, _ = run(["solve", "--mode", "float", "--geometry", "euclidean",
                        "--seed=" + ",".join(map(repr, values))], capsys)
    assert code == 0 and json.loads(out)["completions"][0] == low
    assert shell.complete_bend(forms.EUCLIDEAN, values) \
        == oracles.rounded_completions(forms.EUCLIDEAN, values)


def test_float_double_roots_complete_and_verify():
    # the 17 integral Euclidean triples of a double root with entries in
    # -4..7, times 8 factors and 25 powers of ten: rounding the values can
    # take D a little below 0, which was refused as no real completion
    triples = sorted({tuple(sorted(t))
                      for t in itertools.product(range(-4, 8), repeat=3)
                      if any(t) and t[0] * t[1] + t[1] * t[2] + t[2] * t[0] == 0})
    assert len(triples) == 17
    inputs = 0
    for t in triples:
        for m in (0.1, 0.3, 0.7, 1 / 3, 1.1, 2.9, 1e-5, 123.456):
            for e in range(-120, 121, 10):
                values = tuple(x * m * 10.0 ** e for x in t)
                inputs += 1
                for r in set(shell.complete_bend(forms.EUCLIDEAN, values)):
                    w = apollonian.realize_bends(forms.EUCLIDEAN, values + (r,))
                    assert shell.parse_document(shell.dumps_config(w)).valid
    assert inputs == 3400


def test_float_solve_past_the_square_range(capsys):
    # the unscaled discriminant is inf - inf here, which printed NaN
    code, out, _ = run(["solve", "--mode", "float", "--geometry", "euclidean",
                        "--seed=-1e300,2e300,2e300"], capsys)
    assert code == 0 and json.loads(out)["completions"] == [3e300, 3e300]
    assert shell.complete_bend(forms.EUCLIDEAN, (-1e300, 2e300, 2e300)) \
        == (3e300, 3e300)
    # 3 + 2 sqrt(3) times 1e308 is past the float range
    code, out, err = run(["solve", "--mode", "float", "--geometry",
                          "euclidean", "--seed=1e308,1e308,1e308"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: a completion of these bends is beyond the float " \
        "range\n"


def test_float_solve_of_tiny_plane_bends(capsys):
    # the squares of 1e-160 are subnormal, so the unscaled quadratic split
    # the double root 3e-160 into 2.9888862062525746e-160 and
    # 3.0111137937474254e-160; the plane's quadratic is homogeneous and is
    # solved on the values scaled by a power of two at every magnitude
    code, out, _ = run(["solve", "--mode", "float", "--geometry", "euclidean",
                        "--seed=-1e-160,2e-160,2e-160"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["completions"] == [3e-160, 3e-160]
    for config in doc["configurations"]:
        assert shell.parse_document(json.dumps(config)).valid
    # exactly the relation's scaling: 2^-600 times the completions of the
    # values times 2^600
    values = (-1.5e-181, 4e-181, 7e-181)
    assert shell.complete_bend(forms.EUCLIDEAN, values) == tuple(
        math.ldexp(r, -600) for r in shell.complete_bend(
            forms.EUCLIDEAN, tuple(math.ldexp(v, 600) for v in values)))



def test_gen_of_float_bends_of_no_sign_majority(capsys):
    # accepted by the bend check within its absolute tolerance, and then
    # refused by the realizer in one error line, not a RecursionError
    code, out, err = run(["gen", "--mode", "float", "--geometry", "euclidean",
                          "--seed=1e-5,-1e-5,0,0", "--max-bend", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: bends 1e-05, -1e-05, 0.0, 0.0 have fewer than two "
                   "positive and fewer than two negative entries: no "
                   "configuration has them\n")


# command line


def test_help_and_usage_exits(capsys):
    assert run(["--help"], capsys)[0] == 0
    assert run([], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["gen", "--bogus"], capsys)[0] == 2


def test_verify_command(tmp_path, capsys, euclid_seed):
    path = tmp_path / "seed.json"
    path.write_text(shell.dumps_config(euclid_seed))
    code, out, _ = run(["verify", "--in", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True and report["max_residual"] == 0.0

    raw = json.loads(path.read_text())
    raw["rows"][0][0] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(["verify", "--in", str(bad)], capsys)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_reads_stdin(monkeypatch, capsys, euclid_seed):
    monkeypatch.setattr(sys, "stdin", io.StringIO(shell.dumps_config(euclid_seed)))
    assert run(["verify"], capsys)[0] == 0


def test_solve_command(capsys):
    code, out, _ = run(["solve", "--geometry", "euclidean", "--seed", "2,2,3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["completions"] == ["-1", "15"]
    assert len(doc["configurations"]) == 2
    first = doc["configurations"][0]
    assert first["geometry"] == "euclidean"
    # the completion is appended after the three given bends
    assert shell.loads_config(json.dumps(first)).bends == (2, 2, 3, -1)
    second = doc["configurations"][1]
    assert shell.loads_config(json.dumps(second)).bends == (2, 2, 3, 15)


def test_solve_irrational_needs_float(capsys):
    code, _, err = run(["solve", "--geometry", "spherical", "--seed", "5,5,5"], capsys)
    assert code == 1
    assert "irrational" in err
    code, out, _ = run(
        ["solve", "--geometry", "spherical", "--seed", "5,5,5", "--mode", "float"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["completions"]) == 2


@pytest.mark.parametrize("geometry, bends", (
    ("spherical", "0,1,1,2"), ("hyperbolic", "-2,-2,-2,1")))
def test_solve_in_a_dimension_with_no_rational_configuration_fails(
        geometry, bends, capsys):
    # n = 3: the completions are rational, the configurations are not; solve
    # exits 1 with the reason, as gen does on the completed bends
    values = tuple(map(F, bends.split(",")))
    completed = ",".join(map(str, values + (shell.complete_bend(
        geometry, values)[0],)))
    message = ("error: no rational Descartes configuration exists for n = 3; "
               "the Gram identity forces an irrational determinant\n")
    code, out, err = run(["solve", "--geometry", geometry, f"--seed={bends}"],
                         capsys)
    assert (code, out, err) == (1, "", message)
    code, out, err = run(["gen", "--geometry", geometry, f"--seed={completed}",
                          "--max-bend", "10"], capsys)
    assert (code, out, err) == (1, "", message)


def test_exact_solve_above_the_plane_gives_both_configurations(monkeypatch,
                                                               capsys):
    # n = 8 coth values on which a tail search refused both completions;
    # each completion is realized from the exact base of n = 8 and verifies
    code, out, err = run(["solve", "--geometry", "hyperbolic",
                          "--seed=-5,-5,-4,-3,-3,-3,-2,-1,-1"], capsys)
    doc = json.loads(out)
    assert (code, err) == (0, "") and doc["completions"] == ["-47/7", "-1"]
    assert len(doc["configurations"]) == 2
    for config, completion in zip(doc["configurations"], doc["completions"]):
        assert config is not None
        w = shell.loads_config(json.dumps(config))
        assert w.bends[-1] == F(completion) and w.mode == EXACT
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
        assert run(["verify"], capsys)[0] == 0


def test_solve_reports_why_a_completion_has_no_configuration(capsys):
    # n = 3 in the plane: both completions exist, no realizer builds them;
    # each null gets one stderr line with the realizer's error, and stdout
    # and the exit code are as without them
    code, out, err = run(["solve", "--geometry", "euclidean", "--mode",
                          "float", "--seed=1,1,1,1"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["configurations"] == [None, None]
    assert err == "".join(
        f"no configuration for the completion {r}: realization is "
        "implemented for the plane (4 bends)\n" for r in doc["completions"])
    # a realized completion writes nothing to stderr
    code, out, err = run(["solve", "--geometry", "euclidean", "--mode",
                          "float", "--seed=2,2,3"], capsys)
    assert code == 0 and None not in json.loads(out)["configurations"]
    assert err == ""


def test_solve_has_no_tol_flag(capsys):
    code, out, err = run(["solve", "--geometry", "euclidean", "--seed",
                          "2,2,3", "--tol", "5"], capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 5" in err


def test_gen_command(tmp_path, capsys):
    out_path = tmp_path / "p.jsonl"
    code, _, _ = run(
        ["gen", "--geometry", "euclidean", "--seed=-1,2,2,3",
         "--max-bend", "6", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["kind"] == "packing" and not head["truncated"]
    bends = sorted(json.loads(l)["bend"] for l in lines[1:])
    assert bends == ["-1", "2", "2", "3", "3", "6", "6", "6", "6"]


def test_gen_rejects_non_descartes_seed(capsys):
    code, _, err = run(
        ["gen", "--geometry", "euclidean", "--seed=1,1,1,1", "--max-bend", "5"],
        capsys,
    )
    assert code == 1
    assert "error: bends violate the Descartes relation by -4" in err


def test_gen_rejects_a_float_seed_past_the_float_range(capsys):
    # bbar = 4/s of the subnormal bends s is past the float range
    code, _, err = run(
        ["gen", "--mode", "float", "--geometry", "euclidean",
         "--seed=-1e-310,2e-310,2e-310,3e-310", "--max-bend", "1"],
        capsys,
    )
    assert code == 1
    assert "error: an entry of the configuration of these bends is beyond " \
        "the float range" in err


@pytest.mark.parametrize("s", ("e200", "e-160"))
def test_gen_float_seeds_whose_squares_leave_the_float_range(s, capsys):
    # the squares of 1e200 bends, or of the bbar entries of 1e-160 bends,
    # are past the float range; their packing to 20 times the scale is the
    # 23 circles of (-1, 2, 2, 3) to bound 20
    code, out, _ = run(["gen", "--mode", "float", "--geometry", "euclidean",
                        f"--seed=-1{s},2{s},2{s},3{s}", f"--max-bend=20{s}"],
                       capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 23


@pytest.mark.parametrize("s", ("e200", "e300"))
def test_float_solve_realizes_completions_past_the_square_range(s, capsys):
    code, out, _ = run(["solve", "--mode", "float", "--geometry", "euclidean",
                        f"--seed=-1{s},2{s},2{s}"], capsys)
    documents = json.loads(out)["configurations"]
    assert code == 0 and len(documents) == 2 and None not in documents
    for document in documents:
        assert shell.parse_document(json.dumps(document)).valid


@pytest.mark.parametrize("geometry, seed, printed", (
    ("spherical", "1e160,1e160,1e160", 0),
    ("hyperbolic", "1e100,1e100", 0),
    ("hyperbolic", "1e160,1e160,1e160", 0),
    ("euclidean", "1e160,1e160,1e160", 2)))
def test_float_solve_prints_only_configurations_that_verify(
        geometry, seed, printed, capsys):
    # the curved realizations of these large bends fail their Gram identity,
    # and were printed all the same; each is now null with a reason
    code, out, err = run(["solve", "--mode", "float", "--geometry", geometry,
                          f"--seed={seed}"], capsys)
    doc = json.loads(out)
    documents = [d for d in doc["configurations"] if d is not None]
    assert code == 0 and len(documents) == printed
    for document in documents:
        assert shell.parse_document(json.dumps(document)).valid
    assert err.count("fails its Gram identity") \
        == len(doc["completions"]) - printed


def test_gen_requires_a_seed_source(capsys):
    code, _, err = run(["gen", "--max-bend", "5"], capsys)
    assert code == 1
    assert "need either --in or both --geometry and --seed" in err


def test_gen_strip_truncates(tmp_path, capsys):
    out_path = tmp_path / "strip.jsonl"
    code, _, _ = run(
        ["gen", "--geometry", "euclidean", "--seed=0,0,1,1",
         "--max-bend", "1", "--max-configs", "50", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_path.read_text().splitlines()[0])["truncated"] is True


@pytest.mark.parametrize("command", ("gen", "render"))
@pytest.mark.parametrize("seed", ("0,0,1,1", "4,0,1,1", "-1/2,-1/2,0,0"))
def test_gen_without_a_cap_refuses_a_strip(command, seed, capsys):
    # the root quadruple of each seed is a strip, infinite at bound 1
    t0 = time.perf_counter()
    code, out, err = run([command, "--geometry", "euclidean", f"--seed={seed}",
                          "--max-bend", "1"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "is a strip" in err and "--max-configs or --max-depth" in err


def test_gen_of_a_far_dilated_float_seed_is_not_taken_for_a_strip(
        tmp_path, capsys):
    # the standard seed dilated by 1e10 has the root (-1e-10, 2e-10, 2e-10,
    # 3e-10), all four bends below an absolute 1e-9; its exact twin gives
    # 3,329 rows at bound 1000 / 1e10
    seed = transform.moved(apollonian.standard_seed("euclidean", 2, FLOAT),
                           transform.dilation(1e10, 2))
    path = tmp_path / "seed.json"
    path.write_text(shell.dumps_config(seed))
    code, out, err = run(["gen", "--in", str(path), "--max-bend", "1e-7"],
                         capsys)
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 3329


def test_gen_without_a_cap_keeps_a_strip_below_its_bends(capsys):
    # below the bend of its circles a strip's closure is finite
    code, out, _ = run(["gen", "--geometry", "euclidean", "--seed=4,0,1,1",
                        "--max-bend", "1/2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0])["truncated"] is False
    assert sorted(json.loads(line)["bend"] for line in lines[1:]) == \
        ["0", "0", "1", "1", "4"]


def test_convert_then_verify_pipeline(tmp_path, capsys, euclid_seed):
    src = tmp_path / "seed.json"
    src.write_text(shell.dumps_config(euclid_seed))
    for target in ("spherical", "hyperbolic"):
        dst = tmp_path / f"{target}.json"
        code, _, _ = run(
            ["convert", "--in", str(src), "--to", target, "--out", str(dst)],
            capsys,
        )
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["geometry"] == target
        assert run(["verify", "--in", str(dst)], capsys)[0] == 0


def test_lox_command(capsys):
    cases = {
        ("euclidean", "-1,2,2,3", "4"): ["-1", "2", "2", "3", "15", "38", "110", "323"],
        ("spherical", "0,1,1,2", "2"): ["0", "1", "1", "2", "8", "21"],
        ("hyperbolic", "-1,1,1,1", "4"): ["-1", "1", "1", "1", "7", "17", "49", "145"],
    }
    for (geometry, seed, steps), expect in cases.items():
        code, out, _ = run(
            ["lox", "--geometry", geometry, f"--seed={seed}", "--steps", steps],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["bends"] == expect


def test_float_lox_past_the_float_range_is_an_error(capsys):
    argv = ["lox", "--mode", "float", "--geometry", "euclidean",
            "--seed=-1,2,2,3", "--steps"]
    code, out, err = run(argv + ["700"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: the bend of step 668 of the loxodromic sequence "
                   "is beyond the float range\n")
    code, out, _ = run(argv + ["667"], capsys)
    assert code == 0 and len(json.loads(out)["bends"]) == 671


def test_float_gen_past_the_float_range_is_an_error(capsys):
    # the seed and the bound are in range, the rows of the walk are not:
    # their bbar reaches past 2^1024 on the packing's way out of its frame
    argv = ["gen", "--geometry", "euclidean", "--mode", "float",
            "--seed=-1e-307,2e-307,2e-307,3e-307", "--max-bend"]
    code, out, err = run(argv + ["2e-305"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: a row of the packing within the bound 2e-305 is "
                   "beyond the float range\n")
    # the kept configurations leave the frame alike
    seed = apollonian.realize_bends(forms.EUCLIDEAN,
                                    (-1e-307, 2e-307, 2e-307, 3e-307))
    with pytest.raises(ValueError, match="is beyond the float range$"):
        apollonian.generate(seed, 2e-305, keep_configs=True)


def test_float_gen_from_a_seed_above_n_16(capsys):
    # the 19 equal caps of n = 17: the base reflection's isotropy test runs
    # on ints, where turning one past 2^1024 into a float raised
    # OverflowError; the packing is written, and its seed verifies
    cot = repr(math.sqrt(17 / 19))
    argv = ["gen", "--mode", "float", "--geometry", "spherical",
            f"--seed={','.join([cot] * 19)}", "--max-bend", "5",
            "--max-configs", "50"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    packing = shell.loads_packing(out)
    assert packing.n == 17 and packing.truncated
    assert packing.seed.bends == (float(cot),) * 19
    assert packing.seed.residual().ok


@pytest.mark.parametrize("argv, error", [
    (["gen", "--max-bend=-1"], "bound must be nonnegative"),
    (["lox", "--steps=-1"], "step count must be nonnegative"),
], ids=["gen", "lox"])
def test_negative_bound_or_step_count_is_an_error(argv, error, capsys):
    seed = ["--geometry", "euclidean", "--seed=-1,2,2,3"]
    code, out, err = run(argv[:1] + seed + argv[1:], capsys)
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_solve_realizes_both_completions_of_a_double_root(monkeypatch,
                                                          capsys):
    # (-1, 1, 2) has the double root 2; the coth values (-1, 1, 2, 2) have
    # two |coth| = 1 rows, whose null tails a row-by-row tail search could
    # not place, and both configurations verify in both modes
    for mode, root in ((EXACT, "2"), (FLOAT, 2.0)):
        code, out, err = run(["solve", "--geometry", "hyperbolic",
                              "--seed=-1,1,2", "--mode", mode], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["completions"] == [root, root]
        assert len(doc["configurations"]) == 2
        for config in doc["configurations"]:
            text = json.dumps(config)
            w = shell.loads_config(text)
            assert w.mode == mode and w.bends == (-1, 1, 2, 2)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, err = run(["verify"], capsys)
            assert code == 0, err
            assert json.loads(out)["valid"] is True


def test_onedim_command(capsys):
    code, out, _ = run(["onedim", "--intervals=0,1,1,3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["curvatures"] == ["2", "1", "-2/3"]
    assert doc["radii"] == ["1/2", "1", "-3/2"]

    code, out, _ = run(["onedim", "--curvatures", "2,1"], capsys)
    assert code == 0
    assert json.loads(out)["curvatures"] == ["2", "1", "-2/3"]

    code, _, err = run(["onedim", "--intervals=0,1,2,3"], capsys)
    assert code == 1
    assert "touch" in err


def test_float_onedim_output_verifies(monkeypatch, capsys):
    # the float radii of these intervals sum to about 1e-16, not zero
    code, out, err = run(["onedim", "--intervals=-2.0,-1.9,-1.9,0.7",
                          "--mode", "float"], capsys)
    assert code == 0, err
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, err = run(["verify"], capsys)
    assert code == 0, err
    assert json.loads(out)["valid"] is True


def test_onedim_float_curvatures_are_completed_in_range(capsys):
    # the unscaled -ab/(a + b) printed -Infinity and -0.0 for the first two
    for pair, third in (("1e200,1e200", "-5e+199"),
                        ("1e-200,1e-200", "-5e-201"), ("0,1", "-0.0")):
        code, out, _ = run(["onedim", "--mode", "float",
                            f"--curvatures={pair}"], capsys)
        a, b = (float(x) for x in pair.split(","))
        assert (code, out) == (0, f'{{"curvatures": [{a!r}, {b!r}, {third}]}}\n')


def test_onedim_intervals_at_the_ends_of_the_float_range(monkeypatch,
                                                          capsys):
    # curvatures 2/1e-323 past the float range: one error line, where a
    # document of infinities and a NaN was printed
    code, out, err = run(["onedim", "--mode", "float",
                          "--intervals=0,1e-323,1e-323,2e-323"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    # bbar 2e300 and curvatures 1.3e-308: finite rows that verify accepts,
    # where Infinity rows were printed
    code, out, err = run(["onedim", "--mode", "float",
                          "--intervals=0,1e300,1e300,1.5e308"], capsys)
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert all(math.isfinite(x) for row in doc["rows"] for x in row)
    assert doc["curvatures"] == [row[1] for row in doc["rows"]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, err = run(["verify"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["valid"] is True


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("geometry, seed, completion", (
    ("spherical", "-3,-2", 1), ("spherical", "2,1", F(-1, 3)),
    ("hyperbolic", "2,1", -1), ("hyperbolic", "-2,3", 5)))
def test_solve_at_n1_prints_one_realized_completion(
        geometry, seed, completion, mode, monkeypatch, capsys):
    code, out, err = run(["solve", "--geometry", geometry, "--mode", mode,
                          f"--seed={seed}"], capsys)
    doc = json.loads(out)
    assert (code, err, doc["n"]) == (0, "", 1)
    (text,) = doc["completions"]
    assert scalar_from_json(text, mode) == pytest.approx(completion)
    (config,) = doc["configurations"]
    assert config["mode"] == mode
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    code, out, err = run(["verify"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["valid"] is True


def test_euclidean_solve_at_n1_prints_no_configuration(capsys):
    code, out, err = run(["solve", "--geometry", "euclidean", "--seed=2,1"],
                         capsys)
    doc = json.loads(out)
    assert code == 0 and doc["n"] == 1
    assert doc["completions"] == ["-2/3"] and doc["configurations"] == [None]
    assert err.startswith("no configuration for the completion -2/3: ")


def test_lox_on_an_interval_configuration_is_an_error(monkeypatch, capsys):
    code, out, _ = run(["onedim", "--intervals=0,1,1,3"], capsys)
    assert code == 0
    document = json.dumps(json.loads(out)["document"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    code, out, err = run(["lox", "--in", "-", "--steps", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "n >= 2" in err
    assert "Traceback" not in err


def test_render_command_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ["render", "--geometry", "euclidean", "--seed=-1,2,2,3",
            "--max-bend", "20"]
    assert run(argv + ["--out", str(a)], capsys)[0] == 0
    assert run(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<svg")
    assert a.read_bytes().decode("ascii").count("<circle") == 23


def test_render_from_packing_file(tmp_path, capsys):
    packing = tmp_path / "p.jsonl"
    run(["gen", "--geometry", "euclidean", "--seed=-1,2,2,3",
         "--max-bend", "20", "--out", str(packing)], capsys)
    out = tmp_path / "p.svg"
    code, _, _ = run(["render", "--in", str(packing), "--out", str(out)], capsys)
    assert code == 0
    direct = tmp_path / "direct.svg"
    run(["render", "--geometry", "euclidean", "--seed=-1,2,2,3",
         "--max-bend", "20", "--out", str(direct)], capsys)
    assert out.read_bytes() == direct.read_bytes()


def test_render_from_config_document(tmp_path, capsys, euclid_seed):
    src = tmp_path / "seed.json"
    src.write_text(shell.dumps_config(euclid_seed))
    out = tmp_path / "seed.svg"
    code, _, _ = run(["render", "--in", str(src), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes().decode("ascii").count("<circle") == 4


def test_render_option_flags(tmp_path, capsys):
    out = tmp_path / "s.svg"
    code, _, _ = run(
        ["render", "--geometry", "spherical", "--seed=0,1,1,2", "--max-bend", "20",
         "--projection", "stereographic", "--labels", "none",
         "--width", "400", "--height", "300", "--out", str(out)],
        capsys,
    )
    assert code == 0
    s = out.read_bytes().decode("ascii")
    assert 'viewBox="0 0 400 300"' in s
    assert s.count("<text") == 0
    # the pixel cutoff tracks the smaller canvas edge, pruning two more caps
    assert s.count("<circle") == 27


def test_missing_input_file_is_reported(capsys):
    code, _, err = run(["verify", "--in", "/nonexistent/path.json"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_malformed_input_is_reported(tmp_path, capsys, euclid_seed):
    raw = json.loads(shell.dumps_config(euclid_seed))
    raw["rows"][0][0] = "1/0"
    doc = tmp_path / "zero.json"
    doc.write_text(json.dumps(raw))
    stream = shell.dumps_packing(apollonian.generate(euclid_seed, 6)).splitlines()
    bad_rows = {
        "zero.jsonl": stream[:2] + ['{"bend":"2","row":["1/0","2","1","0"]}'],
        "array.jsonl": stream[:2] + ["[1,2]"],
        "short.jsonl": stream[:2] + ['{"bend":"2","row":["1","2","3"]}'],
        "long.jsonl": stream[:2] + ['{"bend":"2","row":["1","2","3","4","5"]}'],
        "header.jsonl": ["[1,2]"] + stream[1:],
    }
    for name, lines in bad_rows.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    runs = [["verify", "--in", str(doc)], ["render", "--in", str(doc)]]
    for i, text in enumerate(("[1]", '{"geometry":"euclidean","n":2,'
                              '"mode":"exact","rows":[1,2,3,4]}')):
        (tmp_path / f"shape{i}.json").write_text(text)
        runs.append(["verify", "--in", str(tmp_path / f"shape{i}.json")])
    runs += [["render", "--in", str(tmp_path / name)] for name in bad_rows]
    runs.append(["gen", "--geometry", "euclidean", "--seed=-1,2,2,3",
                 "--max-bend", "1/0"])
    for argv in runs:
        code, out, err = run(argv, capsys)
        assert code == 1, argv
        assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("command", ("gen", "render"))
@pytest.mark.parametrize("cap", ("--max-configs", "--max-depth"))
def test_negative_caps_are_an_error(command, cap, capsys):
    argv = [command, "--geometry", "euclidean", "--seed=-1,2,2,3",
            "--max-bend", "10"]
    code, out, err = run([*argv, cap, "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: max_depth and max_configs must be nonnegative\n"
    code, out, err = run([*argv, cap, "0"], capsys)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("field,value,message", [
    ("seed", 5, "packing seed is not a list of rows"),
    ("seed", [5, 6, 7, 8], "packing seed is not a list of rows"),
    ("seed", "1,2", "packing seed is not a list of rows"),
    ("mode", "xyz", "unknown packing mode 'xyz'"),
    ("mode", None, "unknown packing mode None"),
])
def test_malformed_packing_header_is_reported(tmp_path, capsys, euclid_seed,
                                              field, value, message):
    lines = shell.dumps_packing(apollonian.generate(euclid_seed, 6)).splitlines()
    head = json.loads(lines[0])
    head[field] = value
    text = "\n".join([json.dumps(head)] + lines[1:]) + "\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        shell.loads_packing(text)
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    code, out, err = run(["render", "--in", str(path)], capsys)
    assert code == 1
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("value,message", [
    ("1/0", "not a rational number: '1/0'"),
    ("x", "Invalid literal for Fraction: 'x'"),
    (1.5, "float entry 1.5 in an exact document"),
    (True, "boolean entry true is not a scalar"),
], ids=["zero-denominator", "not-a-number", "float", "boolean"])
@pytest.mark.parametrize("field", ["seed", "bound"])
def test_malformed_exact_header_entry_is_reported(tmp_path, capsys,
                                                  euclid_seed, field, value,
                                                  message):
    lines = shell.dumps_packing(apollonian.generate(euclid_seed, 6)).splitlines()
    head = json.loads(lines[0])
    if field == "seed":
        head["seed"][1][2] = value
    else:
        head["bound"] = value
    text = "\n".join([json.dumps(head)] + lines[1:]) + "\n"
    with pytest.raises(ValueError) as info:
        shell.loads_packing(text)
    assert str(info.value) == message
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    code, out, err = run(["render", "--in", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


_NOT_A_DOCUMENT = "configuration document is not an object with rows of scalars"


@pytest.mark.parametrize("rows", [
    ["1234", "5678", "9012", "3456"],
    [{"a": 1, "b": 2, "c": 3, "d": 4}] * 4,
    [1, 2, 3, 4],
    "abcd",
    {"rows": [[1, 2, 3, 4]]},
], ids=["string-rows", "object-rows", "number-rows", "string", "object"])
def test_document_rows_must_be_lists(rows, tmp_path, capsys):
    text = json.dumps({"geometry": "euclidean", "n": 2, "mode": "exact",
                       "rows": rows})
    with pytest.raises(ValueError) as info:
        shell.parse_document(text)
    assert str(info.value) == _NOT_A_DOCUMENT
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run(["verify", "--in", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: {_NOT_A_DOCUMENT}\n")


@pytest.mark.parametrize("field,value", [
    ("n", 5), ("n", 3), ("n", 2.0), ("n", True), ("n", "2"), ("n", None),
    ("explored", "many"), ("explored", -1), ("explored", 3.0),
    ("explored", True), ("depth", -4), ("depth", None), ("depth", False),
    ("truncated", "no"), ("truncated", 0), ("truncated", None),
])
def test_packing_header_fields_are_checked(field, value, tmp_path, capsys,
                                           euclid_seed):
    p = apollonian.generate(euclid_seed, 6)
    lines = shell.dumps_packing(p).splitlines()
    assert shell.loads_packing("\n".join(lines)) == p
    head = json.loads(lines[0])
    head[field] = value
    text = "\n".join([json.dumps(head)] + lines[1:]) + "\n"
    with pytest.raises(ValueError, match="packing header") as info:
        shell.loads_packing(text)
    assert repr(value) in str(info.value)
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    code, out, err = run(["render", "--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {info.value}\n"
    del head[field]
    text = "\n".join([json.dumps(head)] + lines[1:]) + "\n"
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        shell.loads_packing(text)


def test_render_streams_packing_from_stdin(monkeypatch, capsys, tmp_path):
    p = apollonian.generate(apollonian.standard_seed(forms.SPHERICAL), 20)
    # leading blank lines do not hide the packing header
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n  \n" + shell.dumps_packing(p)))
    code, out, _ = run(["render", "--in", "-"], capsys)
    assert code == 0
    assert out == shell.svg.render(p).decode("ascii")


def test_python_dash_m_runs_the_cli():
    src = str(Path(inversive.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "inversive",
         "gen", "--geometry", "euclidean", "--seed=-1,2,2,3", "--max-bend", "20"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    seed = apollonian.realize_bends(forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3)))
    assert proc.stdout == shell.dumps_packing(apollonian.generate(seed, 20))


def _declared_console_script(name):
    """The ``module:function`` target that ``[project.scripts]`` in
    ``pyproject.toml`` declares for ``name``. A plain line match, because
    Python 3.10 has no ``tomllib``."""
    table = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
            continue
        if table != "[project.scripts]":
            continue
        match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"', line)
        if match:
            return match.groups()
    return None


def test_python_dash_m_shell_module_runs_the_cli():
    src = str(Path(inversive.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "inversive.shell",
         "lox", "--geometry", "spherical", "--seed=0,1,1,2", "--steps", "2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bends"] == ["0", "1", "1", "2", "8", "21"]


def test_console_script_smoke():
    # Run the declared entry point the way the installed shim would, against
    # the package this test imported rather than whatever is on PATH.
    target = _declared_console_script("inversive")
    assert target is not None, "pyproject.toml declares no inversive script"
    module, function = target
    src = str(Path(inversive.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {function}; sys.exit({function}())",
         "lox", "--geometry", "spherical", "--seed=0,1,1,2", "--steps", "2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bends"] == ["0", "1", "1", "2", "8", "21"]


def _cli(args, stdin=None):
    src = str(Path(inversive.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "inversive", *args],
                          input=stdin, capture_output=True, text=True,
                          timeout=60, env=env)


def test_gen_without_a_cap_refuses_a_float_strip():
    t0 = time.perf_counter()
    proc = _cli(["gen", "--mode", "float", "--geometry", "euclidean",
                 "--seed=0,0,1,1", "--max-bend", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "is a strip" in proc.stderr


def test_onedim_output_pipes_into_verify():
    out = _cli(["onedim", "--intervals", "0,1,1,3"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["geometry"] == "euclidean" and doc["n"] == 1
    assert doc["curvatures"] == ["2", "1", "-2/3"]
    proc = _cli(["verify"], stdin=out.stdout)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.parametrize("args", [
    ["gen", "--mode", "float", "--geometry", "euclidean", "--seed=-1,2,2,3",
     "--max-bend", "1e400"],
    ["solve", "--mode", "float", "--geometry", "euclidean", "--seed=1e400,2,2"],
    ["onedim", "--mode", "float", "--curvatures", "1e400,1"],
], ids=["gen-bound", "solve-seed", "onedim-curvatures"])
def test_float_values_past_the_float_range_are_an_error(args):
    proc = _cli(args)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "1e400" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("intervals", ["0,5e-324,5e-324,1e-323",
                                       "-5e-324,0,0,5e-324"])
def test_intervals_whose_radius_rounds_to_zero_are_an_error(intervals):
    """Half of the subnormal length 5e-324 rounds to 0.0, which has no
    curvature: one error line, no traceback."""
    proc = _cli(["onedim", "--mode", "float", f"--intervals={intervals}"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "rounds to zero" in proc.stderr


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "-NaN"])
def test_non_finite_float_texts_are_no_float_scalars(text, tmp_path, capsys):
    message = f"error: not a float scalar: {text!r}\n"
    with pytest.raises(ValueError) as info:
        scalar_from_json(text, FLOAT)
    assert f"error: {info.value}\n" == message
    seed = ["gen", "--mode", "float", "--geometry", "euclidean"]
    assert run(seed + [f"--seed={text},2,2,3", "--max-bend", "3"],
               capsys) == (1, "", message)
    assert run(seed + ["--seed=-1,2,2,3", f"--max-bend={text}"],
               capsys) == (1, "", message)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "geometry": "euclidean", "n": 2, "mode": "float",
        "rows": [[text, 1, 0, 0], [0, 2, 1, 0], [0, 2, -1, 0], [1, 3, 0, 2]]}))
    assert run(["verify", "--in", str(path)], capsys) == (1, "", message)
    # an exact text is parsed as a Fraction, whose error it keeps
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        scalar_from_json(text, EXACT)


def test_command_line_values_parse_as_document_entries(capsys):
    assert shell._parse_scalars("1.5, -2,1/3", FLOAT) == (1.5, -2.0, 1 / 3)
    assert shell._parse_scalars("1.5,-2,1/3", EXACT) == (
        F(3, 2), -2, F(1, 3))
    # an empty value is an error that names its place, not a value dropped
    for text, position in (("-1,2,,2", 3), ("0,1,1,2,", 5), (",1", 1),
                           (" , 1", 1), ("", 1)):
        for mode in (EXACT, FLOAT):
            with pytest.raises(ValueError, match=f"empty value at position "
                               f"{position} of the list"):
                shell._parse_scalars(text, mode)
    for args, text, position in (
            (["solve", "--geometry", "euclidean", "--seed=-1,2,,2"],
             "-1,2,,2", 3),
            (["lox", "--geometry", "spherical", "--seed=0,1,1,2,",
              "--steps", "2"], "0,1,1,2,", 5),
            (["onedim", "--intervals", "0,1,1,3,"], "0,1,1,3,", 5)):
        assert shell.run(args) == 1
        assert capsys.readouterr() == ("", f"error: empty value at position "
                                       f"{position} of the list {text!r}\n")
    assert scalar_from_json("1e3", FLOAT) == 1000.0
    assert scalar_from_json("1e400", EXACT) == 10 ** 400
