"""The reader of configuration documents against a verbatim copy of the
Fraction(str) reader it replaced, on canonical, non-canonical and malformed
documents in both modes."""

import json
import math
from fractions import Fraction

import pytest

from inversive import apollonian, forms, shell
from inversive.scalars import DEFAULT_TOL, EXACT, FLOAT

# --- the reader before the int path, verbatim ----------------------------


def _reference_fraction(v):
    """Fraction(v), with a zero denominator or a non-number reported as a
    ValueError."""
    try:
        return Fraction(v)
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {v!r}") from None


def _reference_scalar_from_json(v, mode):
    if isinstance(v, bool):  # an int to Python, but no JSON number
        raise ValueError(f"boolean entry {json.dumps(v)} is not a scalar")
    if mode == EXACT:
        if isinstance(v, float):
            raise ValueError(f"float entry {v!r} in an exact document")
        return _reference_fraction(v)
    try:
        return float(_reference_fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, OverflowError):
        raise ValueError(f"not a float scalar: {v!r}") from None


def _reference_is_rows(v):
    """Whether a JSON value is a list of lists."""
    return isinstance(v, list) and all(isinstance(row, list) for row in v)


def _reference_parse_document(text, tol=DEFAULT_TOL):
    """Parse a configuration document; the valid flag records whether the
    Gram identity holds at the given tolerance.

    Fields other than geometry, n, mode and rows are ignored.  A mode other
    than "exact" or "float", an n that is not an int or not the dimension
    of the rows, and rows not a list of lists of scalars raise ValueError.
    """
    raw = json.loads(text)
    if not (isinstance(raw, dict) and _reference_is_rows(raw.get("rows", []))):
        raise ValueError("configuration document is not an object with "
                         "rows of scalars")
    try:
        geometry, n, mode = raw["geometry"], raw["n"], raw["mode"]
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown configuration mode {mode!r}")
        if type(n) is not int:
            raise ValueError(f"configuration dimension n = {n!r} is not an "
                             "integer")
        rows = [tuple(_reference_scalar_from_json(v, mode) for v in row) for row in raw["rows"]]
    except KeyError as e:
        raise ValueError(f"configuration document is missing field {e}")
    w = forms.ConfigMatrix.from_rows(geometry, rows, mode=mode)
    if w.n != n:
        raise ValueError(f"declared n = {n} but rows have n = {w.n}")
    residual = w.residual(tol)
    return shell.ConfigDocument(
        geometry, w.n, mode, w, residual.ok, residual
    )


# --- the grid ------------------------------------------------------------

BASES = ((forms.EUCLIDEAN, (-1, 2, 2, 3)), (forms.EUCLIDEAN, (-6, 10, 15, 19)),
         (forms.SPHERICAL, (0, 1, 1, 2)), (forms.HYPERBOLIC, (-2, 3, 5, 6)))

LONG = "7" * 4400  # past the int() digit limit, which both readers hit
ENTRIES = (
    # canonical, as the encoder writes them
    "0", "1", "-1", "3/4", "-15/8", "123456789012345678901234567890/7",
    # non-canonical texts
    "2/4", "-0", "007", "-007/014", "0/5", "+3", " 1", "1 ", "1.5", "1e3",
    "1/0", "1/-2", "--1", "1/", "/2", "", "abc", "1_000", "٣", "0x10",
    LONG, "-" + LONG, "1/" + LONG,
    # JSON numbers, booleans and other values
    3, -2, 0, 10 ** 30, 1.5, 2.0, -0.0, 1e300, True, False, None, [1], {},
    # texts that a reader of all entries joined by "\n" must still refuse
    "2/0", "+1", "1\n2", "\n1", "1\n", "\n",
)


def _documents():
    """(name, text) of documents in both modes: every entry above at two
    places of each base configuration, and malformed documents."""
    out = []
    for geometry, bends in BASES:
        w = apollonian.realize_bends(geometry, bends)
        for mode in (EXACT, FLOAT):
            doc = json.loads(shell.dumps_config(
                w if mode == EXACT else forms.ConfigMatrix.from_rows(
                    geometry, [r.entries for r in w.rows], mode=FLOAT)))
            out.append((f"{geometry}{bends}-{mode}", json.dumps(doc)))
            for i, v in enumerate(ENTRIES):
                for r, c in ((0, 0), (2, 1)):
                    rows = [list(row) for row in doc["rows"]]
                    rows[r][c] = v
                    out.append((f"{geometry}{bends}-{mode}-{i}-{r}{c}",
                                json.dumps({**doc, "rows": rows})))
            # every entry of the document as its float, or as another text
            exact_rows = json.loads(shell.dumps_config(w))["rows"]
            for name, rows in (
                    ("floats", [[float(Fraction(v)) for v in row]
                                for row in exact_rows]),
                    ("texts", exact_rows),
                    ("ints", [[int(Fraction(v)) for v in row]
                              for row in exact_rows]),
                    ("ragged", [row[:-1] for row in exact_rows]),
                    ("short", exact_rows[:-1]),
                    ("flat", [v for row in exact_rows for v in row]),
                    ("nested", [[[v] for v in row] for row in exact_rows]),
                    # the entry texts joined as the whole document's are:
                    # two entries as one, and ragged rows of the same count
                    ("merged", [["\n".join(exact_rows[0][:2])]
                                + exact_rows[0][2:]] + exact_rows[1:]),
                    ("ragged-same-count", exact_rows[:1] + [
                        exact_rows[1][:-1], exact_rows[2] + exact_rows[1][-1:]]
                     + exact_rows[3:]),
                    ("mixed", [[int(v) if "/" not in v and (i + j) % 2 else v
                                for j, v in enumerate(row)]
                               for i, row in enumerate(exact_rows)]),
                    ("empty", [])):
                out.append((f"{geometry}{bends}-{mode}-{name}",
                            json.dumps({**doc, "rows": rows})))
            for field, value in (("n", 3), ("n", "2"), ("mode", "fixed"),
                                 ("geometry", "elliptic"), ("rows", 5)):
                out.append((f"{geometry}{bends}-{mode}-{field}={value}",
                            json.dumps({**doc, field: value})))
            for field in ("geometry", "n", "mode", "rows"):
                out.append((f"{geometry}{bends}-{mode}-no-{field}", json.dumps(
                    {k: v for k, v in doc.items() if k != field})))
    return out + [("array", "[1, 2]"), ("number", "7"), ("text", '"doc"')]


DOCUMENTS = _documents()


def _read(parse, text):
    """What parse makes of text: the values of the entries with their types,
    the verdict and the residual, or the type and message of its error."""
    try:
        doc = parse(text)
    except (ValueError, ArithmeticError) as e:
        return (type(e), str(e))
    # repr: equal reprs mean equal Fractions or bit-equal floats, NaN too
    return (doc.geometry, doc.n, doc.mode,
            [[(type(x), repr(x)) for x in row] for row in doc.rows],
            repr(doc.config), doc.valid, repr(doc.residual))


def test_document_reader_matches_reference():
    accepted = rejected = 0
    for name, text in DOCUMENTS:
        new = _read(shell.parse_document, text)
        assert new == _read(_reference_parse_document, text), name
        if isinstance(new[0], type):
            rejected += 1
        else:
            accepted += 1
            # a Fraction or a float in every entry, never an int
            assert {t for row in new[3] for t, _ in row} <= {Fraction, float}
    assert accepted >= 400 and rejected >= 400, (accepted, rejected)


@pytest.mark.parametrize("geometry, bends", BASES)
def test_canonical_exact_document_needs_no_fraction_parse(geometry, bends,
                                                          monkeypatch):
    """A document as dumps_config writes it is read on the int path alone:
    no entry goes through shell._fraction, that is Fraction(str)."""
    text = shell.dumps_config(apollonian.realize_bends(geometry, bends))
    calls = []
    fraction = shell._fraction

    def counting(v):
        calls.append(v)
        return fraction(v)

    monkeypatch.setattr(shell, "_fraction", counting)
    doc = shell.parse_document(text)
    w = shell.loads_config(text)
    assert calls == []
    assert doc.valid and w == doc.config
    assert _read(shell.parse_document, text) == \
        _read(_reference_parse_document, text)
    # a non-canonical entry still takes the Fraction(str) path
    shell.parse_document(text.replace('"0"', '"+0"', 1))
    assert calls == ["+0"]


@pytest.mark.parametrize("geometry, bends", BASES)
def test_canonical_exact_document_reads_no_entry_alone(geometry, bends,
                                                       monkeypatch):
    """A document, and the seed of a packing stream, as the encoders write
    them are read by one fullmatch of their joined entry texts: no entry
    reaches shell._exact_entry.  One non-canonical entry sends every entry
    of its document through it, as before."""
    w = apollonian.realize_bends(geometry, bends)
    text = shell.dumps_config(w)
    stream = shell.dumps_packing(apollonian.generate(w, 20))
    calls = []
    entry = shell._exact_entry

    def counting(v):
        calls.append(v)
        return entry(v)

    monkeypatch.setattr(shell, "_exact_entry", counting)
    assert shell.parse_document(text).config == w
    assert shell.loads_config(text) == w
    assert shell.loads_packing(stream).seed == w
    assert calls == []
    doc = shell.parse_document(text.replace('"0"', '"+0"', 1))
    assert "+0" in calls and len(calls) == (w.n + 2) ** 2
    assert doc.config == w


def test_scalar_to_json_writes_fractions_as_str_does():
    for x in (Fraction(3, 4), Fraction(-7), Fraction(0), 5, -3,
              Fraction(10 ** 30, 7)):
        assert shell.scalar_to_json(x) == str(Fraction(x))
    assert math.isnan(shell.scalar_to_json(math.nan))
