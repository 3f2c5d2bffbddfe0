"""Command-line interface and JSON serialization.

Configurations travel as single JSON documents; packings as JSON lines with
one header record followed by one row per line, so large generations can be
streamed.  Exact scalars serialize as fraction strings in lowest terms
(integers without the denominator), float scalars as JSON numbers.

A configuration travels as its frame, ConfigMatrix.scaled.  dumps_config
writes a document with one format of its entries, as dumps_packing writes
rows: exact entries as their texts in lowest terms, floats as their repr,
and a float document with a NaN or an infinity by json.  parse_document
(and loads_config on it), and loads_packing for the seed of an exact
header, read the string entries of an exact document with one fullmatch
of _EXACT_SCALAR over their joined text, straight into the int rows of the
frame (_exact_values), once per distinct text; any other exact document
is read entry by entry, through scalar_from_json where an entry is not
written that way, so what it accepts and rejects, and its error, do not
depend on the path.  A float document whose entries are all JSON floats
keeps them as they are, and they are the frame.  Neither reading,
checking nor writing a document builds a CoordRow.

dumps_packing writes a packing stream from Packing.scaled (int rows over
one scale, or float rows, written by repr) with one format of the whole
body.  loads_packing reads the stream whole: one multiline findall of one
regex reads a body of rows written that way, exact entries straight into
ints, float entries, the repr of a finite float, by float(), which reads
number text as json does; any other body, a NaN or an Infinity among
its entries, is read line by line by json and scalar_from_json.  A row's
"bend" must be its bend-column entry: in the regex the entry text must
repeat the bend text, and a line read by json compares the decoded
values.  Malformed input raises ValueError.

The CLI runs as `inversive` or `python -m inversive`.  Exit codes: 0
success, 1 validation failure or malformed input, 2 usage error.
"""

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, itemgetter, mul, not_
from pathlib import Path

from . import apollonian, forms, onedim, svg, transform
from .scalars import (_FLOATS, DEFAULT_TOL, EXACT, FLOAT, ROUNDING,
                      ExactnessError, frame_quotient, integer_rows)


def scalar_to_json(x):
    if isinstance(x, float):
        return x
    # a Fraction is written as it is; an int first becomes one
    return str(x if x.__class__ is Fraction else Fraction(x))


def _fraction(v):
    """Fraction(v), with a zero denominator or a non-number reported as a
    ValueError."""
    try:
        return Fraction(v)
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {v!r}") from None


# the texts float() reads as nan or an infinity, which Fraction() refuses
_non_finite_text = re.compile(r"\s*[+-]?(?:nan|inf|infinity)\s*",
                              re.IGNORECASE).fullmatch


def scalar_from_json(v, mode):
    if isinstance(v, bool):  # an int to Python, but no JSON number
        raise ValueError(f"boolean entry {json.dumps(v)} is not a scalar")
    if mode == EXACT:
        if isinstance(v, float):
            raise ValueError(f"float entry {v!r} in an exact document")
        return _fraction(v)
    if isinstance(v, str) and _non_finite_text(v):
        raise ValueError(f"not a float scalar: {v!r}")
    try:
        return float(_fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, OverflowError):
        raise ValueError(f"not a float scalar: {v!r}") from None


# An exact scalar as the encoder writes it: an integer, or n/d with d > 0.
_EXACT_SCALAR = r"-?[0-9]+(?:/[1-9][0-9]*)?"
_exact_text = re.compile(_EXACT_SCALAR).fullmatch


def _exact_entry(v):
    """An entry of an exact document as _exact_values takes it: a text that
    _EXACT_SCALAR fullmatches as it is, and any other entry as the text of
    the Fraction of scalar_from_json, so that it is accepted or rejected,
    with the same error, as there."""
    if v.__class__ is str and _exact_text(v):
        return v
    return str(scalar_from_json(v, EXACT))


# the string entries of an exact document joined by "\n", each written as
# the encoder writes it; a "\n" within an entry shows in the count of them
_exact_joined = re.compile(r"%s(?:\n%s)*" % (_EXACT_SCALAR,
                                               _EXACT_SCALAR)).fullmatch


def _scaled_entries(rows, mode):
    """The frame (scalars.scaled_rows) of the JSON rows of a document or of
    a packing header's seed.  An exact document whose entries are all texts
    as the encoder writes them is checked by one fullmatch of the texts
    joined; any other exact document is read by _exact_entry per entry;
    then _exact_values reads the texts.  Float entries that are all JSON
    floats are kept as they are, any others go through scalar_from_json."""
    flat = list(itertools.chain.from_iterable(rows))
    if mode == EXACT:
        try:
            joined = "\n".join(flat)
        except TypeError:  # an entry that is no string
            joined = ""
        if joined.count("\n") != len(flat) - 1 or not _exact_joined(joined):
            rows = [tuple(map(_exact_entry, row)) for row in rows]
            flat = itertools.chain.from_iterable(rows)
        ints, scale = _exact_values(flat)
        return tuple([tuple(map(ints.__getitem__, row)) for row in rows]), scale
    if _FLOATS.issuperset(map(type, flat)):
        return tuple(map(tuple, rows)), 1.0
    return tuple([tuple([scalar_from_json(v, FLOAT) for v in row])
                  for row in rows]), 1.0


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed configuration document plus its Gram-identity verdict; its
    rows are the entry rows of its configuration, read from it."""

    geometry: str
    n: int
    mode: str
    config: forms.ConfigMatrix
    valid: bool
    residual: forms.Residual

    @property
    def rows(self):
        return self.config.matrix()


def _is_float(scale):
    """Whether a frame's scale is a float frame's: the scale's type tells
    the modes apart, as 1.0 == 1 too."""
    return scale.__class__ is float


def document_from_config(w):
    """The configuration document of w as a JSON value, its rows written
    from ConfigMatrix.scaled: floats as they are, an exact x / scale as its
    text in lowest terms, as dumps_packing writes it."""
    rows, scale = w.scaled
    if _is_float(scale):
        rows = [list(row) for row in rows]
    else:
        text = _ratio_texts(scale)
        rows = [list(map(text, row)) for row in rows]
    return {"geometry": w.geometry, "n": w.n, "mode": w.mode, "rows": rows}


def dumps_config(w):
    """The configuration document of w as json.dumps writes
    document_from_config(w) with compact separators, and a newline: one
    format of the entries of ConfigMatrix.scaled, an exact x / scale as
    the int x at scale 1, else the text of _ratio_texts, and a float as its
    repr; a float document with a NaN or an infinity is written by json."""
    rows, scale = w.scaled
    flat = list(itertools.chain.from_iterable(rows))
    if _is_float(scale):
        if not all(map(math.isfinite, flat)):
            return json.dumps(document_from_config(w), separators=(",", ":")) + "\n"
        field = "%r"
    elif scale == 1:
        field = '"%d"'
    else:
        field, flat = '"%s"', list(map(_ratio_texts(scale), flat))
    row = "[%s]" % ",".join([field] * len(rows[0]))
    return ('{"geometry":"%s","n":%d,"mode":"%s","rows":['
            + ",".join([row] * len(rows)) + "]}\n") % (
                w.geometry, w.n, w.mode, *flat)


def _is_rows(v):
    """Whether a JSON value is a list of lists."""
    return isinstance(v, list) and all(isinstance(row, list) for row in v)


def parse_document(text, tol=DEFAULT_TOL):
    """Parse a configuration document; the valid flag records whether the
    Gram identity holds at the given tolerance.

    Fields other than geometry, n, mode and rows are ignored.  A mode other
    than "exact" or "float", an n that is not an int or not the dimension
    of the rows, and rows not a list of lists of scalars raise ValueError.
    The rows are read into the configuration's frame by _scaled_entries,
    and no CoordRow is built.
    """
    raw = json.loads(text)
    if not (isinstance(raw, dict) and _is_rows(raw.get("rows", []))):
        raise ValueError("configuration document is not an object with "
                         "rows of scalars")
    try:
        geometry, n, mode = raw["geometry"], raw["n"], raw["mode"]
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown configuration mode {mode!r}")
        if type(n) is not int:
            raise ValueError(f"configuration dimension n = {n!r} is not an "
                             "integer")
        scaled = _scaled_entries(raw["rows"], mode)
    except KeyError as e:
        raise ValueError(f"configuration document is missing field {e}")
    w = forms.ConfigMatrix(geometry, scaled)
    if w.n != n:
        raise ValueError(f"declared n = {n} but rows have n = {w.n}")
    residual = w.residual(tol)
    return ConfigDocument(geometry, w.n, mode, w, residual.ok, residual)


def loads_config(text, tol=DEFAULT_TOL):
    """The configuration of a document whose Gram identity holds at the
    given tolerance, else ValueError; parse_document(text).config reads one
    that fails it."""
    doc = parse_document(text, tol=tol)
    if not doc.valid:
        raise ValueError(
            "configuration fails its Gram identity "
            f"(max residual {float(doc.residual.max_abs_entry_error):.3g})"
        )
    return doc.config


def _ratio_texts(scale):
    """x -> the text of x / scale in lowest terms, as str() of its Fraction,
    for ints x; each distinct x is reduced by a gcd once."""
    memo = {}

    def text(x):
        t = memo.get(x)
        if t is None:
            g = math.gcd(x, scale)
            t = memo[x] = (f"{x // g}" if g == scale
                           else f"{x // g}/{scale // g}")
        return t

    return text


def dumps_packing(p):
    """The packing stream of p: the header record, then one {"bend", "row"}
    record per row, each line ending in a newline.

    The body is one format of all its lines, on the entries of
    Packing.scaled with each row's bend put before it by slice assignment.
    An exact x / scale is the int x at scale 1, else the text of
    _ratio_texts; a float is its repr, or json's text in a body with a
    NaN, an Infinity or a -0.0; each text made once per distinct x."""
    head = {
        "kind": "packing",
        "geometry": p.geometry,
        "n": p.n,
        "mode": p.seed.mode,
        "bound": scalar_to_json(p.bound),
        "explored": p.explored,
        "depth": p.depth,
        "truncated": p.truncated,
        "seed": document_from_config(p.seed)["rows"],
    }
    rows, scale = p.scaled
    width = p.n + 2
    flat = list(itertools.chain.from_iterable(rows))
    is_float = _is_float(scale)
    if not is_float and scale == 1:
        field = '"%d"'
    else:  # each distinct x written once, then looked up per entry
        field, xs = ("%s" if is_float else '"%s"'), set(flat)
        texts = dict(zip(xs, map(repr if is_float else _ratio_texts(scale), xs)))
        # json's NaN and Infinity per entry, and -0.0, one key with 0.0
        per_entry = is_float and not (all(map(math.isfinite, xs)) and (
            0.0 not in xs or "-0.0" not in map(repr, filter(not_, flat))))
        flat = list(map(json.dumps if per_entry else texts.__getitem__, flat))
    values = [None] * (len(flat) + len(rows))
    values[::width + 1] = flat[forms.bend_column(p.geometry)::width]
    for j in range(width):
        values[j + 1::width + 1] = flat[j::width]
    line = '{"bend":%s,"row":[%s]}\n' % (field, ",".join([field] * width))
    return (json.dumps(head, separators=(",", ":")) + "\n"
            + (line * len(rows)) % tuple(values))


# A float as the encoder writes it, the repr of a finite float: JSON number
# text with a fraction or an exponent, so that json reads it as a float too.
_FLOAT_SCALAR = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)"


def _row_pattern(width, bend_col, mode):
    """The regex of a row line as dumps_packing writes it, for rows of the
    given width and mode, anchored at line ends (MULTILINE), with the text
    of the bend and then of each entry as a group.  The entry in column
    bend_col must repeat the bend text (a backreference), so a line whose
    bend is not its row's, or is written otherwise, such as "2/4" for "1/2"
    or 2.00 for 2.0, does not match."""
    quote, scalar = ('"', _EXACT_SCALAR) if mode == EXACT else ("", _FLOAT_SCALAR)
    entry = f"{quote}({scalar}){quote}"
    entries = [entry] * width
    entries[bend_col] = rf"{quote}(\1){quote}"
    return re.compile(r'^\{"bend":%s,"row":\[%s\]\}$' % (
        entry, ",".join(entries)), re.MULTILINE)


def _body_entries(pattern, body, width):
    """The entry texts of the rows of a stream body, row after row in one
    list, when one findall of the row pattern matches every line of the
    body, else None (the json path)."""
    found = pattern.findall(body)
    # a body that does not end in "\n" has one line more than line breaks
    if len(found) != body.count("\n") + (body[-1:] not in ("", "\n")):
        return None
    entries = list(itertools.chain.from_iterable(found))
    del entries[::width + 1]  # each row's bend, which its column repeats
    return entries


def _exact_values(texts):
    """({text: int}, scale) for exact entry texts that _EXACT_SCALAR
    fullmatches: each distinct text's value times the scale, the LCM of the
    reduced denominators (scalars.scaled_rows), by C-level maps."""
    distinct = set(texts)
    if "/" not in "".join(distinct):
        return dict(zip(distinct, map(int, distinct))), 1
    # each text as n/d, numerators and denominators taken by one split
    nd = list(map(int, "/".join(
        [t if "/" in t else t + "/1" for t in distinct]).split("/")))
    dens = nd[1::2]
    common = math.lcm(*set(dens))
    ints = list(map(mul, nd[::2], map(floordiv, itertools.repeat(common), dens)))
    # the values over common, in lowest terms over the scale common / g
    g = math.gcd(common, *ints)
    return dict(zip(distinct, map(floordiv, ints, itertools.repeat(g)))), common // g


def loads_packing(source):
    """Packing from a packing stream, given as text or as a text file
    object, which is read whole.

    The packing holds its rows as scaled=(rows, scale), as generate()
    leaves them, and builds its CoordRows when they are read.  The header
    is the first line after any leading white space.  When every line
    after it is a row written as dumps_packing writes it, one findall of
    one anchored regex reads the whole body (_body_entries); otherwise
    each non-blank line is read by json, so that it is accepted or
    rejected as any JSON row record is.  Exact entry texts go
    to ints once per distinct text, over the least common multiple of the
    denominators seen; float entries are read by float(), at scale 1.0.
    The header's n, explored, depth and truncated are checked too, a
    negative bound is rejected, and each row's "bend" must be the entry in
    its bend column.  An exact row whose |bend| is above the bound is
    rejected unless it is a seed row; float rows are not checked against
    the bound, which generate() widens by a tol the header does not record."""
    text = source if isinstance(source, str) else "".join(source)
    first, _, body = text.lstrip().partition("\n")
    if not first:
        raise ValueError("empty packing stream")
    head = json.loads(first)
    if not isinstance(head, dict) or head.get("kind") != "packing":
        raise ValueError("not a packing stream (missing packing header)")
    try:
        geometry, mode, seed_field = head["geometry"], head["mode"], head["seed"]
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown packing mode {mode!r}")
        if not _is_rows(seed_field):
            raise ValueError("packing seed is not a list of rows")
        seed_scaled = _scaled_entries(seed_field, mode)
        bound = scalar_from_json(head["bound"], mode)
        seed = forms.ConfigMatrix(geometry, seed_scaled)
        if bound < 0:  # as generate() rejects it
            raise ValueError(f"packing bound {bound} is negative")
        n, explored, depth, truncated = (
            head[key] for key in ("n", "explored", "depth", "truncated"))
        if not (n == seed.n and type(truncated) is bool and all(
                type(v) is int and v >= 0 for v in (n, explored, depth))):
            raise ValueError(
                f"packing header n, explored, depth, truncated = {n!r}, "
                f"{explored!r}, {depth!r}, {truncated!r}: not the seed's "
                f"n = {seed.n}, two non-negative ints and a boolean")
        width = seed.n + 2
        bend_col = forms.bend_column(geometry)
        entries = _body_entries(_row_pattern(width, bend_col, mode), body, width)
        if entries is None:
            decode = json.JSONDecoder().decode

            def decoded(ln):
                rec = decode(ln)
                row = rec["row"] if isinstance(rec, dict) else None
                if not isinstance(row, list) or len(row) != width:
                    raise ValueError(
                        f"malformed packing row {ln.strip()[:80]!r}")
                row = tuple([scalar_from_json(v, mode) for v in row])
                bend, entry = scalar_from_json(rec["bend"], mode), row[bend_col]
                # the encoder writes a NaN bend column as a NaN bend
                if bend != entry and not (bend != bend and entry != entry):
                    raise ValueError(f"packing row bend {bend} is not the "
                                     f"bend {entry} of its row")
                # as text, as the regex reads it: a Fraction in lowest terms,
                # a float by repr, which float() reads back to the same float
                return map(str, row)

            entries = list(itertools.chain.from_iterable(
                decoded(ln) for ln in body.splitlines() if ln.strip()))
        if mode == EXACT:
            ints, scale = _exact_values(entries)
            rows = tuple(zip(*[map(ints.__getitem__, entries)] * width))
            limit = bound * scale
            if max(map(abs, map(itemgetter(bend_col), rows)), default=0) > limit:
                # generate() keeps the seed's rows at any bound; a row r
                # over scale is a seed row s over seed_scale when
                # r seed_scale = s scale
                seed_rows, seed_scale = seed_scaled
                seeds = {tuple(x * scale for x in row) for row in seed_rows}
                for row in rows:
                    if abs(row[bend_col]) > limit and tuple(
                            x * seed_scale for x in row) not in seeds:
                        raise ValueError(f"packing row bend {Fraction(row[bend_col], scale)}"
                                         f" is outside the bound {bound}")
        else:
            rows, scale = tuple(zip(*[map(float, entries)] * width)), 1.0
        return apollonian.Packing(
            geometry=geometry,
            n=seed.n,
            seed=seed,
            rows=None,
            bound=bound,
            configs=None,
            explored=explored,
            depth=depth,
            truncated=truncated,
            scaled=(rows, scale),
        )
    except KeyError as e:
        raise ValueError(f"packing stream is missing field {e}")


# ---------------------------------------------------------------------------
# bend completion

def _irrational_roots(s1, d, a, s):  # 4 D / s^2 is the discriminant in x
    raise ExactnessError(f"sqrt({Fraction(4 * d, s * s)}) is irrational; "
                         "use float mode")


def _rounded_roots(s1, d, a, s):
    """The roots (s1 -+ sqrt(d)) / (a s) of a d > 0 that is no square, each
    rounded once: sqrt(d) 2^p is in (r, r + 1), r = isqrt(d 4^p), for p = 64,
    128, ... until both ends of each root round alike (an irrational root is
    no tie), and the lower end, whose sign is the root's, is returned."""
    for p in map((64).__lshift__, itertools.count()):  # 64, 128, ...
        r, c, den = math.isqrt(d << 2 * p), s1 << p, a * s << p
        lo, lo_up, hi, hi_up = [x / den for x in (c - r - 1, c - r, c + r,
                                                  c + r + 1)]
        if lo == lo_up and hi == hi_up:
            return lo, hi


# by mode: complete_bend's slack p / q on a D < 0, and its non-square roots
_COMPLETION = {EXACT: ((0, 1), _irrational_roots),
               FLOAT: (ROUNDING.as_integer_ratio(), _rounded_roots)}


def complete_bend(geometry, values):
    """The completions of n+1 bend values to a full Descartes bend vector,
    k the geometry's curvature sign: the roots, ascending, of the quadratic
    (n-1)x^2 - 2*s1*x + (n*s2 - s1^2 + 2*n*k) = 0, or at n = 1, where it is
    linear, its one root (k - ab)/(a + b) (ValueError when a + b = 0).  Both
    modes solve it on the int frame v = s x of the values (forms._bend_mode,
    integer_rows for floats): (S1 -+ sqrt(D)) / ((n-1) s), S1 and S2 the
    sums of v and v^2 and D = S1^2 - (n-1)(n S2 - S1^2 + 2nk s^2), or at
    n = 1 (k s^2 - v0 v1) / (s S1), each a Fraction or rounded once.  An
    irrational exact root raises ExactnessError, a float one past the float
    range ValueError; a float D < 0 within ROUNDING of its terms' size is 0."""
    k = forms._by_geometry(forms.CURVATURE_SIGN, geometry)
    n = len(values) - 1
    if n < 1:
        raise ValueError("bend completion needs at least two values")
    values, mode, frame = forms._bend_mode(values)
    quotient, ((p, q), irrational) = frame_quotient(mode), _COMPLETION[mode]
    a = n - 1
    try:
        (v,), s = frame or integer_rows((values,))
        s1, ks = sum(v), k * s * s
        if not a:
            if not s1:
                raise ValueError("degenerate pair, curvatures cancel")
            num = ks - v[0] * v[1]
            # a zero root keeps the sign that -(xy - k) / (x + y) gives it
            return (quotient(num, s * s1) if num else
                    quotient(-(math.prod(values) - k), sum(values)),)
        s2 = sum(map(mul, v, v))
        d = s1 * s1 - a * (n * s2 - s1 * s1 + 2 * n * ks)
        if d < 0 and -d * q > p * n * (s1 * s1 + a * (s2 + 2 * abs(ks))):
            raise ValueError("the given bends admit no real completion")
        root = math.isqrt(max(d, 0))
        if root * root < d:  # d is no square
            return irrational(s1, d, a, s)
        return quotient(s1 - root, a * s), quotient(s1 + root, a * s)
    except OverflowError:  # an infinite value, or a root past the range
        raise ValueError("a completion of these bends is beyond the float "
                         "range") from None


# ---------------------------------------------------------------------------
# CLI

def _io_args(sp, infile=True):
    if infile:
        sp.add_argument("--in", dest="infile", metavar="FILE",
                        help="input path ('-' or omitted reads stdin)")
    sp.add_argument("--out", metavar="FILE", help="output path (default stdout)")


def _seed_args(sp):
    sp.add_argument("--geometry", choices=forms.GEOMETRIES)
    sp.add_argument("--seed", metavar="BENDS",
                    help="comma-separated bend values, e.g. '-1,2,2,3'")
    sp.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)


_TOL = dict(type=float, default=DEFAULT_TOL, help=(
    "float slack of the Gram check; a float matrix within the rounding of "
    "its own terms passes at any TOL, so TOL only widens what is accepted"))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="inversive",
        description="Oriented tangent-sphere configurations and packings "
                    "in Euclidean, spherical, and hyperbolic space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="check a configuration's Gram identity")
    sp.add_argument("--tol", **_TOL)
    _io_args(sp)

    sp = sub.add_parser("solve", help="complete n+1 bends to a full bend vector")
    _seed_args(sp)
    _io_args(sp, infile=False)

    sp = sub.add_parser("gen", help="generate a packing out to a bend bound")
    _seed_args(sp)
    sp.add_argument("--max-bend", required=True, metavar="B",
                    help="keep rows with |bend| up to this value")
    sp.add_argument("--max-depth", type=int, default=None)
    sp.add_argument("--max-configs", type=int, default=None)
    sp.add_argument("--tol", **_TOL)
    _io_args(sp)

    sp = sub.add_parser("convert", help="convert a configuration between geometries")
    sp.add_argument("--to", required=True, dest="target",
                    choices=forms.GEOMETRIES)
    sp.add_argument("--tol", **_TOL)
    _io_args(sp)

    sp = sub.add_parser("lox", help="loxodromic bend sequence by repeated "
                                    "reflection of the largest sphere")
    _seed_args(sp)
    sp.add_argument("--steps", type=int, required=True,
                    help="number of bends to append after the seed")
    sp.add_argument("--tol", **_TOL)
    _io_args(sp)

    sp = sub.add_parser("render", help="render a packing to SVG")
    _seed_args(sp)
    sp.add_argument("--max-bend", metavar="B",
                    help="generate to this bound when no --in stream is given")
    sp.add_argument("--max-depth", type=int, default=None)
    sp.add_argument("--max-configs", type=int, default=None)
    sp.add_argument("--tol", **_TOL)
    sp.add_argument("--width", type=int, default=800)
    sp.add_argument("--height", type=int, default=800)
    sp.add_argument("--cutoff", type=float, default=1.0 / 400.0)
    sp.add_argument("--labels", choices=("bend", "none"), default="bend")
    sp.add_argument("--stroke-width", type=float, default=1.0)
    sp.add_argument("--projection",
                    choices=(svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC),
                    default=svg.ORTHOGRAPHIC)
    _io_args(sp)

    sp = sub.add_parser("onedim", help="touching intervals on the line")
    sp.add_argument("--intervals", metavar="A,B,C,D",
                    help="endpoints of two touching intervals (B = C)")
    sp.add_argument("--curvatures", metavar="K2,K3",
                    help="two curvatures; solves for the third")
    sp.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    _io_args(sp, infile=False)

    return parser


def _read_in(args):
    """The input text: --in FILE, else stdin ('-' or none)."""
    if getattr(args, "infile", None) in (None, "-"):
        return sys.stdin.read()
    with open(args.infile) as f:
        return f.read()


def _write_text(args, text):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _write_bytes(args, data):
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def _parse_scalars(text, mode):
    """The scalars of a comma list; an empty value, as in "1,,2" or a
    trailing comma, is an error that names its 1-based position."""
    tokens = [t.strip() for t in text.split(",")]
    for position, token in enumerate(tokens, 1):
        if not token:
            raise ValueError(f"empty value at position {position} of the "
                             f"list {text!r}")
    return tuple(scalar_from_json(t, mode) for t in tokens)


def _seed_config(args, tol):
    """Seed for gen/lox/render: an --in document wins, else bends are
    realized in the requested geometry."""
    if getattr(args, "infile", None):
        return loads_config(_read_in(args), tol=tol)
    if args.geometry and args.seed:
        bends = _parse_scalars(args.seed, args.mode)
        return apollonian.realize_bends(args.geometry, bends)
    raise ValueError("need either --in or both --geometry and --seed")


def _cmd_verify(args):
    doc = parse_document(_read_in(args), tol=args.tol)
    report = {
        "geometry": doc.geometry,
        "n": doc.n,
        "mode": doc.mode,
        "valid": doc.valid,
        "max_residual": float(doc.residual.max_abs_entry_error),
    }
    _write_text(args, json.dumps(report) + "\n")
    return 0 if doc.valid else 1


def _cmd_solve(args):
    if not (args.geometry and args.seed):
        raise ValueError("solve needs --geometry and --seed")
    values = _parse_scalars(args.seed, args.mode)
    roots = complete_bend(args.geometry, values)
    documents = []
    for r in roots:
        try:
            w = apollonian.realize_bends(args.geometry, values + (r,))
            if not w.residual().ok:  # as verify reads the document
                raise ValueError("its realization fails its Gram identity")
            documents.append(document_from_config(w))
        except ValueError as e:  # a completion that is not realized here
            print(f"no configuration for the completion {r}: {e}",
                  file=sys.stderr)
            documents.append(None)
    out = {
        "geometry": args.geometry,
        "n": len(values) - 1,
        "mode": args.mode,
        "bends": [scalar_to_json(v) for v in values],
        "completions": [scalar_to_json(r) for r in roots],
        "configurations": documents,
    }
    _write_text(args, json.dumps(out) + "\n")
    return 0


def _generate(args):
    seed = _seed_config(args, args.tol)
    if args.max_bend is None:
        raise ValueError("need --max-bend")
    bound = scalar_from_json(args.max_bend, seed.mode)
    return apollonian.generate(
        seed,
        bound,
        max_depth=args.max_depth,
        max_configs=args.max_configs,
        tol=args.tol,
    )


def _cmd_gen(args):
    _write_text(args, dumps_packing(_generate(args)))
    return 0


def _cmd_convert(args):
    w = loads_config(_read_in(args), tol=args.tol)
    _write_text(args, dumps_config(transform.convert_matrix(w, args.target, tol=args.tol)))
    return 0


def _cmd_lox(args):
    seed = _seed_config(args, args.tol)
    seq = apollonian.loxodromic(seed, args.steps, tol=args.tol)
    out = {
        "geometry": seq.geometry,
        "n": seed.n,
        "mode": seed.mode,
        "bends": [scalar_to_json(b) for b in seq.bends],
    }
    _write_text(args, json.dumps(out) + "\n")
    return 0


def _cmd_render(args):
    if getattr(args, "infile", None):
        text = _read_in(args)
        # the first non-blank line tells a packing stream from a document
        if '"kind"' in text.lstrip()[:200].partition("\n")[0]:
            packing = loads_packing(text)
        else:
            packing = loads_config(text, tol=args.tol)
    else:
        packing = _generate(args)
    options = svg.RenderOptions(
        width=args.width,
        height=args.height,
        cutoff=args.cutoff,
        labels=args.labels,
        stroke_width=args.stroke_width,
        projection=args.projection,
    )
    _write_bytes(args, svg.render(packing, options))
    return 0


def _cmd_onedim(args):
    if args.intervals:
        vals = _parse_scalars(args.intervals, args.mode)
        if len(vals) != 4:
            raise ValueError("--intervals needs exactly four endpoints")
        cfg = onedim.complete_line(
            onedim.OrientedInterval(vals[0], vals[1]),
            onedim.OrientedInterval(vals[2], vals[3]),
        )
        # a configuration document, so that the output pipes into verify,
        # convert and lox (parse_document reads past the other fields); the
        # nested "document" keeps the earlier layout readable
        w = onedim.augmented_1d(cfg)
        document = document_from_config(w)
        out = {
            **document,
            "curvatures": [scalar_to_json(b) for b in w.bends],
            "radii": [scalar_to_json(i.r) for i in cfg.intervals],
            "document": document,
        }
    elif args.curvatures:
        vals = _parse_scalars(args.curvatures, args.mode)
        if len(vals) != 2:
            raise ValueError("--curvatures needs exactly two values")
        third = complete_bend(forms.EUCLIDEAN, vals)
        out = {"curvatures": [scalar_to_json(v) for v in vals + third]}
    else:
        raise ValueError("onedim needs --intervals or --curvatures")
    _write_text(args, json.dumps(out) + "\n")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "convert": _cmd_convert,
    "lox": _cmd_lox,
    "render": _cmd_render,
    "onedim": _cmd_onedim,
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return e.code if e.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except apollonian.InfiniteClosure as e:  # a usage error, as argparse's
        print(f"error: {e}; pass --max-configs or --max-depth", file=sys.stderr)
        return 2
    except (ValueError, ExactnessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
