"""Command-line interface and JSON serialization.

Configurations travel as single JSON documents; packings as JSON lines with
one header record followed by one row per line, so large generations can be
streamed.  Exact scalars serialize as fraction strings in lowest terms
(integers without the denominator), float scalars as JSON numbers.

parse_document (and loads_config on it) reads an exact entry written that
way, text that _EXACT_SCALAR fullmatches, by int() and the one gcd of
Fraction(int, int), once per distinct text of the document; any other
entry goes through scalar_from_json, so what it accepts and rejects, and
its error, do not depend on the path.  JSON floats in a float document are
kept as they are.

iter_packing_lines yields a packing stream one line at a time, each row
formatted by one format from Packing.scaled (int rows over one scale, or
float rows, written by repr); `gen` writes the lines as they come.
loads_packing takes the stream as text or as a text file object and reads
it line by line.  Rows written as iter_packing_lines writes them are
parsed by one regex: exact entries straight into ints, float entries, the
repr of a finite float, by float(), which reads number text as json does.
Any other line, a NaN or an Infinity among them, goes through the json
decoder and scalar_from_json.  A row's "bend" must be its bend-column
entry: on the regex path the entry text must repeat the bend text, and
any other line compares the decoded values.  Malformed input raises
ValueError.

The CLI runs as `inversive` or `python -m inversive`.  Exit codes: 0
success, 1 validation failure or malformed input, 2 usage error.
"""

import argparse
import contextlib
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from . import apollonian, forms, onedim, svg, transform
from .scalars import DEFAULT_TOL, EXACT, FLOAT, ExactnessError, sqrt_scalar


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


def scalar_from_json(v, mode):
    if isinstance(v, bool):  # an int to Python, but no JSON number
        raise ValueError(f"boolean entry {json.dumps(v)} is not a scalar")
    if mode == EXACT:
        if isinstance(v, float):
            raise ValueError(f"float entry {v!r} in an exact document")
        return _fraction(v)
    try:
        return float(_fraction(v)) if isinstance(v, str) else float(v)
    except (TypeError, OverflowError):
        raise ValueError(f"not a float scalar: {v!r}") from None


# An exact scalar as the encoder writes it: an integer, or n/d with d > 0.
_EXACT_SCALAR = r"-?[0-9]+(?:/[1-9][0-9]*)?"
_exact_text = re.compile(_EXACT_SCALAR).fullmatch


def _exact_entry_reader():
    """A reader of the entries of one exact document: a text that
    _EXACT_SCALAR fullmatches is read by int() and the one gcd of
    Fraction(int, int) into one Fraction per distinct text; any other entry
    goes through scalar_from_json, so it is accepted or rejected, with the
    same error, as there."""
    fractions = {}

    def entry(v):
        if v.__class__ is str:
            x = fractions.get(v)
            if x is not None:
                return x
            if _exact_text(v):
                a, _, b = v.partition("/")
                x = Fraction(int(a), int(b)) if b else Fraction(int(a))
                fractions[v] = x
                return x
        return scalar_from_json(v, EXACT)

    return entry


def _float_from_json(v):
    return v if v.__class__ is float else scalar_from_json(v, FLOAT)


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed configuration document plus its Gram-identity verdict."""

    geometry: str
    n: int
    mode: str
    rows: tuple
    config: forms.ConfigMatrix
    valid: bool
    residual: forms.Residual


def document_from_config(w):
    return {
        "geometry": w.geometry,
        "n": w.n,
        "mode": w.mode,
        "rows": [[scalar_to_json(x) for x in r.entries] for r in w.rows],
    }


def dumps_config(w):
    return json.dumps(document_from_config(w), separators=(",", ":")) + "\n"


def _is_rows(v):
    """Whether a JSON value is a list of lists."""
    return isinstance(v, list) and all(isinstance(row, list) for row in v)


def parse_document(text, tol=DEFAULT_TOL):
    """Parse a configuration document; the valid flag records whether the
    Gram identity holds at the given tolerance.

    Fields other than geometry, n, mode and rows are ignored.  A mode other
    than "exact" or "float", an n that is not an int or not the dimension
    of the rows, and rows not a list of lists of scalars raise ValueError.
    Exact entries are read by _exact_entry_reader, float entries that are
    JSON floats are kept as they are, and any other entry goes through
    scalar_from_json.
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
        scalar = _exact_entry_reader() if mode == EXACT else _float_from_json
        rows = [tuple(map(scalar, row)) for row in raw["rows"]]
    except KeyError as e:
        raise ValueError(f"configuration document is missing field {e}")
    w = forms.ConfigMatrix.from_rows(geometry, rows, mode=mode)
    if w.n != n:
        raise ValueError(f"declared n = {n} but rows have n = {w.n}")
    residual = w.residual(tol)
    return ConfigDocument(
        geometry, w.n, mode, tuple(rows), w, residual.ok, residual
    )


def loads_config(text, strict=True, tol=DEFAULT_TOL):
    doc = parse_document(text, tol=tol)
    if strict and not doc.valid:
        raise ValueError(
            "configuration fails its Gram identity "
            f"(max residual {float(doc.residual.max_abs_entry_error):.3g})"
        )
    return doc.config


def _json_float(x):
    """One float as JSON text, as json.dumps(scalar_to_json(x)) writes it."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _ratio_texts(scale):
    """x -> the JSON text of x / scale in lowest terms, for ints x; each
    distinct x is reduced by a gcd once."""
    memo = {}

    def text(x):
        t = memo.get(x)
        if t is None:
            g = math.gcd(x, scale)
            t = memo[x] = (f'"{x // g}"' if g == scale
                           else f'"{x // g}/{scale // g}"')
        return t

    return text


def iter_packing_lines(p):
    """The packing stream of p line by line: the header record, then one
    {"bend", "row"} record per row, each line ending in a newline.

    The rows are written from Packing.scaled, each by one format.  A float
    is written by repr, a NaN or an Infinity as json writes it; finite
    float rows and int rows at scale 1 go to the format as they are.  An
    exact x / scale is the int itself at scale 1, and is otherwise reduced
    by a gcd, once per distinct x."""
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
    yield json.dumps(head, separators=(",", ":")) + "\n"
    rows, scale = p.scaled
    # the scale's type tells the modes apart, as 1.0 == 1 too
    is_float = scale.__class__ is float
    if is_float and all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        field = "%r"
    elif not is_float and scale == 1:
        field = '"%d"'
    else:
        field = "%s"
        text = _json_float if is_float else _ratio_texts(scale)
        rows = (list(map(text, row)) for row in rows)
    line = '{"bend":%s,"row":[%s]}\n' % (field, ",".join([field] * (p.n + 2)))
    for row in rows:
        yield line % (row[bend_col], *row)


def dumps_packing(p):
    return "".join(iter_packing_lines(p))


# A float as the encoder writes it, the repr of a finite float: JSON number
# text with a fraction or an exponent, so that json reads it as a float too.
_FLOAT_SCALAR = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)"


def _row_match(width, bend_col, scalar, quote=""):
    """fullmatch of a row line of a stream exactly as iter_packing_lines
    writes it, for rows of the given width whose entries are scalar texts
    between quotes, with the text of the bend and then of each entry as a
    group.  The entry in column bend_col must repeat the bend text (a
    backreference), so a line whose bend is not its row's, or is written
    otherwise, such as "2/4" for "1/2" or 2.00 for 2.0, does not match."""
    entry = f"{quote}({scalar}){quote}"
    entries = [entry] * width
    entries[bend_col] = rf"{quote}(\1){quote}"
    return re.compile(r'\{"bend":%s,"row":\[%s\]\}\n?' % (
        entry, ",".join(entries))).fullmatch


def _ratio(v):
    """(numerator, denominator) in lowest terms of an entry text that
    _EXACT_SCALAR matches, or of a Fraction."""
    if v.__class__ is not str:
        return v.as_integer_ratio()
    a, _, b = v.partition("/")
    if not b:
        return int(a), 1
    a, b = int(a), int(b)
    g = math.gcd(a, b)
    return a // g, b // g


def _exact_rows(row_texts):
    """(int rows, scale) from the entries of exact rows, given as entry
    texts or Fractions: the rows times the least common multiple scale of
    their denominators, the frame of scalars.scaled_rows.  Each distinct
    entry is converted once."""
    ratios = {v: _ratio(v) for v in set(itertools.chain.from_iterable(row_texts))}
    scale = math.lcm(*[d for _, d in ratios.values()])
    ints = {v: a * (scale // d) for v, (a, d) in ratios.items()}.__getitem__
    return tuple([tuple(map(ints, row)) for row in row_texts]), scale


def loads_packing(source):
    """Packing from a packing stream, given as text or as a text file
    object (any iterable of lines), which is read line by line.

    The packing holds its rows as scaled=(rows, scale), as generate()
    leaves them, and builds its CoordRows when they are read.  A row line
    written exactly as iter_packing_lines writes it is matched by one
    anchored regex.  In an exact stream its entries go straight to ints,
    and the rows are returned over the least common multiple of the
    denominators seen; in a float stream each entry is read by float(), and
    the rows are float tuples at scale 1.0.  Any other line is decoded by
    json, so it is accepted or rejected as any JSON row record is.
    The header's n, explored, depth and truncated are checked too, a
    negative bound is rejected, and each row's "bend" must be the entry in
    its bend column.  An exact row whose |bend| is above the bound is
    rejected unless it is a seed row; float rows are not checked against
    the bound, which generate() widens by a tol the header does not record."""
    lines = source.splitlines() if isinstance(source, str) else source
    lines = (ln for ln in lines if ln.strip())
    first = next(lines, None)
    if first is None:
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
        seed_rows = [
            tuple(scalar_from_json(v, mode) for v in row) for row in seed_field
        ]
        bound = scalar_from_json(head["bound"], mode)
        seed = forms.ConfigMatrix.from_rows(geometry, seed_rows, mode=mode)
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
        decode = json.JSONDecoder().decode
        width = seed.n + 2
        bend_col = forms.bend_column(geometry)

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

        # group 1 is the bend; a line the regex does not match, its bend
        # among them, is checked on the json path
        if mode == EXACT:
            match = _row_match(width, bend_col, _EXACT_SCALAR, '"')
            scaled = _exact_rows([
                m.groups()[1:] if (m := match(ln))
                else decoded(ln, lambda v: scalar_from_json(v, EXACT))
                for ln in lines])
            rows, scale = scaled
            limit = bound * scale
            if max(map(abs, map(itemgetter(bend_col), rows)), default=0) > limit:
                # generate() keeps the seed's rows at any bound
                seeds = {tuple(x * scale for x in row) for row in seed_rows}
                for row in rows:
                    if abs(row[bend_col]) > limit and row not in seeds:
                        raise ValueError(f"packing row bend {Fraction(row[bend_col], scale)}"
                                         f" is outside the bound {bound}")
        else:
            # float() reads number text as json does
            match = _row_match(width, bend_col, _FLOAT_SCALAR)
            scaled = tuple([
                tuple(map(float, m.groups()[1:])) if (m := match(ln))
                else decoded(ln, _float_from_json)
                for ln in lines]), 1.0
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
            scaled=scaled,
        )
    except KeyError as e:
        raise ValueError(f"packing stream is missing field {e}")


# ---------------------------------------------------------------------------
# bend completion

def complete_bend(geometry, values):
    """Both completions of n+1 bend values to a full Descartes bend vector,
    from the quadratic (n-1)x^2 - 2*s1*x + (n*s2 - s1^2 + 2*n*k) = 0 with
    k the geometry's curvature sign; ascending order."""
    k = forms._by_geometry(forms.CURVATURE_SIGN, geometry)
    n = len(values) - 1
    if n < 2:
        raise ValueError("bend completion needs at least three values")
    s1 = sum(values)
    s2 = sum(v * v for v in values)
    a = n - 1
    b = -2 * s1
    c = n * s2 - s1 * s1 + 2 * n * k
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("the given bends admit no real completion")
    root = sqrt_scalar(disc)
    lo = (-b - root) / (2 * a)
    hi = (-b + root) / (2 * a)
    return (lo, hi)


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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="inversive",
        description="Oriented tangent-sphere configurations and packings "
                    "in Euclidean, spherical, and hyperbolic space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="check a configuration's Gram identity")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _io_args(sp)

    sp = sub.add_parser("convert", help="convert a configuration between geometries")
    sp.add_argument("--to", required=True, dest="target",
                    choices=forms.GEOMETRIES)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _io_args(sp)

    sp = sub.add_parser("lox", help="loxodromic bend sequence by repeated "
                                    "reflection of the largest sphere")
    _seed_args(sp)
    sp.add_argument("--steps", type=int, required=True,
                    help="number of bends to append after the seed")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _io_args(sp)

    sp = sub.add_parser("render", help="render a packing to SVG")
    _seed_args(sp)
    sp.add_argument("--max-bend", metavar="B",
                    help="generate to this bound when no --in stream is given")
    sp.add_argument("--max-depth", type=int, default=None)
    sp.add_argument("--max-configs", type=int, default=None)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
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


def _open_in(args):
    """The input as a text file object: --in FILE, else stdin ('-' or none)."""
    if getattr(args, "infile", None) in (None, "-"):
        return contextlib.nullcontext(sys.stdin)
    return open(args.infile)


def _read_in(args):
    with _open_in(args) as f:
        return f.read()


def _write_lines(args, lines):
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _write_text(args, text):
    _write_lines(args, (text,))


def _write_bytes(args, data):
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def _parse_scalars(text, mode):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty value list")
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


def _parse_bound(text, mode):
    return scalar_from_json(text, mode)


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
            documents.append(document_from_config(w))
        except (ValueError, ExactnessError):
            documents.append(None)  # completion exists but is not realized here
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
    bound = _parse_bound(args.max_bend, seed.mode)
    return apollonian.generate(
        seed,
        bound,
        max_depth=args.max_depth,
        max_configs=args.max_configs,
        tol=args.tol,
    )


def _cmd_gen(args):
    _write_lines(args, iter_packing_lines(_generate(args)))
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
        with _open_in(args) as f:
            # the first non-blank line tells a packing stream from a document
            first = next((ln for ln in f if ln.strip()), "")
            if '"kind"' in first.lstrip()[:200]:
                packing = loads_packing(itertools.chain((first,), f))
            else:
                packing = loads_config(first + f.read(), tol=args.tol)
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
        document = document_from_config(onedim.augmented_1d(cfg))
        out = {
            **document,
            "curvatures": [scalar_to_json(i.curvature) for i in cfg.intervals],
            "radii": [scalar_to_json(i.r) for i in cfg.intervals],
            "document": document,
        }
    elif args.curvatures:
        vals = _parse_scalars(args.curvatures, args.mode)
        if len(vals) != 2:
            raise ValueError("--curvatures needs exactly two values")
        third = onedim.solve_third_curvature(*vals)
        out = {"curvatures": [scalar_to_json(v) for v in (*vals, third)]}
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
