"""Quadratic-form layer shared by all three geometries.

An oriented sphere system in n-space is encoded as a matrix whose rows are
coordinate vectors of the member spheres.  Each geometry fixes one target
Gram matrix; a row matrix W describes a valid mutually tangent configuration
exactly when W^T Q_n W equals that target, where Q_n is the Descartes form

    Q_n = I - (1/n) * ones * ones^T

on n+2 coordinates.  Everything here is generic over exact and float entries.

The targets differ only in a 2x2 head T on the first two coordinates (the
rest is 2I), so one table keyed by the geometry tags holds what sets a
geometry apart: its bend column c, T, the head of the map carrying its
rows to Euclidean rows, and for the spherical and hyperbolic geometries the
integral base configuration that their plane bends are realized from (the
float bases of other dimensions are written in closed form, _base).
bend_column, CURVATURE_SIGN (k = -T[c][c]/2), target_for, pair_product
(2 T^{-1} on the head), transform and the realizer read it.

check_identity compares W^T Q W with any target in one verdict: exact
products must equal it, float ones be within tol of it or else, at any
scale, within the rounding of their own terms there and in the transposed
identity W T^{-1} W^T = Q^{-1}.  ConfigMatrix.residual runs it against the
configuration's own form and target, once per configuration and tolerance.

Matrices are tuples of row tuples.  The Gram products, the base reflection
and the tangency values of the tail search run on rows in the frame of
scalars.scaled_rows: on integers in exact mode, so with V = sW the rows
scaled by the LCM s of their denominators and sigma the column sums of V,
n s^2 W^T Q_n W = n V^T V - sigma sigma^T, and one quotient by the scale
turns a result back into an entry: that int matrix is symmetric and
compared with the int target, where float products keep the left-to-right
fold of scalars._sum.  Both Descartes Grams and the step that compares
them with the target run on kernels that linalg generates once per row
width (_exact_gram, _float_gram), with no call per entry, and so does the
reflection of the base configuration that curved bends are realized from
(_base_reflection, in _reflected_base).  The bend check and the realizers
work on the int frame of the bends, framed once (_bend_values).  A
ConfigMatrix is built from that frame alone, its scaled field, as an
apollonian.Packing holds one: the realizers, conversions, Moebius moves,
reflections, walks, the document reader and from_rows hand it over, and
its CoordRows are built only when rows is read.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import frexp, isfinite, isqrt, lcm, ldexp, sqrt
from operator import add, mul

from . import linalg
from .scalars import (DEFAULT_TOL, EXACT, FLOAT, ROUNDING, ExactnessError,
                      _sum, all_exact, coerce, coerce_row, frame_quotient,
                      integer_rows, mode_frame, mode_of, near, negligible,
                      scaled_rows, unscaled_rows)

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

_Geometry = namedtuple("_Geometry",
                       "bend_column target_head to_euclidean base")
_GEOMETRY = {
    EUCLIDEAN: _Geometry(1, ((0, -4), (-4, 0)), ((1, 0), (0, 1)), None),
    # the bases: the rows of cot values (0, 1, 1, 2) and coth values
    # (-2, 3, 5, 6)
    SPHERICAL: _Geometry(0, ((-2, 0), (0, 2)), ((1, 1), (-1, 1)),
                         ((0, 1, 0, 0), (1, -1, 1, 0), (1, -1, -1, 0),
                          (2, -1, 0, 2))),
    HYPERBOLIC: _Geometry(0, ((2, 0), (0, -2)), ((-1, 1), (1, 1)),
                          ((-2, -2, 1, 0), (3, 3, -1, 0), (5, 7, -5, 0),
                           (6, 8, -5, 2))),
}
GEOMETRIES = tuple(_GEOMETRY)

# k of the Descartes relation sum b^2 - (sum b)^2 / n + 2k = 0 (LMW)
CURVATURE_SIGN = {tag: -g.target_head[g.bend_column][g.bend_column] // 2
                  for tag, g in _GEOMETRY.items()}

_ZERO = Fraction(0)
# (p, q) by mode: the isotropy test of _reflected_base forgives a v_0 up
# to p / q of the size of its terms, ROUNDING for float values and nothing
# for exact ones
_ISOTROPY_SLACK = {EXACT: (0, 1), FLOAT: ROUNDING.as_integer_ratio()}
_INTS = frozenset((int,))


def _by_geometry(table, geometry):
    """table[geometry], or the ValueError of an unknown geometry."""
    try:
        return table[geometry]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValueError(f"unknown geometry {geometry!r}") from None


def bend_column(geometry):
    """Column of the bend: 1 in Euclidean rows, 0 in cot and coth rows."""
    return _by_geometry(_GEOMETRY, geometry).bend_column


@dataclass(frozen=True)
class CoordRow:
    """One sphere's coordinate vector, tagged by geometry."""

    kind: str
    entries: tuple

    def __post_init__(self):
        _by_geometry(_GEOMETRY, self.kind)  # or raise
        if len(self.entries) < 3:
            raise ValueError("a coordinate row needs at least 3 entries")
        if self.entries.__class__ is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def n(self):
        return len(self.entries) - 2

    @property
    def bend(self):
        return self.entries[bend_column(self.kind)]


@dataclass(frozen=True)
class ConfigMatrix:
    """n+2 mutually tangent spheres as a stack of coordinate rows, held as
    their frame.

    scaled=(rows, scale) is scalars.scaled_rows of the rows: int tuples
    over the LCM of their reduced denominators in exact mode, float tuples
    over 1.0 in float mode.  Every producer of the package hands it over,
    from_rows among them, and its shape is checked.  The Gram check, the
    bends, conversions, the JSON writer and the walks read it; the
    CoordRows of rows are built from it when rows is first read, and kept,
    as Packing's are, so a configuration whose rows nothing reads builds
    none.  Equality and repr are those of geometry and rows.

    A configuration is immutable, so what is worked out from it is kept on
    the instance: n, its mode (of the scale's type), and its residual() per
    tolerance.  None of them, nor scaled, takes part in equality or repr.
    """

    geometry: str
    scaled: tuple = field(compare=False, repr=False)
    rows: tuple = field(init=False)
    n: int = field(init=False, compare=False, repr=False)
    mode: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _by_geometry(_GEOMETRY, self.geometry)  # or raise
        entry_rows, scale = self.scaled
        widths = set(map(len, entry_rows))
        if widths and min(widths) < 3:
            raise ValueError("a coordinate row needs at least 3 entries")
        if not entry_rows:
            raise ValueError("empty configuration")
        width = len(entry_rows[0])
        if len(entry_rows) != width:
            raise ValueError("configuration matrix must be square")
        if len(widths) > 1:
            raise ValueError("ragged configuration rows")
        attrs = self.__dict__
        attrs["n"] = width - 2
        attrs["mode"] = FLOAT if scale.__class__ is float else EXACT

    def __getattr__(self, name):
        # reached only for attributes the instance does not hold: rows
        # before it is first read
        if name != "rows":
            raise AttributeError(name)
        built = self.__dict__["rows"] = tuple(
            [CoordRow(self.geometry, row) for row in self.matrix()])
        return built

    @property
    def bends(self):
        """The bend column, read from the frame."""
        col = bend_column(self.geometry)
        rows, scale = self.scaled
        return unscaled_rows((tuple([row[col] for row in rows]),), scale,
                             self.mode)[0]

    @property
    def int_frame(self):
        """(rows, scale): the int rows of the exact values of the entries
        over the LCM of their denominators, scaled in exact mode and the
        integer_rows of the float rows (over a power of two) in float mode."""
        return (self.scaled if self.mode == EXACT
                else integer_rows(self.scaled[0]))

    def residual(self, tol=DEFAULT_TOL):
        """check_identity of the configuration against the Descartes form
        and the Gram target of its geometry, dimension and mode.

        The result is kept per tol, so each configuration is checked once
        at each tolerance it is asked about.
        """
        memo = self.__dict__.setdefault("_residuals", {})
        res = memo.get(tol)
        if res is None:
            n, mode = self.n, self.mode
            res = memo[tol] = check_identity(
                self, descartes_form(n, mode), target_for(self.geometry, n, mode),
                tol)
        return res

    def matrix(self):
        """The entry rows, Fractions or floats, read from the frame."""
        return unscaled_rows(*self.scaled, self.mode)

    @classmethod
    def from_rows(cls, geometry, entry_rows, mode=None):
        """Configuration of entry rows coerced to mode (by default the mode
        of their entries), held as its frame; scalars.coerce_row returns a
        row already of the mode's type as it is."""
        if mode is None:
            mode = mode_of([x for row in entry_rows for x in row])
        return cls(geometry, scaled_rows(
            [coerce_row(r, mode) for r in entry_rows], mode))


@dataclass(frozen=True)
class QuadForm:
    """The Descartes form Q_n together with its dimension.

    matrix must equal I - (1/n) ones ones^T on n+2 coordinates (in either
    mode); check_identity relies on that shape.
    """

    n: int
    matrix: tuple
    mode: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = tuple(tuple(row) for row in self.matrix)
        mode = mode_of([x for row in matrix for x in row])
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mode", mode)
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if matrix != _identity_minus(self.n + 2, coerce(1, mode) / self.n):
            raise ValueError(f"matrix is not the Descartes form Q_{self.n}")


@dataclass(frozen=True)
class Residual:
    """Entrywise deviation of a Gram product from its target, and its
    verdict."""

    max_abs_entry_error: object
    entrywise: tuple
    ok: bool


def _rows(m):
    """Entries of a configuration, a form or a nested sequence of rows, as a
    tuple of row tuples."""
    if isinstance(m, ConfigMatrix):
        return m.matrix()
    if isinstance(m, QuadForm):
        return m.matrix
    if isinstance(m, tuple) and all(type(row) is tuple for row in m):
        return m
    return tuple(tuple(row) for row in m)


@functools.lru_cache(maxsize=None)
def descartes_form(n, mode=EXACT):
    """Q_n = I - (1/n) ones ones^T on n+2 coordinates."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return QuadForm(n, _identity_minus(n + 2, coerce(1, mode) / n))


def _identity_minus(k, c):
    """I - c ones ones^T on k coordinates, entries of c's type."""
    off = -c
    diag = off + 1
    return tuple(tuple(diag if i == j else off for j in range(k))
                 for i in range(k))


@functools.lru_cache(maxsize=None)
def target_for(geometry, n, mode=EXACT):
    """The geometry's Gram target: the head of its table entry, then 2I."""
    head = _by_geometry(_GEOMETRY, geometry).target_head
    return linalg.block_diag(head, (2,) * n, mode)


@functools.lru_cache(maxsize=None)
def _base(geometry, n):
    """(R, sigma, D, d, t) of the base W0 = R / sigma that _reflected_base
    moves, for a geometry with a base: int rows R over sigma, the exact
    inverse W0^{-1} = D / d of W0's own dyadic values as int rows D over d,
    and the diagonal t of the Gram target T.

    In the plane W0 is the geometry's integral base, sigma = 1.  In other
    dimensions it is the float configuration of n+2 equal caps centered at
    the vertices of a regular simplex: cot a = sqrt(n/(n+2)), and cap i has
    the tail sqrt(2) h_i, its unit center over sin a, with h_i the Helmert
    coordinates of e_i - ones/(n+2).  The hyperbolic base is the spherical
    one carried over by the conversion head.
    """
    if n == 2:
        w0 = _by_geometry(_GEOMETRY, geometry).base
    else:
        from . import transform  # transform imports forms
        cot = sqrt(n / (n + 2))
        # Helmert row k is (1, ..., 1, -k, 0, ...) / sqrt(k (k+1)), k ones
        ups = [sqrt(2) / sqrt(k * (k + 1)) for k in range(1, n + 2)]
        caps = tuple([(cot, *[up if i < k else -k * up if i == k else 0.0
                              for k, up in enumerate(ups, 1)])
                      for i in range(n + 2)])
        w0 = transform.convert_matrix(ConfigMatrix(SPHERICAL, (caps, 1.0)),
                                      geometry).scaled[0]
    head = _by_geometry(_GEOMETRY, geometry).target_head
    return (*integer_rows(w0), *integer_rows(linalg.mat_inv(w0)),
            (head[0][0], head[1][1]) + (2,) * n)


# 2 T^{-1} for the target head T of each geometry, coerced to each mode
_FORM_HEAD = {tag: {mode: linalg.block_diag(
    [[2 * x for x in row] for row in linalg.mat_inv(g.target_head)], (), mode)
    for mode in (EXACT, FLOAT)} for tag, g in _GEOMETRY.items()}


def pair_product(geometry, row_a, row_b):
    """Evaluate the geometry's tangency form on two rows (-1 on externally
    tangent pairs): the head 2 T^{-1} of _FORM_HEAD on the first two
    entries, T the head of its Gram target, and the plain product on the
    rest.  Each shape of head keeps its float summation order."""
    head = _by_geometry(_FORM_HEAD, geometry)
    for row in (row_a, row_b):
        if isinstance(row, CoordRow) and row.kind != geometry:
            raise ValueError(f"expected {geometry} rows, got {row.kind}")
    a = row_a.entries if isinstance(row_a, CoordRow) else tuple(row_a)
    b = row_b.entries if isinstance(row_b, CoordRow) else tuple(row_b)
    if len(a) != len(b):
        raise ValueError("row length mismatch")
    (p, q), (_, s) = head[mode_of(a + b)]
    if q:  # an antidiagonal head; its tail sum starts from a_0 * 0
        return (q * (a[0] * b[1] + a[1] * b[0])
                + _sum(map(mul, a[2:], b[2:]), a[0] * 0))
    if s == 1:  # the plain product reaches back to column 1
        return p * a[0] * b[0] + _sum(map(mul, a[1:], b[1:]))
    return p * a[0] * b[0] + s * a[1] * b[1] + _sum(map(mul, a[2:], b[2:]))


def _scaled_gram(w, q):
    """(G, m, quotient) with G = m W^T Q W, so that quotient(G_ij, m) is an
    entry of W^T Q W; G is an int matrix in exact mode.

    W and Q are taken into the frame of scalars.scaled_rows, V = sW and
    P = dQ with their scales s and d, so that G = V^T (P V) and m = s^2 d;
    a configuration of the mode of the product is in it already
    (ConfigMatrix.scaled).  For the Descartes form exact mode takes d = n
    and P V = n V - ones sigma^T, sigma holding the column sums of V, so
    that G = n V^T V - sigma sigma^T, the symmetric int matrix of
    linalg._exact_gram, and P is never formed.  Float mode takes d = 1 and
    G = V^T (V - ones sigma^T / n), by linalg._float_gram in the order of
    operations of the loops it replaced, each sum folded from the int 0.
    Both are kernels generated once per row width, which make no call per
    entry.  Other forms, as transform.moved passes them, add each entry's
    products left to right from 0 by functools.reduce.
    """
    if isinstance(q, QuadForm):
        form, qrows, q_mode = q, q.matrix, q.mode
    else:
        form, qrows = None, _rows(q)
        q_mode = mode_of([x for row in qrows for x in row])
    if isinstance(w, ConfigMatrix):
        mode = EXACT if w.mode == q_mode == EXACT else FLOAT
        v, s = w.scaled if w.mode == mode else scaled_rows(_rows(w), mode)
    else:
        rows = _rows(w)
        mode = EXACT if q_mode == EXACT and all_exact(
            [x for row in rows for x in row]) else FLOAT
        v, s = scaled_rows(rows, mode)
    if len(qrows) != len(v):
        raise ValueError(f"form of size {len(qrows)} does not fit "
                         f"{len(v)} rows")
    if form is None:
        p, d = scaled_rows(qrows, mode)
        pv_cols = tuple(zip(*linalg.matmul(p, v)))
        return ([[reduce(add, map(mul, ca, cb), 0) for cb in pv_cols]
                 for ca in zip(*v)], s * s * d, frame_quotient(mode))
    if mode == EXACT:
        gram, d = linalg._exact_gram(len(v[0]))[0], form.n
    else:
        gram, d = linalg._float_gram(len(v[0]))[0], 1
    return gram(v, form.n), s * s * d, frame_quotient(mode)


# (m, make(m)) by (id(m), make): a target's int rows, a target's or form's
# float inverse.  target_for() and descartes_form() give cached objects, met
# at every check; each entry holds its object, so its id is not reused.
_DERIVED = {}


def _derived(m, make):
    """make(m), worked out once per object m."""
    key = id(m), make
    hit = _DERIVED.get(key)
    if hit is None or hit[0] is not m:
        if len(_DERIVED) >= 64:  # only objects built per call get here
            _DERIVED.clear()
        hit = _DERIVED[key] = (m, make(m))
    return hit[1]


def _int_target(t):
    """(T, d) with T = d t the int rows of an exact target t over the LCM d
    of its denominators (scalars.integer_rows), or None when t has a float
    entry."""
    return integer_rows(t) if all_exact([x for row in t for x in row]) else None


@functools.lru_cache(maxsize=None)
def _holds(k):
    """The Residual of every exact check of a k x k Gram matrix that holds,
    all entries _ZERO; one object is shared, as it is immutable."""
    return Residual(_ZERO, ((_ZERO,) * k,) * k, True)


def _float_inv(m):
    """linalg.mat_inv(m) rounded once to floats, within ROUNDING."""
    return tuple(tuple(map(float, row)) for row in linalg.mat_inv(m))


def _gram_bound(w, q):
    """(W^T Q W, |W|^T |Q| |W|) of float rows w: the product, and on
    absolute values the bound of the rounding of each entry's own terms."""
    aw = [[abs(x) for x in row] for row in w]
    aq = [[abs(x) for x in row] for row in q]
    return (linalg.matmul(linalg.transpose(w), linalg.matmul(q, w)),
            linalg.matmul(linalg.transpose(aw), linalg.matmul(aq, aw)))


def _rounding_ok(w, q, t):
    """Whether each entry of W^T Q W - T and of W T^{-1} W^T - Q^{-1}, W in
    floats, is within ROUNDING times its finite bound of _gram_bound: each
    entry scaled by its two columns, then by its two rows, which refuses
    an ill-conditioned W whose columns alone pass, and inf or nan in W.
    Both are checked on W D against D T D, D the powers of two that take
    each column's largest entry into [1/2, 1): they hold and round there as
    on W, and no product leaves the float range, for columns of any size."""
    w = [tuple(map(float, row)) for row in _rows(w)]
    q = _rows(q)
    e = [frexp(max(map(abs, col)))[1] for col in zip(*w)]
    try:
        q_inv, t_inv = _derived(q, _float_inv), _derived(t, _float_inv)
        w = [[ldexp(x, -ej) for x, ej in zip(row, e)] for row in w]
        t = [[ldexp(x, -ei - ej) for x, ej in zip(row, e)]
             for row, ei in zip(t, e)]
        t_inv = [[ldexp(x, ei + ej) for x, ej in zip(row, e)]
                 for row, ei in zip(t_inv, e)]
    except (ValueError, OverflowError):  # singular, or not finite scaled
        return False
    sides = ((_gram_bound(w, q), t),
             (_gram_bound(linalg.transpose(w), t_inv), q_inv))
    # inf <= inf says nothing of an entry whose bound overflows
    return all(isfinite(b) and abs(x - y) <= ROUNDING * b
               for (gram, bound), target in sides
               for grow, trow, brow in zip(gram, target, bound)
               for x, y, b in zip(grow, trow, brow))


def check_identity(w, q, target, tol=DEFAULT_TOL):
    """Residual of W^T Q W against a target Gram matrix.

    Exact W, Q and target are compared exactly and tol is ignored, as the
    int matrix G = m W^T Q W of _scaled_gram against the int target
    T = d t of _int_target: d G = m T, decided on ints by the holds kernel
    of linalg._exact_gram, gives the shared Residual of _holds, and
    otherwise a Fraction is built for each entry that differs.  Other
    inputs take the rows of G / m - t from the residual kernel of
    linalg._float_gram, and are ok when every entry deviates by at most
    tol, or else by _rounding_ok.  max_abs_entry_error and entrywise are
    those of W^T Q W - T either way.
    """
    g, m, quotient = _scaled_gram(w, q)
    t = _rows(target)
    if len(t) != len(g) or set(map(len, t)) != {len(g)}:
        raise ValueError("target shape does not match the Gram matrix")
    int_target = _derived(t, _int_target) if quotient is Fraction else None
    if int_target is not None:
        t, d = int_target
        if linalg._exact_gram(len(g))[1](g, t, d, m):
            return _holds(len(g))
        md = m * d
        diff = []
        err = _ZERO
        for grow, trow in zip(g, t):
            out = []
            for x, y in zip(grow, trow):
                delta = x * d - y * m
                if delta:
                    entry = Fraction(delta, md)
                    err = max(err, abs(entry))
                else:
                    entry = _ZERO
                out.append(entry)
            diff.append(tuple(out))
        ok = not err
    else:
        diff = linalg._float_gram(len(g))[1](g, m, t)
        err = linalg.max_abs(diff)
        ok = near(err, 0, tol) or _rounding_ok(w, q, t)
    return Residual(err, tuple(diff), ok)


def bend_residual(geometry, bends):
    """Residual sum b^2 - (sum b)^2 / n + 2k of the Descartes relation on
    n+2 bends, k the geometry's curvature sign; zero for n+2 pairwise
    tangent spheres, exact on exact bends.  Float bends of magnitude m > 1
    are summed times f = 2**-e, e of frexp(m), as complete_bend takes them,
    and the residual divided back by f^2, +-inf past the float range."""
    c, _, frame = _bend_mode(bends)
    r, f = _scaled_bend_residual(geometry, c, frame)
    return r / f / f


def _bend_mode(bends):
    """(c, mode, frame): the bends as one row, exact ones as given and any
    other as floats, their mode, and for exact bends their int frame of
    _exact_frame, None for float ones.  The one place that decides the mode
    of a bend vector, for bend_residual and _bend_values."""
    bends = tuple(bends)
    if all_exact(bends):
        return bends, EXACT, _exact_frame(bends)
    return coerce_row(bends, FLOAT), FLOAT, None


def _exact_frame(bends):
    """((v,), s): a tuple of exact bends as ints v = s b over the LCM s of
    their denominators, in one pass, as scalars.integer_rows frames them;
    a tuple of ints is its own v, over 1."""
    if _INTS.issuperset(map(type, bends)):
        return (bends,), 1
    s = lcm(*[x.denominator for x in bends])
    return (tuple([x.numerator * (s // x.denominator) for x in bends]),), s


def _scaled_bend_residual(geometry, bends, frame):
    """(r, f), r the bend_residual times f^2.  Exact bends come with their
    int frame ((v,), s) of _exact_frame, v = s b: f = 1 and r is an
    int residual over n s^2, _ZERO, no Fraction, when it is 0.  Float bends
    come with frame None, and f is the power of two that bend_residual sums
    them times, so that r stays within the float range."""
    k = _by_geometry(CURVATURE_SIGN, geometry)
    n = len(bends) - 2
    if n < 1:
        raise ValueError("need at least 3 bends")
    if frame:
        (v,), s = frame
        total = sum(v)
        ns2 = n * s * s
        r = n * sum(map(mul, v, v)) - total * total + 2 * k * ns2
        return (Fraction(r, ns2) if r else _ZERO), 1
    m = max(map(abs, bends))
    f = ldexp(1.0, -frexp(m)[1]) if m > 1 else 1.0
    scaled = [b * f for b in bends]
    total = _sum(scaled)
    return (_sum(map(mul, scaled, scaled)) - total * total / float(n)
            + 2 * k * f * f), f


def _bend_values(geometry, bends, what):
    """(c, mode, frame): the row and mode of _bend_mode, and the int frame
    ((v,), s) of the bends' exact (for floats, dyadic) values, on which the
    realizers work; or the ValueError "{what} by {bend_residual}" of bends
    that miss the bend relation.  Exact bends are framed in one pass
    (_exact_frame: one LCM of the denominators, ints as they are) and the
    relation decided on that frame's ints.  Float bends are framed by
    scalars.integer_rows once they pass, and may miss the relation by
    DEFAULT_TOL or by the rounding of float values as large as theirs
    (scalars.negligible)."""
    c, mode, frame = _bend_mode(bends)
    r, f = _scaled_bend_residual(geometry, c, frame)
    if r and not negligible(r, c, f):  # a zero residual needs no tolerance
        raise ValueError(f"{what} by {r / f / f}")
    # float bends are framed once they pass: inf and nan have no ratio
    return c, mode, frame or integer_rows([c])


def _realize_tangent_rows(geometry, bends, name, first_tails):
    """One configuration of pairwise tangent rows (c_i, t_i) with the given
    spherical cot or hyperbolic coth values c_i, which errors call name.

    Float values in every dimension, and exact ones in the plane, give the
    geometry's base rows W0 moved from the right by an isometry of the Gram
    target (_reflected_base), which every vector meeting the bend relation
    admits: an exact matrix for exact bends, and for float bends the rows
    of their dyadic values rounded once with the bends as given.  Exact
    values above the plane raise the ExactnessError of _refuse_irrational
    in a dimension with no rational configuration, before any search, and
    are otherwise realized by the exact tail search of _search_tangent_rows,
    which first_tails starts, or refused with a ValueError.
    """
    c, mode, frame = _bend_values(geometry, bends,
                                  f"{name} values violate the bend relation")
    n = len(c) - 2
    if mode == EXACT and n != 2:
        _refuse_irrational(n)
        return _search_tangent_rows(geometry, c, name, first_tails)
    return _realized(geometry, *_reflected_base(geometry, frame, mode), c,
                     mode)


def _realized(geometry, rows, scale, bends, mode):
    """The configuration of a realizer's int rows over scale, by
    scalars.mode_frame.  Float rows carry the bends as given: the int bend
    column is the scale times the bends' dyadic values, so each entry
    rounds back to its bend, and only a zero loses its sign; where a bend
    is zero the column is written from the bends.  A float entry beyond
    the float range (4/s of a subnormal plane bend s) raises ValueError."""
    try:
        rows, scale = mode_frame(rows, scale, mode)
    except OverflowError:
        raise ValueError("an entry of the configuration of these bends is "
                         "beyond the float range") from None
    if mode != EXACT and 0.0 in bends:
        col = bend_column(geometry)
        rows = tuple([(*row[:col], b, *row[col + 1:])
                      for row, b in zip(rows, bends)])
    return ConfigMatrix(geometry, (rows, scale))


def _refuse_irrational(n):
    """Raise the ExactnessError of a dimension n that has no rational
    configuration.  The Gram identity forces det(W)^2 = n 2^(n+1) in the
    curved geometries (four times that in the plane), a rational square
    exactly when n is an odd square or twice a square: n = 1, 2, 8, 9, 18,
    25, 32, ...."""
    m = n if n % 2 else n // 2
    if isqrt(m) ** 2 != m:
        raise ExactnessError(
            f"no rational Descartes configuration exists for n = {n}; the "
            "Gram identity forces an irrational determinant")


def _search_tangent_rows(geometry, c, name, first_tails):
    """The configuration of _realize_tangent_rows found by a tail search,
    for exact values c (ints or Fractions) that meet the bend relation, on
    any n.

    With k the geometry's curvature sign the tails carry the form
    diag(k, 1, ..., 1), and tangency asks <t_i, t_i> = 1 + k c_i^2 and
    <t_j, t_i> = k c_i c_j - 1.  first_tails(c_0, one) lists the leading
    entries of the first-tail candidates, zero-padded to full length; later
    tails come from linalg.realize_tails, which backtracks out of tail
    choices that strand a later row.  It takes the tangency values as one
    table of targets on the bends v = s c of their int frame
    (scalars.integer_rows), times s^2: ints over the one denominator s^2,
    so no Fraction is built for them.  The tails are not scaled by s, which
    would move the rational points the search picks.  The tails come back
    as Fractions in one conversion; no tails give a ValueError.
    """
    c = coerce_row(c, EXACT)
    n = len(c) - 2
    k = _by_geometry(CURVATURE_SIGN, geometry)
    one = Fraction(1)
    first_options = [head + (_ZERO,) * (n + 1 - len(head))
                     for head in first_tails(c[0], one)]
    # the tangency values times s^2, on the bends v = s c of the frame
    (v,), s = integer_rows([c])
    s2 = s * s
    targets = [[k * vi * vj - s2 for vj in v[:i]] + [s2 + k * vi * vi]
               for i, vi in enumerate(v)]
    tails = linalg.realize_tails(first_options, (k,) + (1,) * n, targets, s2)
    if tails is None:
        raise ValueError(f"no realization found for these {name} values")
    # Fraction rows already, so from_rows coerces none of them
    entry_rows = [(c[i],) + tuple(tails[i]) for i in range(n + 2)]
    return ConfigMatrix.from_rows(geometry, entry_rows, mode=EXACT)


def _carried(rows, a, b, t):
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


def _reflected_base(geometry, frame, mode):
    """(V, m): the int rows V over the positive int m of the rows W = W0 G
    of a configuration with bends c, given as the int frame ((v,), s) of
    their exact values in either mode (_bend_values), v = s c.

    W0 = R / sigma is the geometry's base in the dimension of c (_base), T
    its Gram target and e the unit vector of the bend column.  Rows times
    an isometry G of T stay a configuration (W^T Q W = G^T T G = T), with
    bends W0 G e, so G must carry e to g = W0^{-1} c.  When c meets the
    bend relation, W0^{-T} T W0^{-1} = Q gives g^T T g = c^T Q c = T_00,
    the norm of e, so the reflection in v = e - g does, or, when v is
    isotropic (then v^T T v = 2 T_00 v_0 is zero), the reflection in e + g
    followed by the one in g (Witt's theorem).  Each is a rank-one update
    of int rows: the bends over their LCM s and W0^{-1} = D / d, so that
    g = D v / (d s), and R G = V / m, so that W = V / (m sigma).  The one
    reflection runs on the kernel of linalg._base_reflection, generated
    once per row width, which takes the base as arguments and makes no
    call per entry: as R D = d sigma I, each row's product with e - g is
    d (s R_r0 - sigma v_r), with no sum over the row.  The kernel also
    gives g and the isotropy data; the two reflections of the rare
    isotropic case, and W0 itself for values equal to the base's, are
    worked out here (_carried).

    Float bends run the same computation on their dyadic values, which meet
    the relation only up to rounding, as do the float base's.  Each map
    carries its vector exactly, so the bends come out as given and the rows
    within rounding of an isometry's, and a v_0 within the rounding of its
    terms counts as zero, where one reflection would divide by it: that is
    |v_0| <= ROUNDING sum_j |D_0j v_j|, decided on ints as
    |v_0| q <= p sum_j |D_0j v_j| for ROUNDING = p / q, so that it holds
    for ints past the float range, as the bases above n = 16 give, and
    with p = 0, v_0 = 0, for exact bends (_ISOTROPY_SLACK).  The bend
    column of V is m c.

    A hyperbolic W whose first row with |c_i| >= 1 and a nonzero q_0 has
    q_0 of the other sign than c_i lies on the lower sheet, and gets its
    q_0 column negated, which keeps T.
    """
    (ints,), s = frame
    base = _base(geometry, len(ints) - 2)
    g, v0, size, rows, scale = linalg._base_reflection(len(ints))(ints, s,
                                                                  *base)
    p, q = _ISOTROPY_SLACK[mode]
    if abs(v0) * q <= p * size:
        w0, sigma, _, d, t = base
        e = (d * s,) + (0,) * (len(ints) - 1)
        if g == e:
            rows, m = w0, 1
        else:
            # G carries e to -g and then -g to g, so W0 G = (W0 G_2) G_1
            minus_g = [-x for x in g]
            rows, m = _carried(w0, minus_g, g, t)
            rows, m2 = _carried(rows, e, minus_g, t)
            m *= m2
            if m < 0:  # a frame's scale is positive
                rows, m = [[-x for x in r] for r in rows], -m
        scale = m * sigma
    if geometry == HYPERBOLIC:
        # the first row of |c_i| = |r_0 / m| >= 1 with a nonzero q_0 = r_1 / m
        for r in rows:
            if r[1] and abs(r[0]) >= scale:
                if (r[0] > 0) != (r[1] > 0):
                    rows = [(r[0], -r[1], *r[2:]) for r in rows]
                break
    return rows, scale
