"""Quadratic-form layer shared by all three geometries.

An oriented sphere system in n-space is encoded as a matrix whose rows are
coordinate vectors of the member spheres.  Each geometry fixes one target
Gram matrix; a row matrix W describes a valid mutually tangent configuration
exactly when W^T Q_n W equals that target, where Q_n is the Descartes form

    Q_n = I - (1/n) * ones * ones^T

on n+2 coordinates.  Everything here is generic over exact and float entries.

The targets differ only in a 2x2 head T on the first two coordinates (the
rest is 2I), so one table keyed by the geometry tags holds what sets a
geometry apart: its bend column c, T, and the head of the map carrying its
rows to Euclidean rows.  bend_column, CURVATURE_SIGN (k = -T[c][c]/2),
target_for, pair_product (2 T^{-1} on the head) and transform read it.

check_identity compares W^T Q W with any target; ConfigMatrix.residual runs
it against the configuration's own Descartes form and target, once per
configuration and tolerance, since a configuration is immutable.

Matrices are tuples of row tuples.  The Gram products and the tangency
values of the realizer run on rows in the frame of scalars.scaled_rows: on
integers in exact mode, so with V = sW the rows scaled by the LCM s of
their denominators and sigma the column sums of V,
n s^2 W^T Q_n W = n V^T V - sigma sigma^T, and one quotient by the scale
turns a result back into an entry.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import linalg
from .scalars import (DEFAULT_TOL, EXACT, FLOAT, all_exact, coerce,
                      coerce_row, integer_rows, mode_of, near, negligible,
                      scaled_rows)

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

_Geometry = namedtuple("_Geometry", "bend_column target_head to_euclidean")
_GEOMETRY = {
    EUCLIDEAN: _Geometry(1, ((0, -4), (-4, 0)), ((1, 0), (0, 1))),
    SPHERICAL: _Geometry(0, ((-2, 0), (0, 2)), ((1, 1), (-1, 1))),
    HYPERBOLIC: _Geometry(0, ((2, 0), (0, -2)), ((-1, 1), (1, 1))),
}
GEOMETRIES = tuple(_GEOMETRY)

# k of the Descartes relation sum b^2 - (sum b)^2 / n + 2k = 0 (LMW)
CURVATURE_SIGN = {tag: -g.target_head[g.bend_column][g.bend_column] // 2
                  for tag, g in _GEOMETRY.items()}

_ZERO = Fraction(0)


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

    @property
    def mode(self):
        return mode_of(self.entries)


@dataclass(frozen=True)
class ConfigMatrix:
    """n+2 mutually tangent spheres as a stack of coordinate rows.

    A configuration is immutable, so what is worked out from its rows is
    kept on the instance: its mode when first read, and its residual()
    per tolerance.  Neither takes part in equality or repr.
    """

    geometry: str
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        _by_geometry(_GEOMETRY, self.geometry)  # or raise
        if not rows:
            raise ValueError("empty configuration")
        width = len(rows[0].entries)
        if len(rows) != width:
            raise ValueError("configuration matrix must be square")
        for row in rows:
            if row.kind != self.geometry:
                raise ValueError("row kind does not match configuration geometry")
            if len(row.entries) != width:
                raise ValueError("ragged configuration rows")

    @property
    def n(self):
        return len(self.rows) - 2

    @functools.cached_property
    def mode(self):
        return EXACT if all(r.mode == EXACT for r in self.rows) else FLOAT

    @property
    def bends(self):
        return tuple(r.bend for r in self.rows)

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
        mode = self.mode
        return tuple(coerce_row(r.entries, mode) for r in self.rows)

    @classmethod
    def from_rows(cls, geometry, entry_rows, mode=None):
        """Configuration of entry rows coerced to mode (by default the mode
        of their entries); scalars.coerce_row returns a row already of the
        mode's type as it is.  Every entry then has the mode's type, so the
        mode is kept on the configuration without a second look."""
        if mode is None:
            mode = mode_of([x for row in entry_rows for x in row])
        w = cls(geometry, tuple([CoordRow(geometry, coerce_row(r, mode))
                                 for r in entry_rows]))
        w.__dict__["mode"] = EXACT if mode == EXACT else FLOAT
        return w


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
    """Entrywise deviation of a Gram product from its target."""

    max_abs_entry_error: object
    entrywise: tuple
    ok: bool

    def within_rounding(self, w, tol=DEFAULT_TOL):
        """Whether this residual of W^T Q W is ok, or each entry (i, j) is
        negligible next to columns i and j of W, in which it is bilinear
        (scalars.negligible): columns can differ in size by orders of
        magnitude, so each entry is scaled by its own two."""
        if self.ok:
            return True
        cols = tuple(zip(*_rows(w)))
        return all(negligible(d, cols[i], tol, cols[j])
                   for i, row in enumerate(self.entrywise)
                   for j, d in enumerate(row))


def _rows(m):
    """Entries of a configuration, a form or a nested sequence of rows, as a
    tuple of row tuples."""
    if isinstance(m, ConfigMatrix):
        return tuple(r.entries for r in m.rows)
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


def descartes_form_inverse(n, mode=EXACT):
    """Q_n^{-1} = I - (1/2) ones ones^T, independent of n."""
    return _identity_minus(n + 2, coerce(1, mode) / 2)


def _identity_minus(k, c):
    """I - c ones ones^T on k coordinates, entries of c's type."""
    off = -c
    diag = off + 1
    return tuple(tuple(diag if i == j else off for j in range(k))
                 for i in range(k))


def lorentz_like_form(n, mode=EXACT):
    """diag(-1, 1, ..., 1) on n+2 coordinates."""
    return linalg.block_diag((), (-1,) + (1,) * (n + 1), mode)


def centers_gram_target(n, mode=EXACT):
    """Target for curvature-center matrices: diag(0, 2, ..., 2) on n+1."""
    return linalg.block_diag((), (0,) + (2,) * n, mode)


@functools.lru_cache(maxsize=None)
def target_for(geometry, n, mode=EXACT):
    """The geometry's Gram target: the head of its table entry, then 2I."""
    head = _by_geometry(_GEOMETRY, geometry).target_head
    return linalg.block_diag(head, (2,) * n, mode)


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
                + sum(map(mul, a[2:], b[2:]), start=a[0] * 0))
    if s == 1:  # the plain product reaches back to column 1
        return p * a[0] * b[0] + sum(map(mul, a[1:], b[1:]))
    return p * a[0] * b[0] + s * a[1] * b[1] + sum(map(mul, a[2:], b[2:]))


def unit_row_entries(geometry, row, noun, tol=DEFAULT_TOL):
    """The entries of a row whose pair_product with itself is 1 within tol;
    otherwise ValueError "not a valid <noun>, self product <product>"."""
    entries = row.entries if isinstance(row, CoordRow) else tuple(row)
    self_product = pair_product(geometry, row, row)
    if not near(self_product, 1, tol):
        raise ValueError(f"not a valid {noun}, self product {self_product}")
    return entries


def _scaled_gram(w, q):
    """(G, m, quotient) with G = m W^T Q W, so that quotient(G_ij, m) is an
    entry of W^T Q W; G is an int matrix in exact mode.

    W and Q are taken into the frame of scalars.scaled_rows, V = sW and
    P = dQ with their scales s and d, so that G = V^T (P V) and m = s^2 d.
    For the Descartes form exact mode takes d = n and P V = n V - ones
    sigma^T, sigma holding the column sums of V, so G = n V^T V - sigma
    sigma^T and P is never formed; float mode takes d = 1 and P V = V -
    ones sigma^T / n.
    """
    rows = _rows(w)
    form = q if isinstance(q, QuadForm) else None
    qrows = _rows(q)
    if len(qrows) != len(rows):
        raise ValueError(f"form of size {len(qrows)} does not fit "
                         f"{len(rows)} rows")
    mode = mode_of([x for m in (rows, qrows) for row in m for x in row])
    v, s, quotient = scaled_rows(rows, mode)
    if form is not None:
        n = form.n
        sigma = tuple(map(sum, zip(*v)))
        d, shift = ((n, sigma) if mode == EXACT else
                    (1, [t / n for t in sigma]))
        pv = [[d * x - t for x, t in zip(row, shift)] for row in v]
    else:
        p, d, _ = scaled_rows(qrows, mode)
        pv = linalg.matmul(p, v)
    pv_cols = tuple(zip(*pv))
    g = [[sum(map(mul, ca, cb)) for cb in pv_cols] for ca in zip(*v)]
    return g, s * s * d, quotient


def gram(w, q):
    """W^T Q W for a row matrix and a quadratic form."""
    g, m, quotient = _scaled_gram(w, q)
    return tuple(tuple(quotient(x, m) for x in row) for row in g)


def check_identity(w, q, target, tol=DEFAULT_TOL):
    """Residual of W^T Q W against a target Gram matrix.

    Exact W, Q and target are compared exactly and tol is ignored; other
    inputs pass when the largest entry deviation is within tol.  Exact mode
    compares the int matrix G = m W^T Q W of _scaled_gram with m times the
    target and builds a Fraction only for an entry that differs.
    """
    g, m, quotient = _scaled_gram(w, q)
    t = _rows(target)
    if len(t) != len(g) or any(len(row) != len(g) for row in t):
        raise ValueError("target shape does not match the Gram matrix")
    exact = quotient is Fraction and all_exact([x for row in t for x in row])
    if exact:
        diff = []
        err = _ZERO
        for grow, trow in zip(g, t):
            out = []
            for x, y in zip(grow, trow):
                num, den = y.as_integer_ratio()
                delta = x * den - num * m
                if delta:
                    entry = Fraction(delta, m * den)
                    err = max(err, abs(entry))
                else:
                    entry = _ZERO
                out.append(entry)
            diff.append(tuple(out))
    else:
        diff = [tuple([x / m - y for x, y in zip(grow, trow)])
                for grow, trow in zip(g, t)]
        err = linalg.max_abs(diff)
    return Residual(err, tuple(diff), bool(near(err, 0, tol)))


def inverse_conjugation_check(w, a, b, tol=DEFAULT_TOL):
    """Residual of W^T B^{-1} W - A^{-1}.

    Whenever W A W^T = B holds for square W, the transposed relation with the
    inverses holds as well; this check exercises that on concrete data.
    """
    return check_identity(w, linalg.mat_inv(_rows(b)),
                          linalg.mat_inv(_rows(a)), tol)


def bend_residual(geometry, bends):
    """Residual sum b^2 - (sum b)^2 / n + 2k of the Descartes relation on
    n+2 bends, k the geometry's curvature sign; zero for n+2 pairwise
    tangent spheres, exact on exact bends."""
    k = _by_geometry(CURVATURE_SIGN, geometry)
    bends = tuple(bends)
    n = len(bends) - 2
    if n < 1:
        raise ValueError("need at least 3 bends")
    if all_exact(bends):
        # on the bends times s, the LCM of their denominators
        (ints,), s = integer_rows([bends])
        total = sum(ints)
        ns2 = n * s * s
        return Fraction(n * sum(map(mul, ints, ints)) - total * total
                        + 2 * k * ns2, ns2)
    total = sum(bends)
    square_sum = sum(b * b for b in bends)
    return square_sum - total * total / float(n) + 2 * k


def _realize_tangent_rows(geometry, bends, name, first_tails):
    """One configuration of pairwise tangent rows (c_i, t_i) with the given
    spherical cot or hyperbolic coth values c_i, which errors call name.

    With k the geometry's curvature sign the tails carry the form
    diag(k, 1, ..., 1), and tangency asks <t_i, t_i> = 1 + k c_i^2 and
    <t_j, t_i> = k c_i c_j - 1.  first_tails(c_0, one) lists the leading
    entries of the first-tail candidates, zero-padded to full length; later
    tails come from linalg.realize_tails, which backtracks out of tail
    choices that strand a later row.  It takes the tangency values as one
    table of targets on the bends v = s c of the frame of scalars.scaled_rows,
    times s^2: in exact mode ints over the one denominator s^2, so no
    Fraction is built for them.  The tails are not scaled by s, which would
    move the rational points the search picks.  Exact bends give an exact
    matrix, whose tails come back as Fractions in one conversion, or a
    ValueError.
    Float bends must meet the bend relation up to DEFAULT_TOL or up to the
    rounding of float values as large as theirs.
    """
    bends = tuple(bends)
    n = len(bends) - 2
    mode = mode_of(bends)
    c = coerce_row(bends, mode)
    residual = bend_residual(geometry, c)
    if not negligible(residual, c):
        raise ValueError(f"{name} values violate the bend relation by {residual}")
    k = _by_geometry(CURVATURE_SIGN, geometry)
    one = coerce(1, mode)
    zero = one - one
    first_options = [head + (zero,) * (n + 1 - len(head))
                     for head in first_tails(c[0], one)]
    # the tangency values times s^2, on the bends v = s c of the frame
    (v,), s, _ = scaled_rows([c], mode)
    s2 = s * s
    targets = [[k * vi * vj - s2 for vj in v[:i]] + [s2 + k * vi * vi]
               for i, vi in enumerate(v)]
    tails = linalg.realize_tails(first_options, (k,) + (1,) * n, targets, s2)
    if tails is None:
        raise ValueError(f"no realization found for these {name} values")
    # rows of the mode's type already, so from_rows coerces none of them
    entry_rows = [(c[i],) + tuple(tails[i]) for i in range(n + 2)]
    return ConfigMatrix.from_rows(geometry, entry_rows, mode=mode)
