"""Conversions between the three geometries.

Stereographic projection from the unit sphere to the equatorial hyperplane
(and the analogous hyperboloid correspondence) act on coordinate rows as
right multiplication by fixed integer or half-integer matrices:

    w  = w+ G        with G = [[1, 1, 0], [-1, 1, 0], [0, 0, I]]
    w- = w+ P        with P the swap of the first two columns

so converting whole configurations is exact.  The scalar shadow of G is the
bend triple: a Euclidean row with entries (bbar, b, ...) corresponds to caps
and hyperbolic spheres with

    cot alpha = (b + bbar)/2,    coth s = (b - bbar)/2

whence cot alpha + coth s = b for every circle of corresponding packings.

The geometry table of forms holds the 2x2 head of each geometry's map to
Euclidean rows (G for caps).  The src-to-dst matrix is head_src
head_dst^{-1} on the first two columns and the identity on the rest,
worked out in exact arithmetic once per pair and coerced to the mode.

A Moebius map acts on configurations from the right too, W -> W G with
G^T T G = T for the Euclidean Gram target T, while the Apollonian
reflections act from the left (Lagarias, Mallows, Wilks), so the two
commute.  translation, dilation and inversion build G on Euclidean rows
(bbar, b, b x), and moved applies it in any geometry.
"""

import functools

from . import forms, linalg
from .scalars import (DEFAULT_TOL, EXACT, _sum, coerce_row, div,
                      integer_rows, mode_frame, mode_of, scaled_rows)


@functools.lru_cache(maxsize=None)
def conversion_matrix(src, dst, n, mode=EXACT):
    """Right-multiplication matrix sending src-kind rows to dst-kind rows:
    the head to_euclidean_src to_euclidean_dst^{-1}, then I on n more
    coordinates (n = 0 gives the head alone)."""
    to_src, to_dst = (forms._by_geometry(forms._GEOMETRY, tag).to_euclidean
                      for tag in (src, dst))
    head = linalg.matmul(to_src, linalg.mat_inv(to_dst))
    return linalg.block_diag(head, (1,) * n, mode)


@functools.lru_cache(maxsize=None)
def _framed_head(src, dst, mode):
    """The 2x2 conversion head of src to dst in its frame, (H, h) =
    scaled_rows(conversion_matrix(src, dst, 0, mode), mode), made once per
    pair and mode."""
    return scaled_rows(conversion_matrix(src, dst, 0, mode), mode)


def convert_matrix(w, to, tol=DEFAULT_TOL):
    """Convert a configuration to another geometry's coordinates.

    The input must satisfy its own Gram identity; the output satisfies the
    target's, and the round trip is exact in rational mode.  Each row keeps
    its tail, and its first two entries are mixed by the conversion head,
    on the frame of the configuration (ConfigMatrix.scaled) and the head's
    own, H = hC, taken framed from a cache per pair and mode (_framed_head):
    the rows over s h, in the frame of scalars.mode_frame.  Float rows are
    mixed in float arithmetic, which keeps a -0.0 entry.
    """
    if not isinstance(w, forms.ConfigMatrix):
        raise TypeError("convert_matrix expects a ConfigMatrix")
    mode = w.mode
    res = w.residual(tol)
    if not res.ok:
        raise ValueError(
            f"input violates the {w.geometry} identity "
            f"(max residual {res.max_abs_entry_error})")
    ((a, b), (c, d)), h = _framed_head(w.geometry, to, mode)
    rows, s = w.scaled
    rows = tuple([(x * a + y * c, x * b + y * d, *[t * h for t in tail])
                  for x, y, *tail in rows])
    return forms.ConfigMatrix(to, mode_frame(rows, s * h, mode))


def translation(v):
    """G of the translation x -> x + v on Euclidean augmented rows: bbar
    gains 2 (b x).v + b |v|^2 and b x gains b v; exact for exact v."""
    mode = mode_of(v)
    v = coerce_row(v, mode)
    eye = linalg.block_diag((), (1,) * (len(v) + 2), mode)
    return ((eye[0], (_sum(x * x for x in v), eye[1][1]) + v)
            + tuple((2 * x,) + row[1:] for x, row in zip(v, eye[2:])))


def dilation(s, n):
    """G of the dilation x -> s x, s > 0, on Euclidean augmented rows in
    n-space: diag(s, 1/s, I), as bbar scales by s and b by 1/s."""
    if not s > 0:
        raise ValueError("dilation factor must be positive")
    return linalg.block_diag((), (s, div(1, s)) + (1,) * n, mode_of((s,)))


def inversion(n):
    """G of the inversion in the unit sphere of n-space on Euclidean
    augmented rows: the swap of the first two columns."""
    return linalg.block_diag(((0, 1), (1, 0)), (1,) * n, EXACT)


def moved(w, g):
    """The configuration w moved by the Moebius map whose matrix on
    Euclidean augmented rows is g: W C g C^{-1} in w's geometry and mode,
    C = conversion_matrix(w.geometry, EUCLIDEAN, n).

    g must keep the Euclidean Gram target T, g^T T g = T (as
    forms.check_identity judges it), or ValueError is raised.  A float g
    moves a float configuration only; on an exact one it raises
    ExactnessError.  The product runs on the int frames of the exact values
    of W (ConfigMatrix.int_frame) and g, and leaves them by
    scalars.mode_frame, so that each float entry is rounded once, also
    where large entries of C g C^{-1} cancel, as in the curved image of a
    dilation.
    """
    n, mode = w.n, w.mode
    g = tuple(coerce_row(row, mode) for row in g)
    target = forms.target_for(forms.EUCLIDEAN, n, mode)
    if not forms.check_identity(g, target, target).ok:
        raise ValueError("the matrix does not keep the Euclidean Gram target")
    g, t = integer_rows(g)
    p, d = integer_rows(linalg.matmul(
        linalg.matmul(conversion_matrix(w.geometry, forms.EUCLIDEAN, n), g),
        conversion_matrix(forms.EUCLIDEAN, w.geometry, n)))
    rows, s = w.int_frame
    return forms.ConfigMatrix(w.geometry, mode_frame(
        linalg.matmul(rows, p), s * t * d, mode))
