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

cap_to_plane and plane_to_cap are deliberately not written as G products;
they apply the projection formulas directly so the matrix route can be
tested against an independently computed answer.
"""

import functools
import math

from . import euclid, forms, linalg, spherical
from .scalars import (DEFAULT_TOL, EXACT, coerce_row, div, mode_of, near,
                      scaled_rows)


@functools.lru_cache(maxsize=None)
def conversion_matrix(src, dst, n, mode=EXACT):
    """Right-multiplication matrix sending src-kind rows to dst-kind rows:
    the head to_euclidean_src to_euclidean_dst^{-1}, then I on n more
    coordinates (n = 0 gives the head alone)."""
    to_src, to_dst = (forms._by_geometry(forms._GEOMETRY, tag).to_euclidean
                      for tag in (src, dst))
    head = linalg.matmul(to_src, linalg.mat_inv(to_dst))
    return linalg.block_diag(head, (1,) * n, mode)


def convert_matrix(w, to, tol=DEFAULT_TOL):
    """Convert a configuration to another geometry's coordinates.

    The input must satisfy its own Gram identity; the output satisfies the
    target's, and the round trip is exact in rational mode.  Each row keeps
    its tail, and its first two entries are mixed by the conversion head,
    in the frame of scalars.scaled_rows (ints over the LCM of their
    denominators in exact mode).
    """
    if not isinstance(w, forms.ConfigMatrix):
        raise TypeError("convert_matrix expects a ConfigMatrix")
    mode = w.mode
    res = w.residual(tol)
    if not res.ok:
        raise ValueError(
            f"input violates the {w.geometry} identity "
            f"(max residual {res.max_abs_entry_error})")
    ((a, b), (c, d)), h, _ = scaled_rows(
        conversion_matrix(w.geometry, to, 0, mode), mode)
    rows = w.matrix()
    heads, s, quotient = scaled_rows([row[:2] for row in rows], mode)
    heads = [(quotient(x * a + y * c, s * h), quotient(x * b + y * d, s * h))
             for x, y in heads]
    return forms.ConfigMatrix(to, [forms.CoordRow(to, head + row[2:])
                                   for head, row in zip(heads, rows)])


def translation(v):
    """G of the translation x -> x + v on Euclidean augmented rows: bbar
    gains 2 (b x).v + b |v|^2 and b x gains b v; exact for exact v."""
    mode = mode_of(v)
    v = coerce_row(v, mode)
    eye = linalg.block_diag((), (1,) * (len(v) + 2), mode)
    return ((eye[0], (sum(x * x for x in v), eye[1][1]) + v)
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

    g must keep the Euclidean Gram target T, g^T T g = T (float g up to
    forms.Residual.within_rounding), or ValueError is raised.  A float g
    moves a float configuration only; on an exact one it raises
    ExactnessError.
    """
    n, mode = w.n, w.mode
    g = tuple(coerce_row(row, mode) for row in g)
    target = forms.target_for(forms.EUCLIDEAN, n, mode)
    if not forms.check_identity(g, target, target).within_rounding(g):
        raise ValueError("the matrix does not keep the Euclidean Gram target")
    m = linalg.matmul(
        linalg.matmul(conversion_matrix(w.geometry, forms.EUCLIDEAN, n, mode),
                      g),
        conversion_matrix(forms.EUCLIDEAN, w.geometry, n, mode))
    return forms.ConfigMatrix.from_rows(w.geometry,
                                        linalg.matmul(w.matrix(), m), mode=mode)


def bend_triple(b, bbar):
    """(cot alpha, coth s) of the cap and hyperbolic sphere matching a
    Euclidean row with bend b and inverted bend bbar; their sum is b."""
    return (div(b + bbar, 2), div(b - bbar, 2))


def cap_to_plane(cap, tol=DEFAULT_TOL):
    """Stereographic image of a cap: a sphere, or a hyperplane when the
    cap's boundary passes through the projection pole.

    With cap center p and angular radius alpha, the image sphere has center
    x_j = p_j/(p_0 + cos alpha) and oriented radius sin alpha/(p_0 + cos
    alpha); when p_0 + cos alpha = 0 the image is the hyperplane with unit
    normal p_j/sin alpha at offset cot alpha.  Row-backed caps divide row
    entries instead, which keeps rational rows rational.
    """
    if cap.row is not None:
        c = cap.row[0]
        q0 = cap.row[1]
        q = cap.row[2:]
        b = q0 + c
        if near(b, 0, tol):
            return euclid.OrientedHyperplane(q, c)
        return euclid.OrientedSphere(b, tuple(div(x, b) for x in q))
    ca = math.cos(cap.angular_radius)
    sa = math.sin(cap.angular_radius)
    denom = float(cap.center[0]) + ca
    if near(denom, 0, tol):
        return euclid.OrientedHyperplane(
            tuple(float(p) / sa for p in cap.center[1:]), ca / sa)
    return euclid.OrientedSphere(denom / sa,
                                 tuple(float(p) / denom for p in cap.center[1:]))


def plane_to_cap(obj):
    """Cap whose stereographic image is the given sphere or hyperplane.

    Builds the cap row directly: a sphere with curvature b and center x
    lifts to (cot alpha, q_0, b x) with cot alpha = (b (1 + |x|^2) - 1/b)/2
    and q_0 = (b (1 - |x|^2) + 1/b)/2; a hyperplane at offset d with unit
    normal h lifts to (d, -d, h).
    """
    if isinstance(obj, euclid.OrientedHyperplane):
        d = obj.offset
        entries = (d, -d) + obj.normal
    else:
        b = obj.curvature
        inv = div(1, b)
        norm2 = sum(x * x for x in obj.center)
        entries = (div(b * (1 + norm2) - inv, 2),
                   div(b * (1 - norm2) + inv, 2)) + \
            tuple(b * x for x in obj.center)
    entries = coerce_row(entries, mode_of(entries))
    return spherical.cap_from_coords(entries)
