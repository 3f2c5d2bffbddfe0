"""Oriented spheres and hyperplanes in Euclidean n-space.

A sphere with center x and oriented radius r = 1/b carries the augmented
coordinate row

    w(S) = (bbar, b, b*x_1, ..., b*x_n)

where bbar is the oriented curvature of the image of S under inversion in the
unit sphere.  A hyperplane {x : h.x = d} with unit normal h pointing into its
interior gets w(H) = (2d, 0, h).  In these coordinates inversion in the unit
sphere is simply the swap of the first two entries (transform.inversion), and
a family of n+2 mutually tangent spheres is characterized by the augmented
Gram identity (see forms.target_for).
"""

from dataclasses import dataclass

from . import forms, linalg
from .scalars import (DEFAULT_TOL, coerce, coerce_row, div, mode_of, near,
                      negligible, scaled_rows, sqrt_scalar)


@dataclass(frozen=True)
class OrientedSphere:
    """Sphere with nonzero oriented curvature; b > 0 means the interior is
    the bounded side."""

    curvature: object
    center: tuple

    def __post_init__(self):
        if self.curvature == 0:
            raise ValueError("curvature must be nonzero; use OrientedHyperplane")
        object.__setattr__(self, "center", tuple(self.center))

    @property
    def n(self):
        return len(self.center)

    @property
    def radius(self):
        return div(1, self.curvature)


@dataclass(frozen=True)
class OrientedHyperplane:
    """Hyperplane {x : normal.x = offset}; the unit normal points into the
    interior side."""

    normal: tuple
    offset: object

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(self.normal))
        norm2 = sum(h * h for h in self.normal)
        if not near(norm2, 1, 1e-9):
            raise ValueError("hyperplane normal must be a unit vector")

    @property
    def n(self):
        return len(self.normal)


def curvature_center(obj):
    """The curvature-center vector (b, b*x) of a sphere, or (0, h) of a
    hyperplane.  Hyperplane offsets are not recoverable from this vector;
    the augmented row keeps them."""
    if isinstance(obj, OrientedSphere):
        b = obj.curvature
        return (b,) + tuple(b * x for x in obj.center)
    return (0 * obj.offset,) + obj.normal


def augmented_coords(obj):
    """Augmented coordinate row of a sphere or hyperplane."""
    if isinstance(obj, OrientedSphere):
        b = obj.curvature
        norm2 = sum(x * x for x in obj.center)
        bbar = norm2 * b - div(1, b)
        entries = (bbar, b) + tuple(b * x for x in obj.center)
    else:
        entries = (2 * obj.offset, 0 * obj.offset) + obj.normal
    mode = mode_of(entries)
    return forms.CoordRow(forms.EUCLIDEAN, coerce_row(entries, mode))


def object_from_augmented(row, tol=DEFAULT_TOL):
    """Rebuild the sphere or hyperplane encoded by an augmented row."""
    entries = forms.unit_row_entries(forms.EUCLIDEAN, row, "augmented row", tol)
    bbar, b = entries[0], entries[1]
    tail = entries[2:]
    if near(b, 0, tol):
        return OrientedHyperplane(tail, div(bbar, 2))
    return OrientedSphere(b, tuple(m / b for m in tail))


def _as_complex_pair(z):
    if isinstance(z, complex):
        return (z.real, z.imag)
    x, y = z
    return (x, y)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def complex_descartes_check(bends, centers):
    """Residuals of the two planar center relations.

    For four mutually tangent circles with bends b and centers z (as complex
    numbers or (x, y) pairs):

        sum (b z)^2 = (1/2) (sum b z)^2
        sum b (b z) = (1/2) (sum b) (sum b z)

    Returns the two residuals as (re, im) pairs, exact when the input is.
    """
    bends = tuple(bends)
    if len(bends) != 4:
        raise ValueError("planar relation, need exactly 4 circles")
    zs = [_as_complex_pair(z) for z in centers]
    if len(zs) != 4:
        raise ValueError("need exactly 4 centers")
    bz = [(b * z[0], b * z[1]) for b, z in zip(bends, zs)]
    sum_b = sum(bends)
    sum_bz = (sum(v[0] for v in bz), sum(v[1] for v in bz))
    half = coerce(1, mode_of(bends + sum(zs, ()))) / 2
    sq = [_cmul(v, v) for v in bz]
    lhs1 = (sum(v[0] for v in sq), sum(v[1] for v in sq))
    rhs1 = _cmul(sum_bz, sum_bz)
    res1 = (lhs1[0] - half * rhs1[0], lhs1[1] - half * rhs1[1])
    lhs2 = (sum(b * v[0] for b, v in zip(bends, bz)),
            sum(b * v[1] for b, v in zip(bends, bz)))
    res2 = (lhs2[0] - half * sum_b * sum_bz[0],
            lhs2[1] - half * sum_b * sum_bz[1])
    return res1, res2


def config_from_objects(objs):
    """Stack augmented rows of n+2 objects into a configuration matrix."""
    rows = tuple(augmented_coords(o) for o in objs)
    return forms.ConfigMatrix(forms.EUCLIDEAN, rows)


def objects_from_config(config, tol=DEFAULT_TOL):
    return tuple(object_from_augmented(r, tol) for r in config.rows)


def _complete_rows(w1, w2, w3, mode):
    """Both augmented rows tangent to three mutually tangent rows."""
    half = coerce(1, mode) / 2
    # row w times the matrix K of pair_product is (-w_1/2, -w_0/2, w_2, ...)
    system = [(-half * w[1], -half * w[0]) + tuple(w[2:]) for w in (w1, w2, w3)]
    particular, kernel = linalg.solve_affine(system, [-1, -1, -1])
    if len(kernel) != 1:
        raise ValueError("degenerate input rows")
    kv = kernel[0]
    a, b, c = (forms.pair_product(forms.EUCLIDEAN, x, y) for x, y in
               ((kv, kv), (particular, kv), (particular, particular)))
    b, c = 2 * b, c - 1
    if a == 0:
        raise ValueError("degenerate tangency arrangement")
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("no real completion; tangency points may coincide")
    root = sqrt_scalar(disc)
    if root == 0:
        raise ValueError("completions coincide; tangency points are not distinct")
    u1 = (-b + root) / (2 * a)
    u2 = (-b - root) / (2 * a)
    sol1 = tuple(p + u1 * x for p, x in zip(particular, kv))
    sol2 = tuple(p + u2 * x for p, x in zip(particular, kv))
    return sol1, sol2


def complete_to_descartes(s1, s2, s3, tol=DEFAULT_TOL):
    """The two ways to extend three mutually tangent circles to four.

    Input objects must be pairwise externally tangent with distinct tangency
    points.  Returns two planar configurations sharing the first three rows,
    ordered by the completed row.
    """
    objs = (s1, s2, s3)
    ws = [augmented_coords(o) for o in objs]
    if any(len(w.entries) != 4 for w in ws):
        raise ValueError("completion is implemented for circles in the plane")
    for i in range(3):
        for j in range(i + 1, 3):
            p = forms.pair_product(forms.EUCLIDEAN, ws[i], ws[j])
            if not near(p, -1, tol):
                raise ValueError(
                    f"objects {i} and {j} are not externally tangent "
                    f"(pair product {p})")
    mode = mode_of([x for w in ws for x in w.entries])
    sol1, sol2 = _complete_rows(ws[0].entries, ws[1].entries, ws[2].entries, mode)
    first, second = sorted([sol1, sol2])
    def build(w4):
        rows = tuple(ws) + (forms.CoordRow(forms.EUCLIDEAN, coerce_row(w4, mode)),)
        return forms.ConfigMatrix(forms.EUCLIDEAN, rows)
    return build(first), build(second)


def _realize_strip(bends, mode):
    """Two parallel lines and two equal circles, matching bend positions."""
    zero_pos = [i for i, b in enumerate(bends) if b == 0]
    circle_pos = [i for i, b in enumerate(bends) if b != 0]
    s = bends[circle_pos[0]]
    r = div(1, s)
    one = coerce(1, mode)
    objs = [None] * 4
    objs[zero_pos[0]] = OrientedHyperplane((0 * one, -one), 0 * one)
    objs[zero_pos[1]] = OrientedHyperplane((0 * one, one), 2 * r)
    objs[circle_pos[0]] = OrientedSphere(s, (0 * one, r))
    objs[circle_pos[1]] = OrientedSphere(s, (2 * r, r))
    return config_from_objects(objs)


def realize_curvature_vector(bends, tol=DEFAULT_TOL):
    """Construct one planar configuration with the prescribed bend vector.

    The bends must satisfy the Descartes relation; float bends up to tol,
    or up to scalars.ROUNDING times the square of their largest magnitude
    (at least 1), the rounding error of bends that large.  Placement is
    canonical: the two largest bends b_a >= b_b become circles tangent at
    the origin with centers on the x axis, the third circle b_c sits in the
    upper half plane, and the remaining row is the one with bend b_d.  A
    vector with two zero bends yields the two-line strip arrangement
    instead.  Vectors whose majority orientation is outward are realized by
    reversing all orientations of the mirror input.

    Both modes place the rows by one closed form, with no square root and no
    solve: rows a and b are (0, b_a, 1, 0) and (0, b_b, -1, 0), and the
    Descartes relation gives sqrt(b_a b_b + b_b b_c + b_c b_a) =
    |b_d - b_a - b_b - b_c| / 2, which fixes row c.  With its bend given,
    the tangency conditions on the fourth row are linear, and they solve in
    closed form.  The rows therefore carry the given bends unchanged.
    """
    bends = tuple(bends)
    if len(bends) != 4:
        raise ValueError("realization is implemented for the plane (4 bends)")
    mode = mode_of(bends)
    bends = coerce_row(bends, mode)
    residual = forms.bend_residual(forms.EUCLIDEAN, bends)
    if not negligible(residual, bends, tol):
        raise ValueError(f"bends violate the Descartes relation by {residual}")
    if all(b == 0 for b in bends):
        raise ValueError("the zero vector is not a bend vector")
    positives = sum(1 for b in bends if b > 0)
    if positives < 2:
        flipped = realize_curvature_vector(tuple(-b for b in bends), tol)
        rows = tuple(
            forms.CoordRow(forms.EUCLIDEAN, tuple(-x for x in r.entries))
            for r in flipped.rows)
        return forms.ConfigMatrix(forms.EUCLIDEAN, rows)
    zeros = sum(1 for b in bends if b == 0)
    if zeros == 2:
        return _realize_strip(bends, mode)
    # largest first; the stable sort keeps ties in index order
    order = sorted(range(4), key=bends.__getitem__, reverse=True)
    placed = _place(*(bends[i] for i in order), mode)
    ordered = [None] * 4
    for slot, original_index in enumerate(order):
        ordered[original_index] = placed[slot]
    return forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, ordered, mode=mode)


def _place(ba, bb, bc, bd, mode):
    """The canonical rows for Descartes bends ba >= bb >= bc >= bd with
    ba, bb > 0, evaluated on the bends in the frame of scalars.scaled_rows:
    times their scale l, divided by its quotient (into Fractions in exact
    mode, l = 1.0 and true division in float mode).

    For exact bends bc > 0 too (bc <= 0 would force a second zero bend), so
    circle c, centered at (b_a - b_b, q) / (s b_c) with s = b_a + b_b and
    q = |b_d - b_a - b_b - b_c|, lies above the x axis, and
    q^2 = 4 (b_a b_b + b_c s) > 0: the two completions never coincide here,
    and none of the degenerate cases of _complete_rows can arise."""
    ((ia, ib, ic, id_),), l, quotient = scaled_rows([(ba, bb, bc, bd)], mode)
    s = ia + ib
    q = abs(id_ - s - ic)
    zero, one = quotient(0, 1), quotient(1, 1)
    bbar = quotient(4 * l, s)  # both other circles touch a and b at 0
    x = quotient(ia - ib, s)
    # rows a and b fix bbar_d and x_d, and row c then gives y_d = y - 2 or
    # y + 2 as b_d is the smaller or the larger root of the Descartes
    # quadratic in b_d
    y = quotient(q, s)
    y_d = quotient(q - 2 * s if id_ < s + ic else q + 2 * s, s)
    return [(zero, ba, one, zero), (zero, bb, -one, zero), (bbar, bc, x, y),
            (bbar, bd, x, y_d)]
