"""The planar realizer of Euclidean bend vectors.

A sphere with center x and oriented radius r = 1/b carries the augmented
coordinate row

    w(S) = (bbar, b, b*x_1, ..., b*x_n)

where bbar is the oriented curvature of the image of S under inversion in the
unit sphere.  A hyperplane {x : h.x = d} with unit normal h pointing into its
interior gets w(H) = (2d, 0, h).  In these coordinates inversion in the unit
sphere is simply the swap of the first two entries (transform.inversion), and
a family of n+2 mutually tangent spheres is characterized by the augmented
Gram identity (see forms.target_for).  The realizer writes these rows in
closed form on the int frame of the bends' exact values, in both modes, so
float rows are the exact rows of the float bends rounded once.
"""

from . import forms


def _realize_strip(sigma, l):
    """(rows, scale): the two equal circles of bend s > 0 of a strip and its
    two lines, as int rows over a positive int scale: the circles centered
    at (0, 1/s) and (2/s, 1/s), (0, s, 0, 1) and (4/s, s, 2, 1), and the
    lines y = 0 and y = 2/s facing each other, (0, 0, 0, -1) and
    (4/s, 0, 0, 1).  The bend is given in the int frame of the bends,
    sigma = l s over their LCM scale l (forms._bend_values; a float s is
    its dyadic value), and the rows are ints over l sigma.
    """
    scale = l * sigma
    return [(0, sigma * sigma, 0, scale),
            (4 * l * l, sigma * sigma, 2 * scale, scale),
            (0, 0, 0, -scale), (4 * l * l, 0, 0, scale)], scale


def realize_curvature_vector(bends):
    """Construct one planar configuration with the prescribed bend vector.

    The bends must satisfy the Descartes relation; float bends up to
    scalars.DEFAULT_TOL, or up to scalars.ROUNDING times the square of their
    largest magnitude (at least 1), the rounding error of bends that large.
    Placement is canonical: the two largest bends b_a >= b_b become circles
    tangent at the origin with centers on the x axis, the third circle b_c
    sits in the upper half plane, and the remaining row is the one with bend
    b_d.  A vector with two zero bends yields the two-line strip arrangement
    instead.  Vectors whose majority orientation is outward are realized by
    reversing all orientations of the mirror input: its rows negated, so
    that a float zero entry there is -0.0.  A nonzero vector meeting the
    relation exactly has two bends of one sign at least; float bends that
    pass within tolerance with fewer than two of either sign, whose mirror
    would be flipped back, are refused with a ValueError naming them.

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
    bends, mode, ((v,), l) = forms._bend_values(
        forms.EUCLIDEAN, bends, "bends violate the Descartes relation")
    if not any(v):
        raise ValueError("the zero vector is not a bend vector")
    if sum(1 for x in v if x > 0) < 2:
        if sum(1 for x in v if x < 0) < 2:
            raise ValueError(
                f"bends {', '.join(map(str, bends))} have fewer than two "
                "positive and fewer than two negative entries: no "
                "configuration has them")
        rows, scale = realize_curvature_vector(tuple(-b for b in bends)).scaled
        return forms.ConfigMatrix(forms.EUCLIDEAN, (
            tuple([tuple([-x for x in r]) for r in rows]), scale))
    # largest first; the stable sort keeps ties in index order, so a strip
    # has its circles in the first two slots and its lines in the others
    order = sorted(range(4), key=v.__getitem__, reverse=True)
    va, vb, vc, vd = (v[i] for i in order)
    placed, scale = (_realize_strip(va, l) if vc == vd == 0
                     else _place(va, vb, vc, vd, l))
    rows = [None] * 4
    for slot, original_index in enumerate(order):
        rows[original_index] = placed[slot]
    return forms._realized(forms.EUCLIDEAN, rows, scale, bends, mode)


def _place(ia, ib, ic, id_, l):
    """(rows, scale): the canonical rows for Descartes bends
    b_a >= b_b >= b_c >= b_d with b_a, b_b > 0, worked out on the bends in
    the int frame of their LCM scale l (forms._bend_values; a float bend is
    its dyadic value), ia = l b_a and so on, so that s and q below are l
    times theirs.  The rows (0, b_a, 1, 0), (0, b_b, -1, 0),
    (4l/s, b_c, x, y) and (4l/s, b_d, x, y_d), x and y the center of circle
    c, are ints over l s.

    For exact bends b_c > 0 too (b_c <= 0 would force a second zero bend), so
    circle c, centered at (b_a - b_b, q) / (s b_c) with s = b_a + b_b and
    q = |b_d - b_a - b_b - b_c|, lies above the x axis, and
    q^2 = 4 (b_a b_b + b_c s) > 0: the two completions of circles a, b and
    c never coincide here."""
    s = ia + ib
    q = abs(id_ - s - ic)
    # rows a and b fix bbar_d and x_d, and row c then gives y_d = y - 2 or
    # y + 2 as b_d is the smaller or the larger root of the Descartes
    # quadratic in b_d
    q_d = q - 2 * s if id_ < s + ic else q + 2 * s
    # both other circles touch a and b at 0: bbar = 4 l / s
    return [(0, ia * s, l * s, 0), (0, ib * s, -l * s, 0),
            (4 * l * l, ic * s, (ia - ib) * l, q * l),
            (4 * l * l, id_ * s, (ia - ib) * l, q_d * l)], l * s
