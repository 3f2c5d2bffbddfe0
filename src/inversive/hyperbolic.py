"""Hyperbolic spheres in the hyperboloid model, as coordinate rows.

Points of hyperbolic n-space sit on the upper sheet u_0^2 - u_1^2 - ... -
u_n^2 = 1.  A sphere of hyperbolic radius s > 0 about a point g on the sheet
is the slice {u : g_0 u_0 - sum g_j u_j = cosh s}, and its coordinate row is

    w- = (coth s, u_0/sinh s, ..., u_n/sinh s).

The signed form J~ = diag(1, -1, 1, ..., 1) gives w- J~ w- = 1 on such rows
(coth^2 s - 1/sinh^2 s = 1) and -1 on externally tangent pairs.  The coth
entry tells the loci apart: above 1 in absolute value a real sphere,
exactly 1 a horocycle, below 1 a virtual row, a hyperplane slice that
misses the upper sheet.

A rational coth s forces an irrational sinh s in general, so exact
arithmetic happens on rows; the packing walk and the renderer read the
rows and never need a center and radius.
"""

from . import forms


def realize_sphere_config(coths):
    """One configuration of pairwise tangent rows with the given coth values.

    As by the spherical realizer, the rows are those of a base
    configuration moved by one or two reflections of the Gram target onto
    the given values and put on the upper sheet (forms._reflected_base):
    in the plane the base coth values (-2, 3, 5, 6), and in any other
    dimension the spherical base of the realizer of cot values carried over
    by the conversion head.  Every coth vector that meets the Soddy
    relation is realized, in exact rows when its values are exact, where
    the spherical realizer realizes exact values: in n = 1, 2, 8 and 9.
    """
    return forms._realize_tangent_rows(forms.HYPERBOLIC, coths, "coth")
