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

    Works like the spherical realizer but under the Lorentz tail form
    diag(-1, 1, ..., 1), with first tail (c_1, 1, 0, ..., 0).  A coth entry
    of absolute value 1 admits the zero tail (the row of the ideal boundary
    itself), which is tried first.  Exact input yields an exact matrix or a
    ValueError.
    """
    return forms._realize_tangent_rows(
        forms.HYPERBOLIC, coths, "coth",
        lambda c0, one: ([()] if abs(c0) == 1 else []) + [(c0, one)])
