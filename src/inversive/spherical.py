"""Spherical caps on the unit n-sphere, as coordinate rows.

A cap with unit center y and angular radius alpha in (0, pi) has coordinate
row

    w+ = (cot alpha, y_0/sin alpha, ..., y_n/sin alpha)

and the Lorentz-like form J = diag(-1, 1, ..., 1) plays the role the
tangency form plays in the plane: w+ J w+ = 1 for every cap, and two caps
are externally tangent exactly when the product is -1.

Exactness lives at the row level.  A rational cot alpha almost always comes
with an irrational sin alpha, so the package works on rational rows and
never stores a cap's radian radius or center.
"""

from . import forms


def realize_cap_config(cots):
    """One configuration of pairwise tangent caps with the given cot values.

    The rows are those of a base configuration, moved by one or two
    reflections of the Gram target onto the given values
    (forms._reflected_base), so every cot vector that meets the Soddy
    relation is realized: in the plane from the base cot values
    (0, 1, 1, 2), in exact rows when its values are exact; for float values
    in any other dimension from the equal caps of a regular simplex; and
    for exact values in n = 1, 8 and 9 from one rational configuration of
    the dimension, found once by a tail search (forms._base).  Exact values
    in any other dimension raise ExactnessError.
    """
    return forms._realize_tangent_rows(forms.SPHERICAL, cots, "cot")
