"""Oriented tangent-sphere configurations in Euclidean, spherical, and
hyperbolic n-space, their coordinate-matrix identities, conversions between
the three geometries, and Apollonian packings with SVG rendering.

Everything runs in exact rational arithmetic or floats, chosen per value;
exact inputs are never silently approximated.

Import each name from its module: ``from inversive import apollonian``.
"""
