"""Independent routes and the paper's theorem checks that the tests compare
the library against.

None of this is used by the package, the CLI or the benchmark; it checks
them from outside, as tests/reference_svg.py checks the renderer.

- The literal forms of the paper: Q_n^{-1}, the Lorentz-like form and the
  curvature-center target.
- Theorem checks: the transposed-inverse conjugation, the reflection
  matrix R with R W the reflected configuration, the complex Descartes
  relations and the one-dimensional Descartes relation.
- The object routes: oriented planar spheres and hyperplanes, their
  augmented rows and the rows read back as objects, and spherical caps
  with their stereographic images.
- The curved realization: a base configuration moved onto a bend vector by
  reflections of the Gram target, on Fraction matrices, and the Gram
  product W^T Q_n W those rows are held to.
- A dilation by a power of two written entry by entry, which float rows
  undergo without rounding.

cap_to_plane and plane_to_cap are deliberately not written as G products;
they apply the projection formulas directly, so that the matrix route of
transform.convert_matrix can be tested against an independently computed
answer.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from inversive import forms, linalg
from inversive.scalars import (EXACT, coerce, coerce_row, div, mode_of,
                               near)


def descartes_form_inverse(n):
    """Q_n^{-1} = I - (1/2) ones ones^T, independent of n, exact."""
    return forms._identity_minus(n + 2, Fraction(1, 2))


def lorentz_like_form(n):
    """diag(-1, 1, ..., 1) on n+2 coordinates, exact."""
    return linalg.block_diag((), (-1,) + (1,) * (n + 1), EXACT)


def centers_gram_target(n):
    """Exact curvature-center target: diag(0, 2, ..., 2) on n+1."""
    return linalg.block_diag((), (0,) + (2,) * n, EXACT)


def inverse_conjugation_check(w, a, b):
    """Residual of W^T B^{-1} W - A^{-1}, within DEFAULT_TOL.

    Whenever W A W^T = B holds for square W, the transposed relation with the
    inverses holds as well; this check exercises that on concrete data.
    """
    return forms.check_identity(w, linalg.mat_inv(forms._rows(b)),
                                linalg.mat_inv(forms._rows(a)))


def reflection_matrix(n, i):
    """Exact R with R W = W after replacing row i; R^T Q R = Q, R^2 = I."""
    if n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < n + 2:
        raise ValueError(f"row index {i} out of range")
    eye = linalg.block_diag((), (1,) * (n + 2), EXACT)
    c = Fraction(2, n - 1)
    row = (c,) * i + (-Fraction(1),) + (c,) * (n + 1 - i)
    return eye[:i] + (row,) + eye[i + 1:]


def descartes_1d_check(curvatures):
    """Q_1 on three curvatures: sum of squares minus the squared sum; zero
    for every covering configuration."""
    curvatures = tuple(curvatures)
    if len(curvatures) != 3:
        raise ValueError("need exactly 3 curvatures")
    return forms.bend_residual(forms.EUCLIDEAN, curvatures)


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


def _unit_row_entries(geometry, row, noun):
    """The entries of a row whose pair_product with itself is 1 within
    DEFAULT_TOL; otherwise ValueError "not a valid <noun>, self product
    <product>"."""
    entries = row.entries if isinstance(row, forms.CoordRow) else tuple(row)
    self_product = forms.pair_product(geometry, row, row)
    if not near(self_product, 1):
        raise ValueError(f"not a valid {noun}, self product {self_product}")
    return entries


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


def augmented_coords(obj):
    """Augmented coordinate row (bbar, b, b x) of a sphere, or (2d, 0, h)
    of a hyperplane, as the euclid module writes them."""
    if isinstance(obj, OrientedSphere):
        b = obj.curvature
        norm2 = sum(x * x for x in obj.center)
        bbar = norm2 * b - div(1, b)
        entries = (bbar, b) + tuple(b * x for x in obj.center)
    else:
        entries = (2 * obj.offset, 0 * obj.offset) + obj.normal
    mode = mode_of(entries)
    return forms.CoordRow(forms.EUCLIDEAN, coerce_row(entries, mode))


def config_from_objects(objs):
    """Stack augmented rows of n+2 objects into a configuration matrix."""
    return forms.ConfigMatrix.from_rows(
        forms.EUCLIDEAN, [augmented_coords(o).entries for o in objs])


def object_from_augmented(row):
    """Rebuild the sphere or hyperplane encoded by an augmented row; a float
    bend within scalars.DEFAULT_TOL of 0 gives a hyperplane."""
    entries = _unit_row_entries(forms.EUCLIDEAN, row, "augmented row")
    bbar, b = entries[0], entries[1]
    tail = entries[2:]
    if near(b, 0):
        return OrientedHyperplane(tail, div(bbar, 2))
    return OrientedSphere(b, tuple(m / b for m in tail))


def objects_from_config(config):
    return tuple(object_from_augmented(r) for r in config.rows)


@dataclass(frozen=True)
class SphericalCap:
    """Cap on the unit sphere; row is the optional exact coordinate backing."""

    center: tuple
    angular_radius: float
    row: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if not 0 < self.angular_radius < math.pi:
            raise ValueError("angular radius must lie in (0, pi)")
        norm2 = sum(float(y) * float(y) for y in self.center)
        if not near(norm2, 1, 1e-9):
            raise ValueError("cap center must be a unit vector")

    @property
    def n(self):
        return len(self.center) - 1

    @property
    def cot(self):
        """Exact when row-backed, float otherwise."""
        if self.row is not None:
            return self.row[0]
        return math.cos(self.angular_radius) / math.sin(self.angular_radius)


def cap_coords(cap):
    """Coordinate row (cot alpha, y/sin alpha) of a cap."""
    if cap.row is not None:
        return forms.CoordRow(forms.SPHERICAL, cap.row)
    s = math.sin(cap.angular_radius)
    c = math.cos(cap.angular_radius)
    entries = (c / s,) + tuple(float(y) / s for y in cap.center)
    return forms.CoordRow(forms.SPHERICAL, entries)


def cap_from_coords(row):
    """Cap encoded by a coordinate row.

    The validity product row J row = 1 pins down sin alpha, so the row
    determines a unique alpha in (0, pi) and a unit center.  Exact rows are
    kept as the cap's backing so cot alpha stays rational.
    """
    entries = _unit_row_entries(forms.SPHERICAL, row, "cap row")
    c = float(entries[0])
    alpha = math.atan2(1.0, c)
    s = math.sin(alpha)
    center = tuple(float(q) * s for q in entries[1:])
    backing = entries if mode_of(entries) == EXACT else None
    return SphericalCap(center, alpha, row=backing)


def cap_to_plane(cap):
    """Stereographic image of a cap: a sphere, or a hyperplane when the
    cap's boundary passes through the projection pole.

    With cap center p and angular radius alpha, the image sphere has center
    x_j = p_j/(p_0 + cos alpha) and oriented radius sin alpha/(p_0 + cos
    alpha); when p_0 + cos alpha = 0 the image is the hyperplane with unit
    normal p_j/sin alpha at offset cot alpha, for a float p_0 + cos alpha
    within DEFAULT_TOL of 0.  Row-backed caps divide row entries instead,
    which keeps rational rows rational.
    """
    if cap.row is not None:
        c = cap.row[0]
        q0 = cap.row[1]
        q = cap.row[2:]
        b = q0 + c
        if near(b, 0):
            return OrientedHyperplane(q, c)
        return OrientedSphere(b, tuple(div(x, b) for x in q))
    ca = math.cos(cap.angular_radius)
    sa = math.sin(cap.angular_radius)
    denom = float(cap.center[0]) + ca
    if near(denom, 0):
        return OrientedHyperplane(
            tuple(float(p) / sa for p in cap.center[1:]), ca / sa)
    return OrientedSphere(denom / sa,
                          tuple(float(p) / denom for p in cap.center[1:]))


def plane_to_cap(obj):
    """Cap whose stereographic image is the given sphere or hyperplane.

    Builds the cap row directly: a sphere with curvature b and center x
    lifts to (cot alpha, q_0, b x) with cot alpha = (b (1 + |x|^2) - 1/b)/2
    and q_0 = (b (1 - |x|^2) + 1/b)/2; a hyperplane at offset d with unit
    normal h lifts to (d, -d, h).
    """
    if isinstance(obj, OrientedHyperplane):
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
    return cap_from_coords(entries)


# --- the curved realization ------------------------------------------------

# the rows of cot values (0, 1, 1, 2) and of coth values (-2, 3, 5, 6), and
# the head of the diagonal Gram targets of the two geometries, then 2s
BASE_ROWS = {
    "spherical": ((0, 1, 0, 0), (1, -1, 1, 0), (1, -1, -1, 0), (2, -1, 0, 2)),
    "hyperbolic": ((-2, -2, 1, 0), (3, 3, -1, 0), (5, 7, -5, 0), (6, 8, -5, 2)),
}
_TARGET_HEAD = {"spherical": (-2, 2), "hyperbolic": (2, -2)}


def curved_target(geometry, n):
    """The diagonal of the spherical or hyperbolic Gram target in n-space."""
    return _TARGET_HEAD[geometry] + (2,) * n


def curved_identity_holds(geometry, rows):
    """Whether W^T Q_n W is the diagonal Gram target of the geometry, on
    Fractions: with Q_n = I - ones ones^T / n on n+2 rows, entry (i, j) is
    the product of columns i and j less sigma_i sigma_j / n, sigma the
    column sums."""
    cols = [[Fraction(x) for x in col] for col in zip(*rows)]
    n = len(rows) - 2
    t = curved_target(geometry, n)
    sums = [sum(col) for col in cols]
    return all(sum(x * y for x, y in zip(a, b)) - sa * sb / n
               == (t[i] if i == j else 0)
               for i, (a, sa) in enumerate(zip(cols, sums))
               for j, (b, sb) in enumerate(zip(cols, sums)))


def _fraction_solve(a, b):
    """x with a x = b for an invertible square matrix a, by Gauss-Jordan
    elimination on Fractions."""
    k = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(k):
        p = next(i for i in range(col, k) if m[i][col])
        m[col], m[p] = m[p], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(k):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[k] for row in m]


def _fraction_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def isotropic_reflection(geometry, bends):
    """Whether v = e - W0^{-1} c is a nonzero isotropic vector of the Gram
    target T, where one reflection cannot carry e to W0^{-1} c."""
    t = curved_target(geometry, 2)
    g = _fraction_solve(BASE_ROWS[geometry], bends)
    v = [int(i == 0) - x for i, x in enumerate(g)]
    return any(v) and sum(ti * x * x for ti, x in zip(t, v)) == 0


def reflected_base(geometry, bends, factor=2, w0=None):
    """Fraction rows W0 G of a spherical or hyperbolic configuration with
    the Descartes bends c, taken at their exact values (a float at its
    dyadic one).

    W0 is w0, by default the plane base of BASE_ROWS, T the Gram target and
    e = (1, 0, ..., 0), so that W0 e holds the base bends, and
    g = W0^{-1} c.  The map that carries a to b is
    x -> x - factor (x^T T v) / (2 a^T T v) v with
    v = a - b: the reflection of T in v when a and b have one norm and
    factor is 2, and no isometry of T for another factor.  G carries e to
    g, or, when v = e - g is isotropic (v_0 = 0), e to -g and then -g to g.
    A hyperbolic W whose first row with |c| >= 1 and a nonzero q_0 has q_0
    of the other sign than c gets its q_0 column negated.
    """
    w0 = [[Fraction(x) for x in row]
          for row in (BASE_ROWS[geometry] if w0 is None else w0)]
    k = len(w0)
    t = curved_target(geometry, k - 2)
    g = _fraction_solve(w0, bends)
    e = [1] + [0] * (k - 1)

    def carrying(a, b):
        v = [x - y for x, y in zip(a, b)]
        m = 2 * sum(ti * x * y for ti, x, y in zip(t, a, v))
        return [[int(i == j) - factor * v[i] * t[j] * v[j] / m
                 for j in range(k)] for i in range(k)]

    if g == e:
        w = w0
    elif g[0] != 1:
        w = _fraction_matmul(w0, carrying(e, g))
    else:
        minus_g = [-x for x in g]
        w = _fraction_matmul(w0, _fraction_matmul(carrying(minus_g, g),
                                                  carrying(e, minus_g)))
    if geometry == "hyperbolic":
        sheet = [r for r in w if abs(r[0]) >= 1 and r[1]]
        if sheet and (sheet[0][0] > 0) != (sheet[0][1] > 0):
            w = [[r[0], -r[1], *r[2:]] for r in w]
    return tuple(tuple(r) for r in w)


def power_of_two_dilated(rows, k):
    """Euclidean augmented rows (bbar, b, b x) under the dilation x -> 2^k x,
    entry by entry: bbar times 2^k, b times 2^-k and b x as it is.  A float
    product by a power of two is exact while it stays normal, so rounding
    commutes with it: since the reflections act on W from the left and the
    dilation from the right (Lagarias, Mallows, Wilks), the float walk of
    the dilated seed at the bound times 2^-k has these rows of the walk of
    the seed, bit for bit."""
    return [(math.ldexp(r[0], k), math.ldexp(r[1], -k), *r[2:]) for r in rows]
