"""Reflections of Descartes configurations and Apollonian packings.

Replacing one sphere of a configuration by the other solution of the
tangency conditions acts on coordinate rows as

    row_i  ->  (2/(n-1)) * sum of the other rows  -  row_i

which is an involution preserving the Gram identity in every geometry.
Closing a seed under all n+2 such reflections, keeping rows whose bend
entry stays within a bound, produces the packing; always reflecting at the
row of minimal bend (the largest sphere) produces the loxodromic sequence
with its fourth order recurrence.

For n = 2 the four reflections generate a free product of four copies of
Z/2 (Graham, Lagarias, Mallows, Wilks, Yan, geometry and group theory I),
so the closure is a tree: a walk that never reflects back at the index that
produced a configuration meets no configuration twice, and needs no
deduplication.  In higher dimensions the group has further relations, and
generate() deduplicates configurations and rows.

A bend bound alone does not always make the closure finite.  A strip
configuration in the plane, or a hyperbolic packing containing horocycle
chains along the ideal boundary, contains infinitely many congruent copies
of the same bend pattern, so generate() also accepts max_depth/max_configs
caps and reports truncation instead of looping forever.

Both modes run one walk: every finite float is a dyadic rational, so a
float packing or loxodromic sequence is the exact one of its float seed,
each entry rounded once.

The arithmetic of a reflection, the column sums of a configuration and the
new row, is generated once per row width as two unrolled expressions
(_row_kernels), so that generate(), reflect() and the replayed loxodromic
configurations make no Python call per entry, for every n alike.
"""

from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cache
from math import floor, isfinite, isqrt

from . import euclid, forms, hyperbolic, spherical, transform
from .scalars import (DEFAULT_TOL, EXACT, ExactnessError, coerce_row,
                      frame_quotient, integer_rows, mode_of, near,
                      reduced_rows, scaled_rows, sqrt_scalar, unscaled_rows)


@cache
def _row_kernels(width):
    """(sums, reflected) on rows of width entries, unrolled from source
    text of ints only.  sums(rows) is the tuple of column sums of width
    rows, each column added left to right, as a loop over the rows in order
    adds floats and -0.0.  reflected(t, x, c) is the row c * (t - x) - x
    of column sums t, old row x and coefficient c."""
    cols = range(width)
    sums = eval("lambda r: (" + ", ".join(
        " + ".join(f"r[{i}][{j}]" for i in range(width)) for j in cols)
        + ",)")
    reflected = eval("lambda t, x, c: (" + ", ".join(
        f"c * (t[{j}] - x[{j}]) - x[{j}]" for j in cols) + ",)")
    return sums, reflected


def _reflect_entries(entry_rows, i, coeff):
    """The rows with row i replaced by its reflection, by the kernels of
    _row_kernels: the one entry point of reflect() and of the replayed
    loxodromic configurations."""
    sums, reflected = _row_kernels(len(entry_rows))
    new = reflected(sums(entry_rows), entry_rows[i], coeff)
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def reflect(w, i):
    """Replace row i of a configuration by its reflection.

    The new row is (2/(n-1)) times the sum of the other rows minus the old
    one; in exact mode reflecting twice at the same index restores the
    input exactly.  The result is not checked: its residual() tells whether
    it keeps the Gram identity.  An exact configuration is reflected on
    its frame (_int_frame, _walk_config), a float one on its float rows.
    """
    n = w.n
    if n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < n + 2:
        raise ValueError(f"row index {i} out of range")
    if w.mode == EXACT:
        rows, scale, coeff = _int_frame(w)
        return _walk_config(w.geometry, _reflect_entries(rows, i, coeff),
                            scale, coeff, EXACT)
    rows, scale = w.scaled
    return forms.ConfigMatrix(w.geometry, None, scaled=(
        _reflect_entries(rows, i, 2.0 / (n - 1)), scale))


@dataclass(frozen=True)
class Packing:
    """Closure of a seed under reflections, within a bound: the distinct
    circles of the configurations reached.

    scaled=(rows, scale), the rows in the frame of scalars.scaled_rows (int
    tuples over the LCM of their denominators, or float tuples and 1.0), is
    what the stream writer and the renderer read.  generate() and
    shell.loads_packing() pass rows=None and scaled; the CoordRows of rows
    are built from it when rows is first read, and kept.  Rows given to the
    constructor, as by dataclasses.replace(p, rows=...), are kept and
    framed once, in the mode of their entries.  scaled takes no part in
    equality.  dataclasses.replace(p, rows=None, truncated=True) replaces a
    field and keeps p.scaled; without rows=None, replace reads p.rows.
    """

    geometry: str
    n: int
    seed: forms.ConfigMatrix
    rows: tuple
    bound: object
    configs: tuple
    explored: int
    depth: int
    truncated: bool
    scaled: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rows is not None:
            entries = [r.entries for r in self.rows]
            mode = mode_of([x for row in entries for x in row])
            object.__setattr__(self, "scaled", scaled_rows(entries, mode))
        elif self.scaled is None:
            raise ValueError("a packing needs rows or scaled rows")
        else:
            object.__delattr__(self, "rows")  # built by __getattr__

    def __getattr__(self, name):
        # reached only for attributes the instance does not hold: rows
        # before it is first read
        if name != "rows":
            raise AttributeError(name)
        built = tuple(forms.CoordRow(self.geometry, row)
                      for row in unscaled_rows(*self.scaled, self.seed.mode))
        object.__setattr__(self, "rows", built)
        return built

    @property
    def bends(self):
        col = forms.bend_column(self.geometry)
        return tuple(r.entries[col] for r in self.rows)


def _check_seed(seed, tol):
    """Raise ValueError unless the seed meets its Gram identity within tol,
    or entry by entry within the rounding of its columns
    (forms.Residual.within_rounding): the Euclidean bar-bend grows with the
    square of the distance from the origin, the bend does not."""
    res = seed.residual(tol)
    if not res.within_rounding(seed, tol):
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")


def _int_frame(seed, bends_only=False):
    """(rows, scale, coeff): the seed rows of either mode, or with
    bends_only the one row of its bends, on ints over the least common
    multiple scale of their denominators (scalars.integer_rows; a power of
    two for floats), and the reflection coefficient 2/(n-1): an int for
    n = 2 and n = 3, so that reflections of int rows stay ints, and a
    Fraction above.  An exact seed's frame is its ConfigMatrix.scaled, a
    float seed's the integer_rows of its float rows, and the bend row is
    the bend column of that frame reduced by one gcd."""
    n = seed.n
    rows, scale = seed.scaled
    if seed.mode != EXACT:
        rows, scale = integer_rows(rows)
    if bends_only:
        col = forms.bend_column(seed.geometry)
        rows, scale = reduced_rows((tuple([row[col] for row in rows]),), scale)
    return rows, scale, 2 // (n - 1) if n <= 3 else Fraction(2, n - 1)


def _walk_frame(seed, tol, task, bends_only=False):
    """(rows, scale, coeff, quotient): the _int_frame that the walks of
    generate() and loxodromic() start from, after checking the seed, and
    the quotient(x, scale) that turns an entry of the walk back into the
    seed's mode (scalars.frame_quotient)."""
    if seed.n < 2:
        raise ValueError(f"{task} needs n >= 2")
    _check_seed(seed, tol)
    return (*_int_frame(seed, bends_only), frame_quotient(seed.mode))


def _walk_config(geometry, rows, scale, coeff, mode):
    """The configuration of rows of a walk over its scale, held as its frame
    (ConfigMatrix.scaled): exact rows, Fractions when the walk's coeff is
    no int (n > 3), over the LCM of their denominators, and float rows each
    divided once, rounded, over 1.0."""
    if mode != EXACT:
        frame = unscaled_rows(rows, scale, mode), 1.0
    else:
        if type(coeff) is not int:
            rows, denominator = integer_rows(rows)
            scale *= denominator
        frame = reduced_rows(rows, scale)
    return forms.ConfigMatrix(geometry, None, scaled=frame)


class InfiniteClosure(ValueError):
    """The closure of a seed within a bound is infinite, and no cap was
    given."""


def _check_finite(seed, bound):
    """Raise InfiniteClosure if the uncapped walk of generate() from a
    Euclidean n = 2 seed reaches a strip.

    The walk reaches the configuration that root_quadruple(bends, bound)
    returns.  When that is a root (0, 0, c, c) with c <= bound, the circles
    of bend c between its two parallel lines repeat forever.  An exact
    seed is reduced on the int bends of _int_frame, over their scale s,
    with the bound times s; each step and test is unchanged by the positive
    scale.  A float bend counts as zero within tol of the root's largest
    |bend|, at any scale.  The horocycle chains of hyperbolic packings are
    not checked.
    """
    if seed.geometry != forms.EUCLIDEAN or seed.n != 2:
        return
    if seed.mode == EXACT:
        (bends,), scale, _ = _int_frame(seed, bends_only=True)
        root = tuple([Fraction(b, scale) for b in
                      root_quadruple(bends, floor(bound * scale))])
    else:
        root = root_quadruple(seed.bends, bound)
    tol = DEFAULT_TOL * max(map(abs, root))
    zeros = sum(near(b, 0, tol) for b in root)
    if zeros >= 2 and max(root) <= bound:
        raise InfiniteClosure(
            f"the packing of this seed is infinite at any bound of at least "
            f"{max(root)}: its root quadruple {','.join(map(str, root))} is "
            "a strip between two parallel lines")


def generate(seed, bound, keep_configs=False, max_depth=None, max_configs=None,
             tol=DEFAULT_TOL):
    """Level-order closure of a seed under all reflections.

    New rows are kept while the absolute value of their bend entry is at
    most bound; in float mode a bend within tol * max(bound, max |seed
    bend|) above the bound counts as on it, so that rounding of the seed
    does not drop circles that its exact twin keeps, at any scale.  Levels
    are expanded in order, so the result is deterministic; rows are
    returned sorted.

    Both modes walk the seed rows on the ints of _walk_frame, a float seed
    exactly on its own values, and the bound is scaled alike.  For n = 2
    and n = 3 every row of the walk is an int vector (for higher n the same
    loop runs on Fractions, and the sorted rows are put back on ints at the
    end).  An exact Packing keeps the sorted int rows and their scale in its
    scaled field, and builds its Fraction rows only when they are read; in
    a float Packing each entry is the int one divided once, rounded, over
    1.0.  Kept configurations hold their frames (_walk_config).

    Each configuration remembers the index whose reflection produced it and
    is not reflected at that index again, since that only rebuilds its
    parent.  For n = 2 that is all the deduplication needed: the reflections
    generate a free product of four copies of Z/2 (Graham, Lagarias,
    Mallows, Wilks, Yan), so every configuration is reached by exactly one
    word without repeated letters, and the walk is a tree.  Each kept child
    then adds exactly one new circle, and the rows are the seed rows plus
    one per child.  For n >= 3 the group has further relations and the same
    configuration is reached by different words.  W is invertible, so two
    words reach the same sphere exactly when they give equal rows: rows are
    deduplicated by equality, and configurations by the sorted int ids of
    their rows.  A new row gets the next id once it is kept, after the
    max_configs test; since every row of a configuration met has an id, a
    child with a row of no id is a new configuration.  The column sums are
    formed once per configuration, and a child row is built only when its
    bend is within the bound, both by the unrolled kernels of _row_kernels
    for the width n + 2.

    Packings with hyperplane or horocycle chains are infinite at any bend
    bound; pass max_depth or max_configs to truncate them.  The returned
    Packing records whether truncation happened.  Without either cap, a
    Euclidean n = 2 seed whose walk reaches a strip within the bound raises
    InfiniteClosure (a ValueError) before walking.
    """
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    seed_rows, scale, coeff, _ = _walk_frame(seed, tol, "generation")
    n, mode = seed.n, seed.mode
    col = forms.bend_column(seed.geometry)
    if mode == EXACT:
        bound_value = limit = Fraction(bound)
    else:
        bound_value = float(bound)
        limit = bound_value + tol * max(bound_value, *map(abs, seed.bends))
    if bound_value < 0:
        raise ValueError("bound must be nonnegative")
    if max_depth is None and max_configs is None:
        _check_finite(seed, limit)
    elif (max_depth or 0) < 0 or (max_configs or 0) < 0:
        raise ValueError("max_depth and max_configs must be nonnegative")
    # an int is within the bound when within its floor: the bound test on
    # int rows stays in int arithmetic.  An infinite float bound prunes
    # nothing as it is.
    if isfinite(limit):
        limit = Fraction(limit) * scale
        if type(coeff) is int:
            limit = floor(limit)

    sums, reflected = _row_kernels(n + 2)
    dedup = n > 2
    # n >= 3: an int id per distinct row, and the configurations met, each
    # as the sorted ids of its rows
    ids = {}
    seed_ids = (tuple([ids.setdefault(r, len(ids)) for r in seed_rows])
                if dedup else None)
    seen_configs = {tuple(sorted(seed_ids))} if dedup else None
    kept_configs = ({tuple(sorted(seed_rows)): seed_rows} if keep_configs
                    else None)
    rows = list(seed_rows)

    # (rows, row ids for n >= 3, index that produced it; -1 for the seed)
    frontier = [(seed_rows, seed_ids, -1)]
    found = 1  # configurations, the seed included
    explored = 0
    depth = 0
    truncated = False
    while frontier:
        if max_depth is not None and depth >= max_depth:
            truncated = True
            break
        explored += len(frontier)
        next_frontier = []
        for entry_rows, entry_ids, parent in frontier:
            total = sums(entry_rows)
            total_bend = total[col]
            for i in range(n + 2):
                if i == parent:
                    continue
                old = entry_rows[i]
                if abs(coeff * (total_bend - old[col]) - old[col]) > limit:
                    continue
                new = reflected(total, old, coeff)
                child_ids = None
                if dedup:
                    new_id = ids.get(new)
                    # every row of a configuration met has an id, so a row
                    # without one makes a new configuration
                    if new_id is not None:
                        child_ids = entry_ids[:i] + (new_id,) + entry_ids[i + 1:]
                        key = tuple(sorted(child_ids))
                        if key in seen_configs:
                            continue
                if max_configs is not None and found >= max_configs:
                    truncated = True
                    break
                found += 1
                child = entry_rows[:i] + (new,) + entry_rows[i + 1:]
                if not dedup:
                    rows.append(new)
                else:
                    if new_id is None:  # an id only for a row kept
                        new_id = ids[new] = len(ids)
                        rows.append(new)
                        child_ids = entry_ids[:i] + (new_id,) + entry_ids[i + 1:]
                        key = tuple(sorted(child_ids))
                    seen_configs.add(key)
                if keep_configs:
                    kept_configs[tuple(sorted(child))] = child
                next_frontier.append((child, child_ids, i))
            if truncated:
                break
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    rows.sort()
    configs = None
    if keep_configs:
        configs = tuple(
            _walk_config(seed.geometry, kept_configs[k], scale, coeff, mode)
            for k in sorted(kept_configs))
    if type(coeff) is not int:
        rows, denominator = integer_rows(rows)
        scale *= denominator
    if mode != EXACT:  # each entry leaves the frame once, rounded
        rows, scale = unscaled_rows(rows, scale, mode), 1.0
    return Packing(seed.geometry, n, seed, None, bound_value, configs,
                   explored, depth, truncated, scaled=(tuple(rows), scale))


@dataclass(frozen=True)
class LoxodromicSequence:
    """Bends recorded while always reflecting the largest sphere, and the
    configurations of the walk, the seed first.

    loxodromic() passes configs=None and the init-only walk=(seed,
    indices) instead: the index reflected at each step.  When configs is
    first read, the indices are replayed on the int frame of the seed rows
    (_int_frame), each configuration
    sharing the unchanged rows of the one before, and the configurations
    are kept, as Packing.rows is.  walk is not a field, so fields, equality
    and repr are those of geometry, bends and configs.
    """

    geometry: str
    bends: tuple
    configs: tuple
    walk: InitVar[tuple] = None

    def __post_init__(self, walk):
        if self.configs is not None:
            return
        if walk is None:
            raise ValueError("a loxodromic sequence needs configs or its walk")
        object.__setattr__(self, "_walk", walk)
        object.__delattr__(self, "configs")  # built by __getattr__

    def __getattr__(self, name):
        # reached only for attributes the instance does not hold: configs
        # before it is first read
        if name != "configs":
            raise AttributeError(name)
        seed, indices = self._walk
        geometry, mode = seed.geometry, seed.mode
        entry_rows, scale, coeff = _int_frame(seed)
        new_rows = []
        for i in indices:
            entry_rows = _reflect_entries(entry_rows, i, coeff)
            new_rows.append(entry_rows[i])
        try:
            unscaled = unscaled_rows(new_rows, scale, mode)
        except OverflowError:
            raise ValueError(
                f"the row of step {_first_overflow(new_rows, scale, mode)} "
                "of the loxodromic sequence is beyond the float range"
            ) from None
        rows = tuple(forms.CoordRow(geometry, coerce_row(r.entries, mode))
                     for r in seed.rows)
        configs = [seed]
        for i, new in zip(indices, unscaled):
            rows = rows[:i] + (forms.CoordRow(geometry, new),) + rows[i + 1:]
            configs.append(forms.ConfigMatrix(geometry, rows))
        configs = tuple(configs)
        object.__setattr__(self, "configs", configs)
        object.__delattr__(self, "_walk")
        return configs


def _first_overflow(rows, scale, mode):
    """The 1-based index of the first int row of a frame with an entry
    beyond the float range, the step of a replayed walk that overflowed."""
    for step, row in enumerate(rows, 1):
        try:
            unscaled_rows([row], scale, mode)
        except OverflowError:
            return step


def loxodromic(seed, k, tol=DEFAULT_TOL):
    """Reflect k times at the row of minimal bend entry (ties to the least
    index), appending each produced bend.

    Reflections act on W from the left, so they mix rows and never columns:
    the bend column evolves on its own, and the walk reads nothing else.
    It runs on the bend column alone, on the ints of _walk_frame over the
    column's own scale (1 for integral bends, in either mode), keeping the
    column sum; positive scaling keeps the least index of the least bend.
    Each new bend leaves the frame once by the frame's quotient, so a float
    bend is its exact twin correctly rounded.  Only the reflected indices
    are recorded; the configurations are replayed from them when the
    sequence's configs is first read.

    A float bend beyond the float range raises ValueError naming its step,
    and so does reading configs when a row of the walk leaves the float
    range before its bend does.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    (scaled,), scale, coeff, quotient = _walk_frame(
        seed, tol, "the loxodromic sequence", bends_only=True)
    # index() of the least finds the least index among the least bends
    scaled = list(scaled)
    total = sum(scaled)
    bends = list(seed.bends)
    indices = []
    try:
        for _ in range(k):
            x = min(scaled)
            i = scaled.index(x)
            new = coeff * (total - x) - x
            scaled[i] = new
            total += new - x
            bends.append(quotient(new, scale))
            indices.append(i)
    except OverflowError:
        raise ValueError(
            f"the bend of step {len(indices) + 1} of the loxodromic sequence "
            "is beyond the float range") from None
    return LoxodromicSequence(seed.geometry, tuple(bends), None,
                              walk=(seed, tuple(indices)))


def recurrence_check(seq):
    """Whether bends obey x_{k+1} = 2x_k + 2x_{k-1} + 2x_{k-2} - x_{k-3}, the
    recurrence of the loxodromic walk in the plane.

    The recurrence holds when each step replaces the oldest of the last
    four bends.  From a seed with at most one negative bend the walk
    replaces the seed bends least first, so the four seed bends of a
    LoxodromicSequence are taken in ascending order, not in row order; a
    plain sequence is taken as it is.  Exact bends are
    compared with ==, float ones within 1e-6 times the largest |term| of
    each relation (at least 1), so that terms past 2^53 round without
    failing the check.
    """
    if isinstance(seq, LoxodromicSequence):
        bends = tuple(sorted(seq.bends[:4])) + seq.bends[4:]
    else:
        bends = tuple(seq)
    if len(bends) < 5:
        raise ValueError("need at least 5 terms")
    for j in range(4, len(bends)):
        terms = bends[j - 4:j + 1]
        predicted = 2 * (bends[j - 1] + bends[j - 2] + bends[j - 3]) - bends[j - 4]
        if not near(bends[j], predicted, 1e-6 * max(1, *map(abs, terms))):
            return False
    return True


def root_quadruple(bends, bound=None):
    """The root of an exact Descartes quadruple: oriented to a positive bend
    sum, then reflected at its largest bend while that lowers it (Graham,
    Lagarias, Mallows, Wilks, Yan, number theory).

    Each step lowers the bend sum by a positive multiple of the reciprocal
    of the common denominator of the bends, and the sum stays positive, so
    the reduction ends.  A packing with a root of two zero bends, the strip
    (0, 0, c, c), contains infinitely many circles at every bound >= c.

    With a bound the reduction also stops before a step whose new bend
    exceeds it in absolute value, and returns the quadruple reached.  Each
    step is a reflection that generate() takes at that bound too, so the
    reduction takes at most as many steps as generate() walks
    configurations; a seed deep in a chain of circles tangent to two fixed
    ones takes one step per circle of the chain.
    A float step that lowers the largest bend by at most tol of it is not
    taken: on a strip whose zeros are off by rounding, such steps would go
    down a chain of circles, one circle a step.
    """
    v = list(bends)
    if sum(v) < 0:
        v = [-b for b in v]
    while True:
        i = max(range(len(v)), key=v.__getitem__)
        new = 2 * (sum(v) - v[i]) - v[i]
        if new >= v[i] or near(new, v[i], DEFAULT_TOL * v[i]) or (
                bound is not None and abs(new) > bound):
            return tuple(v)
        v[i] = new


@dataclass(frozen=True)
class IntegralityReport:
    all_integral: bool
    bend_counts: tuple
    non_integral: tuple


def integrality_report(packing):
    """Whether every bend in an exact packing is an integer, with the bend
    multiset up to the bound."""
    if packing.rows and mode_of(packing.rows[0].entries) != EXACT:
        raise ValueError("integrality is only meaningful in exact mode")
    counts = Counter()
    bad = []
    for row in packing.rows:
        b = Fraction(row.entries[forms.bend_column(packing.geometry)])
        if b.denominator == 1:
            counts[int(b)] += 1
        else:
            bad.append(b)
    return IntegralityReport(not bad, tuple(sorted(counts.items())),
                             tuple(bad))


_SEED_ROWS = ((1, -1, 0, 0), (0, 2, 1, 0), (0, 2, -1, 0), (1, 3, 0, 2))


def standard_seed(geometry, n=2, mode=EXACT):
    """Canonical Descartes configuration: for n = 2 the integer seed with
    bends (-1, 2, 2, 3) (cot values (0,1,1,2), coth values (-1,1,1,1)); for
    higher n a float configuration of equal caps.

    The Gram identity forces det(W)^2 = n*2^(n+1) (four times that in the
    plane), a rational square exactly when n is an odd square or twice a
    square.  For other n, such as 3, 4 and 5, no rational configuration
    exists.  No exact seed is built above n = 2, and the ExactnessError
    says which case holds; for n = 8, realize_bends builds one from the cot
    values (-3,-3,-3,-3,-2,-2,-1,-1,-1,-1).
    """
    if n == 2:
        w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, _SEED_ROWS, mode=mode)
        return transform.convert_matrix(w, geometry)
    if n < 2:
        raise ValueError("use the interval configurations for n = 1")
    if mode == EXACT:
        m = n if n % 2 else n // 2  # a square for the n above
        raise ExactnessError(
            f"no rational Descartes configuration exists for n = {n}; the "
            "Gram identity forces an irrational determinant"
            if isqrt(m) ** 2 != m else
            f"no exact standard seed is built for n = {n}; apollonian."
            "realize_bends builds exact configurations from bend vectors")
    c = sqrt_scalar(n / (n + 2))
    wp = spherical.realize_cap_config((c,) * (n + 2))
    return transform.convert_matrix(wp, geometry)


# realizers by module and name, so that a wrapper set on one later is called
_REALIZERS = {forms.EUCLIDEAN: (euclid, "realize_curvature_vector"),
              forms.SPHERICAL: (spherical, "realize_cap_config"),
              forms.HYPERBOLIC: (hyperbolic, "realize_sphere_config")}


def realize_bends(geometry, bends):
    """Configuration with the given bend vector in the given geometry."""
    module, name = forms._by_geometry(_REALIZERS, geometry)
    return getattr(module, name)(bends)
