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
"""

from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add

from . import euclid, forms, hyperbolic, linalg, spherical, transform
from .scalars import (DEFAULT_TOL, EXACT, ExactnessError, coerce, coerce_row,
                      integer_rows, mode_of, near, negligible, scaled_rows,
                      sqrt_scalar, unscaled_rows)


def reflection_matrix(n, i, mode=EXACT):
    """Matrix R with R W = W after replacing row i; R^T Q R = Q, R^2 = I."""
    if n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < n + 2:
        raise ValueError(f"row index {i} out of range")
    eye = linalg.block_diag((), (1,) * (n + 2), mode)
    c = coerce(2, mode) / (n - 1)
    row = (c,) * i + (-coerce(1, mode),) + (c,) * (n + 1 - i)
    return eye[:i] + (row,) + eye[i + 1:]


def _column_sums(entry_rows):
    # chained map(add) adds each column left to right, as sum() would not
    # for floats, and builds one tuple
    total = entry_rows[0]
    for row in entry_rows[1:]:
        total = map(add, total, row)
    return tuple(total)


def _reflect_entries(entry_rows, i, coeff):
    total = _column_sums(entry_rows)
    old = entry_rows[i]
    new = tuple(coeff * (t - x) - x for t, x in zip(total, old))
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def reflect(w, i, validate=False, tol=DEFAULT_TOL):
    """Replace row i of a configuration by its reflection.

    The new row is (2/(n-1)) times the sum of the other rows minus the old
    one; reflecting twice at the same index restores the input exactly.
    """
    if w.n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < w.n + 2:
        raise ValueError(f"row index {i} out of range")
    coeff = coerce(2, w.mode) / (w.n - 1)
    entry_rows = tuple(r.entries for r in w.rows)
    out = forms.ConfigMatrix.from_rows(w.geometry,
                                       _reflect_entries(entry_rows, i, coeff),
                                       mode=w.mode)
    if validate:
        res = out.residual(tol)
        if not res.ok:
            raise ArithmeticError(
                f"reflection broke the Gram identity by {res.max_abs_entry_error}")
    return out


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
            object.__setattr__(self, "scaled", scaled_rows(entries, mode)[:2])
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


def _row_key(entries, exact):
    if exact:
        return entries
    return tuple(map(round, entries, repeat(6)))


def _config_key(entry_rows, exact):
    return tuple(sorted(_row_key(r, exact) for r in entry_rows))


def _check_seed(seed, tol):
    """Raise ValueError unless the seed meets its Gram identity within tol,
    or entry by entry within the rounding of float entries as large as
    its own.

    Entry (i, j) of W^T Q W is bilinear in columns i and j of W, and the
    columns of a seed can differ in size by orders of magnitude (the
    Euclidean bar-bend grows with the square of the distance from the
    origin, the bend does not), so each entry is scaled by its own two
    columns.
    """
    res = seed.residual(tol)
    if res.ok:
        return
    cols = tuple(zip(*(r.entries for r in seed.rows)))
    if not all(negligible(d, cols[i], tol, cols[j])
               for i, row in enumerate(res.entrywise)
               for j, d in enumerate(row)):
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")


def _walk_frame(seed, tol, task):
    """(rows, scale, coeff, quotient): what the walks of generate() and
    loxodromic() start from, after checking the seed.

    The rows are the seed rows in the frame of scalars.scaled_rows, with
    their scale and the frame's quotient, so that quotient(x, scale) turns
    an entry of the walk back into an entry of the seed's mode, and coeff
    is the reflection coefficient 2/(n-1).  In exact mode coeff is an int
    for n = 2 and n = 3, so that reflections of int rows stay ints.  In
    float mode coeff is a float, which multiplies floats faster than an int
    does.
    """
    n = seed.n
    if n < 2:
        raise ValueError(f"{task} needs n >= 2")
    _check_seed(seed, tol)
    rows, scale, quotient = scaled_rows([r.entries for r in seed.rows],
                                        seed.mode)
    if seed.mode == EXACT and n <= 3:
        coeff = 2 // (n - 1)
    else:
        coeff = quotient(2, n - 1)
    return rows, scale, coeff, quotient


class InfiniteClosure(ValueError):
    """The closure of a seed within a bound is infinite, and no cap was
    given."""


def _check_finite(seed, bound):
    """Raise InfiniteClosure if the uncapped walk of generate() from a
    Euclidean n = 2 seed reaches a strip.

    The walk reaches the configuration that root_quadruple(bends, bound)
    returns.  When that is a root (0, 0, c, c) with c <= bound, the circles
    of bend c between its two parallel lines repeat forever.  A float bend
    counts as zero when scalars.negligible says so next to the other bends
    of the root.  The horocycle chains of hyperbolic packings are not
    checked.
    """
    if seed.geometry != forms.EUCLIDEAN or seed.n != 2:
        return
    root = root_quadruple(seed.bends, bound)
    zeros = sum(negligible(b, root) for b in root)
    if zeros >= 2 and max(root) <= bound:
        raise InfiniteClosure(
            f"the packing of this seed is infinite at any bound of at least "
            f"{max(root)}: its root quadruple {','.join(map(str, root))} is "
            "a strip between two parallel lines")


def generate(seed, bound, keep_configs=False, max_depth=None, max_configs=None,
             tol=DEFAULT_TOL):
    """Level-order closure of a seed under all reflections.

    New rows are kept while the absolute value of their bend entry is at
    most bound; in float mode a bend within tol * max(1, bound) above the
    bound counts as on it, so rounding does not drop circles that exact mode
    keeps.  Levels are expanded in order, so the result is deterministic;
    rows are returned sorted (float rows by their entries rounded to 1e-6).

    Each configuration remembers the index whose reflection produced it and
    is not reflected at that index again, since that only rebuilds its
    parent.  For n = 2 that is all the deduplication needed: the reflections
    generate a free product of four copies of Z/2 (Graham, Lagarias,
    Mallows, Wilks, Yan), so every configuration is reached by exactly one
    word without repeated letters, and the walk is a tree.  Each kept child
    then adds exactly one new circle, and the rows are the seed rows plus
    one per child.  For n >= 3 the group has further relations and the same
    configuration is reached by different words, so rows are deduplicated
    by their keys (exact rows, or rows rounded to 1e-6 in float mode) and
    configurations by the sorted int ids of their rows.  The walk keys each
    child row it builds, once per child, and a new row gets the next id once
    it is kept, after the max_configs test; since every row of a
    configuration met has an id, a child with a row of no id is a new
    configuration.  The final sort reuses the keys of the kept rows.

    The walk runs on the seed rows in the frame of scalars.scaled_rows.  In
    exact mode these are the rows times the least common multiple of their
    denominators, and since the reflection coefficient 2/(n-1) is an
    integer for n = 2 and n = 3, every row of the packing is then an int
    vector (for higher n the same loop runs on Fractions, and the sorted
    rows are put back on ints at the end).  The bound is scaled alike, and
    scaling by a positive number keeps the sorted order of rows and keys.
    The returned Packing holds the sorted rows as they are, with their
    scale, in its scaled field, and builds its Fraction rows from them only
    when they are read; only kept configurations are divided back here, by
    scalars.unscaled_rows.
    The column sums are formed once per configuration, and a child row is
    built only when its bend is within the bound.

    Packings with hyperplane or horocycle chains are infinite at any bend
    bound; pass max_depth or max_configs to truncate them.  The returned
    Packing records whether truncation happened.  Without either cap, a
    Euclidean n = 2 seed whose walk reaches a strip within the bound raises
    InfiniteClosure (a ValueError) before walking.
    """
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    seed_rows, scale, coeff, quotient = _walk_frame(seed, tol, "generation")
    n, mode = seed.n, seed.mode
    exact = mode == EXACT
    col = forms.bend_column(seed.geometry)
    if exact:
        bound_value = Fraction(bound)
        limit = bound_value * scale
        # an int limit keeps the bound test on int rows in int arithmetic
        if limit.denominator == 1:
            limit = limit.numerator
    else:
        bound_value = float(bound)
        limit = bound_value + tol * max(1.0, bound_value)
    if bound_value < 0:
        raise ValueError("bound must be nonnegative")
    if max_depth is None and max_configs is None:
        # the bound the walk applies, in the units of the seed
        _check_finite(seed, quotient(limit, scale))
    elif (max_depth or 0) < 0 or (max_configs or 0) < 0:
        raise ValueError("max_depth and max_configs must be nonnegative")

    def reflected(t, x):
        return coeff * (t - x) - x

    dedup = n > 2
    # n >= 3: the key of each row of rows, an int id per distinct key, and
    # the configurations met, each as the sorted ids of its rows
    row_keys = [_row_key(r, exact) for r in seed_rows] if dedup else None
    ids = {}
    seed_ids = (tuple([ids.setdefault(k, len(ids)) for k in row_keys])
                if dedup else None)
    seen_configs = {tuple(sorted(seed_ids))} if dedup else None
    kept_configs = ({_config_key(seed_rows, exact): seed_rows}
                    if keep_configs else None)
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
            total = _column_sums(entry_rows)
            total_bend = total[col]
            for i in range(n + 2):
                if i == parent:
                    continue
                old = entry_rows[i]
                if abs(coeff * (total_bend - old[col]) - old[col]) > limit:
                    continue
                new = tuple(map(reflected, total, old))
                child_ids = None
                if dedup:
                    new_key = _row_key(new, exact)
                    new_id = ids.get(new_key)
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
                        new_id = ids[new_key] = len(ids)
                        row_keys.append(new_key)
                        rows.append(new)
                        child_ids = entry_ids[:i] + (new_id,) + entry_ids[i + 1:]
                        key = tuple(sorted(child_ids))
                    seen_configs.add(key)
                if keep_configs:
                    kept_configs[_config_key(child, exact)] = child
                next_frontier.append((child, child_ids, i))
            if truncated:
                break
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    if exact:
        rows.sort()
    else:
        # a stable sort by _row_key, on the keys made during the walk for
        # n >= 3
        keys = row_keys if dedup else [_row_key(r, False) for r in rows]
        rows = [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
    configs = None
    if keep_configs:
        configs = tuple(
            forms.ConfigMatrix.from_rows(
                seed.geometry, unscaled_rows(kept_configs[k], scale, mode),
                mode=mode)
            for k in sorted(kept_configs))
    if exact and type(coeff) is not int:
        rows, denominator = integer_rows(rows)
        scale *= denominator
    return Packing(seed.geometry, n, seed, None, bound_value, configs,
                   explored, depth, truncated, scaled=(tuple(rows), scale))


@dataclass(frozen=True)
class LoxodromicSequence:
    """Bends recorded while always reflecting the largest sphere, and the
    configurations of the walk, the seed first.

    loxodromic() passes configs=None and the init-only walk=(seed, steps,
    scale) instead: per step, the reflected index and the new row in the
    frame of scalars.scaled_rows.  The configurations are built from them
    when configs is first read, each sharing the unchanged rows of the one
    before, and kept, as Packing.rows is.  walk is not a field, so
    fields, equality and repr are those of geometry, bends and configs.
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
        seed, steps, scale = self._walk
        geometry = seed.geometry
        rows = tuple(forms.CoordRow(geometry, coerce_row(r.entries, seed.mode))
                     for r in seed.rows)
        configs = [seed]
        new_rows = unscaled_rows([new for _, new in steps], scale, seed.mode)
        for (i, _), new in zip(steps, new_rows):
            rows = rows[:i] + (forms.CoordRow(geometry, new),) + rows[i + 1:]
            configs.append(forms.ConfigMatrix(geometry, rows))
        configs = tuple(configs)
        object.__setattr__(self, "configs", configs)
        object.__delattr__(self, "_walk")
        return configs


def loxodromic(seed, k, tol=DEFAULT_TOL):
    """Reflect k times at the row of minimal bend entry (ties to the least
    index), appending each produced bend.

    The walk starts as generate's does, on the seed rows in the frame of
    scalars.scaled_rows (ints in exact mode).  Each step picks the index,
    reflects the rows and divides back only the new bend, by the frame's
    quotient; the configurations of the walk are built from the recorded
    steps only when the sequence's configs is first read.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    entry_rows, scale, coeff, quotient = _walk_frame(
        seed, tol, "the loxodromic sequence")
    col = forms.bend_column(seed.geometry)
    bends = [r.entries[col] for r in seed.rows]
    # the bend entry of each row of the walk; index() of the least finds
    # the least index among the rows of least bend
    scaled_bends = [r[col] for r in entry_rows]
    steps = []
    for _ in range(k):
        i = scaled_bends.index(min(scaled_bends))
        entry_rows = _reflect_entries(entry_rows, i, coeff)
        new = entry_rows[i]
        scaled_bends[i] = new[col]
        bends.append(quotient(new[col], scale))
        steps.append((i, new))
    return LoxodromicSequence(seed.geometry, tuple(bends), None,
                              walk=(seed, tuple(steps), scale))


def recurrence_check(seq, tol=1e-6):
    """Whether bends obey x_{k+1} = 2x_k + 2x_{k-1} + 2x_{k-2} - x_{k-3}."""
    bends = seq.bends if isinstance(seq, LoxodromicSequence) else tuple(seq)
    if len(bends) < 5:
        raise ValueError("need at least 5 terms")
    for j in range(4, len(bends)):
        predicted = 2 * (bends[j - 1] + bends[j - 2] + bends[j - 3]) - bends[j - 4]
        if not near(bends[j], predicted, tol):
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
    """
    v = list(bends)
    if sum(v) < 0:
        v = [-b for b in v]
    while True:
        i = max(range(len(v)), key=v.__getitem__)
        new = 2 * (sum(v) - v[i]) - v[i]
        if new >= v[i] or (bound is not None and abs(new) > bound):
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

    Exact seeds exist only for n = 2 among small dimensions: the Gram
    identity forces det(W)^2 = n*2^(n+3) (n*2^(n+1) for the other two
    geometries), which is not a rational square for n in {3, 4, 5}, so those
    dimensions are float-only.  For n = 8 it is a square, and exact
    configurations exist: realize_bends builds one from the cot values
    (-3,-3,-3,-3,-2,-2,-1,-1,-1,-1).
    """
    if n == 2:
        w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, _SEED_ROWS, mode=mode)
        return transform.convert_matrix(w, geometry)
    if n < 2:
        raise ValueError("use the interval configurations for n = 1")
    if mode == EXACT:
        raise ExactnessError(
            f"no rational Descartes configuration exists for n = {n}; "
            "the Gram identity forces an irrational determinant")
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
