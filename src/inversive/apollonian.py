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
float packing, reflection or loxodromic sequence, configurations included,
is the exact one of its float seed, each entry rounded once.

The arithmetic of a reflection is generated from ints alone, in linalg.
generate() takes one step of its walk per configuration, a kernel built
once per row width and bend column (linalg._walk_step): it forms the
column sums once, tests the bend of every child against the bound, and
builds and hands back the children in bound, in index order, so that the
walk makes no Python call per child or per entry.  reflect() and the
replay of a loxodromic sequence's configurations, which generate() does
not use, reflect their int frame by one plain comprehension over its
column sums (_reflect_entries).
"""

from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import floor, inf, isfinite

from . import euclid, forms, hyperbolic, spherical, transform
from .linalg import _walk_step
from .scalars import (DEFAULT_TOL, EXACT, ExactnessError, _sum,
                      frame_quotient, integer_rows, mode_frame, mode_of, near,
                      scaled_rows, unscaled_rows)


def _reflect_entries(entry_rows, i, coeff):
    """The int or Fraction rows with row i, x, replaced by its reflection
    coeff * (t - x) - x, t the column sums of the rows: the one entry point
    of reflect() and of the replayed loxodromic configurations."""
    new = tuple([coeff * (t - x) - x
                 for t, x in zip(map(sum, zip(*entry_rows)), entry_rows[i])])
    return entry_rows[:i] + (new,) + entry_rows[i + 1:]


def reflect(w, i):
    """Replace row i of a configuration by its reflection.

    The new row is (2/(n-1)) times the sum of the other rows minus the old
    one; in exact mode reflecting twice at the same index restores the
    input exactly.  The result is not checked: its residual() tells whether
    it keeps the Gram identity.  Both modes reflect the int frame of the
    configuration (_int_frame), and the result leaves it by
    scalars.mode_frame, so a float result is the exact reflection of the
    float rows' own values, each entry rounded once.
    """
    n = w.n
    if n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < n + 2:
        raise ValueError(f"row index {i} out of range")
    rows, scale, coeff = _int_frame(w)
    return forms.ConfigMatrix(w.geometry, mode_frame(
        _reflect_entries(rows, i, coeff), scale, w.mode))


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
        """The bend column, read from the frame, as ConfigMatrix.bends is:
        no CoordRow is built."""
        col = forms.bend_column(self.geometry)
        rows, scale = self.scaled
        return unscaled_rows((tuple([row[col] for row in rows]),), scale,
                             self.seed.mode)[0]


def _int_frame(seed, bends_only=False):
    """(rows, scale, coeff): the seed rows of either mode, or with
    bends_only the one row of its bends, on ints over the least common
    multiple scale of their denominators (ConfigMatrix.int_frame; a power
    of two for floats), and the reflection coefficient 2/(n-1): an int for
    n = 2 and n = 3, so that reflections of int rows stay ints, and a
    Fraction above.  The bend row is the bend column of that frame reduced
    by one gcd."""
    n = seed.n
    rows, scale = seed.int_frame
    if bends_only:
        col = forms.bend_column(seed.geometry)
        rows, scale = mode_frame((tuple([row[col] for row in rows]),), scale,
                                 EXACT)
    return rows, scale, 2 // (n - 1) if n <= 3 else Fraction(2, n - 1)


def _walk_frame(seed, tol, task, bends_only=False):
    """(rows, scale, coeff, quotient): the _int_frame that the walks of
    generate() and loxodromic() start from, and the quotient(x, scale) that
    turns an entry of the walk back into the seed's mode
    (scalars.frame_quotient).  A seed whose Gram identity fails at tol
    (ConfigMatrix.residual) raises ValueError."""
    if seed.n < 2:
        raise ValueError(f"{task} needs n >= 2")
    res = seed.residual(tol)
    if not res.ok:
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")
    return (*_int_frame(seed, bends_only), frame_quotient(seed.mode))


class InfiniteClosure(ValueError):
    """The closure of a seed within a bound is infinite, and no cap was
    given."""


def _check_finite(seed, bound):
    """Raise InfiniteClosure if the uncapped walk of generate() from a
    Euclidean n = 2 seed reaches a strip.

    The walk reaches the configuration that root_quadruple(bends, bound)
    returns.  When that is a root (0, 0, c, c) with c <= bound, the circles
    of bend c between its two parallel lines repeat forever.  An exact
    seed is decided on the int bends of _int_frame, over their scale s:
    reduced with the bound floor(bound s), and a strip when two of the
    root's ints are 0 and its largest is within that bound, each step and
    test unchanged by the positive scale; its Fractions are built only for
    the message.  A float bend counts as zero within tol of the root's
    largest |bend|, at any scale.  The horocycle chains of hyperbolic
    packings are not checked.
    """
    if seed.geometry != forms.EUCLIDEAN or seed.n != 2:
        return
    if seed.mode == EXACT:
        (bends,), scale, _ = _int_frame(seed, bends_only=True)
        bound = floor(bound * scale)
        root = root_quadruple(bends, bound)
        if root.count(0) < 2 or max(root) > bound:
            return
        root = [Fraction(b, scale) for b in root]
    else:
        root = root_quadruple(seed.bends, bound)
        tol = DEFAULT_TOL * max(map(abs, root))
        if sum(near(b, 0, tol) for b in root) < 2 or max(root) > bound:
            return
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
    1.0.  Kept configurations leave the walk's frame by scalars.mode_frame,
    as reflect()'s do; a float row beyond the float range raises ValueError.

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
    child with a row of no id is a new configuration.

    Each configuration is expanded by one call of the step that
    linalg._walk_step generates for its width n + 2 and bend column: the
    column sums are formed once, and a child row is built only when its
    bend is within the bound.  For n = 2 that step appends the children
    and their rows to the next level and to the packing's rows, and is the
    whole walk; for n >= 3 only the children in bound reach the dedup
    above.  A max_configs cap that falls among the children of a level
    keeps the first of them, in the order of the walk, and the walk is
    truncated only when a child past the cap was within the bound.

    Packings with hyperplane or horocycle chains are infinite at any bend
    bound; pass max_depth or max_configs to truncate them.  The returned
    Packing records whether truncation happened.  Without either cap, a
    Euclidean n = 2 seed whose walk reaches a strip within the bound raises
    InfiniteClosure (a ValueError) before walking, as does a float bound
    that is infinite, with its tolerance, since it prunes nothing.  A nan
    bound raises ValueError, and so does an infinite one for an exact seed.
    """
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    seed_rows, scale, coeff, _ = _walk_frame(seed, tol, "generation")
    n, mode = seed.n, seed.mode
    col = forms.bend_column(seed.geometry)
    if mode == EXACT:
        if isinstance(bound, float) and not isfinite(bound):
            raise ValueError(
                f"an exact walk needs a finite bound, not {bound}")
        bound_value = limit = Fraction(bound)
    else:
        bound_value = float(bound)
        if bound_value != bound_value:
            raise ValueError("bound must be a number, not nan")
        limit = bound_value + tol * max(bound_value, *map(abs, seed.bends))
        if limit == inf and max_depth is None and max_configs is None:
            raise InfiniteClosure(
                f"the bound {bound} prunes nothing, so the walk never ends; "
                "pass max_depth or max_configs")
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

    step = _walk_step(n + 2, col)
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
        if not dedup:
            # a tree: every child in bound is a new configuration, and adds
            # its one new row to rows
            for entry_rows, _, parent in frontier:
                step(entry_rows, parent, coeff, limit, next_frontier, rows)
            if max_configs is not None and \
                    found + len(next_frontier) > max_configs:
                kept = max(0, max_configs - found)
                del rows[len(rows) - len(next_frontier) + kept:]
                del next_frontier[kept:]
                truncated = True
            found += len(next_frontier)
            if keep_configs:
                for child, _, _ in next_frontier:
                    kept_configs[tuple(sorted(child))] = child
        else:
            candidates, new_rows = [], []
            for entry_rows, entry_ids, parent in frontier:
                step(entry_rows, parent, coeff, limit, candidates, new_rows)
                for (child, _, i), new in zip(candidates, new_rows):
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
                candidates.clear()
                new_rows.clear()
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    rows.sort()
    configs = None
    try:
        if keep_configs:
            configs = tuple(
                forms.ConfigMatrix(seed.geometry,
                                   mode_frame(kept_configs[k], scale, mode))
                for k in sorted(kept_configs))
        if type(coeff) is not int:
            rows, denominator = integer_rows(rows)
            scale *= denominator
        if mode != EXACT:  # each entry leaves the frame once, rounded
            rows, scale = unscaled_rows(rows, scale, mode), 1.0
    except OverflowError:
        raise ValueError(f"a row of the packing within the bound {bound} is "
                         "beyond the float range") from None
    return Packing(seed.geometry, n, seed, None, bound_value, configs,
                   explored, depth, truncated, scaled=(tuple(rows), scale))


@dataclass(frozen=True)
class LoxodromicSequence:
    """Bends recorded while always reflecting the largest sphere, and the
    configurations of the walk, the seed first.

    loxodromic() passes configs=None and the init-only walk=(seed,
    indices) instead: the index reflected at each step.  When configs is
    first read, the indices are replayed on the int frame of the seed rows
    (_int_frame), and each configuration after the seed leaves the frame of
    its step by scalars.mode_frame, as generate()'s kept ones do; the
    configurations are kept, as Packing.rows is.  walk is not a field,
    so fields, equality and repr are those of geometry, bends and configs.
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
        configs = [seed]
        try:
            for i in indices:
                entry_rows = _reflect_entries(entry_rows, i, coeff)
                configs.append(forms.ConfigMatrix(
                    geometry, mode_frame(entry_rows, scale, mode)))
        except OverflowError:
            raise ValueError(
                f"the row of step {len(configs)} of the loxodromic sequence "
                "is beyond the float range") from None
        configs = tuple(configs)
        object.__setattr__(self, "configs", configs)
        object.__delattr__(self, "_walk")
        return configs


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


# the slack of root_quadruple's steps by the type of the bend sum: a sum
# of ints and Fractions is exact, and any other is taken for a float one
_STEP_SLACK = {int: 0, Fraction: 0}


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
    down a chain of circles, one circle a step.  That slack is read once,
    by the type of the bend sum (_STEP_SLACK): none for int and Fraction
    sums, whose steps are decided exactly.
    """
    v = list(bends)
    total = _sum(v)
    if total < 0:
        v = [-b for b in v]
    slack = _STEP_SLACK.get(total.__class__, DEFAULT_TOL)
    while True:
        i = max(range(len(v)), key=v.__getitem__)
        new = 2 * (_sum(v) - v[i]) - v[i]
        # v[i] >= 0, as the sum is: a step that does not lower v[i] ends
        # the reduction, as does a float one that lowers it by at most
        # DEFAULT_TOL of it
        if v[i] - new <= slack * v[i] or (
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
    multiset up to the bound.  It reads the bend column of the packing's
    frame, whose scale's type gives its mode, and builds no CoordRow."""
    rows, scale = packing.scaled
    if scale.__class__ is float:
        raise ValueError("integrality is only meaningful in exact mode")
    col = forms.bend_column(packing.geometry)
    counts = Counter()
    bad = []
    for row in rows:
        b, r = divmod(row[col], scale)
        if r:
            bad.append(Fraction(row[col], scale))
        else:
            counts[b] += 1
    return IntegralityReport(not bad, tuple(sorted(counts.items())),
                             tuple(bad))


_SEED_ROWS = ((1, -1, 0, 0), (0, 2, 1, 0), (0, 2, -1, 0), (1, 3, 0, 2))


def standard_seed(geometry, n=2, mode=EXACT):
    """Canonical Descartes configuration: for n = 2 the integer seed with
    bends (-1, 2, 2, 3) (cot values (0,1,1,2), coth values (-1,1,1,1)); for
    higher n the float equal caps of a regular simplex in the geometry, the
    base that float curved bends of that n are realized from (forms._base),
    read from its int frame by scalars.mode_frame.

    For n such as 3, 4 and 5 no rational configuration exists
    (forms._refuse_irrational).  No exact seed is built above n = 2, and
    the ExactnessError says which case holds; for n = 8, realize_bends
    builds one from the cot values (-3,-3,-3,-3,-2,-2,-1,-1,-1,-1).
    """
    if n == 2:
        w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, _SEED_ROWS, mode=mode)
        return transform.convert_matrix(w, geometry)
    if n < 2:
        raise ValueError("use the interval configurations for n = 1")
    if mode == EXACT:
        forms._refuse_irrational(n)
        raise ExactnessError(
            f"no exact standard seed is built for n = {n}; apollonian."
            "realize_bends builds exact configurations from bend vectors")
    forms.bend_column(geometry)  # or raise, before _base's cache hashes it
    rows, scale = forms._base(geometry, n)[:2]
    return forms.ConfigMatrix(geometry, mode_frame(rows, scale, mode))


# realizers by module and name, so that a wrapper set on one later is called
_REALIZERS = {forms.EUCLIDEAN: (euclid, "realize_curvature_vector"),
              forms.SPHERICAL: (spherical, "realize_cap_config"),
              forms.HYPERBOLIC: (hyperbolic, "realize_sphere_config")}


def realize_bends(geometry, bends):
    """Configuration with the given bend vector in the given geometry."""
    module, name = forms._by_geometry(_REALIZERS, geometry)
    return getattr(module, name)(bends)
