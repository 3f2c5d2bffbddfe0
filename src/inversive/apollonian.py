"""Reflections of Descartes configurations and Apollonian packings.

Replacing one sphere of a configuration by the other solution of the
tangency conditions acts on coordinate rows as

    row_i  ->  (2/(n-1)) * sum of the other rows  -  row_i

which is an involution preserving the Gram identity in every geometry.
Closing a seed under all n+2 such reflections, keeping rows whose bend
entry stays within a bound, produces the packing; always reflecting at the
row of minimal bend (the largest sphere) produces the loxodromic sequence
with its fourth order recurrence.

A bend bound alone does not always make the closure finite.  A strip
configuration in the plane, or a hyperbolic packing containing horocycle
chains along the ideal boundary, contains infinitely many congruent copies
of the same bend pattern, so generate() also accepts max_depth/max_configs
caps and reports truncation instead of looping forever.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import euclid, forms, hyperbolic, linalg, spherical, transform
from .scalars import (DEFAULT_TOL, EXACT, ExactnessError, coerce, mode_of,
                      near, sqrt_scalar)


def reflection_matrix(n, i, mode=EXACT):
    """Matrix R with R W = W after replacing row i; R^T Q R = Q, R^2 = I."""
    if n < 2:
        raise ValueError("reflection degenerates for n = 1, see the interval "
                         "configurations instead")
    if not 0 <= i < n + 2:
        raise ValueError(f"row index {i} out of range")
    r = linalg.identity(n + 2, mode == EXACT)
    r[i] = coerce(2, mode) / (n - 1)
    r[i, i] = -coerce(1, mode)
    return r


def _column_sums(entry_rows):
    total = entry_rows[0]
    for row in entry_rows[1:]:
        total = tuple(a + b for a, b in zip(total, row))
    return total


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
        q = forms.descartes_form(w.n, w.mode)
        res = forms.check_identity(out, q,
                                   forms.target_for(w.geometry, w.n, w.mode),
                                   tol)
        if not res.ok:
            raise ArithmeticError(
                f"reflection broke the Gram identity by {res.max_abs_entry_error}")
    return out


@dataclass(frozen=True)
class Packing:
    """Deduplicated closure of a seed under reflections, within a bound."""

    geometry: str
    n: int
    seed: forms.ConfigMatrix
    rows: tuple
    bound: object
    configs: tuple
    explored: int
    depth: int
    truncated: bool

    @property
    def bends(self):
        col = forms.bend_column(self.geometry)
        return tuple(r.entries[col] for r in self.rows)


def _row_key(entries, exact):
    if exact:
        return entries
    return tuple(round(float(x), 6) for x in entries)


def _integral(q):
    """q as an int when its denominator is 1, so sums stay in int arithmetic."""
    return int(q) if q.denominator == 1 else q


def generate(seed, bound, keep_configs=False, max_depth=None, max_configs=None,
             tol=DEFAULT_TOL):
    """Breadth-first closure of a seed under all reflections.

    New rows are kept while the absolute value of their bend entry is at
    most bound; in float mode a bend within tol * max(1, bound) above the
    bound counts as on it, so rounding does not drop circles that exact mode
    keeps.  Configurations are deduplicated by their sorted row key (exact
    rows, or rows rounded to 1e-6 in float mode).  Levels are expanded in
    order, so the result is deterministic.

    Exact mode walks on integers: the seed rows are multiplied by the least
    common multiple of their denominators, and since the reflection
    coefficient 2/(n-1) is the integer 2 for n = 2, every row of the packing
    is then an int vector (for other n the same loop runs on Fractions).
    The bound is scaled alike, and scaling by a positive number keeps the
    sorted order of rows and keys, so only the rows and configurations put
    into the returned Packing are divided back into Fractions.

    Each configuration remembers the index whose reflection produced it and
    is not reflected at that index again, since that only rebuilds its
    parent.  The column sums are formed once per configuration, and a child
    row is built only when its bend is within the bound.

    Packings with hyperplane or horocycle chains are infinite at any bend
    bound; pass max_depth or max_configs to truncate them.  The returned
    Packing records whether truncation happened.
    """
    if not isinstance(seed, forms.ConfigMatrix):
        raise TypeError("seed must be a ConfigMatrix")
    n = seed.n
    if n < 2:
        raise ValueError("generation needs n >= 2")
    mode = seed.mode
    exact = mode == EXACT
    q = forms.descartes_form(n, mode)
    res = forms.check_identity(seed, q, forms.target_for(seed.geometry, n, mode),
                               tol)
    if not res.ok:
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")
    coeff = coerce(2, mode) / (n - 1)
    col = forms.bend_column(seed.geometry)
    seed_rows = tuple(r.entries for r in seed.rows)
    if exact:
        bound_value = Fraction(bound)
        scale = math.lcm(*(x.denominator for r in seed_rows for x in r))
        coeff = _integral(coeff)
        limit = _integral(bound_value * scale)
        seed_rows = tuple(tuple(_integral(x * scale) for x in r)
                          for r in seed_rows)

        def unscaled(row):
            return tuple(Fraction(x, scale) for x in row)
    else:
        bound_value = float(bound)
        limit = bound_value + tol * max(1.0, bound_value)

        def unscaled(row):
            return row
    if bound_value < 0:
        raise ValueError("bound must be nonnegative")

    seed_keys = tuple(_row_key(r, exact) for r in seed_rows)
    seed_key = tuple(sorted(seed_keys))
    seen_configs = {seed_key}
    kept_configs = {seed_key: seed_rows} if keep_configs else None
    row_map = {}
    for k, r in zip(seed_keys, seed_rows):
        row_map.setdefault(k, r)

    # (rows, row keys, index that produced it; -1 for the seed)
    frontier = [(seed_rows, seed_keys, -1)]
    explored = 0
    depth = 0
    truncated = False
    while frontier:
        if max_depth is not None and depth >= max_depth:
            truncated = True
            break
        explored += len(frontier)
        next_frontier = []
        for entry_rows, entry_keys, parent in frontier:
            total = _column_sums(entry_rows)
            total_bend = total[col]
            for i in range(n + 2):
                if i == parent:
                    continue
                old = entry_rows[i]
                if abs(coeff * (total_bend - old[col]) - old[col]) > limit:
                    continue
                new = tuple(coeff * (t - x) - x for t, x in zip(total, old))
                new_key = _row_key(new, exact)
                child_keys = entry_keys[:i] + (new_key,) + entry_keys[i + 1:]
                key = tuple(sorted(child_keys))
                if key in seen_configs:
                    continue
                if max_configs is not None and len(seen_configs) >= max_configs:
                    truncated = True
                    break
                seen_configs.add(key)
                child = entry_rows[:i] + (new,) + entry_rows[i + 1:]
                if keep_configs:
                    kept_configs[key] = child
                row_map.setdefault(new_key, new)
                next_frontier.append((child, child_keys, i))
            if truncated:
                break
        depth += 1
        if truncated:
            break
        frontier = next_frontier

    sorted_rows = tuple(forms.CoordRow(seed.geometry, unscaled(row_map[k]))
                        for k in sorted(row_map))
    configs = None
    if keep_configs:
        configs = tuple(
            forms.ConfigMatrix.from_rows(
                seed.geometry, tuple(map(unscaled, kept_configs[k])), mode=mode)
            for k in sorted(kept_configs))
    return Packing(seed.geometry, n, seed, sorted_rows, bound_value, configs,
                   explored, depth, truncated)


@dataclass(frozen=True)
class LoxodromicSequence:
    """Bends recorded while always reflecting the largest sphere."""

    geometry: str
    bends: tuple
    configs: tuple


def loxodromic(seed, k, tol=DEFAULT_TOL):
    """Reflect k times at the row of minimal bend entry (ties to the least
    index), appending each produced bend."""
    if k < 0:
        raise ValueError("step count must be nonnegative")
    n = seed.n
    mode = seed.mode
    q = forms.descartes_form(n, mode)
    res = forms.check_identity(seed, q, forms.target_for(seed.geometry, n, mode),
                               tol)
    if not res.ok:
        raise ValueError(f"invalid seed, Gram residual {res.max_abs_entry_error}")
    coeff = coerce(2, mode) / (n - 1)
    col = forms.bend_column(seed.geometry)
    entry_rows = tuple(r.entries for r in seed.rows)
    bends = [r[col] for r in entry_rows]
    configs = [seed]
    for _ in range(k):
        i = min(range(n + 2), key=lambda j: (entry_rows[j][col], j))
        entry_rows = _reflect_entries(entry_rows, i, coeff)
        bends.append(entry_rows[i][col])
        configs.append(forms.ConfigMatrix.from_rows(seed.geometry, entry_rows,
                                                    mode=mode))
    return LoxodromicSequence(seed.geometry, tuple(bends), tuple(configs))


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
    dimensions are float-only.
    """
    if n == 2:
        w = forms.ConfigMatrix.from_rows(forms.EUCLIDEAN, _SEED_ROWS, mode=mode)
        if geometry == forms.EUCLIDEAN:
            return w
        return transform.convert_matrix(w, geometry)
    if n < 2:
        raise ValueError("use the interval configurations for n = 1")
    if mode == EXACT:
        raise ExactnessError(
            f"no rational Descartes configuration exists for n = {n}; "
            "the Gram identity forces an irrational determinant")
    c = sqrt_scalar(n / (n + 2))
    wp = spherical.realize_cap_config((c,) * (n + 2))
    if geometry == forms.SPHERICAL:
        return wp
    return transform.convert_matrix(wp, geometry)


def realize_bends(geometry, bends):
    """Configuration with the given bend vector in the given geometry."""
    if geometry == forms.EUCLIDEAN:
        return euclid.realize_curvature_vector(bends)
    if geometry == forms.SPHERICAL:
        return spherical.realize_cap_config(bends)
    if geometry == forms.HYPERBOLIC:
        return hyperbolic.realize_sphere_config(bends)
    raise ValueError(f"unknown geometry {geometry!r}")
