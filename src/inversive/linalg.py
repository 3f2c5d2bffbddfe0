"""Dense matrix helpers that work for exact and float entries alike.

numpy handles the bookkeeping; exact matrices are object arrays of Fractions,
float matrices are ordinary float64 arrays.  numpy.linalg is float-only, so
the few solvers needed here (inverse, affine solve) are written out by hand
with pivoting that works in both modes.
"""

from fractions import Fraction

import numpy as np

from .scalars import EXACT, FLOAT, ExactnessError, is_exact, near, sqrt_scalar


def as_matrix(rows, mode=None):
    """Build a 2-d array from nested scalars, picking the dtype by mode."""
    flat = [x for row in rows for x in row]
    exact = all(is_exact(x) for x in flat) if mode is None else mode == EXACT
    if exact:
        data = [[Fraction(x) for x in row] for row in rows]
        return np.array(data, dtype=object)
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def identity(k, exact):
    if exact:
        eye = np.full((k, k), Fraction(0), dtype=object)
        for i in range(k):
            eye[i, i] = Fraction(1)
        return eye
    return np.eye(k)


def is_exact_matrix(a):
    return a.dtype == object


def max_abs(a):
    """Largest absolute entry; exact scalar for exact input."""
    values = [abs(x) for x in np.asarray(a).flat]
    if not values:
        return 0
    return max(values)


def mat_inv(a):
    """Gauss-Jordan inverse, generic over the entry type."""
    a = np.array(a)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError("square matrix required")
    exact = is_exact_matrix(a)
    aug = np.concatenate([a.copy(), identity(k, exact)], axis=1)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r, col]))
        if aug[pivot, col] == 0:
            raise ValueError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(k):
            if r != col and aug[r, col] != 0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, k:]


def solve_affine(a, b):
    """All solutions of a x = b as (particular, kernel basis columns).

    Works on exact and float matrices; float pivoting is by magnitude with a
    small threshold for rank decisions.
    """
    a = np.array(a)
    rows, cols = a.shape
    exact = is_exact_matrix(a)
    zero_tol = 0 if exact else 1e-12 * max(1.0, float(max_abs(a)))
    aug = np.concatenate([a, np.array(b).reshape(rows, 1)], axis=1)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(aug[i, c]), default=None)
        if pivot is None or abs(aug[pivot, c]) <= zero_tol:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        aug[r] = aug[r] / aug[r, c]
        for i in range(rows):
            if i != r and aug[i, c] != 0:
                aug[i] = aug[i] - aug[i, c] * aug[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if abs(aug[i, cols]) > zero_tol:
            raise ValueError("inconsistent linear system")
    eye = identity(cols, exact)
    particular = 0 * eye[0]
    for i, c in enumerate(pivots):
        particular[c] = aug[i, cols]
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for c in free:
        vec = eye[c].copy()
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i, c]
        kernel.append(vec)
    return particular, kernel


def _assignment_patterns(dim):
    """Deterministic small assignments for all-but-one free coordinate."""
    yield (0,) * dim
    values = (1, -1, 2, -2, 3)
    for j in range(dim):
        for v in values:
            vec = [0] * dim
            vec[j] = v
            yield tuple(vec)
    if dim >= 2:
        for j in range(dim):
            for k in range(j + 1, dim):
                for vj in (1, -1, 2):
                    for vk in (1, -1, 2):
                        vec = [0] * dim
                        vec[j], vec[k] = vj, vk
                        yield tuple(vec)


def _solve_univariate(a, b, c, exact):
    """A root of a u^2 + b u + c = 0 in the working mode, or None."""
    if a == 0:
        if b == 0:
            return None if c != 0 else c - c  # every u solves 0 = 0; take 0
        return -c / b
    disc = b * b - 4 * a * c
    if not exact and abs(disc) <= 1e-12 * max(b * b, abs(4 * a * c), 1.0):
        # a double root that rounding moved off zero; its square root would
        # put an error of about 1e-8 into the tail and strand later rows
        disc = 0.0
    try:
        root = sqrt_scalar(disc)
    except (ValueError, ExactnessError):  # no real or no rational root
        return None
    return (-b + root) / (2 * a)


def diag_dot(signs, u, v):
    total = 0
    for s, x, y in zip(signs, u, v):
        total = total + (x * y if s > 0 else -(x * y))
    return total


def tail_candidates(prev_tails, signs, pair_values, self_value, exact):
    """Vectors t with diag-form products against prev_tails prescribed.

    Solves the linear conditions <t_j, t> = pair_values[j] exactly, then
    walks a deterministic list of kernel assignments and yields every
    distinct t for which the remaining quadratic <t, t> = self_value has a
    root in the working mode.  Raises ValueError when the linear conditions
    are already inconsistent.
    """
    m = len(signs)
    if prev_tails:
        a = as_matrix([[t[i] * signs[i] for i in range(m)] for t in prev_tails],
                      mode=EXACT if exact else FLOAT)
        p, kernel = solve_affine(a, list(pair_values))
    else:
        eye = identity(m, exact)
        p = 0 * eye[0]
        kernel = list(eye)
    if not kernel:
        residual = diag_dot(signs, p, p) - self_value
        if near(residual, 0, 1e-8 * max(1.0, abs(float(self_value)))):
            yield tuple(p)
        return
    dim = len(kernel)
    seen = set()
    for pattern in _assignment_patterns(dim):
        for j in range(dim):
            base = p
            for k in range(dim):
                if k != j:
                    base = base + pattern[k] * kernel[k]
            kj = kernel[j]
            a2 = diag_dot(signs, kj, kj)
            b2 = 2 * diag_dot(signs, base, kj)
            c2 = diag_dot(signs, base, base) - self_value
            u = _solve_univariate(a2, b2, c2, exact)
            if u is None:
                continue
            t = tuple(base + u * kj)
            key = t if exact else tuple(round(float(x), 9) for x in t)
            if key not in seen:
                seen.add(key)
                yield t


def realize_tails(first_options, signs, pair_value, self_value, count, exact,
                  branch_limit=24):
    """Depth-first search for count tails with prescribed diag-form products.

    pair_value(j, i) and self_value(i) prescribe <t_j, t_i> and <t_i, t_i>.
    The first tail is drawn from first_options; later tails from
    tail_candidates, branching over at most branch_limit candidates per row.
    A greedy first choice can strand a later row (picking a degenerate tail
    whose linear conditions become unsatisfiable), so failed branches are
    abandoned and the next candidate tried.  Returns a list of tuples or
    None.
    """
    def search(tails):
        i = len(tails)
        if i == count:
            return tails
        targets = [pair_value(j, i) for j in range(i)]
        try:
            candidates = tail_candidates(tails, signs, targets,
                                         self_value(i), exact)
            for k, t in enumerate(candidates):
                if k >= branch_limit:
                    break
                result = search(tails + [t])
                if result is not None:
                    return result
        except ValueError:
            return None
        return None

    for first in first_options:
        result = search([tuple(first)])
        if result is not None:
            return result
    return None
