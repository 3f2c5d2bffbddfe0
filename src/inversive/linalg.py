"""Dense matrix helpers that work for exact and float entries alike.

Matrices are tuples of row tuples (the largest one in this package is 7x7),
with Fraction entries in exact mode and floats in float mode.  The few
solvers needed here (inverse, affine solve, the tail search) are written out
by hand, with the same pivoting in both modes: largest absolute pivot, first
row on ties.
"""

from operator import mul

from .scalars import (EXACT, FLOAT, ExactnessError, coerce, coerce_row,
                      mode_of, near, sqrt_scalar)


def block_diag(head, diagonal, mode):
    """Square matrix with the square block head in its top-left corner, the
    values of diagonal down the rest of the main diagonal, zeros elsewhere;
    every entry coerced to mode."""
    zero = coerce(0, mode)
    h = len(head)
    k = h + len(diagonal)
    rows = [coerce_row(row, mode) + (zero,) * (k - h) for row in head]
    for i, v in enumerate(diagonal):
        row = [zero] * k
        row[h + i] = coerce(v, mode)
        rows.append(tuple(row))
    return tuple(rows)


def transpose(a):
    return tuple(zip(*a))


def matmul(a, b):
    """Product of two matrices given as sequences of rows; each entry adds
    its products in index order."""
    cols = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def max_abs(a):
    """Largest absolute entry of a matrix; exact scalar for exact input."""
    return max([abs(x) for row in a for x in row], default=0)


def _coerced_rows(rows):
    flat = [x for row in rows for x in row]
    mode = mode_of(flat)
    return [list(coerce_row(row, mode)) for row in rows], mode


def mat_inv(a):
    """Gauss-Jordan inverse, generic over the entry type."""
    a, mode = _coerced_rows(a)
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("square matrix required")
    one = coerce(1, mode)
    zero = coerce(0, mode)
    aug = [row + [one if j == i else zero for j in range(k)]
           for i, row in enumerate(a)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        prow = aug[col] = [x / p for x in aug[col]]
        for r in range(k):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return tuple(tuple(row[k:]) for row in aug)


def solve_affine(a, b):
    """All solutions of a x = b as (particular, kernel basis vectors).

    Works on exact and float matrices; float pivoting is by magnitude with a
    small threshold for rank decisions.  The particular solution and the
    kernel vectors are tuples.
    """
    rows = len(a)
    if len(b) != rows:
        raise ValueError("right-hand side does not match the rows")
    aug, mode = _coerced_rows([tuple(row) + (bi,) for row, bi in zip(a, b)])
    cols = len(aug[0]) - 1
    exact = mode == EXACT
    zero_tol = 0 if exact else 1e-12 * max(1.0, float(max_abs(a)))
    pivots = []
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(aug[i][c]), default=None)
        if pivot is None or abs(aug[pivot][c]) <= zero_tol:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p = aug[r][c]
        prow = aug[r] = [x / p for x in aug[r]]
        for i in range(rows):
            f = aug[i][c]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], prow)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if abs(aug[i][cols]) > zero_tol:
            raise ValueError("inconsistent linear system")
    one = coerce(1, mode)
    zero = coerce(0, mode)
    particular = [zero] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    kernel = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [zero] * cols
        vec[c] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][c]
        kernel.append(tuple(vec))
    return tuple(particular), kernel


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


def _axpy(base, u, v):
    """base + u * v entrywise."""
    return tuple(b + u * x for b, x in zip(base, v))


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
        a = [[t[i] * signs[i] for i in range(m)] for t in prev_tails]
        p, kernel = solve_affine(a, pair_values)
    else:
        mode = EXACT if exact else FLOAT
        p = (coerce(0, mode),) * m
        kernel = list(block_diag((), (1,) * m, mode))
    if not kernel:
        residual = diag_dot(signs, p, p) - self_value
        if near(residual, 0, 1e-8 * max(1.0, abs(float(self_value)))):
            yield p
        return
    dim = len(kernel)
    seen = set()
    for pattern in _assignment_patterns(dim):
        for j in range(dim):
            base = p
            for k in range(dim):
                # an exact zero term adds nothing; a float one can still
                # turn a -0.0 entry into 0.0, so float mode adds it
                if k != j and (pattern[k] or not exact):
                    base = _axpy(base, pattern[k], kernel[k])
            kj = kernel[j]
            a2 = diag_dot(signs, kj, kj)
            b2 = 2 * diag_dot(signs, base, kj)
            c2 = diag_dot(signs, base, base) - self_value
            u = _solve_univariate(a2, b2, c2, exact)
            if u is None:
                continue
            t = _axpy(base, u, kj)
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
