"""Dense matrix helpers that work for exact and float entries alike, and
the exact tail search.

Matrices are tuples of row tuples (the largest one in this package is 7x7),
with Fraction entries in exact mode and floats in float mode.  The few
solvers needed here are written out by hand.  The inverse, exact on the
values of its entries in either mode, and the linear conditions of the
tail search eliminate on Python ints, fraction-free: the rows are scaled by
the LCM of their denominators, combined by cross multiplication and divided
by their gcd, and only the results become Fractions.  The reduced row
echelon form is unique, so the results do not depend on the pivot order.
The tail search, which realizes exact curved bends above the plane, reads
its conditions from a table of targets over one denominator.

The arithmetic run on every reflection and every Gram check is generated
here once per row width, from source text of ints alone, through
_compiled, the one place the package builds code: the step of
apollonian.generate's walk, once per width and bend column (_walk_step),
the Descartes Grams of forms.check_identity with the step that compares
them with the target (_exact_gram, _float_gram), and the reflection of the
base configuration that forms._reflected_base realizes curved bends from
(_base_reflection).  These make no Python call per entry, and the walk's
step none per child.  The source of the walk's step, of a Gram kernel and
of the base reflection grows as the square of the width: one expression
per entry of each child, a loop over the rows whose body updates one
accumulator per entry, and one expression per entry of the reflected
rows, with the base passed in as arguments, since above the plane its
ints are longer than Python reads as literals.
"""

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import mul

from .scalars import EXACT, _sum, coerce, coerce_row, integer_rows, unscaled_rows


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
    return tuple(tuple(_sum(map(mul, row, col)) for col in cols) for row in a)


def max_abs(a):
    """Largest absolute entry of a matrix; exact scalar for exact input."""
    return max([abs(x) for row in a for x in row], default=0)


def _compiled(source):
    """The function kernel that source, a def statement generated from ints
    alone, defines: the one place the package builds code."""
    space = {}
    exec(source, space)
    return space["kernel"]


def _names(letter, width):
    """'x0, x1, ...': width names of one letter, joined."""
    return ", ".join([f"{letter}{j}" for j in range(width)])


def _matrix(width, entry):
    """The source of the width x width tuple of row tuples of entry(a, b)."""
    return "(" + "".join(["(" + "".join([entry(a, b) + ", "
                                         for b in range(width)]) + "), "
                          for a in range(width)]) + ")"


@cache
def _walk_step(width, col):
    """One step of apollonian.generate's walk on rows of width entries with
    the bend in column col, generated once per (width, col).

    kernel(rows, parent, c, limit, frontier, found) unpacks the rows into
    locals and forms their column sums t once.  At each index i but parent
    it forms only the bend c * (t_col - x_col) - x_col of the child that
    reflecting row x = rows[i] makes; when -limit <= bend <= limit it
    builds the child's row c * (t - x) - x, appends it to found and
    appends (the child's rows, None, i) to frontier, in index order."""
    cols = range(width)
    lines = ["def kernel(rows, parent, c, limit, frontier, found):",
             f"    {_names('r', width)}, = rows",
             *[f"    {_names(f'x{i}_', width)}, = r{i}" for i in cols],
             *[f"    t{j} = " + " + ".join([f"x{i}_{j}" for i in cols])
               for j in cols],
             "    low = -limit"]
    for i in cols:
        lines += [
            f"    if parent != {i}:",
            f"        b = c * (t{col} - x{i}_{col}) - x{i}_{col}",
            "        if low <= b <= limit:",
            "            new = (" + "".join(
                ["b, " if j == col else f"c * (t{j} - x{i}_{j}) - x{i}_{j}, "
                 for j in cols]) + ")",
            "            found.append(new)",
            "            frontier.append(((" + "".join(
                ["new, " if k == i else f"r{k}, " for k in cols])
            + f"), None, {i}))"]
    return _compiled("\n".join(lines))


@cache
def _base_reflection(width):
    """The reflection of forms._reflected_base on int rows of width
    entries, generated once per width.

    kernel(x, s, r, sigma, inverse, d, t) takes the int bends x over s and
    the base W0 = R / sigma with W0^{-1} = D / d and the diagonal t of the
    Gram target (forms._base), as arguments: above the plane their ints
    are too long for literals.  With e = (d s, 0, ..., 0) it returns
    (g, v_0, size, V, m sigma): g = D x, the first entry v_0 = d s - g_0
    of e - g, size = sum |D_0j x_j|, the rounding scale of g_0, and the
    int rows V = m R G over the positive m, G the reflection of t in
    e - g, with the scale m sigma of W0 G = V / (m sigma).  As
    R D = d sigma I, row r has r.(e - g) = d (s R_r0 - sigma x_r), and
    V_rj = m R_rj - 2 d (s R_r0 - sigma x_r) t_j (e - g)_j with
    m = 2 t_0 v_0 d s, both negated when m < 0."""
    cols = range(width)
    return _compiled("\n".join([
        "def kernel(x, s, r, sigma, inverse, d, t):",
        f"    {_names('x', width)}, = x",
        "    " + ", ".join([f"({_names(f'D{i}_', width)},)" for i in cols])
        + ", = inverse",
        "    " + ", ".join([f"({_names(f'R{i}_', width)},)" for i in cols])
        + ", = r",
        f"    {_names('t', width)}, = t",
        f"    {_names('p', width)} = "
        + ", ".join([f"D0_{j} * x{j}" for j in cols]),
        "    e = d * s",
        "    g0 = " + " + ".join([f"p{j}" for j in cols]),
        "    v0 = e - g0",
        *[f"    g{i} = " + " + ".join([f"D{i}_{j} * x{j}" for j in cols])
          for i in cols if i],
        "    m = 2 * t0 * v0 * e",
        "    f = 2 * d",
        "    if m < 0:",
        "        m, f = -m, -f",
        "    h0 = f * t0 * v0",
        *[f"    h{j} = -f * t{j} * g{j}" for j in cols if j],
        *[f"    u{i} = s * R{i}_0 - sigma * x{i}" for i in cols],
        "    return (" + "".join([f"g{i}, " for i in cols]) + "), v0, "
        + " + ".join([f"abs(p{j})" for j in cols]) + ", "
        + _matrix(width, lambda a, b: f"m * R{a}_{b} - u{a} * h{b}")
        + ", m * sigma"]))


@cache
def _exact_gram(width):
    """(gram, holds) on int rows of width entries, generated once per width.

    gram(v, n) is the symmetric int matrix n V^T V - sigma sigma^T of the
    rows V, sigma their column sums: one loop over the rows adds each
    column and each product of two columns of the upper triangle into its
    own accumulator, as the order of an int sum cannot change its value.
    holds(g, t, d, m) tells whether d g = m t in every entry, one row of g
    and t at a time, and stops at the first that differs."""
    cols = range(width)
    upper = [(a, b) for a in cols for b in cols if a <= b]
    gram = _compiled("\n".join([
        "def kernel(v, n):",
        "    " + " = ".join([f"s{a}" for a in cols]
                            + [f"g{a}_{b}" for a, b in upper]) + " = 0",
        f"    for {_names('x', width)} in v:",
        *[f"        s{a} += x{a}" for a in cols],
        *[f"        g{a}_{b} += x{a} * x{b}" for a, b in upper],
        *[f"    g{a}_{b} = n * g{a}_{b} - s{a} * s{b}" for a, b in upper],
        "    return " + _matrix(
            width, lambda a, b: f"g{min(a, b)}_{max(a, b)}")]))
    holds = _compiled("\n".join([
        "def kernel(g, t, d, m):",
        f"    for ({_names('g', width)}), ({_names('t', width)}) in zip(g, t):",
        "        if " + " or ".join([f"g{a} * d != t{a} * m" for a in cols])
        + ":",
        "            return False",
        "    return True"]))
    return gram, holds


@cache
def _float_gram(width):
    """(gram, residual) on float rows of width entries, generated once per
    width, each float operation that of the loops they replace, in their
    order, so that every entry keeps its bits.

    gram(v, n) is V^T P, P = V - ones c^T: one loop over the rows folds
    each column sum from the int 0, then c = sums / n, and a second loop
    takes each row p = x - c and adds each entry's product x_a p_b to its
    accumulator, each entry folded from the int 0 over the rows in order.
    residual(g, m, t) is the tuple of rows of g / m - t."""
    cols = range(width)
    entries = [(a, b) for a in cols for b in cols]
    gram = _compiled("\n".join([
        "def kernel(v, n):",
        "    " + " = ".join([f"s{a}" for a in cols]) + " = 0",
        f"    for {_names('x', width)} in v:",
        *[f"        s{a} += x{a}" for a in cols],
        f"    {_names('c', width)} = "
        + ", ".join([f"s{a} / n" for a in cols]),
        "    " + " = ".join([f"g{a}_{b}" for a, b in entries]) + " = 0",
        f"    for {_names('x', width)} in v:",
        f"        {_names('p', width)} = "
        + ", ".join([f"x{a} - c{a}" for a in cols]),
        *[f"        g{a}_{b} += x{a} * p{b}" for a, b in entries],
        "    return " + _matrix(width, lambda a, b: f"g{a}_{b}")]))
    residual = _compiled("\n".join([
        "def kernel(g, m, t):",
        "    return tuple([(" + "".join([f"g{a} / m - t{a}, " for a in cols])
        + f") for ({_names('g', width)}), ({_names('t', width)})"
        " in zip(g, t)])"]))
    return gram, residual


def _integer_rref(out, cols):
    """Fraction-free Gauss-Jordan elimination of int rows (a list of
    sequences, changed in place), pivoting in the first cols columns.

    Rows are combined by cross multiplication and divided by their gcd.
    Returns (rows, pivots): row i < len(pivots) is nonzero at column
    pivots[i] and zero at the other pivot columns, and the later rows are
    zero in the first cols columns.  Row i of the reduced row echelon form
    is rows[i] over its pivot entry.
    """
    m = len(out)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == m:
            break
        for pivot in range(r, m):
            if out[pivot][c]:
                break
        else:
            continue
        prow = out[pivot]
        g = gcd(*prow)
        if g > 1:
            prow = [x // g for x in prow]
        out[pivot] = out[r]
        out[r] = prow
        p = prow[c]
        for i in range(m):
            f = out[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(out[i], prow)]
                g = gcd(*row)
                out[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return out, pivots


def _integer_solve(aug):
    """(particular, kernel, d) for int augmented rows [a | b] of a x = b:
    all solutions are (particular + sum_k u_k kernel[k]) / d, d > 0, and
    the vectors are lists of ints."""
    cols = len(aug[0]) - 1
    rows, pivots = _integer_rref(aug, cols)
    if any(row[cols] for row in rows[len(pivots):]):
        raise ValueError("inconsistent linear system")
    d = lcm(*[row[c] for row, c in zip(rows, pivots)])
    # the reduced rows scaled to the pivot entry d
    rows = [row if row[c] == d else [x * (d // row[c]) for x in row]
            for row, c in zip(rows, pivots)]
    particular = [0] * cols
    for row, c in zip(rows, pivots):
        particular[c] = row[cols]
    kernel = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [0] * cols
        vec[c] = d
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[c]
        kernel.append(vec)
    return particular, kernel, d


def mat_inv(a):
    """Gauss-Jordan inverse on integers of the exact values of a square
    matrix's entries: ints, Fractions, or floats as the dyadic rationals
    they are.  The inverse is a tuple of Fraction rows."""
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("square matrix required")
    rows, _ = integer_rows(
        [tuple(row) + tuple([int(i == j) for j in range(k)])
         for i, row in enumerate(a)])
    rows, pivots = _integer_rref(list(rows), k)
    if len(pivots) != k:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, row[i]) for x in row[k:])
                 for i, row in enumerate(rows))


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


def _exact_tail_candidates(prev_tails, signs, values, scale):
    """Tails t with diag-form products <t_j, t> = values[j] / scale against
    prev_tails and <t, t> = values[-1] / scale, on ints.

    values is one row of the table of targets that realize_tails takes:
    ints over the one denominator scale > 0, not necessarily in lowest
    terms.  A tail is an int tuple (x_1, ..., x_m, e) in lowest terms with
    e > 0, standing for (x_1, ..., x_m) / e.  The linear conditions give
    the solutions (p + sum_k u_k kernel[k]) / d.  For each kernel
    assignment the quadratic in the one free u_j is scaled by d^2 scale,
    so its coefficients are ints and a rational root is an isqrt perfect
    square.  A factor common to scale and the values scales every equation
    and so changes no tail.  Raises ValueError when the linear conditions
    are inconsistent.
    """
    m = len(signs)
    scaled_signs = [scale * s for s in signs]
    # zip stops at the last earlier tail, before the self value
    aug = [list(map(mul, scaled_signs, t)) + [t[m] * v]
           for t, v in zip(prev_tails, values)]
    p, kernel, d = _integer_solve(aug)
    target = d * d * values[-1]

    def form(u, v):
        return sum(map(mul, map(mul, scaled_signs, u), v))

    def tail(vec, e):
        g = gcd(e, *vec) if e > 0 else -gcd(e, *vec)
        return tuple([x // g for x in vec]) + (e // g,)

    if not kernel:
        if form(p, p) == target:
            yield tail(p, d)
        return
    dim = len(kernel)
    norms = [form(v, v) for v in kernel]
    seen = set()
    for pattern in _assignment_patterns(dim):
        for j in range(dim):
            base = p
            for k in range(dim):
                if k != j and pattern[k]:
                    base = [x + pattern[k] * y for x, y in zip(base, kernel[k])]
            kj = kernel[j]
            a2 = norms[j]
            b2 = 2 * form(base, kj)
            c2 = form(base, base) - target
            # the root u_j = num / den
            if a2:
                disc = b2 * b2 - 4 * a2 * c2
                if disc < 0:
                    continue
                root = isqrt(disc)
                if root * root != disc:
                    continue
                num, den = root - b2, 2 * a2
            elif b2:
                num, den = -c2, b2
            elif c2:
                continue
            else:
                num, den = 0, 1
            t = tail([den * x + num * y for x, y in zip(base, kj)], den * d)
            if t not in seen:
                seen.add(t)
                yield t


# distinct tail candidates tried per row before the search backs out
BRANCH_LIMIT = 24


def realize_tails(first_options, signs, targets, scale):
    """Depth-first search for one exact tail per row of the table targets.

    targets[i] prescribes <t_j, t_i> for j < i, then <t_i, t_i>, as ints
    over the one denominator scale, so no Fraction is built for them.  The
    first tail is drawn from first_options, exact tuples; each later tail
    solves the linear conditions against the earlier ones and walks a
    deterministic list of kernel assignments for a rational root of its
    quadratic, branching over at most BRANCH_LIMIT distinct candidates per
    row.  A greedy first choice can strand a later row (picking a
    degenerate tail whose linear conditions become unsatisfiable), so
    failed branches are abandoned and the next candidate tried.  The search
    runs on ints, and the tails it returns become Fractions in one
    conversion: over the least common multiple of their denominators,
    through scalars.unscaled_rows, one Fraction per distinct int.  Returns
    a sequence of tuples or None.
    """
    def search(tails):
        i = len(tails)
        if i == len(targets):
            return tails
        try:
            for k, t in enumerate(_exact_tail_candidates(tails, signs,
                                                         targets[i], scale)):
                if k >= BRANCH_LIMIT:
                    break
                result = search(tails + [t])
                if result is not None:
                    return result
        except ValueError:
            return None
        return None

    # a tail (x_1, ..., x_m) / e is searched as the ints (x_1, ..., x_m, e)
    for (ints,), e in (integer_rows([t]) for t in first_options):
        tails = search([ints + (e,)])
        if tails is not None:
            e = lcm(*[t[-1] for t in tails])
            return unscaled_rows([[x * (e // t[-1]) for x in t[:-1]]
                                  for t in tails], e, EXACT)
    return None
