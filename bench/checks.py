"""Output checks shared by the workloads.

A check returns None when the output passed and a Fail otherwise.  A Fail
that carries a defect tag is one of the two float/exact defects known at the
commit that defined this benchmark; every other Fail makes the run
incorrect.
"""

import hashlib
import math
import re
from collections import defaultdict
from dataclasses import dataclass

# Float generate compares |bend| > bound in floating point, so a circle whose
# exact bend equals an integral bound is lost when its float bend lands
# above it: (-8,16,16,24) at B=600 gives 119 rows exact and 115 float.
FLOAT_BOUND_EDGE = "float-bound-edge"
# The hyperbolic realizer's tail search finds no float solution for some
# coth vectors whose exact realization succeeds, e.g. (-2,3,5,6).
FLOAT_HYPERBOLIC_REALIZE = "float-hyperbolic-realize"

# Float rows agree with their exact twins far inside this; a corrupted
# entry misses it by orders of magnitude.
REL_TOL = 1e-6
# Relative to the square of the largest entry; see workloads.check_config.
GRAM_TOL = 1e-11
# SVG numbers are printed to 4 decimals; a float twin may differ from the
# exact one by one unit in the last, where its value sits on a rounding edge.
SVG_TOL = 1.5e-4


@dataclass(frozen=True)
class Fail:
    reason: str
    defect: str = None


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def rows_fingerprint(rows):
    """Digest of row entries as printed; str() of a Fraction or float is
    exact, so equal digests mean equal rows."""
    return sha256("\n".join(",".join(map(str, r.entries)) for r in rows))


def close(a, b, tol=REL_TOL):
    a, b = float(a), float(b)
    return abs(a - b) <= tol * max(1.0, abs(b))


def rows_close(float_entries, exact_entries, tol=REL_TOL):
    return len(float_entries) == len(exact_entries) and all(
        close(x, y, tol) for x, y in zip(float_entries, exact_entries))


def digest(data, expected, what):
    if expected is None:
        return Fail(f"no reference {what} digest for this input")
    got = sha256(data)
    if got != expected:
        return Fail(f"{what} sha256 {got[:12]} != reference {expected[:12]}")
    return None


def match_rows(float_rows, exact_rows, col):
    """Pair each float row with an unused exact row equal to it within
    REL_TOL.  Returns (pairs, exact rows left unmatched, float rows left
    unmatched); pairs follow the float rows' order."""
    exact = [(r, tuple(float(x) for x in r.entries)) for r in exact_rows]
    buckets = defaultdict(list)
    for r, entries in exact:
        buckets[math.floor(entries[col])].append((r, entries))
    used, pairs, extra = set(), [], []
    for fr in float_rows:
        base = math.floor(fr.entries[col])
        hit = None
        for k in (base, base - 1, base + 1):
            for r, entries in buckets.get(k, ()):
                if id(r) not in used and rows_close(fr.entries, entries):
                    hit = r
                    break
            if hit is not None:
                break
        if hit is None:
            extra.append(fr)
        else:
            used.add(id(hit))
            pairs.append((fr, hit))
    missing = [r for r, _ in exact if id(r) not in used]
    return pairs, missing, extra


def twin_rows(float_rows, exact_rows, col, bound):
    """Verdict on float rows against the exact rows of the same input, plus
    the exact rows the float ones matched."""
    pairs, missing, extra = match_rows(float_rows, exact_rows, col)
    matched = [er for _, er in pairs]
    if not missing and not extra:
        return None, matched
    reason = (f"{len(missing)} exact rows missing and {len(extra)} float rows "
              f"extra against the exact twin")
    if not extra and all(abs(r.entries[col]) == bound for r in missing):
        return Fail(reason + f", all missing rows have |bend| = {bound}",
                    FLOAT_BOUND_EDGE), matched
    return Fail(reason), matched


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _parse_line(line):
    numbers = [float(x) for x in _NUMBER.findall(line)]
    return tuple(_NUMBER.split(line)), numbers


def svg_close(got, expected, tol=SVG_TOL):
    """None when the lines of two SVG documents pair up one to one, each
    pair with the same text around its numbers and every number within tol
    of its counterpart.  Line order is ignored: the renderer sorts rows by their float
    entries, and rows whose leading entries tie in exact arithmetic are
    ordered by rounding noise in float mode."""
    a = [_parse_line(x) for x in got.split(b"\n")]
    b = [_parse_line(x) for x in expected.split(b"\n")]
    if len(a) != len(b):
        return Fail(f"SVG has {len(a)} lines, the exact twin's has {len(b)}")
    buckets = defaultdict(list)
    for j, (text, numbers) in enumerate(b):
        buckets[text, math.floor(numbers[0]) if numbers else 0].append(j)
    used = set()
    for text, numbers in a:
        base = math.floor(numbers[0]) if numbers else 0
        hit = next((j for k in (base, base - 1, base + 1)
                    for j in buckets.get((text, k), ())
                    if j not in used and all(
                        abs(x - y) <= tol for x, y in zip(numbers, b[j][1]))),
                   None)
        if hit is None:
            line = _NUMBER.sub(b"#", b"".join(text))[:60].decode()
            return Fail(f"SVG line {line!r} has no counterpart in the exact twin")
        used.add(hit)
    return None
