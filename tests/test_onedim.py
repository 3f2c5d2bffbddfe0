"""Interval configurations on the line, the n = 1 degeneration."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from inversive import forms, onedim, shell

import oracles


def _gram_residual(cfg):
    w = onedim.augmented_1d(cfg)
    return forms.check_identity(
        w, forms.descartes_form(1), forms.target_for(forms.EUCLIDEAN, 1)
    )


def test_symmetric_pair():
    cfg = onedim.complete_line(
        onedim.OrientedInterval(F(-1), F(0)), onedim.OrientedInterval(F(0), F(1))
    )
    rows = [r.entries for r in onedim.augmented_1d(cfg).rows]
    assert rows == [(0, 2, -1), (0, 2, 1), (1, -1, 0)]
    assert [iv.r for iv in cfg.intervals] == [F(1, 2), F(1, 2), F(-1)]
    third = cfg.intervals[2]
    assert third.infinite and (third.a, third.b) == (-1, 1)
    res = _gram_residual(cfg)
    assert res.ok and res.max_abs_entry_error == 0


def test_asymmetric_pair():
    cfg = onedim.complete_line(
        onedim.OrientedInterval(F(0), F(1)), onedim.OrientedInterval(F(1), F(3))
    )
    rows = [r.entries for r in onedim.augmented_1d(cfg).rows]
    assert rows == [(0, 2, 1), (3, 1, 2), (0, F(-2, 3), -1)]
    assert [iv.r for iv in cfg.intervals] == [F(1, 2), F(1), F(-3, 2)]
    assert [iv.curvature for iv in cfg.intervals] == [2, 1, F(-2, 3)]
    assert _gram_residual(cfg).ok


def test_random_touching_pairs_satisfy_gram(rng):
    for _ in range(100):
        cuts = sorted(
            F(rng.randrange(-200, 201), rng.randrange(1, 12)) for _ in range(3)
        )
        if cuts[0] == cuts[1] or cuts[1] == cuts[2]:
            continue
        cfg = onedim.complete_line(
            onedim.OrientedInterval(cuts[0], cuts[1]),
            onedim.OrientedInterval(cuts[1], cuts[2]),
        )
        res = _gram_residual(cfg)
        assert res.ok and res.max_abs_entry_error == 0
        assert oracles.descartes_1d_check([iv.curvature for iv in cfg.intervals]) == 0


def test_float_intervals_are_not_rejected_for_rounding():
    """The oriented radii of a covering configuration sum to zero by its
    construction; in float mode their sum misses zero by rounding only, so
    it is no reason to reject the intervals."""
    cfg = onedim.complete_line(
        onedim.OrientedInterval(-2.0, -1.9), onedim.OrientedInterval(-1.9, 0.7)
    )
    assert sum(iv.r for iv in cfg.intervals) != 0
    assert onedim.augmented_1d(cfg).residual().ok
    # every one-decimal triple a < b < c in [-2, 2]
    points = [round(-2 + 0.1 * i, 1) for i in range(41)]
    count = 0
    for a, b, c in itertools.combinations(points, 3):
        cfg = onedim.complete_line(
            onedim.OrientedInterval(a, b), onedim.OrientedInterval(b, c)
        )
        res = onedim.augmented_1d(cfg).residual()
        assert res.ok, (a, b, c, res.max_abs_entry_error)
        count += 1
    assert count == 10660


def test_interval_validation():
    with pytest.raises(ValueError):
        onedim.OrientedInterval(F(1), F(1))
    with pytest.raises(ValueError):
        onedim.OrientedInterval(F(2), F(1))
    # half a subnormal length rounds to zero: no radius, no curvature
    for infinite in (False, True):
        with pytest.raises(ValueError, match="rounds to zero"):
            onedim.OrientedInterval(0.0, 5e-324, infinite)
    assert onedim.OrientedInterval(0.0, 1e-323).r == 5e-324


def test_complete_line_input_errors():
    with pytest.raises(ValueError, match="touch"):
        onedim.complete_line(
            onedim.OrientedInterval(F(0), F(1)), onedim.OrientedInterval(F(2), F(3))
        )
    with pytest.raises(ValueError, match="overlap"):
        onedim.complete_line(
            onedim.OrientedInterval(F(0), F(2)), onedim.OrientedInterval(F(1), F(3))
        )
    with pytest.raises(ValueError, match="finite"):
        onedim.complete_line(
            onedim.OrientedInterval(F(0), F(3), infinite=True),
            onedim.OrientedInterval(F(0), F(1)),
        )


def test_infinite_interval_orientation():
    iv = onedim.OrientedInterval(F(0), F(3), infinite=True)
    assert iv.r == F(-3, 2)
    assert iv.curvature == F(-2, 3)


def test_descartes_1d_check_values():
    assert oracles.descartes_1d_check((F(2), F(1), F(-2, 3))) == 0
    assert oracles.descartes_1d_check((F(1), F(1), F(1))) == -6
    # the relation is quadratic, so it survives a global sign flip
    assert oracles.descartes_1d_check((F(-2), F(-1), F(2, 3))) == 0
    assert abs(oracles.descartes_1d_check((2.0, 1.0, -2 / 3))) < 1e-12


def test_complete_bend_at_n1():
    """At n = 1 the bend relation is linear in the completion: one root,
    (k - ab)/(a + b), in every geometry and mode."""
    E = forms.EUCLIDEAN
    assert shell.complete_bend(E, (F(2), F(1))) == (F(-2, 3),)
    assert shell.complete_bend(E, (2, 1)) == (F(-2, 3),)
    (out,) = shell.complete_bend(E, (2.0, 1.0))
    assert isinstance(out, float) and out == pytest.approx(-2 / 3)
    for pair in ((F(1), F(-1)), (1.0, -1.0)):
        with pytest.raises(ValueError, match="cancel"):
            shell.complete_bend(E, pair)
    # completing with the solved curvature closes the relation
    assert oracles.descartes_1d_check(
        (F(2), F(1), *shell.complete_bend(E, (F(2), F(1))))) == 0
    # the third cot of the spherical base, and a hyperbolic triple
    assert shell.complete_bend(forms.SPHERICAL, (-3, -2)) == (1,)
    assert shell.complete_bend(forms.SPHERICAL, (-3.0, -2.0)) == (1.0,)
    assert shell.complete_bend(forms.HYPERBOLIC, (F(2), F(1))) == (-1,)
    # float products past and under the range are scaled by a power of two;
    # unscaled they gave -inf and -0.0
    assert shell.complete_bend(E, (1e200, 1e200)) == (-5e199,)
    assert shell.complete_bend(E, (1e-200, 1e-200)) == (-5e-201,)
    # a zero product keeps its sign, as -ab/(a + b) does
    (zero,) = shell.complete_bend(E, (0.0, 1.0))
    assert math.copysign(1.0, zero) == -1.0


def _line(cuts):
    return onedim.complete_line(onedim.OrientedInterval(cuts[0], cuts[1]),
                                onedim.OrientedInterval(cuts[1], cuts[2]))


@pytest.mark.parametrize("scale", (1e-300, 1e-200, 1e-8, 1.0, 1e8, 1e200,
                                   1e300))
def test_float_rows_are_their_exact_twins_rounded_once(scale):
    """Each entry of a float interval configuration is the entry of the
    configuration of the same (dyadic) endpoints in exact mode, rounded
    once, and the configuration passes its Gram check at every scale."""
    rng = random.Random(2)
    count = 0
    while count < 500:
        cuts = sorted(rng.uniform(-1, 1) * scale for _ in range(3))
        if cuts[0] == cuts[1] or cuts[1] == cuts[2]:
            continue
        count += 1
        w = onedim.augmented_1d(_line(cuts))
        twin = onedim.augmented_1d(_line([F(c) for c in cuts]))
        assert [list(row) for row in w.matrix()] == [
            [float(x) for x in row] for row in twin.matrix()], cuts
        assert w.residual().ok, cuts
