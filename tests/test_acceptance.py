"""Acceptance checklist.

One test per shipped guarantee; each prints a single PASS/FAIL line
outside of capture so a full run reads as a checklist.  Wall-clock
budgets include the build time of any session fixture the criterion
consumes.  The exact-mode slice for n in {3, 4, 5} is expected to fail
by construction and is marked strict-xfail rather than skipped: no
rational Descartes configuration exists in those dimensions, so the
guarantee is only attainable in float mode (see the float criterion).
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from inversive import (apollonian, euclid, forms, linalg, onedim, svg,
                       transform)
from inversive.scalars import EXACT, FLOAT, ExactnessError

import oracles

GEOMS = (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC)


def _line(capsys, label, ok, detail, seconds=None):
    stamp = "" if seconds is None else f" [{seconds:.2f}s]"
    with capsys.disabled():
        print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'} {detail}{stamp}")


@pytest.fixture(scope="module")
def exact_fuzz():
    """500 exact n=2 configurations per geometry from reflection words."""
    t0 = time.perf_counter()
    rng = random.Random(90210)
    pools = {}
    for geometry in GEOMS:
        seed = apollonian.standard_seed(geometry)
        configs = []
        for _ in range(500):
            w = seed
            for _ in range(rng.randrange(13)):
                w = apollonian.reflect(w, rng.randrange(4))
            configs.append(w)
        pools[geometry] = tuple(configs)
    return pools, time.perf_counter() - t0


def test_criterion_01_seed_identity(capsys, euclid_seed):
    t0 = time.perf_counter()
    q_value = forms.bend_residual(forms.EUCLIDEAN, (F(-1), F(2), F(2), F(3)))
    first = sorted(int(apollonian.reflect(euclid_seed, i).bends[i])
                   for i in range(4))
    dt = time.perf_counter() - t0
    ok = q_value == 0 and first == [3, 6, 6, 15] and dt < 1.0
    _line(capsys, "01", ok,
          f"Q2(-1,2,2,3) = {q_value} exactly; first-generation bends {first}", dt)
    assert q_value == 0
    assert first == [3, 6, 6, 15]
    assert dt < 1.0


def test_criterion_02_loxodromic_sequences(capsys):
    t0 = time.perf_counter()
    six = {g: apollonian.loxodromic(apollonian.standard_seed(g), 2).bends
           for g in GEOMS}
    heads_ok = (
        six[forms.EUCLIDEAN] == (-1, 2, 2, 3, 15, 38)
        and six[forms.SPHERICAL] == (0, 1, 1, 2, 8, 21)
        and six[forms.HYPERBOLIC] == (-1, 1, 1, 1, 7, 17)
    )
    termwise_ok = all(
        s + h == e
        for s, h, e in zip(six[forms.SPHERICAL], six[forms.HYPERBOLIC],
                           six[forms.EUCLIDEAN])
    )
    long = [apollonian.loxodromic(apollonian.standard_seed(g), 50) for g in GEOMS]
    recurrence_ok = all(apollonian.recurrence_check(seq) for seq in long)
    terms = len(long[0].bends)
    dt = time.perf_counter() - t0
    ok = heads_ok and termwise_ok and recurrence_ok and dt < 1.0
    _line(capsys, "02", ok,
          "loxodromic heads E, S, H match; S + H = E termwise; "
          f"recurrence holds for {terms} terms in all three geometries", dt)
    assert heads_ok and termwise_ok and recurrence_ok
    assert dt < 1.0


def test_criterion_03_gram_identity_fuzz(capsys, exact_fuzz):
    pools, build_s = exact_fuzz
    t0 = time.perf_counter()
    rng = random.Random(31337)
    worst_float = 0.0
    float_failures = 0
    refused_within_tol = 0
    for geometry in GEOMS:
        for n in (2, 3, 4, 5):
            seed = apollonian.standard_seed(geometry, n=n, mode=FLOAT)
            q = forms.descartes_form(n, FLOAT)
            target = forms.target_for(geometry, n, FLOAT)
            for _ in range(500):
                w = seed
                for _ in range(rng.randrange(13)):
                    w = apollonian.reflect(w, rng.randrange(n + 2))
                res = forms.check_identity(w, q, target, tol=1e-9)
                worst_float = max(worst_float, float(res.max_abs_entry_error))
                float_failures += not res.ok
                refused_within_tol += (
                    not res.ok and res.max_abs_entry_error <= 1e-9)

    exact_failures = 0
    for geometry in GEOMS:
        q = forms.descartes_form(2)
        target = forms.target_for(geometry, 2)
        for w in pools[geometry]:
            res = forms.check_identity(w, q, target)
            exact_failures += not (res.ok and res.max_abs_entry_error == 0)

    # random similarity placement of realized curvature vectors
    placement_failures = 0
    for w in pools[forms.EUCLIDEAN][:100]:
        realized = euclid.realize_curvature_vector(w.bends)
        v = (F(rng.randrange(-30, 31), 7), F(rng.randrange(-30, 31), 7))
        s = F(rng.randrange(1, 12), rng.randrange(1, 12))
        placed = transform.moved(realized, linalg.matmul(
            transform.translation(v), transform.dilation(s, 2)))
        res = forms.check_identity(
            placed, forms.descartes_form(2), forms.target_for(forms.EUCLIDEAN, 2)
        )
        placement_failures += not (res.ok and res.max_abs_entry_error == 0)

    dt = time.perf_counter() - t0 + build_s
    ok = (worst_float <= 1e-9 and float_failures == 0
          and refused_within_tol == 0 and exact_failures == 0
          and placement_failures == 0 and dt < 30.0)
    _line(capsys, "03", ok,
          f"Gram identity: 6000 float configurations (n in 2..5, three "
          f"geometries) worst residual {worst_float:.2e} <= 1e-9; 1500 exact "
          "configurations residual 0; 100 exact similarity placements", dt)
    assert float_failures == 0 and worst_float <= 1e-9
    assert refused_within_tol == 0
    assert exact_failures == 0
    assert placement_failures == 0
    assert dt < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="no rational Descartes configuration exists for n in {3, 4, 5}: "
    "the Gram identity forces an irrational coordinate determinant, so the "
    "exact-mode slice of the fuzz criterion is unattainable by construction",
)
def test_criterion_03_exact_mode_above_n2_is_impossible(capsys):
    _line(capsys, "03 (exact, n in 3..5)", True,
          "XFAIL expected-impossible: rational seeds do not exist in these "
          "dimensions; the float slice above covers them")
    for n in (3, 4, 5):
        apollonian.standard_seed(forms.EUCLIDEAN, n=n)  # raises ExactnessError


def test_criterion_04_soddy_relations(
    capsys, spherical_packing_1000, hyperbolic_packing_1000, horocycle_packing
):
    t0 = time.perf_counter()
    failures = 0
    checked_sph = 0
    for w in spherical_packing_1000.value.configs:
        failures += forms.bend_residual(forms.SPHERICAL, w.bends) != 0
        checked_sph += 1
    checked_hyp = 0
    for timed in (hyperbolic_packing_1000, horocycle_packing):
        for w in timed.value.configs:
            failures += forms.bend_residual(forms.HYPERBOLIC, w.bends) != 0
            checked_hyp += 1
    dt = (time.perf_counter() - t0 + spherical_packing_1000.seconds
          + hyperbolic_packing_1000.seconds + horocycle_packing.seconds)
    ok = failures == 0 and dt < 60.0
    _line(capsys, "04", ok,
          f"Soddy relations exact: cot vectors of {checked_sph} spherical and "
          f"coth vectors of {checked_hyp} hyperbolic configurations", dt)
    assert failures == 0
    assert checked_sph > 4000 and checked_hyp > 5000
    assert dt < 60.0


def test_criterion_05_integer_packings(
    capsys, euclid_packing_1000, spherical_packing_1000,
    hyperbolic_packing_1000, horocycle_packing
):
    t0 = time.perf_counter()
    timed_packs = (euclid_packing_1000, spherical_packing_1000,
                   hyperbolic_packing_1000, horocycle_packing)
    non_integral = 0
    circles = 0
    for timed in timed_packs:
        report = apollonian.integrality_report(timed.value)
        non_integral += len(report.non_integral)
        circles += len(timed.value.rows)

    # tangency to the absolute, decided in the disk rather than by reading
    # the coth entry: the locus of (c, q0, m) is the circle with bend q0 + c
    # and curvature-center vector m, tangent to the unit circle exactly when
    # |m|^2 = (bend - 1)^2
    tangency_mismatches = 0
    horocycles = 0
    for timed in (hyperbolic_packing_1000, horocycle_packing):
        for r in timed.value.rows:
            c, q0, m1, m2 = r.entries
            b = q0 + c
            assert b != 0
            disk_tangent = m1 * m1 + m2 * m2 == (b - 1) ** 2
            tangency_mismatches += disk_tangent != (c == 1)
            horocycles += c == 1
    dt = (time.perf_counter() - t0
          + sum(timed.seconds for timed in timed_packs))
    truncated = horocycle_packing.value.truncated
    ok = non_integral == 0 and tangency_mismatches == 0 and truncated and dt < 60.0
    _line(capsys, "05", ok,
          f"all bends integral to bound 1000 in 4 packings ({circles} circles; "
          "the (-1,1,1,1) closure is infinite at every bound and truncated at "
          f"4000 configurations); disk tangency to the absolute <=> coth = 1 "
          f"on all hyperbolic circles ({horocycles} horocycles)", dt)
    assert non_integral == 0
    assert tangency_mismatches == 0
    assert truncated
    assert dt < 60.0


def test_criterion_06_round_trips(capsys, exact_fuzz, rng):
    pools, _ = exact_fuzz
    t0 = time.perf_counter()
    failures = {}

    def tally(family, bad):
        failures[family] = failures.get(family, 0) + bad

    def pythagorean_normal():
        p = rng.randrange(2, 9)
        q = rng.randrange(1, p)
        h = F(p * p + q * q)
        return (F(p * p - q * q) / h, F(2 * p * q) / h)

    # augmented coordinates of planar objects
    for _ in range(500):
        if rng.random() < 0.5:
            curv = F(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.randrange(1, 9))
            obj = oracles.OrientedSphere(
                curv, (F(rng.randrange(-40, 41), 8), F(rng.randrange(-40, 41), 8))
            )
        else:
            obj = oracles.OrientedHyperplane(
                pythagorean_normal(), F(rng.randrange(-40, 41), 8)
            )
        back = oracles.object_from_augmented(oracles.augmented_coords(obj))
        tally("augmented", back != obj)
    for _ in range(500):
        curv = rng.choice([-1, 1]) * rng.uniform(0.2, 5.0)
        obj = oracles.OrientedSphere(
            curv, (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        back = oracles.object_from_augmented(oracles.augmented_coords(obj))
        err = max(abs(back.curvature - obj.curvature),
                  abs(back.center[0] - obj.center[0]),
                  abs(back.center[1] - obj.center[1]))
        tally("augmented", err > 1e-12)

    # cap coordinates
    def float_cap():
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        return oracles.SphericalCap(
            tuple(x / norm for x in v), rng.uniform(0.2, 2.9)
        )

    sph_rows = [r.entries for w in pools[forms.SPHERICAL] for r in w.rows]
    for row in sph_rows[:500]:
        cap = oracles.cap_from_coords(row)
        tally("caps", oracles.cap_coords(cap).entries != row)
    float_caps = [float_cap() for _ in range(500)]
    for cap in float_caps:
        back = oracles.cap_from_coords(oracles.cap_coords(cap).entries)
        err = max(
            abs(back.angular_radius - cap.angular_radius),
            max(abs(a - b) for a, b in zip(back.center, cap.center)),
        )
        tally("caps", err > 1e-12)

    # lifting between the sphere and the plane
    for row in sph_rows[:500]:
        cap = oracles.cap_from_coords(row)
        back = oracles.plane_to_cap(oracles.cap_to_plane(cap))
        tally("lift", oracles.cap_coords(back).entries != row)
    for cap in float_caps:
        row = oracles.cap_coords(cap).entries
        back = oracles.plane_to_cap(oracles.cap_to_plane(cap))
        err = max(abs(a - b) for a, b in zip(oracles.cap_coords(back).entries, row))
        tally("lift", err > 1e-12)

    # full geometry cycles on whole configurations
    cycle = {
        forms.EUCLIDEAN: (forms.SPHERICAL, forms.HYPERBOLIC, forms.EUCLIDEAN),
        forms.SPHERICAL: (forms.HYPERBOLIC, forms.EUCLIDEAN, forms.SPHERICAL),
        forms.HYPERBOLIC: (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC),
    }
    for geometry in GEOMS:
        for w in pools[geometry][:167]:
            out = w
            for dst in cycle[geometry]:
                out = transform.convert_matrix(out, dst)
            tally("cycles", tuple(r.entries for r in out.rows)
                  != tuple(r.entries for r in w.rows))
        seed = apollonian.standard_seed(geometry, mode=FLOAT)
        for _ in range(167):
            w = seed
            for _ in range(rng.randrange(7)):
                w = apollonian.reflect(w, rng.randrange(4))
            out = w
            for dst in cycle[geometry]:
                out = transform.convert_matrix(out, dst)
            err = max(abs(a - b) for ra, rb in zip(w.rows, out.rows)
                      for a, b in zip(ra.entries, rb.entries))
            tally("cycles", err > 1e-12)

    dt = time.perf_counter() - t0
    bad = sum(failures.values())
    ok = bad == 0 and dt < 10.0
    _line(capsys, "06", ok,
          "round trips are the identity (exact equal / float <= 1e-12) on "
          "1000 instances per family: augmented coords, cap coords, "
          "sphere/plane lift, geometry cycles", dt)
    assert failures == {k: 0 for k in failures}, failures
    assert dt < 10.0


def _inverted_circle(circle):
    """The image of a circle under inversion in the unit circle, from its
    center c and oriented radius r: the circle of center c/(|c|^2 - r^2)
    and radius r/(|c|^2 - r^2), or, through the origin, the line
    {x : (c/r).x = 1/(2r)}."""
    c, r = circle.center, circle.radius
    d = sum(x * x for x in c) - r * r
    if d == 0:
        return oracles.OrientedHyperplane(tuple(x / r for x in c), 1 / (2 * r))
    return oracles.OrientedSphere(d / r, tuple(x / d for x in c))


def test_criterion_07_inversion_laws(capsys, exact_fuzz):
    pools, _ = exact_fuzz
    t0 = time.perf_counter()
    double_failures = 0
    swap_failures = 0
    lines = 0
    g = transform.inversion(2)
    for w in pools[forms.EUCLIDEAN][:200]:
        inverted = transform.moved(w, g)
        double_failures += transform.moved(inverted, g) != w
        # circles inverted from their centers and radii, the matrix route
        # and the first-two-column swap agree entrywise
        images = [_inverted_circle(o) for o in oracles.objects_from_config(w)]
        lines += sum(isinstance(o, oracles.OrientedHyperplane) for o in images)
        circle_route = np.array(oracles.config_from_objects(images).matrix())
        column_route = np.array(w.matrix())[:, [1, 0, 2, 3]]
        swap_failures += not ((circle_route == column_route).all()
                              and (np.array(inverted.matrix())
                                   == column_route).all())
    dt = time.perf_counter() - t0
    ok = double_failures == 0 and swap_failures == 0 and lines > 0
    _line(capsys, "07", ok,
          "double inversion is the identity, and unit-sphere inversion of "
          "circles from their centers and radii equals the first-two-column "
          f"swap entrywise on 200 configurations ({lines} images are lines)",
          dt)
    assert double_failures == 0
    assert swap_failures == 0
    assert lines > 0


def test_criterion_08_inverse_conjugation(capsys, exact_fuzz):
    pools, _ = exact_fuzz
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    q = forms.descartes_form(2)
    for geometry in GEOMS:
        target = forms.target_for(geometry, 2)
        for w in pools[geometry]:
            res = oracles.inverse_conjugation_check(
                linalg.transpose(w.matrix()), q, target)
            failures += not (res.ok and res.max_abs_entry_error == 0)
            checked += 1
    dt = time.perf_counter() - t0
    ok = failures == 0
    _line(capsys, "08", ok,
          f"transposed-inverse conjugation residual 0 on {checked} exact fuzz "
          "configurations", dt)
    assert failures == 0 and checked == 1500


def test_criterion_09_one_dimensional(capsys, rng):
    t0 = time.perf_counter()
    failures = 0
    for _ in range(100):
        cuts = sorted({F(rng.randrange(-200, 201), rng.randrange(1, 12))
                       for _ in range(3)})
        while len(cuts) < 3:
            cuts = sorted(cuts + [cuts[-1] + F(rng.randrange(1, 9), 5)])
        if any(c == 0 for c in cuts):
            cuts = [c + F(1, 7) for c in cuts]
        cfg = onedim.complete_line(
            onedim.OrientedInterval(cuts[0], cuts[1]),
            onedim.OrientedInterval(cuts[1], cuts[2]),
        )
        res = forms.check_identity(
            onedim.augmented_1d(cfg), forms.descartes_form(1),
            forms.target_for(forms.EUCLIDEAN, 1),
        )
        failures += not (res.ok and res.max_abs_entry_error == 0)
    dt = time.perf_counter() - t0
    ok = failures == 0
    _line(capsys, "09", ok,
          "interval-triple Gram identity exact on 100 random touching pairs "
          "with rational endpoints", dt)
    assert failures == 0


def test_criterion_10_determinism(capsys, euclid_seed):
    t0 = time.perf_counter()
    p1 = apollonian.generate(euclid_seed, 200)
    p2 = apollonian.generate(euclid_seed, 200)
    rows_equal = (tuple(r.entries for r in p1.rows)
                  == tuple(r.entries for r in p2.rows))
    renders = {svg.render(p1) for _ in range(3)}
    ortho = apollonian.generate(apollonian.standard_seed(forms.SPHERICAL), 50)
    renders_sph = {svg.render(ortho) for _ in range(3)}
    dt = time.perf_counter() - t0
    ok = rows_equal and len(renders) == 1 and len(renders_sph) == 1
    _line(capsys, "10", ok,
          f"row order identical across repeated runs ({len(p1.rows)} rows); "
          "renders byte-identical across repeated runs", dt)
    assert rows_equal
    assert len(renders) == 1 and len(renders_sph) == 1
