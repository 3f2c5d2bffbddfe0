"""Deterministic SVG rendering of packings in all three geometries."""

import re
import warnings
from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, svg
from inversive.scalars import FLOAT


class Holder:
    """Bare row container, for rendering hand-built row lists."""

    def __init__(self, geometry, n, rows):
        self.geometry = geometry
        self.n = n
        self.rows = rows


def _labels(text):
    return re.findall(r">([^<>]+)</text>", text)


def test_render_options_validation():
    for bad in (
        dict(cutoff=0.0), dict(cutoff=1.0), dict(width=0),
        dict(height=-5), dict(labels="sizes"), dict(stroke_width=0.0),
    ):
        with pytest.raises(ValueError):
            svg.RenderOptions(**bad)
    opts = svg.RenderOptions()
    assert opts.width == 800 and opts.cutoff == pytest.approx(1 / 400)


def test_euclidean_packing_render(euclid_seed):
    p = apollonian.generate(euclid_seed, 20)
    out = svg.render(p)
    assert svg.render(p) == out  # byte-for-byte repeatable
    assert len(out) == 2771
    s = out.decode("ascii")
    assert s.startswith("<svg")
    assert s.endswith("</svg>\n")
    assert 'viewBox="0 0 800 800"' in s
    assert s.count("<circle") == 23
    got = sorted(_labels(s), key=lambda t: (len(t), t))
    expect = sorted(
        (str(b) for b in sorted(p.bends)), key=lambda t: (len(t), t)
    )
    assert got == expect


def test_render_accepts_bare_config(euclid_seed):
    s = svg.render(euclid_seed).decode("ascii")
    assert s.count("<circle") == 4
    assert sorted(_labels(s)) == ["-1", "2", "2", "3"]


def test_hyperbolic_seed_disk_render():
    hs = apollonian.standard_seed(forms.HYPERBOLIC)
    s = svg.render(hs).decode("ascii")
    # the absolute row is itself the unit circle, so nothing extra is added
    assert s.count("<circle") == 4
    assert sorted(_labels(s)) == ["-1", "1", "1", "1"]


def test_hyperbolic_boundary_inserted_when_missing():
    deep = apollonian.realize_bends(forms.HYPERBOLIC, (F(-2), F(3), F(5), F(6)))
    s = svg.render(deep).decode("ascii")
    # four sphere loci plus the absolute drawn as a frame
    assert s.count("<circle") == 5
    assert sorted(_labels(s)) == ["-2", "3", "5", "6"]


def test_virtual_rows_are_skipped_with_warning():
    hs = apollonian.standard_seed(forms.HYPERBOLIC)
    rows = list(hs.rows) + [forms.CoordRow(forms.HYPERBOLIC, (F(0), F(0), F(1), F(0)))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = svg.render(Holder(forms.HYPERBOLIC, 2, rows)).decode("ascii")
    assert any("virtual" in str(w.message) for w in caught)
    assert "virtual" in s  # the skip is also recorded in the file
    assert s.count("<circle") == 4


def test_spherical_projections():
    p = apollonian.generate(apollonian.standard_seed(forms.SPHERICAL), 20)
    assert len(p.rows) == 29
    ortho = svg.render(p, svg.RenderOptions(projection=svg.ORTHOGRAPHIC)).decode()
    assert ortho.count("<ellipse") == 28
    assert ortho.count("<circle") == 2  # outline plus one axis-centered cap
    assert ortho.count("stroke-dasharray") == 1  # one back-facing cap
    stereo = svg.render(p, svg.RenderOptions(projection=svg.STEREOGRAPHIC)).decode()
    assert stereo.count("<circle") == 29
    assert stereo.count("<ellipse") == 0
    assert ortho != stereo


def test_strip_packing_renders_lines():
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (F(0), F(0), F(1), F(1)))
    p = apollonian.generate(strip, 1, max_configs=50)
    s = svg.render(p).decode("ascii")
    assert s.count("<line") == 2
    assert s.count("<circle") == 51


def test_cutoff_prunes_small_circles(euclid_seed):
    p = apollonian.generate(euclid_seed, 200)
    fine = svg.render(p, svg.RenderOptions(cutoff=1 / 400)).decode()
    coarse = svg.render(p, svg.RenderOptions(cutoff=1 / 20)).decode()
    assert fine.count("<circle") == 371
    assert coarse.count("<circle") == 9


def test_labels_none(euclid_seed):
    p = apollonian.generate(euclid_seed, 20)
    s = svg.render(p, svg.RenderOptions(labels="none")).decode()
    assert s.count("<text") == 0


def test_float_integral_bends_label_as_integers():
    seed = apollonian.standard_seed(forms.EUCLIDEAN, mode=FLOAT)
    p = apollonian.generate(seed, 6)
    for label in _labels(svg.render(p).decode()):
        assert re.fullmatch(r"-?\d+", label), label


def test_geometry_dispatch_is_checked():
    hs = apollonian.standard_seed(forms.HYPERBOLIC)
    with pytest.raises(ValueError):
        svg.render_euclidean(hs, svg.RenderOptions())
    n3 = apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode=FLOAT)
    with pytest.raises(ValueError):
        svg.render(n3)


def _reference_sorted_rows(packing):
    """svg._sorted_rows as it was, converting entries with float()."""
    rows = [(tuple(map(float, r.entries)), r.entries) for r in packing.rows]
    rows.sort(key=lambda pair: pair[0])
    return rows


# the exact and float packings that the stream-render benchmark renders
STREAM_INPUTS = ((forms.EUCLIDEAN, (-1, 2, 2, 3), 200),
                 (forms.SPHERICAL, (0, 1, 1, 2), 100),
                 (forms.HYPERBOLIC, (-2, 3, 5, 6), 150))


@pytest.mark.parametrize("geometry,bends,bound", STREAM_INPUTS)
@pytest.mark.parametrize("mode", ["exact", FLOAT])
def test_render_bytes_match_float_conversion(monkeypatch, geometry, bends,
                                             bound, mode):
    seed = apollonian.realize_bends(
        geometry, bends if mode == "exact" else tuple(map(float, bends)))
    p = apollonian.generate(seed, bound)
    assert svg._sorted_rows(p) == _reference_sorted_rows(p)
    projections = (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC) \
        if geometry == forms.SPHERICAL else (svg.ORTHOGRAPHIC,)
    options = [svg.RenderOptions(labels=labels, cutoff=cutoff, projection=pr)
               for labels in ("bend", "none")
               for cutoff in (1 / 800, 1 / 400, 1 / 200) for pr in projections]
    new = [svg.render(p, o) for o in options]
    monkeypatch.setattr(svg, "_sorted_rows", _reference_sorted_rows)
    assert new == [svg.render(p, o) for o in options]
