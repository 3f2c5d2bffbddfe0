"""Deterministic SVG rendering of packings in all three geometries."""

import dataclasses
import pickle
import re
import warnings
from fractions import Fraction as F

import pytest

from inversive import apollonian, forms, shell, svg
from inversive.scalars import FLOAT

import reference_svg


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
    n3 = apollonian.standard_seed(forms.EUCLIDEAN, n=3, mode=FLOAT)
    with pytest.raises(ValueError,
                       match="^rendering is implemented for n = 2 only$"):
        svg.render(n3)
    # the geometry is checked first
    with pytest.raises(ValueError, match="^unknown geometry 'elliptic'$"):
        svg.render(Holder("elliptic", 3, n3.rows))


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
    rows, text = svg._sorted_rows(p)
    reference = _reference_sorted_rows(p)
    col = forms.bend_column(geometry)
    # every float, and every label read from the scaled ints, against the
    # conversion of the entries of p.rows
    assert [f for f, _ in rows] == [f for f, _ in reference]
    assert [text(v) for _, v in rows] \
        == [reference_svg._label_text(e[col]) for _, e in reference]
    projections = (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC) \
        if geometry == forms.SPHERICAL else (svg.ORTHOGRAPHIC,)
    options = [svg.RenderOptions(labels=labels, cutoff=cutoff, projection=pr)
               for labels in ("bend", "none")
               for cutoff in (1 / 800, 1 / 400, 1 / 200) for pr in projections]
    new = [svg.render(p, o) for o in options]
    monkeypatch.setattr(svg, "_sorted_rows", lambda q: (
        [(f, e[col]) for f, e in _reference_sorted_rows(q)],
        reference_svg._label_text))
    # p keeps the scenes of its renders, so the patched rows are drawn
    # from a fresh packing of the same seed and bound
    fresh = apollonian.generate(seed, bound)
    assert new == [svg.render(fresh, o) for o in options]


# --- the renderer against reference_svg, the renderer it replaced --------

ORACLE_OPTIONS = [
    svg.RenderOptions(labels=labels, cutoff=cutoff, projection=projection,
                      **canvas)
    for labels in ("bend", "none") for cutoff in (1 / 800, 1 / 400, 1 / 200)
    for projection in (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC)
    for canvas in ({}, dict(width=640, height=480, stroke_width=2.5))]


def _float_seed(geometry, bends):
    seed = apollonian.realize_bends(geometry, bends)
    return forms.ConfigMatrix.from_rows(
        geometry, [r.entries for r in seed.rows], mode=FLOAT)


def _assert_oracle_bytes(packing, options=ORACLE_OPTIONS):
    """Every option set renders the bytes, and warns the warnings, of the
    reference renderer; a packing held as scaled ints keeps its rows
    unbuilt through the new renders."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = [svg.render(packing, o) for o in options]
        if getattr(packing, "scaled", None) is not None:
            assert "rows" not in vars(packing)
        old = [reference_svg.render(packing, o) for o in options]
    assert new == old
    messages = [str(w.message) for w in caught]
    assert messages[:len(messages) // 2] == messages[len(messages) // 2:]


@pytest.mark.parametrize("geometry,bends,bound", STREAM_INPUTS)
@pytest.mark.parametrize("mode", ["exact", FLOAT])
def test_render_matches_reference_renderer(geometry, bends, bound, mode):
    if mode == "exact":
        seed = apollonian.realize_bends(geometry, bends)
    else:
        seed, bound = _float_seed(geometry, bends), float(bound)
    text = shell.dumps_packing(apollonian.generate(seed, bound))
    _assert_oracle_bytes(shell.loads_packing(text))


def test_labels_read_from_scaled_ints():
    # halves of (-1,2,2,3): non-integral bends over a scale other than 1
    seed = apollonian.realize_bends(forms.EUCLIDEAN, (F(-1, 2), 1, 1, F(3, 2)))
    p = shell.loads_packing(shell.dumps_packing(apollonian.generate(seed, 30)))
    ints, scale = p.scaled
    assert scale != 1 and any(r[1] % scale for r in ints)
    _assert_oracle_bytes(p)
    assert "1.5" in _labels(svg.render(p).decode())


def test_render_matches_reference_on_lines_and_caps():
    strip = apollonian.realize_bends(forms.EUCLIDEAN, (0, 0, 1, 1))
    lines = apollonian.generate(strip, 10, max_configs=200)
    assert lines.truncated
    assert "<line" in svg.render(lines).decode()
    _assert_oracle_bytes(lines)
    horocycles = apollonian.realize_bends(forms.HYPERBOLIC, (-1, 1, 1, 1))
    capped = apollonian.generate(horocycles, 10, max_configs=200)
    assert capped.truncated
    _assert_oracle_bytes(capped)


def test_render_matches_reference_on_repeated_float_bends():
    # equal bends at different radii: the stereographic and disk images
    # of equal cot and coth values
    for geometry, bends, bound in STREAM_INPUTS:
        p = apollonian.generate(_float_seed(geometry, bends), float(bound))
        _assert_oracle_bytes(p)
        assert len(set(p.bends)) < len(p.bends)


def test_render_matches_reference_on_configurations():
    virtual = Holder(forms.HYPERBOLIC, 2, list(
        apollonian.standard_seed(forms.HYPERBOLIC).rows)
        + [forms.CoordRow(forms.HYPERBOLIC, (F(0), F(0), F(1), F(0)))])
    _assert_oracle_bytes(virtual)
    for geometry in (forms.EUCLIDEAN, forms.SPHERICAL, forms.HYPERBOLIC):
        for mode in ("exact", FLOAT):
            _assert_oracle_bytes(
                apollonian.standard_seed(geometry, mode=mode))
    _assert_oracle_bytes(
        apollonian.realize_bends(forms.HYPERBOLIC, (F(-2), F(3), F(5), F(6))))


# --- kept scenes against reference_svg -----------------------------------

def _render_warned(render, packing, options):
    """render(packing, options) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = render(packing, options)
    return out, [str(w.message) for w in caught]


def _assert_scene_reuse(make):
    """Every ORACLE_OPTIONS set, forward and then in reverse, renders the
    bytes and warns the warnings of the reference renderer, both on one
    packing per order, which keeps its scenes, and on a fresh packing from
    make() per call.  A scene that kept what the first options of an order
    cut off or left unlabelled, or pixels of its canvas, fails here."""
    expected = [_render_warned(reference_svg.render, make(), o)
                for o in ORACLE_OPTIONS]
    order = list(range(len(ORACLE_OPTIONS)))
    for indices in (order, order[::-1]):
        shared = make()
        for i in indices:
            o = ORACLE_OPTIONS[i]
            assert _render_warned(svg.render, shared, o) == expected[i]
            assert _render_warned(svg.render, make(), o) == expected[i]
        assert "_scenes" in vars(shared)
        if getattr(shared, "scaled", None) is not None and \
                "rows" not in vars(make()):
            assert "rows" not in vars(shared)
        # a kept scene does not stop a packing from pickling
        copy = pickle.loads(pickle.dumps(shared))
        assert _render_warned(svg.render, copy, o) == expected[i]
    # A, B, A on one packing, B differing from A only in an option that no
    # canvas memo keys on: the stroke width, then the labels
    for a in ORACLE_OPTIONS[:4]:
        for b in (dataclasses.replace(a, stroke_width=0.5),
                  dataclasses.replace(a, labels="none")):
            shared = make()
            for o in (a, b, a, b):
                assert _render_warned(svg.render, shared, o) == \
                    _render_warned(reference_svg.render, make(), o)
    return expected


@pytest.mark.parametrize("geometry,bends,bound", STREAM_INPUTS)
@pytest.mark.parametrize("mode", ["exact", FLOAT])
def test_kept_scene_renders_every_option_in_either_order(geometry, bends,
                                                         bound, mode):
    if mode == "exact":
        seed = apollonian.realize_bends(geometry, bends)
    else:
        seed, bound = _float_seed(geometry, bends), float(bound)
    text = shell.dumps_packing(apollonian.generate(seed, bound))
    _assert_scene_reuse(lambda: shell.loads_packing(text))


def test_kept_scene_of_a_configuration_warns_on_every_render():
    rows = apollonian.standard_seed(forms.HYPERBOLIC).matrix()
    virtual = (F(0), F(0), F(1), F(0))
    expected = _assert_scene_reuse(lambda: forms.ConfigMatrix.from_rows(
        forms.HYPERBOLIC, rows[:-1] + (virtual,)))
    assert all(warned == ["skipped 1 virtual rows with no disk locus"]
               for _, warned in expected)
    _assert_scene_reuse(lambda: apollonian.standard_seed(forms.SPHERICAL))


def test_row_holder_draws_its_current_rows(euclid_seed):
    holder = Holder(forms.EUCLIDEAN, 2, list(euclid_seed.rows))
    assert svg.render(holder) == reference_svg.render(holder)
    holder.rows = list(apollonian.generate(euclid_seed, 20).rows)
    assert svg.render(holder) == reference_svg.render(holder)
    holder.rows.pop()
    assert svg.render(holder) == reference_svg.render(holder)
    assert "_scenes" not in vars(holder)


# --- the canvas memo of a kept scene --------------------------------------

def _loaded_stream(geometry, bends, bound):
    seed = apollonian.realize_bends(geometry, bends)
    return shell.loads_packing(
        shell.dumps_packing(apollonian.generate(seed, bound)))


def _counted_fmt(monkeypatch):
    """A list that grows by one for each call of svg._fmt."""
    calls = []
    fmt = svg._fmt
    monkeypatch.setattr(svg, "_fmt", lambda x: calls.append(x) or fmt(x))
    return calls


STREAM_VIEWS = [(geometry, bends, bound, projection)
                for geometry, bends, bound in STREAM_INPUTS
                for projection in (svg.ORTHOGRAPHIC, svg.STEREOGRAPHIC)
                if projection == svg.ORTHOGRAPHIC
                or geometry == forms.SPHERICAL]


@pytest.mark.parametrize("geometry,bends,bound,projection", STREAM_VIEWS)
@pytest.mark.parametrize("labels", ["bend", "none"])
def test_repeat_render_on_one_canvas_formats_nothing(
        monkeypatch, geometry, bends, bound, projection, labels):
    p = _loaded_stream(geometry, bends, bound)
    calls = _counted_fmt(monkeypatch)
    options = [svg.RenderOptions(cutoff=cutoff, labels=labels,
                                 projection=projection, stroke_width=width)
               for cutoff, width in ((1 / 800, 1.0), (1 / 400, 2.5),
                                     (1 / 200, 1.0))]
    first = svg.render(p, options[0])
    assert len(calls) > 1
    # the same options again, then larger cutoffs, which draw fewer of
    # the circles drawn first, at any stroke width, and without the labels
    # drawn first: the head's stroke width is all formatted
    if labels == "bend":
        options.append(dataclasses.replace(options[0], labels="none"))
    for o in options:
        del calls[:]
        image = svg.render(p, o)
        assert calls == [o.stroke_width]
        assert image == svg.render(_loaded_stream(geometry, bends, bound), o)
    assert image != first


def test_first_render_formats_only_drawn_circles(monkeypatch):
    p = _loaded_stream(forms.EUCLIDEAN, (-1, 2, 2, 3), 3000)
    calls = _counted_fmt(monkeypatch)
    image = svg.render(p).decode()
    circles, texts = image.count("<circle"), image.count("<text")
    assert len(p.bends) == 13965 and 0 < circles < 400
    # the stroke width; per drawn circle cx and cy, per drawn size its r
    # and per label its y and font size, at most
    assert 1 + 2 * circles <= len(calls) <= 1 + 3 * circles + 2 * texts


@pytest.mark.parametrize("geometry,bends,bound,projection", STREAM_VIEWS)
def test_a_kept_scene_holds_one_canvas(geometry, bends, bound, projection):
    p = _loaded_stream(geometry, bends, bound)
    for width, height in ((800, 800), (800, 600), (640, 480), (800, 800)):
        o = svg.RenderOptions(width=width, height=height,
                              projection=projection)
        assert svg.render(p, o) == \
            svg.render(_loaded_stream(geometry, bends, bound), o)
        (scene,) = vars(p)["_scenes"].values()
        assert list(scene.drawn) == [(width, height)]
