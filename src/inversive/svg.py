"""Deterministic SVG rendering of two-dimensional packings.

render is the one entry point for all three geometries.  Euclidean
packings render directly.  Hyperbolic packings render as the Euclidean loci
of their circles in the unit-disk model, with the absolute as the boundary
circle.  Spherical packings render under an orthographic projection viewed
down the first center axis (back-facing caps dashed), or optionally under
stereographic projection through that pole.  The disk-model
and stereographic loci are the images of the rows under the conversion of
transform.conversion_matrix to Euclidean rows.

Output is SVG 1.1 text assembled from canonically sorted rows with a fixed
number format, so identical inputs produce identical bytes.  A render reads
a Packing or a ConfigMatrix, each from its frame (Packing.scaled,
ConfigMatrix.scaled), so its Fraction rows are never built, and each row
is converted to float once, by scalars.unscaled_rows.  Exact labels are
read from the ints too.

A render builds a scene and draws it, by the builder and drawer that
one table holds for the packing's geometry.  The scene is what no option
changes: the sorted float rows with the text of their labels, then the
circles, lines and world box of the plane or the disk, or the caps of the
orthographic view, in world coordinates.  A Packing or ConfigMatrix is
immutable, so its scene is built once per packing and projection and kept
with it, O(rows) memory for the packing's lifetime.  The draw applies the
canvas transform, the cutoff and the labels option.  A scene keeps what it
drew on its last canvas (width, height): per (signed radius, label value)
pair its pixel radius, r text and label size, and per circle, cap or line
its element, label anchor and, once a labelled render drew it, label.
Only what a render draws is filled in, and another canvas replaces the
memo, so a later render on one canvas, at any cutoff, labels option or
stroke width, only culls by pixel radius and joins.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from . import forms, transform
from .scalars import FLOAT, unscaled_rows

ORTHOGRAPHIC = "orthographic"
STEREOGRAPHIC = "stereographic"

# Hyperplane / degenerate-locus threshold for float rows.
_ZERO = 1e-9


@dataclass(frozen=True)
class RenderOptions:
    """Knobs of render for all three geometries; defaults are deterministic."""

    width: int = 800
    height: int = 800
    cutoff: float = 1.0 / 400.0  # minimum drawn radius, fraction of canvas
    labels: str = "bend"  # bend | none
    stroke_width: float = 1.0
    projection: str = ORTHOGRAPHIC  # spherical renders only

    def __post_init__(self):
        if not 0 < self.cutoff < 1:
            raise ValueError("cutoff must lie strictly between 0 and 1")
        if self.labels not in ("bend", "none"):
            raise ValueError(f"unknown label mode {self.labels!r}")
        if self.projection not in (ORTHOGRAPHIC, STEREOGRAPHIC):
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if self.stroke_width <= 0:
            raise ValueError("stroke width must be positive")


def _fmt(x):
    """Fixed-point pixel value, trimmed; normalizes -0."""
    s = f"{x:.4f}"
    if s[-1] != "0":
        return s  # nothing to trim, and not zero
    s = s.rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


def _label_text(value):
    """An int or float label value: integral values exactly, others to 6
    significant digits."""
    return str(int(value)) if value == int(value) else f"{value:.6g}"


def _scaled_label(scale, x):
    """_label_text of Fraction(x, scale), read from the int x: x // scale
    when scale divides x, else x / scale, which is correctly rounded and so
    the float of that Fraction."""
    q, rem = divmod(x, scale)
    return f"{x / scale:.6g}" if rem else str(q)


def _sorted_rows(packing):
    """(float tuple, label value) per row, in canonical float order, and the
    function that gives a label value its text, for a Packing or a
    ConfigMatrix.  The label value is the row's bend entry in the frame:
    the bend in the plane, the cot or coth value on the sphere and in the
    disk.

    The rows are read from the scaled frame, and the CoordRows are not
    built: the floats are scalars.unscaled_rows of the frame, each entry
    of an int frame x / scale correctly rounded, so the same float as
    float(Fraction(x, scale)), and float rows as they are.
    """
    col = forms.bend_column(packing.geometry)
    ints, scale = packing.scaled
    rows = sorted(zip(unscaled_rows(ints, scale, FLOAT),
                      map(itemgetter(col), ints)), key=itemgetter(0))
    # a partial, not a closure, so that a packing with a kept scene still
    # pickles
    return rows, _label_text if scale == 1 else partial(_scaled_label, scale)


def _document(options, elements, labels, comment=None):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.width}" height="{options.height}" '
        f'viewBox="0 0 {options.width} {options.height}">'
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{options.width}" height="{options.height}" fill="white"/>')
    parts.append(
        f'<g fill="none" stroke="black" stroke-width="{_fmt(options.stroke_width)}">'
    )
    parts.extend(elements)
    parts.append("</g>")
    if labels:
        parts.append(
            '<g font-family="Helvetica, Arial, sans-serif" text-anchor="middle" fill="black">'
        )
        parts.extend(labels)
        parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def _transform(box, options):
    """Uniform world-to-pixel map centered on the canvas, y flipped: (s, x0,
    y1, ox, oy), taking (x, y) to ((x - x0) * s + ox, (y1 - y) * s + oy)."""
    x0, y0, x1, y1 = box
    s = min(options.width / (x1 - x0), options.height / (y1 - y0))
    ox = (options.width - (x1 - x0) * s) / 2
    oy = (options.height - (y1 - y0) * s) / 2
    return s, x0, y1, ox, oy


def _inner_font(rp, text):
    """Font size of a label centered in a circle of pixel radius rp, or None
    when it would be too small to read."""
    font = min(1.1 * rp, 2.4 * rp / len(text))
    return None if font < 4 else font


def _font_tail(font, text):
    return f' font-size="{_fmt(font)}">{text}</text>'


def _key_label(rp, bounding, value, text):
    """(lift, dy, tail) of the label of each circle of one pixel radius rp
    and label value (None: no label), or "" for none: the label's y is py -
    lift + dy and its tail is the font size and text."""
    if value is None:
        return ""
    label = text(value)
    if bounding:
        # Negative-bend circles enclose the picture; tuck the label inside
        # the top edge instead of burying it under the packing.
        font = max(9.0, 0.05 * rp)
        return rp, 1.25 * font, _font_tail(font, label)
    font = _inner_font(rp, label)
    if font is None:
        return ""
    # py - 0.0 is py, so the label y is py + 0.35 * font to the bit
    return 0.0, 0.35 * font, _font_tail(font, label)


def _clip_line(h, d, box):
    """Segment of the line x.h = d inside box, or None (Liang-Barsky)."""
    hx, hy = h
    px, py = d * hx, d * hy
    tx, ty = -hy, hx
    x0, y0, x1, y1 = box
    t0, t1 = -math.inf, math.inf
    for p, q in ((-tx, px - x0), (tx, x1 - px), (-ty, py - y0), (ty, y1 - py)):
        if p == 0:
            if q < 0:
                return None
            continue
        t = q / p
        if p < 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
    if t0 >= t1:
        return None
    return (px + t0 * tx, py + t0 * ty), (px + t1 * tx, py + t1 * ty)


def _world_box(circles, lines):
    # bounding (negative) circles frame the picture on their own
    frame = [c for c in circles if c[2] < 0] or circles
    boxes = [
        (cx - abs(r), cy - abs(r), cx + abs(r), cy + abs(r))
        for cx, cy, r, _ in frame
    ]
    if not boxes:
        # nothing finite to frame; center on the lines' foot points
        feet = [(hx * d, hy * d) for hx, hy, d, _ in lines] or [(0.0, 0.0)]
        boxes = [(fx - 1.0, fy - 1.0, fx + 1.0, fy + 1.0) for fx, fy in feet]
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    m = 0.04 * max(x1 - x0, y1 - y0, 1e-9)  # a margin of 4 %
    return (x0 - m, y0 - m, x1 + m, y1 + m)


# The drawing of a packing before any option is applied: circles (cx, cy,
# k) and lines (hx, hy, offset, label value) in world coordinates, the world
# box, the text of a label value, and the number of virtual rows left out of
# the disk.  keys[k] is the (signed r, label value or None) of a circle,
# which fixes all it draws but its center, so a canvas sizes each key once.
# The radius alone does not fix the label: in the disk and under
# stereographic projection it is no function of the bend, and two exact
# bends can share a float.  drawn is the _canvas_memo.
_Plane = namedtuple("_Plane", "circles keys lines box text skipped drawn")

# The orthographic view: the sorted rows and the text of a label value; per
# row the major semi-axis of its ellipse, sin a for a cap of angular radius
# a; per row its _cap, worked out when a render first draws it, since most
# caps of a large packing are under every cutoff; and drawn, as in _Plane.
_Caps = namedtuple("_Caps", "rows text majors caps drawn")

_DISK_BOX = (-1.06, -1.06, 1.06, 1.06)


def _scene(packing, build):
    """build(packing), the scene of a packing under one projection.  A
    Packing or a ConfigMatrix is immutable, so its scene is built once and
    kept in its __dict__ per builder, as ConfigMatrix.residual keeps its
    residuals."""
    scenes = packing.__dict__.setdefault("_scenes", {})
    scene = scenes.get(build)
    if scene is None:
        scene = scenes[build] = build(packing)
    return scene


def _canvas_memo(scene, options, new):
    """What renders of scene drew on the canvas of options, in scene.drawn;
    new() replaces the memo of another canvas, so a scene holds one."""
    canvas = options.width, options.height
    memo = scene.drawn.get(canvas)
    if memo is None:
        scene.drawn.clear()
        memo = scene.drawn[canvas] = new()
    return memo


def _plane_shapes(rows, geometry):
    """Circles and lines of augmented Euclidean rows, given as ((bbar, b,
    mx, my) floats, label value) pairs.  Rows of another geometry are first
    carried to them by the float head ((p, q), (r, s)) of its conversion to
    Euclidean rows: (x, y, m) -> (p x + r y, q x + s y, m)."""
    if geometry != forms.EUCLIDEAN:
        (p, q), (r, s) = transform.conversion_matrix(
            geometry, forms.EUCLIDEAN, 0, FLOAT)
        rows = (((x * p + y * r, x * q + y * s, mx, my), value)
                for (x, y, mx, my), value in rows)
    circles, lines = [], []
    for (bbar, b, mx, my), value in rows:
        if abs(b) <= _ZERO:
            lines.append((mx, my, bbar / 2, value))
        else:
            circles.append((mx / b, my / b, 1 / b, value))
    return circles, lines


def _plane(circles, lines, box, text, skipped=0):
    """The _Plane of circles (cx, cy, signed r, label value or None)."""
    keys = {}
    keyed = [(cx, cy, keys.setdefault((r, value), len(keys)))
             for cx, cy, r, value in circles]
    return _Plane(keyed, list(keys), lines, box, text, skipped, {})


def _plane_scene(packing):
    """A Euclidean packing as it is, or a spherical one under stereographic
    projection: (c, q0, m) -> Euclidean (c - q0, c + q0, m), pole at the q0
    axis."""
    rows, text = _sorted_rows(packing)
    circles, lines = _plane_shapes(rows, packing.geometry)
    return _plane(circles, lines, _world_box(circles, lines), text)


def _disk_scene(packing):
    """A hyperbolic packing in the unit-disk model, with the absolute."""
    rows, text = _sorted_rows(packing)
    # virtual rows (|c| < 1) have no Euclidean locus and are skipped
    circles, lines = _plane_shapes(
        [row for row in rows if not abs(row[0][0]) < 1 - _ZERO],
        forms.HYPERBOLIC)
    skipped = len(rows) - len(circles) - len(lines)
    if not any(
        abs(cx) <= _ZERO and abs(cy) <= _ZERO and abs(abs(r) - 1) <= _ZERO
        for cx, cy, r, _ in circles
    ):
        circles.insert(0, (0.0, 0.0, 1.0, None))  # absolute not among the rows
    return _plane(circles, lines, _DISK_BOX, text, skipped)


def _cap_scene(packing):
    """A spherical packing viewed down the first center axis."""
    rows, text = _sorted_rows(packing)
    majors = [1 / math.sqrt(1 + f[0] * f[0]) for f, _ in rows]
    return _Caps(rows, text, majors, [None] * len(rows), {})


def _cap(row, sin_a):
    """(minor semi-axis, world center x, y, rotation text in degrees, dash,
    label value) of the ellipse of a cap of angular radius a, given its
    sorted row; the rotation is None for a cap centered on the view axis,
    which projects to a circle, and back-facing caps are dashed."""
    f, value = row
    cos_a = f[0] * sin_a
    axis, u, v = [q * sin_a for q in f[1:]]  # unit center on the sphere
    # the minor axis lies along the projected center direction
    angle = (None if math.hypot(u, v) <= _ZERO
             else _fmt(-math.degrees(math.atan2(v, u))))
    return (sin_a * abs(axis), cos_a * u, cos_a * v, angle,
            ' stroke-dasharray="4 3"' if axis < 0 else "", value)


def _draw_plane(scene, options):
    """Shared planar pipeline: the circles and lines of a _Plane scene
    scaled to the canvas, cut off and labelled, with a warning and a
    comment for the virtual rows a disk scene left out.  The canvas memo
    holds per key its pixel radius, r="..."/> tail and _key_label, and per
    circle or line its (element, label anchor) and label element, "" for
    none; all but the radii are made when a render first draws them."""
    comment = None
    if scene.skipped:
        warnings.warn(f"skipped {scene.skipped} virtual rows with no disk locus")
        comment = f"skipped {scene.skipped} virtual rows"
    box, text, keys = scene.box, scene.text, scene.keys
    s, x0, y1, ox, oy = _transform(box, options)
    min_r = options.cutoff * min(options.width, options.height)
    labelled = options.labels == "bend"
    elements, labels = [], []
    shapes = len(scene.circles) + len(scene.lines)
    rps, tails, fonts, drawn, captions = _canvas_memo(scene, options, lambda: (
        [abs(r) * s for r, _ in keys], [None] * len(keys), [None] * len(keys),
        [None] * shapes, [None] * shapes))
    for i, (cx, cy, k) in enumerate(scene.circles):
        rp = rps[k]
        if rp < min_r:
            continue
        circle = drawn[i]
        if circle is None:
            tail = tails[k]
            if tail is None:
                tail = tails[k] = f'r="{_fmt(rp)}"/>'
            x, py = _fmt((cx - x0) * s + ox), (y1 - cy) * s + oy
            circle = drawn[i] = (f'<circle cx="{x}" cy="{_fmt(py)}" {tail}', x, py)
        elements.append(circle[0])
        if not labelled:
            continue
        label = captions[i]
        if label is None:
            font = fonts[k]
            if font is None:
                r, value = keys[k]
                font = fonts[k] = _key_label(rp, r < 0, value, text)
            label = ""
            if font:
                _, x, py = circle
                lift, dy, tail = font
                label = f'<text x="{x}" y="{_fmt(py - lift + dy)}"{tail}'
            captions[i] = label
        if label:
            labels.append(label)
    for j, (hx, hy, d, value) in enumerate(scene.lines, len(scene.circles)):
        line = drawn[j]
        if line is None:
            line = drawn[j] = ()
            seg = _clip_line((hx, hy), d, box)
            if seg is not None:
                (ax, ay), (bx, by) = seg
                ax, ay = (ax - x0) * s + ox, (y1 - ay) * s + oy
                bx, by = (bx - x0) * s + ox, (y1 - by) * s + oy
                # the label's anchor, offset into the interior side
                # (opposite the outward normal)
                line = drawn[j] = (
                    f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                    f'x2="{_fmt(bx)}" y2="{_fmt(by)}"/>',
                    (ax + bx) / 2 - hx * 1.2 * 14.0,
                    (ay + by) / 2 - (-hy) * 1.2 * 14.0)
        if not line:
            continue
        elements.append(line[0])
        if labelled and value is not None:
            label = captions[j]
            if label is None:
                label = captions[j] = (
                    f'<text x="{_fmt(line[1])}" y="{_fmt(line[2] + 0.35 * 14.0)}"'
                    f'{_font_tail(14.0, text(value))}')
            labels.append(label)
    return _document(options, elements, labels, comment)


def _draw_caps(scene, options):
    """The orthographic pipeline: the outline and the caps of a _Caps scene
    scaled to the canvas, cut off and labelled.  The canvas memo holds the
    outline, per label value its ry and label text, and per cap what
    _draw_plane's holds per circle, made when a render first draws it."""
    s, x0, y1, ox, oy = _transform(_DISK_BOX, options)
    min_r = options.cutoff * min(options.width, options.height)
    labelled = options.labels == "bend"
    rows, caps = scene.rows, scene.caps
    outline, sizes, names, drawn, captions = _canvas_memo(scene, options, lambda: (
        f'<circle cx="{_fmt(ox - x0 * s)}" cy="{_fmt(y1 * s + oy)}" '
        f'r="{_fmt(s)}"/>', {}, {}, [None] * len(rows), [None] * len(rows)))
    elements, labels = [outline], []
    for i, major in enumerate(scene.majors):
        if major * s < min_r:
            continue
        circle = drawn[i]
        if circle is None:
            cap = caps[i]
            if cap is None:
                cap = caps[i] = _cap(rows[i], major)
            minor, wx, wy, angle, dash, value = cap
            # major is fixed by the float of the label value
            ry = sizes.get(value)
            if ry is None:
                ry = sizes[value] = _fmt(major * s)
            py = (y1 - wy) * s + oy
            x, y = _fmt((wx - x0) * s + ox), _fmt(py)
            if angle is None:
                element = f'<circle cx="{x}" cy="{y}" r="{ry}"{dash}/>'
                fit = major * s
            else:
                element = (
                    f'<ellipse cx="{x}" cy="{y}" rx="{_fmt(minor * s)}" '
                    f'ry="{ry}" transform="rotate({angle} {x} {y})"{dash}/>')
                fit = min(max(minor * s, 0.3 * major * s), major * s)
            circle = drawn[i] = (element, x, py, fit, value)
        elements.append(circle[0])
        if not labelled:
            continue
        label = captions[i]
        if label is None:
            _, x, py, fit, value = circle
            name = names.get(value)
            if name is None:
                name = names[value] = scene.text(value)
            font = _inner_font(fit, name)
            label = captions[i] = "" if font is None else (
                f'<text x="{x}" y="{_fmt(py + 0.35 * font)}"'
                f'{_font_tail(font, name)}')
        if label:
            labels.append(label)
    return _document(options, elements, labels)


# the scene builder and drawer of each geometry; a spherical packing is
# drawn on the plane under STEREOGRAPHIC
_VIEWS = {forms.EUCLIDEAN: (_plane_scene, _draw_plane),
          forms.SPHERICAL: (_cap_scene, _draw_caps),
          forms.HYPERBOLIC: (_disk_scene, _draw_plane)}


def render(packing, options=None):
    """SVG of a packing in the plane, of a spherical packing under its
    projection, or of a hyperbolic packing in the unit-disk model, labelled
    by bend, cot or coth value; n = 2 only."""
    build, draw = forms._by_geometry(_VIEWS, packing.geometry)
    if packing.n != 2:
        raise ValueError("rendering is implemented for n = 2 only")
    options = options or RenderOptions()
    if build is _cap_scene and options.projection == STEREOGRAPHIC:
        build, draw = _plane_scene, _draw_plane
    return draw(_scene(packing, build), options)
