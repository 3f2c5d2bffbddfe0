"""Deterministic SVG rendering of two-dimensional packings.

Euclidean packings render directly.  Hyperbolic packings render as the
Euclidean loci of their circles in the unit-disk model, with the absolute as
the boundary circle.  Spherical packings render under an orthographic
projection viewed down the first center axis (back-facing caps dashed), or
optionally under stereographic projection through that pole.  The disk-model
and stereographic loci are the images of the rows under the conversion of
transform.conversion_matrix to Euclidean rows.

Output is SVG 1.1 text assembled from canonically sorted rows with a fixed
number format, so identical inputs produce identical bytes.  Rows are read
in the frame of scalars.scaled_rows, a packing's from Packing.scaled, so
its Fraction rows are never built, and each row is converted to float
once.  Exact labels are read from the ints too.
Each drawn circle is formatted in one pass, with its pixel center formatted
once.  The bends of a packing repeat, so its size, whether its label is
drawn and the label's text are worked out once per distinct (signed radius,
label value) pair of a render.
"""

import math
import warnings
from dataclasses import dataclass
from operator import itemgetter

from . import forms, transform
from .scalars import FLOAT, mode_of, scaled_rows

ORTHOGRAPHIC = "orthographic"
STEREOGRAPHIC = "stereographic"

# Hyperplane / degenerate-locus threshold for float rows.
_ZERO = 1e-9


@dataclass(frozen=True)
class RenderOptions:
    """Knobs shared by all three renderers; defaults are deterministic."""

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


def _scaled_label(scale):
    """_label_text of Fraction(x, scale), read from the int x: x // scale
    when scale divides x, else x / scale, which is correctly rounded and so
    the float of that Fraction."""

    def text(x):
        q, rem = divmod(x, scale)
        return f"{x / scale:.6g}" if rem else str(q)

    return text


def _sorted_rows(packing):
    """(float tuple, label value) per row, in canonical float order, and the
    function that gives a label value its text; accepts a Packing or any
    other object with CoordRow-valued .rows, such as a ConfigMatrix.  The
    label value is the row's bend entry in the frame: the bend in the plane,
    the cot or coth value on the sphere and in the disk.

    A Packing is read from Packing.scaled, and its rows are not built; other
    rows are put in the frame of scalars.scaled_rows first, in the mode of
    their entries.  Float rows are used as they are.  Each int is divided
    once in float, x / scale, which is correctly rounded and so the same
    float as float(Fraction(x, scale)).
    """
    col = forms.bend_column(packing.geometry)
    scaled = getattr(packing, "scaled", None)
    if scaled is None:
        entries = [r.entries for r in packing.rows]
        scaled = scaled_rows(entries, mode_of([x for e in entries for x in e]))
    ints, scale = scaled[:2]
    text = _label_text
    if scale.__class__ is float:  # float rows, at scale 1.0
        rows = [(r, r[col]) for r in ints]
    elif scale == 1:
        rows = [(tuple(map(float, r)), r[col]) for r in ints]
    else:
        rows = [(tuple([x / scale for x in r]), r[col]) for r in ints]
        text = _scaled_label(scale)
    rows.sort(key=itemgetter(0))
    return rows, text


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
    """Uniform world-to-pixel map centered on the canvas, y flipped."""
    x0, y0, x1, y1 = box
    s = min(options.width / (x1 - x0), options.height / (y1 - y0))
    ox = (options.width - (x1 - x0) * s) / 2
    oy = (options.height - (y1 - y0) * s) / 2

    def to_px(x, y):
        return ((x - x0) * s + ox, (y1 - y) * s + oy)

    return s, to_px


def _inner_font(rp, text):
    """Font size of a label centered in a circle of pixel radius rp, or None
    when it would be too small to read."""
    font = min(1.1 * rp, 2.4 * rp / len(text))
    return None if font < 4 else font


def _font_tail(font, text):
    return f' font-size="{_fmt(font)}">{text}</text>'


def _circle_size(rp, bounding, value, min_r, text):
    """What a circle of pixel radius rp and label value (None: no label)
    draws, the same for every circle of one signed radius and label value
    in a render: () when it is below the cutoff, else its r="..."/> tail and
    its label, None or (lift, dy, tail).  The label's y is py - lift + dy and
    its tail is the font size and text."""
    if rp < min_r:
        return ()
    tail = f'r="{_fmt(rp)}"/>'
    if value is None:
        return tail, None
    label = text(value)
    if bounding:
        # Negative-bend circles enclose the picture; tuck the label inside
        # the top edge instead of burying it under the packing.
        font = max(9.0, 0.05 * rp)
        return tail, (rp, 1.25 * font, _font_tail(font, label))
    font = _inner_font(rp, label)
    if font is None:
        return tail, None
    # py - 0.0 is py, so the label y is py + 0.35 * font to the bit
    return tail, (0.0, 0.35 * font, _font_tail(font, label))


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


def _draw_plane(circles, lines, box, options, text, comment=None):
    """Shared planar pipeline: circles (cx, cy, signed r, label value or None)
    and lines (hx, hy, offset, label value), world coordinates; text gives a
    label value its text."""
    s, to_px = _transform(box, options)
    min_r = options.cutoff * min(options.width, options.height)
    labelled = options.labels == "bend"
    elements, labels = [], []
    sizes = {}  # (signed r, label value) -> _circle_size(...)
    for cx, cy, r, value in circles:
        # the radius alone does not fix the label: in the disk and under
        # stereographic projection it is no function of the bend, and two
        # exact bends can share a float
        size = sizes.get((r, value))
        if size is None:
            size = sizes[r, value] = _circle_size(
                abs(r) * s, r < 0, value if labelled else None, min_r, text)
        if not size:
            continue
        tail, label = size
        px, py = to_px(cx, cy)
        x, y = _fmt(px), _fmt(py)
        elements.append(f'<circle cx="{x}" cy="{y}" {tail}')
        if label:
            lift, dy, font_tail = label
            labels.append(f'<text x="{x}" y="{_fmt(py - lift + dy)}"{font_tail}')
    for hx, hy, d, value in lines:
        seg = _clip_line((hx, hy), d, box)
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        pa, pb = to_px(ax, ay), to_px(bx, by)
        elements.append(
            f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
            f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}"/>'
        )
        if labelled and value is not None:
            font = 14.0
            mx, my = (pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2
            # offset into the interior side (opposite the outward normal)
            my -= (-hy) * 1.2 * font
            mx -= hx * 1.2 * font
            labels.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(my + 0.35 * font)}"'
                f'{_font_tail(font, text(value))}'
            )
    return _document(options, elements, labels, comment)


def _plane_shapes(rows, geometry=None):
    """Circles and lines of augmented Euclidean rows, given as ((bbar, b,
    mx, my) floats, label value) pairs.  Rows of another geometry are first
    carried to them by the float head ((p, q), (r, s)) of its conversion to
    Euclidean rows: (x, y, m) -> (p x + r y, q x + s y, m)."""
    if geometry is not None:
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


def _prologue(packing, options, geometry, need):
    """The options or their defaults, and the rows and label text of
    _sorted_rows; need is the error for a packing of another geometry."""
    if packing.geometry != geometry:
        raise ValueError(need)
    if packing.n != 2:
        raise ValueError("rendering is implemented for n = 2 only")
    return (options or RenderOptions(), *_sorted_rows(packing))


def render_euclidean(packing, options=None):
    """SVG for a planar packing: one circle per row above the size cutoff,
    bend labels centered and scaled to the radius."""
    options, rows, text = _prologue(packing, options, forms.EUCLIDEAN,
                                    "render_euclidean needs a Euclidean packing")
    circles, lines = _plane_shapes(rows)
    box = _world_box(circles, lines)
    return _draw_plane(circles, lines, box, options, text)


def render_hyperbolic_disk(packing, options=None):
    """SVG of a hyperbolic packing in the unit-disk model: boundary circle
    plus the Euclidean locus of every row, labeled by coth value."""
    options, rows, text = _prologue(
        packing, options, forms.HYPERBOLIC,
        "render_hyperbolic_disk needs a hyperbolic packing")
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
    box = (-1.06, -1.06, 1.06, 1.06)
    comment = None
    if skipped:
        warnings.warn(f"skipped {skipped} virtual rows with no disk locus")
        comment = f"skipped {skipped} virtual rows"
    return _draw_plane(circles, lines, box, options, text, comment)


def _orthographic(rows, options, text):
    s, to_px = _transform((-1.06, -1.06, 1.06, 1.06), options)
    min_r = options.cutoff * min(options.width, options.height)
    labelled = options.labels == "bend"
    elements, labels = [], []
    ox, oy = to_px(0.0, 0.0)
    elements.append(f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="{_fmt(s)}"/>')
    caps = {}  # cot value -> (ry, label text or None)
    for f, value in rows:
        c = f[0]
        sin_a = 1 / math.sqrt(1 + c * c)
        major = sin_a
        if major * s < min_r:
            continue
        # c is the float of the cot value, so the cap's size is fixed by it
        cap = caps.get(value)
        if cap is None:
            cap = caps[value] = (_fmt(major * s),
                                 text(value) if labelled else None)
        ry, label = cap
        cos_a = c * sin_a
        unit = [q * sin_a for q in f[1:]]  # unit center on the sphere
        axis, plane = unit[0], (unit[1], unit[2])
        rho = math.hypot(*plane)
        minor = sin_a * abs(axis)
        px, py = to_px(cos_a * plane[0], cos_a * plane[1])
        x, y = _fmt(px), _fmt(py)
        dash = ' stroke-dasharray="4 3"' if axis < 0 else ""
        if rho <= _ZERO:
            # cap centered on the view axis projects to a circle
            elements.append(f'<circle cx="{x}" cy="{y}" r="{ry}"{dash}/>')
            fit = major * s
        else:
            # minor axis lies along the projected center direction
            angle = -math.degrees(math.atan2(plane[1], plane[0]))
            elements.append(
                f'<ellipse cx="{x}" cy="{y}" rx="{_fmt(minor * s)}" ry="{ry}" '
                f'transform="rotate({_fmt(angle)} {x} {y})"{dash}/>'
            )
            fit = min(max(minor * s, 0.3 * major * s), major * s)
        if label is not None:
            font = _inner_font(fit, label)
            if font is not None:
                labels.append(f'<text x="{x}" y="{_fmt(py + 0.35 * font)}"'
                              f'{_font_tail(font, label)}')
    return _document(options, elements, labels)


def render_spherical(packing, options=None):
    """SVG of a spherical packing: orthographic view down the first center
    axis by default (back-facing caps dashed), stereographic on request;
    labels are cot values either way."""
    options, rows, text = _prologue(
        packing, options, forms.SPHERICAL,
        "render_spherical needs a spherical packing")
    if options.projection == ORTHOGRAPHIC:
        return _orthographic(rows, options, text)
    # stereographic: (c, q0, m) -> Euclidean (c - q0, c + q0, m), pole at q0 axis
    circles, lines = _plane_shapes(rows, forms.SPHERICAL)
    box = _world_box(circles, lines)
    return _draw_plane(circles, lines, box, options, text)


_RENDERERS = {forms.EUCLIDEAN: render_euclidean,
              forms.SPHERICAL: render_spherical,
              forms.HYPERBOLIC: render_hyperbolic_disk}


def render(packing, options=None):
    """Dispatch on the packing's geometry tag."""
    return forms._by_geometry(_RENDERERS, packing.geometry)(packing, options)
