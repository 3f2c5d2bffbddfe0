"""svg.render as it was before each circle size and label was formatted
once, kept as the slow oracle of tests/test_svg.py.

Every function from _fmt on is a verbatim copy of src/inversive/svg.py at
that commit; RenderOptions and the projection names are imported, since
they did not change.  The new renderer must give the same bytes.
"""

import math
import warnings
from fractions import Fraction
from operator import itemgetter

from inversive import forms
from inversive.svg import ORTHOGRAPHIC, STEREOGRAPHIC, RenderOptions  # noqa: F401

# Hyperplane / degenerate-locus threshold for float rows.
_ZERO = 1e-9


def _fmt(x):
    """Fixed-point pixel value, trimmed; normalizes -0."""
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


def _label_text(value):
    """Integral bends label exactly; everything else to 6 significant digits."""
    if isinstance(value, float):
        return str(int(value)) if value == int(value) else f"{value:.6g}"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.6g}"


def _sorted_rows(packing):
    """(float tuple, entry tuple) per row, in canonical float order; accepts
    any object with CoordRow-valued .rows (Packing or ConfigMatrix).

    A Packing that holds its rows in the frame of scalars.scaled_rows is
    read from there: each int is divided once in float, x / scale, which is
    correctly rounded and so the same float as float(Fraction(x, scale)).
    At scale 1 the entries are the ints themselves, which equal the Fraction
    entries of its rows; at other scales they are the entries of its rows.
    """
    scaled = getattr(packing, "scaled", None)
    if scaled is None:
        # float(Fraction) goes through numbers.Rational.__float__ on Python
        # 3.11; dividing numerator by denominator is the same correctly
        # rounded value
        rows = [(tuple([x.numerator / x.denominator if type(x) is Fraction
                        else float(x) for x in r.entries]), r.entries)
                for r in packing.rows]
    else:
        ints, scale = scaled
        if scale == 1:
            rows = [(tuple(map(float, r)), r) for r in ints]
        else:
            rows = [(tuple([x / scale for x in r]), e.entries)
                    for r, e in zip(ints, packing.rows)]
    rows.sort(key=itemgetter(0))
    return rows


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


def _circle_label(labels, px, py, rp, bounding, text):
    if bounding:
        # Negative-bend circles enclose the picture; tuck the label inside
        # the top edge instead of burying it under the packing.
        font = max(9.0, 0.05 * rp)
        y = py - rp + 1.25 * font
    else:
        font = min(1.1 * rp, 2.4 * rp / len(text))
        if font < 4:
            return
        y = py + 0.35 * font
    labels.append(
        f'<text x="{_fmt(px)}" y="{_fmt(y)}" font-size="{_fmt(font)}">{text}</text>'
    )


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


def _world_box(circles, lines, pad=0.04):
    boxes = [
        (cx - abs(r), cy - abs(r), cx + abs(r), cy + abs(r))
        for cx, cy, r, _ in circles
    ]
    bounding = [b for (_, _, r, _), b in zip(circles, boxes) if r < 0]
    if bounding:
        boxes = bounding
    if not boxes:
        # nothing finite to frame; center on the lines' foot points
        feet = [(hx * d, hy * d) for hx, hy, d, _ in lines] or [(0.0, 0.0)]
        boxes = [(fx - 1.0, fy - 1.0, fx + 1.0, fy + 1.0) for fx, fy in feet]
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    m = pad * max(x1 - x0, y1 - y0, 1e-9)
    return (x0 - m, y0 - m, x1 + m, y1 + m)


def _draw_plane(circles, lines, box, options, comment=None):
    """Shared planar pipeline: circles (cx, cy, signed r, label value or None)
    and lines (hx, hy, offset, label value), world coordinates."""
    s, to_px = _transform(box, options)
    min_r = options.cutoff * min(options.width, options.height)
    elements, labels = [], []
    for cx, cy, r, value in circles:
        rp = abs(r) * s
        if rp < min_r:
            continue
        px, py = to_px(cx, cy)
        elements.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(rp)}"/>')
        if options.labels == "bend" and value is not None:
            _circle_label(labels, px, py, rp, r < 0, _label_text(value))
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
        if options.labels == "bend" and value is not None:
            font = 14.0
            mx, my = (pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2
            # offset into the interior side (opposite the outward normal)
            my -= (-hy) * 1.2 * font
            mx -= hx * 1.2 * font
            labels.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(my + 0.35 * font)}" '
                f'font-size="{_fmt(font)}">{_label_text(value)}</text>'
            )
    return _document(options, elements, labels, comment)


def _plane_shapes(rows):
    """Split augmented Euclidean-style rows into circle and line shape lists.

    rows yields (bbar, b, mx, my) floats plus the label value per row.
    """
    circles, lines = [], []
    for bbar, b, mx, my, value in rows:
        if abs(b) <= _ZERO:
            lines.append((mx, my, bbar / 2, value))
        else:
            circles.append((mx / b, my / b, 1 / b, value))
    return circles, lines


def render_euclidean(packing, options=None):
    """SVG for a planar packing: one circle per row above the size cutoff,
    bend labels centered and scaled to the radius."""
    options = options or RenderOptions()
    if packing.geometry != forms.EUCLIDEAN:
        raise ValueError("render_euclidean needs a Euclidean packing")
    if packing.n != 2:
        raise ValueError("rendering is implemented for n = 2 only")
    shaped = [(*f, e[1]) for f, e in _sorted_rows(packing)]
    circles, lines = _plane_shapes(shaped)
    box = _world_box(circles, lines)
    return _draw_plane(circles, lines, box, options)


# Right multiplication by the hyperbolic-to-Euclidean block sends a disk-model
# row (c, q0, m) to the augmented coordinates (q0 - c, q0 + c, m) of its
# Euclidean locus; virtual rows (|c| < 1) have no real locus and are skipped.
def render_hyperbolic_disk(packing, options=None):
    """SVG of a hyperbolic packing in the unit-disk model: boundary circle
    plus the Euclidean locus of every row, labeled by coth value."""
    options = options or RenderOptions()
    if packing.geometry != forms.HYPERBOLIC:
        raise ValueError("render_hyperbolic_disk needs a hyperbolic packing")
    if packing.n != 2:
        raise ValueError("rendering is implemented for n = 2 only")
    shaped, skipped = [], 0
    for (c, q0, mx, my), e in _sorted_rows(packing):
        if abs(c) < 1 - _ZERO:
            skipped += 1
            continue
        shaped.append((q0 - c, q0 + c, mx, my, e[0]))
    circles, lines = _plane_shapes(shaped)
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
    return _draw_plane(circles, lines, box, options, comment)


def _orthographic(rows, options):
    s, to_px = _transform((-1.06, -1.06, 1.06, 1.06), options)
    min_r = options.cutoff * min(options.width, options.height)
    elements, labels = [], []
    ox, oy = to_px(0.0, 0.0)
    elements.append(f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="{_fmt(s)}"/>')
    for f, e in rows:
        c = f[0]
        sin_a = 1 / math.sqrt(1 + c * c)
        cos_a = c * sin_a
        y = [q * sin_a for q in f[1:]]  # unit center on the sphere
        axis, plane = y[0], (y[1], y[2])
        rho = math.hypot(*plane)
        major = sin_a
        minor = sin_a * abs(axis)
        if major * s < min_r:
            continue
        px, py = to_px(cos_a * plane[0], cos_a * plane[1])
        dash = ' stroke-dasharray="4 3"' if axis < 0 else ""
        if rho <= _ZERO:
            # cap centered on the view axis projects to a circle
            elements.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(major * s)}"{dash}/>'
            )
            fit = major * s
        else:
            # minor axis lies along the projected center direction
            angle = -math.degrees(math.atan2(plane[1], plane[0]))
            elements.append(
                f'<ellipse cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'rx="{_fmt(minor * s)}" ry="{_fmt(major * s)}" '
                f'transform="rotate({_fmt(angle)} {_fmt(px)} {_fmt(py)})"{dash}/>'
            )
            fit = min(max(minor * s, 0.3 * major * s), major * s)
        if options.labels == "bend":
            _circle_label(labels, px, py, fit, False, _label_text(e[0]))
    return _document(options, elements, labels)


def render_spherical(packing, options=None):
    """SVG of a spherical packing: orthographic view down the first center
    axis by default (back-facing caps dashed), stereographic on request;
    labels are cot values either way."""
    options = options or RenderOptions()
    if packing.geometry != forms.SPHERICAL:
        raise ValueError("render_spherical needs a spherical packing")
    if packing.n != 2:
        raise ValueError("rendering is implemented for n = 2 only")
    rows = _sorted_rows(packing)
    if options.projection == ORTHOGRAPHIC:
        return _orthographic(rows, options)
    # stereographic: (c, q0, m) -> Euclidean (c - q0, c + q0, m), pole at q0 axis
    shaped = [(c - q0, c + q0, mx, my, e[0]) for (c, q0, mx, my), e in rows]
    circles, lines = _plane_shapes(shaped)
    box = _world_box(circles, lines)
    return _draw_plane(circles, lines, box, options)


def render(packing, options=None):
    """Dispatch on the packing's geometry tag."""
    if packing.geometry == forms.EUCLIDEAN:
        return render_euclidean(packing, options)
    if packing.geometry == forms.SPHERICAL:
        return render_spherical(packing, options)
    if packing.geometry == forms.HYPERBOLIC:
        return render_hyperbolic_disk(packing, options)
    raise ValueError(f"unknown geometry {packing.geometry!r}")
