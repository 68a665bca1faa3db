"""Minimal, dependency-free SVG line charts for time series with optional
shaded confidence bands.

The output is a standalone SVG document whose every element one writer,
``_tag``, formats as plain text, so identical input always yields identical
bytes; that carries the determinism contract of the CLI into the figures.
Polyline and polygon points print an array at a time through the exact
formatter of :mod:`rumorsim.numtext`, as ``%.3f`` would print them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numtext

__all__ = ["Series", "render_svg", "write_svg"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 720
_HEIGHT = 460
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 14.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 46.0
_TICK_COUNT = 5
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


@dataclass(frozen=True)
class Series:
    """A labeled time series, optionally with a (lower, upper) band; it holds copies of its arrays."""

    label: str
    times: np.ndarray
    values: np.ndarray
    band: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError(f"series {self.label!r}: times must be a non-empty 1-D array")
        if values.shape != times.shape:
            raise ValueError(f"series {self.label!r}: values must align with times")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError(f"series {self.label!r}: non-finite data")
        if self.band is not None:
            lo, hi = (np.array(b, dtype=float) for b in self.band)
            if lo.shape != times.shape or hi.shape != times.shape:
                raise ValueError(f"series {self.label!r}: band must align with times")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError(f"series {self.label!r}: non-finite band")
            object.__setattr__(self, "band", (lo, hi))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    pad = 0.05 * span if span > 0.0 else 0.05 * max(abs(lo), 1.0)
    return lo - pad, hi + pad


def _coord(v: float) -> str:
    return numtext.FIXED_FORMAT % v


def _points(xs, ys: np.ndarray) -> str:
    """``x,y`` pixel pairs in ``_coord`` precision, space-separated, from
    the grid's ``x,`` record array (see :func:`~rumorsim.numtext.records`)."""
    return numtext.join([xs, numtext.records(ys, ord(" "), fixed=True)])[:-1]


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)


def _tag(name: str, body=None, **attrs) -> str:
    """One element on its own line.  Attributes print in the order given,
    ``_`` in a name as ``-`` (``class_`` as ``class``), floats through
    :func:`_coord` and other values as given.  A text ``body`` is escaped;
    a list body holds child elements."""
    fields = "".join(
        f' {key.rstrip("_").replace("_", "-")}="{_coord(v) if isinstance(v, float) else v}"'
        for key, v in attrs.items()
    )
    if body is None:
        return f"<{name}{fields}/>\n"
    inner = "\n" + "".join(body) if isinstance(body, list) else _escape(body)
    return f"<{name}{fields}>{inner}</{name}>\n"


def render_svg(
    series,
    *,
    title: str = "",
    x_label: str = "t",
    y_label: str = "value",
) -> str:
    """Render labeled series into a standalone SVG document.

    Bands are drawn as shaded polygons beneath their series line; axes get
    five ticks each and the y range is padded symmetrically (also for a
    constant series, where the data span is zero).  Series labels must be
    unique since they caption the legend.
    """
    series = list(series)
    if not series:
        raise ValueError("at least one series is required")
    labels = [s.label for s in series]
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise ValueError(f"duplicate series labels: {dupes}")

    x_min = min(float(s.times.min()) for s in series)
    x_max = max(float(s.times.max()) for s in series)
    y_candidates = []
    for s in series:
        y_candidates.append((float(s.values.min()), float(s.values.max())))
        if s.band is not None:
            lo, hi = s.band
            y_candidates.append((float(np.min(lo)), float(np.max(hi))))
    y_min = min(lo for lo, _ in y_candidates)
    y_max = max(hi for _, hi in y_candidates)
    x_lo, x_hi = _padded(x_min, x_max)
    y_lo, y_hi = _padded(y_min, y_max)

    left, top, right, bottom = _MARGIN_LEFT, _MARGIN_TOP, _WIDTH - _MARGIN_RIGHT, _HEIGHT - _MARGIN_BOTTOM
    plot_w, plot_h = right - left, bottom - top

    # elementwise, so pixels are the same for scalars and for arrays
    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    def text(body, x, y, size, anchor=None, **extra):
        anchored = {"text_anchor": anchor} if anchor else {}
        return _tag("text", body, x=x, y=y, **anchored, font_family="sans-serif", font_size=size, **extra)

    colors = [PALETTE[idx % len(PALETTE)] for idx in range(len(series))]
    # each series' x pixel records, shared by its band and its line
    xs = [numtext.records(sx(s.times), ord(","), fixed=True) for s in series]
    out = [_tag("rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill="#ffffff")]
    if title:
        out.append(text(title, _WIDTH / 2, 18, 14, "middle"))
    out.append(
        _tag("rect", x=left, y=top, width=plot_w, height=plot_h, fill="none", stroke="#444444", stroke_width=1)
    )
    for tick in np.linspace(x_lo, x_hi, _TICK_COUNT):
        out.append(_tag("line", x1=sx(tick), y1=bottom, x2=sx(tick), y2=bottom + 5, stroke="#444444"))
        out.append(text(f"{tick:.6g}", sx(tick), bottom + 18, 11, "middle"))
    for tick in np.linspace(y_lo, y_hi, _TICK_COUNT):
        out.append(_tag("line", x1=left - 5, y1=sy(tick), x2=left, y2=sy(tick), stroke="#444444"))
        out.append(text(f"{tick:.6g}", left - 8, sy(tick) + 4, 11, "end"))
    out.append(text(x_label, left + plot_w / 2, _HEIGHT - 8.0, 12, "middle"))
    mid = top + plot_h / 2
    out.append(text(y_label, 14, mid, 12, "middle", transform=f"rotate(-90 14 {_coord(mid)})"))

    # bands first so every line stays visible on top of every band
    for s, color, px in zip(series, colors, xs):
        if s.band is not None:
            lo, hi = s.band
            points = f"{_points(px, sy(hi))} {_points(px[::-1], sy(lo[::-1]))}"
            out.append(
                _tag("polygon", class_="band", points=points, fill=color, fill_opacity="0.25", stroke="none")
            )
    for s, color, px in zip(series, colors, xs):
        points = _points(px, sy(s.values))
        out.append(
            _tag("polyline", class_="line", points=points, fill="none", stroke=color, stroke_width="1.5")
        )

    # legend, top-right inside the frame
    legend_x = right - 150.0
    for idx, (s, color) in enumerate(zip(series, colors)):
        ly = top + 14 + 16 * idx
        out.append(_tag("line", x1=legend_x, y1=ly, x2=legend_x + 22, y2=ly, stroke=color, stroke_width=2))
        out.append(text(s.label, legend_x + 28, ly + 4, 11))
    viewbox = f"0 0 {_WIDTH} {_HEIGHT}"
    return _tag("svg", out, xmlns="http://www.w3.org/2000/svg", width=_WIDTH, height=_HEIGHT, viewBox=viewbox)


def write_svg(series, path, **kwargs) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_svg(series, **kwargs))
