"""Minimal, dependency-free SVG line charts for time series with optional
shaded confidence bands.

The output is a standalone SVG document built by plain string formatting,
so identical input always yields identical bytes; that property carries
the determinism contract of the CLI all the way into the figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 14.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 46.0
_TICK_COUNT = 5


@dataclass(frozen=True)
class Series:
    """A labeled time series, optionally with a (lower, upper) band."""

    label: str
    times: np.ndarray
    values: np.ndarray
    band: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError(f"series {self.label!r}: times must be a non-empty 1-D array")
        if values.shape != times.shape:
            raise ValueError(f"series {self.label!r}: values must align with times")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError(f"series {self.label!r}: non-finite data")
        if self.band is not None:
            lo, hi = (np.asarray(b, dtype=float) for b in self.band)
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
    return f"{v:.3f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """``x,y`` pixel pairs in ``_coord`` precision, space-separated."""
    return " ".join(map("%.3f,%.3f".__mod__, zip(xs.tolist(), ys.tolist())))


def render_svg(
    series,
    *,
    title: str = "",
    x_label: str = "t",
    y_label: str = "value",
    width: int = 720,
    height: int = 460,
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

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    # elementwise, so pixels are the same for scalars and for arrays
    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return height - _MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    if title:
        out.append(
            f'<text x="{_coord(width / 2)}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n'
        )

    # frame and ticks
    frame = (
        _MARGIN_LEFT,
        _MARGIN_TOP,
        width - _MARGIN_RIGHT,
        height - _MARGIN_BOTTOM,
    )
    out.append(
        f'<rect x="{_coord(frame[0])}" y="{_coord(frame[1])}" '
        f'width="{_coord(plot_w)}" height="{_coord(plot_h)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>\n'
    )
    for tick in np.linspace(x_lo, x_hi, _TICK_COUNT):
        px = sx(tick)
        out.append(
            f'<line x1="{_coord(px)}" y1="{_coord(frame[3])}" '
            f'x2="{_coord(px)}" y2="{_coord(frame[3] + 5)}" stroke="#444444"/>\n'
        )
        out.append(
            f'<text x="{_coord(px)}" y="{_coord(frame[3] + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.6g}</text>\n'
        )
    for tick in np.linspace(y_lo, y_hi, _TICK_COUNT):
        py = sy(tick)
        out.append(
            f'<line x1="{_coord(frame[0] - 5)}" y1="{_coord(py)}" '
            f'x2="{_coord(frame[0])}" y2="{_coord(py)}" stroke="#444444"/>\n'
        )
        out.append(
            f'<text x="{_coord(frame[0] - 8)}" y="{_coord(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.6g}</text>\n'
        )
    out.append(
        f'<text x="{_coord(_MARGIN_LEFT + plot_w / 2)}" y="{_coord(height - 8)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{_escape(x_label)}</text>\n'
    )
    out.append(
        f'<text x="14" y="{_coord(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_coord(_MARGIN_TOP + plot_h / 2)})">{_escape(y_label)}</text>\n'
    )

    # bands first so every line stays visible on top of every band
    for idx, s in enumerate(series):
        if s.band is None:
            continue
        color = PALETTE[idx % len(PALETTE)]
        lo, hi = s.band
        px = sx(s.times)
        forward, backward = _points(px, sy(hi)), _points(px[::-1], sy(lo[::-1]))
        out.append(
            f'<polygon class="band" points="{forward} {backward}" '
            f'fill="{color}" fill-opacity="0.25" stroke="none"/>\n'
        )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = _points(sx(s.times), sy(s.values))
        out.append(
            f'<polyline class="line" points="{points}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>\n'
        )

    # legend, top-right inside the frame
    legend_x = frame[2] - 150.0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = frame[1] + 14 + 16 * idx
        out.append(
            f'<line x1="{_coord(legend_x)}" y1="{_coord(ly)}" '
            f'x2="{_coord(legend_x + 22)}" y2="{_coord(ly)}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        out.append(
            f'<text x="{_coord(legend_x + 28)}" y="{_coord(ly + 4)}" '
            f'font-family="sans-serif" font-size="11">{_escape(s.label)}</text>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_svg(series, path, **kwargs) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_svg(series, **kwargs))
