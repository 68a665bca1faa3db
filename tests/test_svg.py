import hashlib
import re

import numpy as np
import pytest

from rumorsim import (
    HistoryFunction,
    IntegratorConfig,
    Series,
    default_initial_state,
    default_params,
    render_svg,
    run_ensemble,
)


def _polyline_points(svg, cls):
    pattern = rf'<(?:polyline|polygon) class="{cls}" points="([^"]+)"'
    return [
        [tuple(map(float, pair.split(","))) for pair in match.split()]
        for match in re.findall(pattern, svg)
    ]


class TestBasicRendering:
    def test_constant_series_renders_flat_padded(self):
        s = Series(label="flat", times=np.arange(10.0), values=np.full(10, 3.0))
        svg = render_svg([s])
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        (line,) = _polyline_points(svg, "line")
        ys = {y for _, y in line}
        assert len(ys) == 1  # horizontal line
        # symmetric padding: the flat line sits midway between axis ends
        y_ticks = [
            float(m) for m in re.findall(r'text-anchor="end"[^>]*>([^<]+)</text>', svg)
        ]
        assert min(y_ticks) == pytest.approx(3.0 - 0.15, abs=1e-9)
        assert max(y_ticks) == pytest.approx(3.0 + 0.15, abs=1e-9)

    def test_deterministic_bytes(self):
        s = Series(label="a", times=np.arange(5.0), values=np.linspace(0, 1, 5))
        assert render_svg([s]) == render_svg([s])

    def test_labels_axes_title_present(self):
        s = Series(label="spreaders", times=np.arange(5.0), values=np.linspace(0, 1, 5))
        svg = render_svg([s], title="Outbreak", x_label="time", y_label="density")
        for needle in ("Outbreak", "time", "density", "spreaders"):
            assert needle in svg

    def test_escaping(self):
        s = Series(label="a<b&c", times=np.arange(3.0), values=np.zeros(3))
        svg = render_svg([s])
        assert "a&lt;b&amp;c" in svg


class TestValidation:
    def test_empty_series_list(self):
        with pytest.raises(ValueError, match="at least one series"):
            render_svg([])

    def test_duplicate_labels(self):
        s1 = Series(label="x", times=np.arange(3.0), values=np.zeros(3))
        s2 = Series(label="x", times=np.arange(3.0), values=np.ones(3))
        with pytest.raises(ValueError, match="duplicate series labels"):
            render_svg([s1, s2])

    def test_misaligned_band(self):
        with pytest.raises(ValueError, match="band"):
            Series(
                label="x",
                times=np.arange(3.0),
                values=np.zeros(3),
                band=(np.zeros(2), np.zeros(3)),
            )

    def test_empty_series_data(self):
        with pytest.raises(ValueError, match="non-empty"):
            Series(label="x", times=np.array([]), values=np.array([]))

    @pytest.mark.parametrize(
        "values, band, message",
        [
            (np.zeros(2), None, "values must align with times"),
            (np.array([0.0, np.inf, 0.0]), None, "non-finite data"),
            (np.zeros(3), (np.zeros(3), np.array([0.0, np.nan, 0.0])), "non-finite band"),
        ],
        ids=["misaligned-values", "non-finite-values", "non-finite-band"],
    )
    def test_malformed_series_raise(self, values, band, message):
        with pytest.raises(ValueError, match=f"^series 'x': {message}$"):
            Series(label="x", times=np.arange(3.0), values=values, band=band)

    def test_series_keeps_copies_of_its_arrays(self):
        times, values, lower, upper = np.arange(3.0), np.array([1.0, 2.0, 1.5]), np.zeros(3), np.full(3, 3.0)
        series = Series(label="x", times=times, values=values, band=(lower, upper))
        before = render_svg([series])
        for array in (times, values, lower, upper):
            array[1] = np.nan
        assert render_svg([series]) == before
        assert "nan" not in before


class TestBandGeometry:
    def test_band_polygon_encloses_mean_polyline(self):
        p = default_params(r0=2.0, noise_level=0.02)
        hist = HistoryFunction.constant(default_initial_state(p))
        result = run_ensemble(p, hist, IntegratorConfig(0.1, 100.0, record_stride=10), 50, 13)
        s = result.summary
        series = Series(
            label="I mean",
            times=s.times,
            values=s.mean[:, 2],
            band=(s.lower[:, 2], s.upper[:, 2]),
        )
        svg = render_svg([series])
        (polygon,) = _polyline_points(svg, "band")
        (line,) = _polyline_points(svg, "line")
        n = len(line)
        upper = polygon[:n]
        lower = polygon[n:][::-1]
        for (xu, yu), (xm, ym), (xl, yl) in zip(upper, line, lower):
            assert xu == pytest.approx(xm) and xl == pytest.approx(xm)
            # screen y grows downward: upper band edge sits above the line
            assert yu <= ym + 1e-9
            assert yl >= ym - 1e-9


_T = np.arange(11.0)
_MARKUP = '& < > "'
_COARSE = np.linspace(0.0, 10.0, 5)

# name -> (series, render_svg keywords)
PINNED = {
    "untitled": ([Series("a", _T, _T * _T / 7.0)], {}),
    "markup_text": (
        [Series(f"label {_MARKUP}", _T, 1.0 - _T / 13.0)],
        {"title": f"title {_MARKUP}", "x_label": f"x {_MARKUP}", "y_label": f"y {_MARKUP}"},
    ),
    "band": ([Series("mean", _T, _T / 3.0, band=(_T / 3.0 - 0.25, _T / 3.0 + _T / 9.0))], {"title": "band"}),
    "constant": ([Series("flat", _T, np.full(11, -2.5))], {"title": "constant"}),
    "nine_series": ([Series(f"s{k}", _T, k + _T / (k + 1.0)) for k in range(9)], {"title": "palette"}),
    "two_grids": (
        [
            Series("coarse", _COARSE, np.sqrt(_COARSE), band=(np.zeros(5), 1.0 + _COARSE / 4.0)),
            Series("fine", np.linspace(0.5, 9.5, 9), np.linspace(3.0, -1.0, 9) ** 2 / 3.0),
        ],
        {"title": "two grids"},
    ),
}

# recorded before every element came to be written by one helper
PINNED_SHA256 = {
    "untitled": "a73635de4908ee13684370f7d53b1c2dd34484b4dfcdf98676a1f234d49d6133",
    "markup_text": "7d352030554651a579673e64b187524003159bdaae989cd8369970dd304438d5",
    "band": "38636d671f5a9456adc599ba341c17ec2645c8c548d9103b081a2bb7119dd6d9",
    "constant": "f49f74f90c1293c0296833b7586f1fc5cf86ae23844df31a74cc4c86f895a8f6",
    "nine_series": "f2b7b0ed5867cf5334d0cddf8a0cab40e4c3885599138a2235f4a888514c5046",
    # recorded before each chart's x pixels came to be formatted once per time grid
    "two_grids": "24cee188ec7fced11e81ad7d50fadf617a8fb02455847b981179d7218b30ef8e",
}


class TestPinnedBytes:
    """Chart bytes the CLI's golden outputs do not reach: no title, markup
    characters in every text, and a palette that wraps."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes(self, name):
        series, kwargs = PINNED[name]
        assert hashlib.sha256(render_svg(series, **kwargs).encode()).hexdigest() == PINNED_SHA256[name]
