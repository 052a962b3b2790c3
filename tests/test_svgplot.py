"""SVG line-plot rendering."""

import numpy as np
import pytest

from dmrbf import DomainError
from dmrbf.svgplot import Series, render_line_plot, save_line_plot


def make_series():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    return [
        Series("alpha", x, np.array([1.0, 2.0, 1.5, 3.0])),
        Series("beta", x, np.array([0.5, 0.7, 0.9, 1.1])),
    ]


def test_render_contains_structure():
    svg = render_line_plot(make_series(), "title", "x", "y")
    assert svg.lstrip().startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "alpha" in svg and "beta" in svg and "title" in svg


def test_render_is_deterministic():
    a = render_line_plot(make_series(), "t", "x", "y")
    b = render_line_plot(make_series(), "t", "x", "y")
    assert a == b


def test_log_axis_drops_nonpositive_points():
    s = [Series("m", np.array([1.0, 2.0, 3.0]), np.array([1e-3, 0.0, 1e-2]))]
    svg = render_line_plot(s, "t", "x", "y", ylog=True)
    # the zero sample cannot appear on a log axis; the other two survive
    assert svg.count("<circle") == 2


def test_hollow_points_get_open_markers_off_the_line():
    x = np.array([1.0, 2.0, 3.0])
    s = [Series("m", x, np.array([1e-2, 1e-3, 1e-5]), hollow=(False, False, True))]
    svg = render_line_plot(s, "t", "x", "y", ylog=True)
    assert svg.count('r="2.6" fill=') == 2
    assert svg.count('r="3.2" fill="none" stroke="') == 1
    (line,) = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
    assert line.split('"')[1].count(",") == 2  # the line joins the filled points
    assert render_line_plot(s, "t", "x", "y", ylog=True) == svg
    # a series of bounds only is drawn without a line, and still listed
    only = [Series("b", x, np.array([1e-5, 1e-5, 1e-5]), hollow=(True,) * 3)]
    svg = render_line_plot(only, "t", "x", "y", ylog=True)
    assert "<polyline" not in svg and svg.count('fill="none" stroke="#1f77b4"') == 3
    assert ">b</text>" in svg


def test_all_points_filtered_is_an_error():
    s = [Series("m", np.array([1.0]), np.array([0.0]))]
    with pytest.raises(DomainError):
        render_line_plot(s, "t", "x", "y", ylog=True)
    with pytest.raises(DomainError):
        render_line_plot([], "t", "x", "y")


def test_labels_are_escaped():
    s = [Series("a<b>&c", np.array([1.0, 2.0]), np.array([1.0, 2.0]))]
    svg = render_line_plot(s, "t<&>", "x", "y")
    assert "a<b>&c" not in svg
    assert "a&lt;b&gt;&amp;c" in svg


def test_save_line_plot(tmp_path):
    path = tmp_path / "plot.svg"
    save_line_plot(path, make_series(), "t", "x", "y")
    assert path.read_text().lstrip().startswith("<svg")
