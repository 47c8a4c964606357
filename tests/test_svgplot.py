import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from casqed import svgplot
from casqed.svgplot import line_plot

SVG = "{http://www.w3.org/2000/svg}"

SERIES = [
    ("eps=0.7", [1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8]),
    ("eps=1", [1.0, 2.0, 3.0, 4.0], [0.9, float("nan"), 0.95, 0.99]),
    ("all nan", [1.0, 2.0], [float("nan"), float("inf")]),
]


def plot(tmp_path, series, name="plot.svg", **kwargs):
    path = tmp_path / name
    line_plot(path, series, title="t", xlabel="x", ylabel="y", **kwargs)
    return path


def polylines(path):
    root = ET.parse(path).getroot()
    return [[tuple(float(c) for c in pt.split(",")) for pt in pl.get("points").split()]
            for pl in root.iter(f"{SVG}polyline")]


def legend_texts(path):
    # the legend labels are the only texts without a text-anchor
    root = ET.parse(path).getroot()
    return [t.text for t in root.iter(f"{SVG}text") if t.get("text-anchor") is None]


def test_one_polyline_per_series_with_finite_points(tmp_path):
    path = plot(tmp_path, SERIES)
    lines = polylines(path)
    # the third series has no finite point and so no polyline
    assert [len(pts) for pts in lines] == [4, 3]
    assert all(math.isfinite(c) for pts in lines for pt in pts for c in pt)
    assert legend_texts(path) == [label for label, _, _ in SERIES]


def test_non_finite_point_is_skipped_and_joined_across(tmp_path):
    first, second = polylines(plot(tmp_path, SERIES))
    # x = 1, 3, 4 of the second series sit where x = 1, 3, 4 of the first do
    assert [pt[0] for pt in second] == [first[0][0], first[2][0], first[3][0]]


def test_identical_input_gives_identical_bytes(tmp_path):
    a = plot(tmp_path, SERIES, "a.svg")
    b = plot(tmp_path, SERIES, "b.svg")
    assert a.read_bytes() == b.read_bytes()


def test_logx_spaces_decades_equally(tmp_path):
    (pts,) = polylines(plot(tmp_path, [("Y", [1.0, 10.0, 100.0], [0.1, 0.2, 0.3])], logx=True))
    xs = [x for x, _ in pts]
    # coordinates carry six significant digits, 5e-4 here
    assert xs[1] - xs[0] == pytest.approx(xs[2] - xs[1], abs=2e-3)
    assert xs[1] - xs[0] > 100


def test_y_range_below_float_resolution_finishes(tmp_path):
    # an effective-tier sweep-coop holds the Raman rates fixed, so its
    # fidelities across Y can differ by one ulp.  line_plot runs in a child
    # process with a timeout, its address space capped at 1 GiB: a tick loop
    # that does not end also grows its list without bound
    code = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "line_plot = runpy.run_path(sys.argv[1])['line_plot']\n"
        "line_plot(sys.argv[2], [('Y', [5.0, 50.0], [0.8391419518191396, 0.8391419518191397])],"
        " logx=True)\n"
    )
    path = tmp_path / "ulp.svg"
    proc = subprocess.run([sys.executable, "-c", code, svgplot.__file__, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (pts,) = polylines(path)
    assert len(pts) == 2
