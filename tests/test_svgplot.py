"""The SVG charts: their exact bytes, and text that would be markup."""

import xml.etree.ElementTree as ET

import pytest

from gammasort.svgplot import write_bar_svg, write_line_svg

SVG_TEXT = "{http://www.w3.org/2000/svg}text"

# The expected files were written by the two chart functions before they
# shared one frame writer; every coordinate must keep its float rounding.
TWO_SERIES = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" viewBox="0 0 720 440" font-family="sans-serif" font-size="12">\n'
    '<rect width="720" height="440" fill="white"/>\n'
    '<rect x="64.00" y="32.00" width="640.00" height="364.00" fill="none" stroke="#444"/>\n'
    '<text x="360.00" y="20" text-anchor="middle" font-size="14">t</text>\n'
    '<line x1="64.00" y1="32.00" x2="64.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="396.00" x2="704.00" y2="396.00" stroke="#ddd"/>\n'
    '<text x="64.00" y="412.00" text-anchor="middle">-0.08</text>\n'
    '<text x="58.00" y="400.00" text-anchor="end">0.88</text>\n'
    '<line x1="224.00" y1="32.00" x2="224.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="305.00" x2="704.00" y2="305.00" stroke="#ddd"/>\n'
    '<text x="224.00" y="412.00" text-anchor="middle">0.46</text>\n'
    '<text x="58.00" y="309.00" text-anchor="end">1.69</text>\n'
    '<line x1="384.00" y1="32.00" x2="384.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="214.00" x2="704.00" y2="214.00" stroke="#ddd"/>\n'
    '<text x="384.00" y="412.00" text-anchor="middle">1</text>\n'
    '<text x="58.00" y="218.00" text-anchor="end">2.5</text>\n'
    '<line x1="544.00" y1="32.00" x2="544.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="123.00" x2="704.00" y2="123.00" stroke="#ddd"/>\n'
    '<text x="544.00" y="412.00" text-anchor="middle">1.54</text>\n'
    '<text x="58.00" y="127.00" text-anchor="end">3.31</text>\n'
    '<line x1="704.00" y1="32.00" x2="704.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="32.00" x2="704.00" y2="32.00" stroke="#ddd"/>\n'
    '<text x="704.00" y="412.00" text-anchor="middle">2.08</text>\n'
    '<text x="58.00" y="36.00" text-anchor="end">4.12</text>\n'
    '<text x="384.00" y="432.00" text-anchor="middle">x</text>\n'
    '<text x="14" y="214.00" text-anchor="middle" transform="rotate(-90 14 214.00)">y</text>\n'
    '<polyline points="87.70,382.52 384.00,45.48 680.30,270.17" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
    '<line x1="554.00" y1="42.00" x2="572.00" y2="42.00" stroke="#1f77b4" stroke-width="2"/>\n'
    '<text x="578.00" y="46.00">a</text>\n'
    '<polyline points="87.70,270.17 384.00,270.17 680.30,270.17" fill="none" stroke="#d62728" stroke-width="1.5"/>\n'
    '<line x1="554.00" y1="58.00" x2="572.00" y2="58.00" stroke="#d62728" stroke-width="2"/>\n'
    '<text x="578.00" y="62.00">b</text>\n'
    '</svg>\n'
)

ONE_POINT = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" viewBox="0 0 720 440" font-family="sans-serif" font-size="12">\n'
    '<rect width="720" height="440" fill="white"/>\n'
    '<rect x="64.00" y="32.00" width="640.00" height="364.00" fill="none" stroke="#444"/>\n'
    '<line x1="64.00" y1="32.00" x2="64.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="396.00" x2="704.00" y2="396.00" stroke="#ddd"/>\n'
    '<text x="64.00" y="412.00" text-anchor="middle">2.46</text>\n'
    '<text x="58.00" y="400.00" text-anchor="end">-0.04</text>\n'
    '<line x1="224.00" y1="32.00" x2="224.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="305.00" x2="704.00" y2="305.00" stroke="#ddd"/>\n'
    '<text x="224.00" y="412.00" text-anchor="middle">2.73</text>\n'
    '<text x="58.00" y="309.00" text-anchor="end">0.23</text>\n'
    '<line x1="384.00" y1="32.00" x2="384.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="214.00" x2="704.00" y2="214.00" stroke="#ddd"/>\n'
    '<text x="384.00" y="412.00" text-anchor="middle">3</text>\n'
    '<text x="58.00" y="218.00" text-anchor="end">0.5</text>\n'
    '<line x1="544.00" y1="32.00" x2="544.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="123.00" x2="704.00" y2="123.00" stroke="#ddd"/>\n'
    '<text x="544.00" y="412.00" text-anchor="middle">3.27</text>\n'
    '<text x="58.00" y="127.00" text-anchor="end">0.77</text>\n'
    '<line x1="704.00" y1="32.00" x2="704.00" y2="396.00" stroke="#ddd"/>\n'
    '<line x1="64.00" y1="32.00" x2="704.00" y2="32.00" stroke="#ddd"/>\n'
    '<text x="704.00" y="412.00" text-anchor="middle">3.54</text>\n'
    '<text x="58.00" y="36.00" text-anchor="end">1.04</text>\n'
    '<polyline points="384.00,214.00" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
    '<line x1="554.00" y1="42.00" x2="572.00" y2="42.00" stroke="#1f77b4" stroke-width="2"/>\n'
    '<text x="578.00" y="46.00">a</text>\n'
    '</svg>\n'
)

BARS = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" viewBox="0 0 720 440" font-family="sans-serif" font-size="12">\n'
    '<rect width="720" height="440" fill="white"/>\n'
    '<rect x="64.00" y="32.00" width="640.00" height="364.00" fill="none" stroke="#444"/>\n'
    '<text x="360.00" y="20" text-anchor="middle" font-size="14">t</text>\n'
    '<line x1="64.00" y1="396.00" x2="704.00" y2="396.00" stroke="#ddd"/>\n'
    '<text x="58.00" y="400.00" text-anchor="end">-0.5</text>\n'
    '<line x1="64.00" y1="305.00" x2="704.00" y2="305.00" stroke="#ddd"/>\n'
    '<text x="58.00" y="309.00" text-anchor="end">-0.125</text>\n'
    '<line x1="64.00" y1="214.00" x2="704.00" y2="214.00" stroke="#ddd"/>\n'
    '<text x="58.00" y="218.00" text-anchor="end">0.25</text>\n'
    '<line x1="64.00" y1="123.00" x2="704.00" y2="123.00" stroke="#ddd"/>\n'
    '<text x="58.00" y="127.00" text-anchor="end">0.625</text>\n'
    '<line x1="64.00" y1="32.00" x2="704.00" y2="32.00" stroke="#ddd"/>\n'
    '<text x="58.00" y="36.00" text-anchor="end">1</text>\n'
    '<text x="14" y="214.00" text-anchor="middle" transform="rotate(-90 14 214.00)">y</text>\n'
    '<rect x="96.00" y="214.00" width="149.33" height="182.00" fill="#1f77b4"/>\n'
    '<text x="170.67" y="412.00" text-anchor="middle">u</text>\n'
    '<rect x="309.33" y="32.00" width="149.33" height="364.00" fill="#d62728"/>\n'
    '<text x="384.00" y="412.00" text-anchor="middle">v</text>\n'
    '<rect x="522.67" y="396.00" width="149.33" height="0.00" fill="#2ca02c"/>\n'
    '<text x="597.33" y="412.00" text-anchor="middle">w</text>\n'
    '</svg>\n'
)


@pytest.mark.parametrize("write, expected", [
    (lambda p: write_line_svg(p, [("a", [0, 1, 2], [1.0, 4.0, 2.0]), ("b", [0, 1, 2], [2.0, 2.0, 2.0])],
                              "t", "x", "y"), TWO_SERIES),
    (lambda p: write_line_svg(p, [("a", [3], [0.5])]), ONE_POINT),
    (lambda p: write_bar_svg(p, ["u", "v", "w"], [0.25, 1.0, -0.5], "t", "y"), BARS),
], ids=["two_series", "one_point", "bars"])
def test_chart_bytes_are_pinned(tmp_path, write, expected):
    path = tmp_path / "chart.svg"
    write(path)
    assert path.read_text() == expected


def test_every_chart_text_is_escaped(tmp_path):
    name = "Cs<137>&Co"
    line, bar = tmp_path / "line.svg", tmp_path / "bar.svg"
    write_line_svg(line, [(name, [0, 1], [0.5, 1.0])], title=name, x_label=name, y_label=name)
    write_bar_svg(bar, [name], [0.5], title=name, y_label=name)
    texts = [t.text for t in ET.parse(line).iter(SVG_TEXT)]
    assert texts.count(name) == 4  # title, x label, y label, legend
    texts = [t.text for t in ET.parse(bar).iter(SVG_TEXT)]
    assert texts.count(name) == 3  # title, y label, bar label


def test_a_legend_of_many_series_stays_inside_the_chart(tmp_path):
    path = tmp_path / "weights.svg"
    series = [(f"unit {i}", [0, 1], [0.0, float(i)]) for i in range(64)]
    write_line_svg(path, series)
    root = ET.parse(path).getroot()
    texts = list(root.iter(SVG_TEXT))
    assert all(0 <= float(t.get("x")) <= 720 and 0 <= float(t.get("y")) <= 440 for t in texts)
    legend = [t.text for t in texts if t.text.startswith(("unit", "+"))]
    assert legend == [f"unit {i}" for i in range(10)] + ["+54 more"]
    assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 64
