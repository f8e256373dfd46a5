import pytest

from floquet_ssh.svgplot import spectrum_svg


@pytest.mark.parametrize("xs", [
    # one x where x + 1.0 == x: the axis used to span zero width
    pytest.param([1e17], id="one-point"),
    # a range of 16 whose tick step 5 is below the float spacing at 1e17
    pytest.param([1e17, 1.0000000000000002e17], id="sub-spacing-step"),
])
def test_axes_at_large_x(xs):
    svg = spectrum_svg(xs, [[0.5] * len(xs), [-0.5] * len(xs)], [(xs[0], 0.5)],
                       "Phi", "Re eps")
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert ">1e+17</text>" in svg
    assert "nan" not in svg and "inf" not in svg
