import numpy as np
import pytest

from strongstab.report import fmt


@pytest.mark.parametrize("x, text", [
    (None, "null"),
    (True, "true"),
    (False, "false"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (7, "7"),
    (np.int64(-12), "-12"),
    (float("nan"), '"nan"'),
    (np.float64("nan"), '"nan"'),
    (float("inf"), '"inf"'),
    (-np.inf, '"-inf"'),
    (np.float64("-inf"), '"-inf"'),
    (0.0, "0"),
    (-0.0, "-0"),
    (np.float64(0.1), "0.1"),
    (np.float64(1.0) / 3.0, "0.333333333333"),
    (1.9454, "1.9454"),
    (-72.44823319423548, "-72.4482331942"),
    (1e300, "1e+300"),
    (5e-324, "4.94065645841e-324"),
])
def test_fmt(x, text):
    assert fmt(x) == text
