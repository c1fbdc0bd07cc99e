"""The percentile helper agrees with numpy.percentile."""

import numpy as np
import pytest

from perfbench.stats import median, percentile, quarter_ratio


@pytest.mark.parametrize("size", [1, 2, 3, 10, 41, 100])
def test_percentile_matches_numpy(size):
    rng = np.random.default_rng(size)
    values = rng.lognormal(size=size).tolist()
    for q in (0, 1, 10, 25, 50, 75, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12, abs=0.0)
    assert median(values) == pytest.approx(float(np.median(values)),
                                           rel=1e-12, abs=0.0)


def test_percentile_ignores_input_order():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quarter_ratio():
    # First quarter median 1.5, last quarter median 7.5.
    assert quarter_ratio([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        quarter_ratio([1.0, 2.0, 3.0])
