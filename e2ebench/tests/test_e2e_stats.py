import statistics

import pytest

from stats import MIN_BEYOND, percentile, spread


def test_percentile_is_nearest_rank_with_counts():
    values = list(range(1, 101))  # 1..100
    p50 = percentile(values, 50)
    assert (p50.value, p50.count, p50.beyond) == (50, 100, 50)
    p99 = percentile(values, 99)
    assert (p99.value, p99.count, p99.beyond) == (99, 100, 1)
    assert percentile(values, 100).value == 100
    assert percentile([7.0], 99).value == 7.0


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50).value == 3


def test_p99_needs_ten_samples_beyond_it():
    assert not percentile(range(999), 99).supported  # 9 beyond
    enough = percentile(range(1000), 99)
    assert enough.beyond == MIN_BEYOND and enough.supported
    assert "n=1000, 10 beyond" in enough.describe("ms")
    assert "UNSUPPORTED" in percentile(range(500), 99).describe("ms")


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_spread_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = statistics.quantiles(values, n=4)
    result = spread(values)
    assert (result.q1, result.median, result.q3) == (q1, median, q3)
    assert result.relative_iqr == pytest.approx((q3 - q1) / median)
    assert spread([2.0]).relative_iqr == 0.0
