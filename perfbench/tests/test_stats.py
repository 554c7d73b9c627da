"""Throughput and RSS-growth formulas."""

import pytest

from stats import median, rate, rss_growth_kib_per_dev_round


def test_rate_divides_work_by_summed_time():
    # A slow round weighs by its length: 3000 device-rounds in 1.5 s.
    assert rate(3000, [0.25, 0.25, 1.0]) == pytest.approx(2000.0)


def test_rate_rejects_no_time():
    with pytest.raises(ValueError):
        rate(10, [])


def test_rss_growth_uses_first_and_last_round():
    # 1000 devices, 4 rounds: 3000 device-rounds between rounds 1 and 4.
    assert rss_growth_kib_per_dev_round([100_000, 150_000, 90_000, 112_000],
                                        1000) == pytest.approx(4.0)


def test_rss_growth_can_be_negative():
    assert rss_growth_kib_per_dev_round([2000, 1000], 100) == \
        pytest.approx(-10.0)


@pytest.mark.parametrize("rss, devices", [([1], 10), ([1, 2], 0)])
def test_rss_growth_rejects_degenerate_input(rss, devices):
    with pytest.raises(ValueError):
        rss_growth_kib_per_dev_round(rss, devices)


def test_median():
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5
    with pytest.raises(ValueError):
        median([])
