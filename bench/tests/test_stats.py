import pytest

from stats import ErrorCount, nearest_rank, tail, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),  # rank 10 of 20, ten beyond
        (39, 50.0),
        (40, 75.0),  # rank 30 of 40, ten beyond
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_reports_value_and_sample_count():
    values = list(range(1, 41))  # 40 samples -> p75 by nearest rank
    assert tail(values) == {"percentile": 75.0, "value": 30, "samples": 40}
    assert sum(v > 30 for v in values) == 10


def test_tail_without_enough_samples_has_no_value():
    assert tail([1.0, 2.0, 3.0]) == {"percentile": None, "value": None, "samples": 3}


def test_nearest_rank():
    assert nearest_rank([5, 1, 3, 2, 4], 50) == 3
    assert nearest_rank([5, 1, 3, 2, 4], 100) == 5
    assert nearest_rank([5, 1, 3, 2, 4], 0) == 1
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_error_count_rate():
    errors = ErrorCount()
    assert errors.rate == 0.0
    errors.add(3, 0)
    errors.add(40, 2)
    errors.add(1, 1)
    assert (errors.attempted, errors.failed) == (44, 3)
    assert errors.rate == pytest.approx(3 / 44)
    with pytest.raises(ValueError):
        errors.add(1, 2)
