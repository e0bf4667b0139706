import pytest

from holelab._parallel import sample_ranges


@pytest.mark.parametrize("samples, rows, expected", [
    (6, 3, [range(0, 3), range(3, 6)]),
    (7, 3, [range(0, 3), range(3, 6), range(6, 7)]),
    (5, 8, [range(0, 5)]),
    (1, 4, [range(0, 1)]),
])
def test_sample_ranges_cover_every_index_once(samples, rows, expected):
    ranges = sample_ranges(samples, rows)
    assert ranges == expected
    assert [i for part in ranges for i in part] == list(range(samples))

