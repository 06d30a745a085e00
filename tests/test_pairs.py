"""The arithmetic of ``tools/pairs.py`` on fixed samples: each side's median
and inclusive quartiles, the pairs each side wins, and the gain verdict."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_abba(pairs):
    assert [pairs.order(i) for i in range(1, 5)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def test_medians_quartiles_and_pairs_won(pairs):
    parent = [5.0, 3.0, 4.0, 4.0, 6.0, 2.0, 7.0, 4.0, 5.0, 3.0]
    change = [4.0, 3.0, 3.0, 5.0, 5.0, 2.0, 6.0, 3.0, 4.0, 3.0]
    row = pairs.compare(parent, change)
    assert row["parent_median"] == 4.0 and row["parent_quartiles"] == [3.25, 5.0]
    assert row["change_median"] == 3.5 and row["change_quartiles"] == [3.0, 4.75]
    # three ties count for neither side
    assert (row["change_lower_in_pairs"], row["change_higher_in_pairs"], row["pairs"]) == (6, 1, 10)
    assert row["parent"] == parent and row["change"] == change


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 9.0]  # median 13.5, IQR 4.5


@pytest.mark.parametrize(
    "change, shown",
    [
        # 9 of 10 pairs won, the medians 9 apart
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0], True),
        # 8 of 10 won, one tie: too few pairs, however far apart the medians
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 18.0, 10.0], False),
        # 10 of 10 won, but the medians lie exactly the parent's IQR apart
        ([value - 4.5 for value in PARENT], False),
        # 10 of 10 won, the medians 4.75 apart
        ([value - 4.75 for value in PARENT], True),
    ],
)
def test_gain_needs_nine_of_ten_pairs_and_medians_past_the_iqr(pairs, change, shown):
    row = pairs.compare(PARENT, change)
    assert row["parent_median"] == 13.5 and row["parent_quartiles"] == [11.25, 15.75]
    assert pairs.gain_shown(row) is shown


def test_fewer_than_ten_pairs_never_show_a_gain(pairs):
    # the change lower in every pair, its median 9 under the parent's, IQR 4.5
    for n in range(2, 10):
        row = pairs.compare(PARENT[:n], [value - 9.0 for value in PARENT[:n]])
        assert row["change_lower_in_pairs"] == row["pairs"] == n
        assert not pairs.gain_shown(row)
    assert pairs.gain_shown(pairs.compare(PARENT, [value - 9.0 for value in PARENT]))
