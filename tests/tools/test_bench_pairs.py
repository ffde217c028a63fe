"""``tools/bench_pairs.py``: seed parsing and the verdict rule (the
runs themselves are the benchmark's business, not tier-1's)."""

from tools.bench_pairs import parse_seeds, quartiles, verdict


def test_seed_ranges_expand_in_order():
    assert parse_seeds("7,11-18,29") == [7, 11, 12, 13, 14, 15, 16, 17,
                                         18, 29]
    assert parse_seeds("3") == [3]


def test_quartiles_are_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_verdict_needs_nine_tenths_of_pairs_and_the_parents_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    faster = [value - 2.0 for value in parent]
    assert verdict(parent, faster, "lower").endswith("10/10 won  gain")
    assert verdict(parent, faster, "higher").endswith(" 0/10 won  loss")
    # Inside the parent's own inter-quartile distance: level, however
    # many pairs agree.
    barely = [value - 0.01 for value in parent]
    assert verdict(parent, barely, "lower").endswith("10/10 won  level")
    # A median beyond the spread that the pairs do not back up.
    mixed = [value - 2.0 for value in parent[:6]] + \
            [value + 2.0 for value in parent[6:]]
    assert verdict(parent, mixed, "lower").endswith(" 6/10 won  unresolved")
