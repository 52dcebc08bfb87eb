"""The gain rule of ``tests/bench_pairs.py``: the change wins at least 9
pairs in 10 and its median beats the parent's by more than the parent's
interquartile range."""

import bench_pairs

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_drop_is_a_gain():
    s = bench_pairs.summarize(PARENT, [p - 0.2 for p in PARENT], "lower")
    assert s["wins"] == 10 and s["gain"]
    assert s["parent"] == 1.0 and abs(s["change"] - 0.8) < 1e-12


def test_a_drop_inside_the_spread_is_not():
    # lower in every pair, but by less than the parent's quartile gap
    s = bench_pairs.summarize(PARENT, [p - 0.01 for p in PARENT], "lower")
    assert s["wins"] == 10 and s["q3"] - s["q1"] > 0.01
    assert not s["gain"]


def test_two_losses_in_ten_are_not():
    change = [p - 0.2 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["gain"]


def test_higher_is_better_counts_rises():
    s = bench_pairs.summarize(PARENT, [p + 0.2 for p in PARENT], "higher")
    assert s["wins"] == 10 and s["gain"]
