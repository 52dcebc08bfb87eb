"""The rules of ``tests/bench_pairs.py``: a gain when the change wins at
least 9 pairs in 10 and its median beats the parent's by more than the
parent's interquartile range; worse when its median is worse by more than
the metric's bound; and the JSON record of what it prints."""

import json

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


def test_worse_only_beyond_the_bound():
    # +20% is inside a 0.25 bound, +30% is not; the default bound is none.
    assert not bench_pairs.summarize(PARENT, [p * 1.2 for p in PARENT],
                                     "lower", 0.25)["worse"]
    s = bench_pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "lower",
                              0.25)
    assert s["worse"] and s["bound"] == 0.25 and s["wins"] == 0
    assert not bench_pairs.summarize(PARENT, [p * 9 for p in PARENT],
                                     "lower")["worse"]
    assert bench_pairs.summarize(PARENT, [p * 0.7 for p in PARENT],
                                 "higher", 0.25)["worse"]


def test_json_records_what_is_printed(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_sample(root, workload, seed):
        calls.append((root.name, workload, seed))
        k = sum(c[0] == root.name for c in calls)
        slow = root.name == "parent"
        return {"setup_s": 0.1, "run_s": (1.0 if slow else 0.7) + k * 1e-3,
                "cpu_s": 1.5 if slow else 1.0,
                "peak_rss_mb": 40.0 if slow else 60.0, "errors": [],
                "digests": {"a.csv": "x" if slow else "y"},
                "libraries": {"numpy": "2.x"}}

    monkeypatch.setattr(bench_pairs, "sample", fake_sample)
    monkeypatch.setattr(bench_pairs, "host", lambda root: {"nproc": 2})
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "oam-crosstalk,oam-gallery", "3", "--seed", "7", "--json",
            str(out)]
    assert bench_pairs.main(argv) == 0
    got = json.loads(out.read_text())
    assert got["seed"] == 7 and got["pairs"] == 3
    assert got["host"] == {"nproc": 2}
    assert list(got["workloads"]) == ["oam-crosstalk", "oam-gallery"]
    record = got["workloads"]["oam-crosstalk"]
    assert set(record) == {"metrics", "digests_match", "errors",
                           "libraries", "pairs"}
    assert not record["digests_match"] and record["errors"] == []
    assert record["libraries"]["change"] == {"numpy": "2.x"}
    assert [p["first"] for p in record["pairs"]] == ["parent", "change",
                                                     "parent"]
    run_s = record["metrics"]["run_s"]
    assert set(run_s) == {"parent", "change", "q1", "q3", "wins", "pairs",
                          "gain", "bound", "worse"}
    assert run_s["wins"] == 3 and run_s["gain"] and not run_s["worse"]
    rss = record["metrics"]["peak_rss_mb"]
    assert rss["worse"] and rss["bound"] == 0.1
    # The first pair runs the parent first; every side runs once a pair.
    assert calls[:2] == [("parent", "oam-crosstalk", 7),
                         ("change", "oam-crosstalk", 7)]
    assert calls[2:4] == [("change", "oam-crosstalk", 7),
                          ("parent", "oam-crosstalk", 7)]
    printed = capsys.readouterr().out
    assert "peak_rss_mb: 40 -> 60" in printed and "WORSE" in printed
    assert "DIFFERENT digests" in printed
