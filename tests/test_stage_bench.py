"""``tests/stage_bench.py``: every stage timed at N = 32 with one repeat
and the JSON record's fields, and the committed table's coverage."""

import json
from pathlib import Path

import stage_bench

FIELDS = {"command", "unit", "repeats", "sizes", "grid_spacing", "fields",
          "setup", "host", "libraries", "stages"}


def test_json_records_every_stage(tmp_path, capsys):
    out = tmp_path / "stages.json"
    argv = ["--sizes", "32", "--repeats", "1", "--json", str(out)]
    assert stage_bench.main(argv) == 0
    got = json.loads(out.read_text())
    assert set(got) == FIELDS
    assert got["command"] == "python tests/stage_bench.py " + " ".join(argv)
    assert got["unit"] == "ms per call" and got["fields"] == 1
    assert got["sizes"] == [32] and got["repeats"] == 1
    assert got["grid_spacing"] == 12.5e-6
    # 2 x 2 lenslets light 4 centers in the fit disk, so modes 2..5 fit.
    assert got["setup"] == {"32": {"lenslets_across": 2, "j_max": 5,
                                   "lenslets_valid": 4}}
    assert list(got["stages"]) == list(stage_bench.STAGES)
    for row in got["stages"].values():
        assert list(row) == ["32"]
        assert row["32"]["best_ms"] == row["32"]["median_ms"] > 0
    assert {"python", "nproc", "cpu_model"} <= set(got["host"])
    assert {"numpy", "blas"} <= set(got["libraries"])
    assert "N = 32" in capsys.readouterr().out


def test_committed_table_covers_every_stage_at_every_size():
    path = Path(stage_bench.__file__).resolve().parents[1] / \
        "BENCH_stages.json"
    got = json.loads(path.read_text())
    assert set(got) == FIELDS and got["sizes"] == [128, 256, 384]
    assert list(got["stages"]) == list(stage_bench.STAGES)
    for row in got["stages"].values():
        assert list(row) == ["128", "256", "384"]
    assert all(s["j_max"] == 15 for s in got["setup"].values())
