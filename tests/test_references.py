"""Bundled runs and two sweeps against the references in ``tests/data/``.

The tolerances and what is stored are defined once, in
``reference_harness``; ``tests/make_references.py`` regenerates the data.
"""

import csv
import io

import pytest

from reference_harness import (BUNDLED, SWEEPS, TOLERANCES, assert_matches,
                               compare_case, load_references, run_case)


@pytest.mark.parametrize("case", BUNDLED)
def test_bundled_run_matches_reference(case, bundled_runs):
    assert_matches(case, bundled_runs[0][case])


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_matches_reference(case, tmp_path):
    assert_matches(case, run_case(case, tmp_path))


def _edited(name, row, column, change):
    """The wavefront references, and a copy with one cell of ``name``
    replaced by ``change(cell)``."""
    ref = load_references("wavefront-survey")
    rows = list(csv.reader(io.StringIO(ref[name])))
    rows[row][column] = change(rows[row][column])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return ref, {**ref, name: buf.getvalue()}


def _scaled_coefficient(factor):
    """Frame 0's first coefficient scaled by ``factor``."""
    return _edited("coefficients_frames.csv", 1, 4,
                   lambda cell: repr(float(cell) * factor))


def test_comparator_catches_a_1e6_relative_coefficient_change():
    ref, got = _scaled_coefficient(1.0 + 1e-6)
    problems = compare_case("wavefront-survey", got, ref)
    assert len(problems) == 1
    assert problems[0].startswith(
        "wavefront-survey/coefficients_frames.csv: row 1, column "
        "'a_j_radians': worst absolute difference")
    assert "coefficient tolerance (relative 1e-09" in problems[0]


def test_comparator_accepts_a_change_inside_the_tolerance():
    rel, _ = TOLERANCES["coefficient"]
    ref, got = _scaled_coefficient(1.0 + rel / 2)
    assert got != ref
    assert compare_case("wavefront-survey", got, ref) == []


def test_comparator_requires_exact_counts():
    ref, got = _edited("frames_summary.csv", 3, 2,
                       lambda cell: str(int(cell) + 1))
    want = ref["frames_summary.csv"].splitlines()[3].split(",")[2]
    assert compare_case("wavefront-survey", got, ref) == [
        "wavefront-survey/frames_summary.csv: row 3, column "
        f"'n_valid_lenslets': '{int(want) + 1}' != reference '{want}' "
        "(exact match required)"]


def test_failure_message_points_to_the_regeneration_rule(tmp_path,
                                                         monkeypatch):
    import reference_harness
    ref, got = _scaled_coefficient(1.0 + 1e-6)
    monkeypatch.setattr(reference_harness, "artifacts", lambda out: got)
    with pytest.raises(AssertionError) as err:
        assert_matches("wavefront-survey", tmp_path)
    assert "python tests/make_references.py" in str(err.value)
    assert "intended output change" in str(err.value)
