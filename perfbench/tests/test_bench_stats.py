"""Percentiles carry their sample count and refuse to guess."""

import run


def test_median_needs_ten_samples_beyond_it():
    value, resolved = run.percentile(range(19), 0.5)
    assert value == 9 and not resolved  # rank 10 of 19: 9 beyond
    value, resolved = run.percentile(range(20), 0.5)
    assert value == 9 and resolved  # rank 10 of 20: 10 beyond


def test_tail_percentiles_resolve_only_with_enough_samples():
    assert not run.percentile(range(199), 0.95)[1]
    assert run.percentile(range(200), 0.95) == (189, True)
    assert not run.percentile(range(999), 0.99)[1]
    assert run.percentile(range(1000), 0.99)[1]


def test_summary_marks_unresolved_instead_of_printing_a_number():
    summary = run.summarize([float(i) for i in range(40)])
    assert summary["n"] == 40
    assert summary["p50"] == 19.0
    assert summary["p95"] == "unresolved"
    assert summary["p99"] == "unresolved"
    assert run.summarize([]) == {
        "n": 0, "p50": "unresolved", "p95": "unresolved", "p99": "unresolved"
    }
