"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import pytest

from measure import (
    Coverage,
    failed_count,
    failed_ratio,
    largest_gap_after,
    latencies_from_due,
    percentile,
    self_times,
    supports,
    tail_percentile,
)


def _self_times(spans):
    starts, ends, parents = zip(*spans)
    return self_times(list(starts), list(ends), list(parents))


def test_self_time_subtracts_nested_children():
    # root 0..10 with children 1..3 and 5..6; the first child has its own child
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (1.5, 2.0, 1), (5.0, 6.0, 0)]
    assert _self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children 2..6 and 4..8 overlap on 4..6: together they cover 2..8
    spans = [(0.0, 10.0, -1), (2.0, 6.0, 0), (4.0, 8.0, 0)]
    assert _self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    # a child from another thread may start before and end after its parent
    spans = [(1.0, 5.0, -1), (0.0, 2.0, 0), (4.0, 9.0, 0)]
    assert _self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_accepts_spans_out_of_start_order():
    spans = [(0.0, 10.0, -1), (6.0, 9.0, 0), (2.0, 7.0, 0)]
    assert _self_times(spans)[0] == pytest.approx(3.0)


def test_coverage_of_contained_and_disjoint_intervals():
    cov = Coverage(0.0, 100.0)
    for start, end in [(1.0, 10.0), (2.0, 3.0), (20.0, 25.0), (24.0, 30.0)]:
        cov.add(start, end)
    assert cov.total() == pytest.approx(9.0 + 10.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, "50") == 50
    assert percentile(values, "99") == 99
    assert percentile([7.0], "99") == 7.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == "50"
    assert tail_percentile(999) == "90"
    assert tail_percentile(1000) == "99"
    assert tail_percentile(9999) == "99"
    assert tail_percentile(10000) == "99.9"
    assert supports(1000, "99") and not supports(999, "99")


def test_latency_runs_from_due_time_not_send_time():
    # the generator stalled: packet b was due at 10 but sent at 40
    due = {"a": 0.0, "b": 10.0, "c": 20.0}
    done = {"a": 5.0, "b": 45.0}
    assert sorted(latencies_from_due(due, done)) == [5.0, 35.0]


def test_failed_counts_unserved_packets():
    assert failed_count(attempted=100, served=97, run_ok=True) == 3
    assert failed_ratio(100, 3) == pytest.approx(0.03)


def test_a_run_that_broke_a_rule_fails_every_packet():
    # a missed planned fault, a checker failure, no quiescence or a lost
    # leader: the run is counted, with every packet failed
    assert failed_count(attempted=100, served=100, run_ok=False) == 100
    assert failed_ratio(100, 100) == 1.0


def test_failed_ratio_rejects_an_empty_run():
    with pytest.raises(ValueError):
        failed_ratio(0, 0)


def test_outage_gap_is_the_largest_that_ends_after_the_kill():
    # a 50 ms stall before the kill does not count; a commit in flight at the
    # kill (t=101) lands just after it, then the outage runs to 600
    times = [0.0, 50.0, 100.0, 101.0, 600.0, 605.0]
    assert largest_gap_after(times, 100.5) == 499.0
    assert largest_gap_after(times, 700.0) == 0.0
    assert largest_gap_after(times, None) == 499.0
    assert largest_gap_after([0.0, 60.0, 70.0], 65.0) == 10.0
    assert largest_gap_after([1.0], None) == 0.0
