from ftsdn.harness.failover import DET_KILL_AT_MS, _stream_gap, failover_gap_deterministic


def test_no_fault_stream_has_no_interruption_beyond_jitter():
    # the stream of failover_gap_deterministic(session_timeout_ms=100.0, seed=1), with no fault
    gap = _stream_gap(
        DET_KILL_AT_MS + 100.0 + 600.0, [], session_timeout_ms=100.0, heartbeat_interval_ms=1.0, seed=1,
    )
    assert gap < 40.0  # batching cadence plus channel jitter, nowhere near a timeout


def test_gap_scales_with_detection_timeout():
    g100 = failover_gap_deterministic(session_timeout_ms=100.0, seed=2)
    g200 = failover_gap_deterministic(session_timeout_ms=200.0, seed=2)
    assert 100.0 <= g100 <= 160.0
    assert 200.0 <= g200 <= 320.0
    assert g200 > g100
