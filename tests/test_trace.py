import sys
import threading

from ftsdn.harness.checker import check_trace
from ftsdn.harness.config import FaultInjection, ScenarioConfig
from ftsdn.harness.scenario import run_scenario
from ftsdn.trace import TraceLog, TraceRecord, dump_jsonl, load_jsonl

THREADS = 8
PER_THREAD = 5000


def test_emit_keeps_fields_and_drops_nones():
    log = TraceLog(clock=lambda: 4.5)
    log.emit("delivered", "c0", epoch=1, event_id=7)
    log.emit("run-meta", "harness", detail={"config": {}})
    assert log.as_dicts() == [
        {"kind": "delivered", "actor": "c0", "timestamp": 4.5, "epoch": 1, "event_id": 7},
        {"kind": "run-meta", "actor": "harness", "timestamp": 4.5, "detail": {"config": {}}},
    ]
    assert log.as_dicts()[0] == TraceRecord("delivered", "c0", 4.5, epoch=1, event_id=7).to_dict()


def test_emitter_records_match_emit():
    fields = dict(epoch=2, event_id=9, switch_id="s1", switch_seq=4, bundle_id=3, detail={"n": 1})
    via_emitter, via_emit = TraceLog(clock=lambda: 1.5), TraceLog(clock=lambda: 1.5)
    emit = via_emitter.emitter("c1")
    emit("commit-sent", **fields)
    emit("conn-lost", switch_id="s0")
    via_emit.emit("commit-sent", "c1", **fields)
    via_emit.emit("conn-lost", "c1", switch_id="s0")
    assert via_emitter.as_dicts() == via_emit.as_dicts()


def test_concurrent_emits_keep_every_record_whole():
    stamps = threading.local()
    log = TraceLog(clock=lambda: stamps.value)
    start = threading.Barrier(THREADS)

    def worker(t: int) -> None:
        emit = log.emitter(f"a{t}")
        start.wait(timeout=10)
        for i in range(PER_THREAD):
            stamps.value = float(t * PER_THREAD + i)
            emit(f"k{t}", epoch=t, event_id=i, switch_id=f"s{t}", switch_seq=i, bundle_id=-i,
                 detail={"t": t, "i": i})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)

    records = log.as_dicts()
    assert len(records) == THREADS * PER_THREAD
    next_i = [0] * THREADS
    for rec in records:
        t, i = rec["detail"]["t"], rec["detail"]["i"]
        assert rec == {
            "kind": f"k{t}", "actor": f"a{t}", "timestamp": float(t * PER_THREAD + i),
            "epoch": t, "event_id": i, "switch_id": f"s{t}", "switch_seq": i, "bundle_id": -i,
            "detail": {"t": t, "i": i},
        }
        # each thread's records appear in the order it emitted them
        assert i == next_i[t]
        next_i[t] += 1
    assert next_i == [PER_THREAD] * THREADS


def test_dumped_scenario_trace_loads_back_and_checks(tmp_path):
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=20, session_timeout_ms=100.0,
                         seed=3, fault_plan=[FaultInjection(point="F2", trigger_event=10)])
    records = run_scenario(cfg).records
    path = str(tmp_path / "trace.jsonl")
    dump_jsonl(records, path)
    assert load_jsonl(path) == records
    report = check_trace(path)
    assert report.all_pass and report.summary["events"] > 0
