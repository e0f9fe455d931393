import copy
import json

import pytest

from ftsdn import ofwire
from ftsdn.harness.checker import CheckError, check_records, check_trace
from ftsdn.harness.config import ScenarioConfig
from ftsdn.harness.mutations import by_name
from ftsdn.harness.scenario import run_scenario
from ftsdn.trace import TraceParseError


def _meta(n_controllers=2, app="forwarding"):
    return {
        "kind": "run-meta",
        "actor": "harness",
        "timestamp": 0.0,
        "detail": {"config": {"n_controllers": n_controllers, "app": app, "app_params": {}}},
    }


def _delivered(actor, eid, ts):
    return {"kind": "delivered", "actor": actor, "timestamp": ts, "event_id": eid}


def test_fault_free_trace_passes():
    cfg = ScenarioConfig(n_switches=1, n_controllers=2, packets_per_switch=20, seed=8)
    result = run_scenario(cfg)
    assert result.quiescent
    assert result.report.all_pass


def test_divergent_delivery_orders_fail_t1():
    # the classic two-switch race: without a shared log the two replicas
    # deliver e1..e4 in different interleavings
    records = [_meta()]
    for i, eid in enumerate([1, 3, 2, 4]):
        records.append(_delivered("c0", eid, float(i)))
    for i, eid in enumerate([3, 4, 1, 2]):
        records.append(_delivered("c1", eid, float(i)))
    report = check_records(records)
    t1 = report.result("T1")
    assert not t1.passed
    assert t1.counterexamples and t1.counterexamples[0].records


def test_duplicated_command_fails_t3_with_both_records():
    mutation = by_name("duplicate-commit")
    result = run_scenario(mutation.config, mutate=mutation.apply)
    t3 = result.report.result("T3")
    assert not t3.passed
    ce = t3.counterexamples[0]
    assert len(ce.records) >= 2  # cites both executions
    for idx in ce.records:
        assert result.records[idx]["kind"] == "switch-exec"


def test_double_delivery_detected():
    mutation = by_name("double-delivery")
    result = run_scenario(mutation.config, mutate=mutation.apply)
    t2 = result.report.result("T2")
    assert not t2.passed
    assert any("more than once" in c.message for c in t2.counterexamples)


def test_missing_meta_is_check_error():
    with pytest.raises(CheckError):
        check_records([_delivered("c0", 1, 0.0)])


def test_malformed_trace_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    good = json.dumps(_meta())
    path.write_text(good + "\n{this is not json\n")
    with pytest.raises(TraceParseError) as exc_info:
        check_trace(str(path))
    assert exc_info.value.line_no == 2


def test_non_object_record_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(TraceParseError) as exc_info:
        check_trace(str(path))
    assert exc_info.value.line_no == 1


def test_unfinished_event_counts_as_loss():
    # a logged event with no processed entry must be flagged
    records = [
        _meta(),
        {
            "kind": "log-append",
            "actor": "coord",
            "timestamp": 1.0,
            "event_id": 1,
            "detail": {
                "seq": 1,
                "body": {
                    "kind": "event",
                    "event": {
                        "event_id": 1,
                        "switch_id": "s0",
                        "switch_seq": 1,
                        "kind": "packet-in",
                        "message": None,
                    },
                },
            },
        },
    ]
    report = check_records(records)
    assert not report.result("T2").passed
    assert report.summary["losses"] == 1


def test_command_after_marker_fails_t3():
    def executed(cmd):
        return {
            "kind": "switch-exec",
            "actor": "s0",
            "timestamp": 1.0,
            "bundle_id": 1,
            "detail": {"command": ofwire.to_json(cmd), "origin": "bundle", "controller": "c0"},
        }

    records = [
        _meta(),
        executed(ofwire.make_commit_marker(1, [1])),
        executed(ofwire.PacketOut((ofwire.Action.output(2),), b"late")),
    ]
    t3 = check_records(records).result("T3")
    assert not t3.passed
    assert any("after its marker" in c.message and c.records == [2] for c in t3.counterexamples)


@pytest.fixture(scope="module")
def clean_records():
    cfg = ScenarioConfig(n_switches=1, n_controllers=2, packets_per_switch=5, seed=8)
    result = run_scenario(cfg)
    assert result.report.all_pass
    return result.records


def _logged_message(rec):
    if rec["kind"] == "log-append" and rec["detail"]["body"]["kind"] == "event":
        return rec["detail"]["body"]["event"]["message"]
    return None


def _executed_packet_out(rec):
    if rec["kind"] == "switch-exec" and rec["detail"]["command"]["type"] == "PacketOut":
        return rec["detail"]["command"]
    return None


@pytest.mark.parametrize(
    "find,corrupt",
    [
        (_logged_message, lambda m: m.update(payload=5)),
        (_logged_message, lambda m: m.pop("in_port")),
        (_logged_message, lambda m: m.update(type="Nope")),
        (_executed_packet_out, lambda m: m.update(actions=7)),
        (_executed_packet_out, lambda m: m.update(payload=None)),
    ],
    ids=["payload-not-hex", "in-port-missing", "unknown-type", "actions-not-list", "payload-none"],
)
def test_malformed_message_is_reported_not_raised(clean_records, find, corrupt):
    records = copy.deepcopy(clean_records)
    idx = next(i for i, rec in enumerate(records) if find(rec) is not None)
    corrupt(find(records[idx]))
    report = check_records(records)
    assert not report.all_pass
    cited = {i for p in report.properties for c in p.counterexamples for i in c.records}
    assert idx in cited
