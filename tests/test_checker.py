import copy
import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from ftsdn import ofwire
from ftsdn.harness.checker import CheckError, check_records, check_trace
from ftsdn.harness.cli import main
from ftsdn.harness.config import F2, F3, FaultInjection, ScenarioConfig
from ftsdn.harness.mutations import by_name, catalog
from ftsdn.harness.scenario import run_scenario
from ftsdn.trace import TraceParseError, dump_jsonl


# sha256 of each pinned trace's check outcome, by the test node that checks it
_REPORT_SHA256 = json.loads((Path(__file__).parent / "report_digests.json").read_text())


def _report_digest(records) -> str:
    """sha256 of a canonical JSON of the check's whole outcome: each
    property's name, verdict and counterexamples, and the summary; or the
    message of the CheckError the check raised."""
    try:
        report = check_records(records)
    except CheckError as exc:
        outcome = {"error": str(exc)}
    else:
        outcome = {
            "properties": [
                {"name": p.name, "passed": p.passed,
                 "counterexamples": [{"message": c.message, "records": c.records} for c in p.counterexamples]}
                for p in report.properties
            ],
            "summary": report.summary,
        }
    return hashlib.sha256(json.dumps(outcome, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _assert_pinned(request, records) -> None:
    got = _report_digest(records)
    assert got == _REPORT_SHA256.get(request.node.name), f"report digest {got}"


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
    with pytest.raises(CheckError, match="trace has no run-meta record"):
        check_records([{"kind": "leader-elected", "actor": "coord", "timestamp": 0.0}])
    # run-meta comes before every record of a kind the checker reads
    with pytest.raises(CheckError, match="record 1: delivered before the run-meta record"):
        check_records([{"kind": "leader-elected", "actor": "coord", "timestamp": 0.0},
                       _delivered("c0", 1, 0.0), _meta()])


def test_an_app_parameter_the_app_does_not_take_is_a_check_error():
    meta = _meta(app="learning")
    meta["detail"]["config"]["app_params"] = {"flow_prio": 5}
    with pytest.raises(CheckError, match="record 0: the configured app cannot be built: .*'flow_prio'"):
        check_records([meta, _delivered("c0", 1, 1.0)])


@pytest.mark.parametrize(
    "bad,message",
    [([1, 2], "record 1: a list, not an object"),
     ({"kind": 5, "actor": "c0"}, "record 1: bad kind: 5"),
     ({"actor": "c0"}, "record 1: bad kind: None")],
    ids=["not-an-object", "kind-not-a-string", "kind-missing"],
)
def test_a_record_that_is_no_object_or_has_no_string_kind_is_a_check_error(bad, message):
    with pytest.raises(CheckError) as exc_info:
        check_records([_meta(), bad, _delivered("c0", 1, 1.0)])
    assert str(exc_info.value) == message


def test_malformed_trace_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    good = json.dumps(_meta())
    path.write_text(good + "\n{this is not json\n")
    with pytest.raises(TraceParseError) as exc_info:
        check_trace(str(path))
    assert exc_info.value.line_no == 2


def test_check_reads_a_trace_one_line_at_a_time(clean_records, tmp_path, capsys):
    path = tmp_path / "cut.jsonl"
    dump_jsonl(clean_records[:50], str(path))
    with open(path, "a") as fh:
        fh.write("{cut off\n")
    with pytest.raises(TraceParseError) as exc_info:
        check_trace(str(path))
    assert exc_info.value.line_no == 51
    assert main(["check", "--trace", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: trace line 51: invalid JSON") and out.count("\n") == 1
    # a bad record is reported as it is fed, before the later lines are read
    records = copy.deepcopy(clean_records[:50])
    idx = next(i for i, rec in enumerate(records) if rec["kind"] == "log-append")
    records[idx]["detail"] = None
    dump_jsonl(records, str(path))
    with open(path, "a") as fh:
        fh.write("{cut off\n")
    with pytest.raises(CheckError, match=f"record {idx}: bad detail: None"):
        check_trace(str(path))


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


def _logged_event(rec):
    if rec["kind"] == "log-append" and rec["detail"]["body"]["kind"] == "event":
        return rec["detail"]["body"]["event"]
    return None


def _logged_message(rec):
    event = _logged_event(rec)
    return event["message"] if event is not None else None


def _exec_detail(rec):
    return rec["detail"] if rec["kind"] == "switch-exec" else None


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
        (_logged_event, lambda e: e.pop("switch_id")),
        (_exec_detail, lambda d: d.update(command=7)),
    ],
    ids=["payload-not-hex", "in-port-missing", "unknown-type", "actions-not-list", "payload-none",
         "event-switch-id-missing", "command-not-object"],
)
def test_malformed_message_is_reported_not_raised(clean_records, find, corrupt, request):
    records = copy.deepcopy(clean_records)
    idx = next(i for i, rec in enumerate(records) if find(rec) is not None)
    corrupt(find(records[idx]))
    report = check_records(records)
    assert not report.all_pass
    cited = {i for p in report.properties for c in p.counterexamples for i in c.records}
    assert idx in cited
    _assert_pinned(request, records)


def _is_event_append(rec):
    return rec["kind"] == "log-append" and rec["detail"]["body"]["kind"] == "event"


def _is_processed_append(rec):
    return rec["kind"] == "log-append" and rec["detail"]["body"]["kind"] == "processed"


def _kind_is(kind):
    return lambda rec: rec["kind"] == kind


def _is_port_status(rec):
    return rec["kind"] == "event-emitted" and rec["detail"]["origin"] == "port-status"


# every field the checker reads, by the record that holds it
_READ_FIELDS = [
    (_kind_is("run-meta"), "detail"),
    (_kind_is("run-meta"), "detail.config"),
    (_kind_is("run-meta"), "detail.config.n_controllers"),
    (_kind_is("run-meta"), "detail.config.app"),
    (_kind_is("run-meta"), "detail.config.app_params"),
    (_kind_is("delivered"), "kind"),
    (_kind_is("delivered"), "actor"),
    (_kind_is("delivered"), "event_id"),
    (_kind_is("controller-crashed"), "actor"),
    (_kind_is("switch-crashed"), "actor"),
    (_is_event_append, "detail"),
    (_is_event_append, "detail.body"),
    (_is_event_append, "detail.body.kind"),
    (_is_event_append, "detail.body.event"),
    (_is_event_append, "detail.body.event.event_id"),
    (_is_event_append, "detail.body.event.switch_id"),
    (_is_event_append, "detail.body.event.switch_seq"),
    (_is_event_append, "detail.body.event.kind"),
    (_is_event_append, "detail.body.event.message"),
    (_is_processed_append, "detail.body.event_id"),
    (_kind_is("event-emitted"), "actor"),
    (_kind_is("event-emitted"), "switch_seq"),
    (_kind_is("event-emitted"), "detail"),
    (_kind_is("event-emitted"), "detail.origin"),
    (_kind_is("event-emitted"), "detail.conns"),
    (_is_port_status, "switch_seq"),
    (_is_port_status, "detail.conns"),
    (_kind_is("switch-exec"), "actor"),
    (_kind_is("switch-exec"), "bundle_id"),
    (_kind_is("switch-exec"), "detail"),
    (_kind_is("switch-exec"), "detail.origin"),
    (_kind_is("switch-exec"), "detail.controller"),
    (_kind_is("switch-exec"), "detail.command"),
]


@pytest.mark.parametrize("value", [None, "x", -1, [], {}], ids=["null", "str", "neg", "list", "dict"])
@pytest.mark.parametrize("select,path", _READ_FIELDS, ids=[f"{i}-{p}" for i, (_, p) in enumerate(_READ_FIELDS)])
def test_bad_field_value_gives_a_report_or_a_check_error(clean_records, select, path, value, request):
    records = copy.deepcopy(clean_records) + [
        {"kind": "controller-crashed", "actor": "c1", "timestamp": 90.0},
        {"kind": "switch-crashed", "actor": "s0", "timestamp": 91.0},
        {"kind": "event-emitted", "actor": "s0", "timestamp": 92.0, "switch_seq": -2,
         "detail": {"origin": "port-status", "conns": ["c0"]}},
    ]
    idx = next(i for i, rec in enumerate(records) if select(rec))
    *parents, name = path.split(".")
    holder = records[idx]
    for key in parents:
        holder = holder[key]
    holder[name] = value
    try:
        report = check_records(records)
    except CheckError as exc:
        assert f"record {idx}" in str(exc)
    else:
        assert report.properties
    # a kind that is no string is a CheckError of its own test, not a pinned case
    if path != "kind" or isinstance(value, str):
        _assert_pinned(request, records)


@pytest.mark.parametrize("kind,name", [("delivered", "event_id"), ("event-emitted", "switch_seq")])
def test_a_json_boolean_where_an_int_is_read_is_a_check_error(kind, name):
    result = run_scenario(ScenarioConfig(n_switches=1, n_controllers=2, packets_per_switch=5, seed=3))
    assert result.report.all_pass
    records = copy.deepcopy(result.records)
    idx = next(i for i, rec in enumerate(records) if rec["kind"] == kind and rec.get(name) == 1)
    records[idx][name] = True  # what json.loads makes of a true
    with pytest.raises(CheckError, match=f"record {idx}: bad {name}: True"):
        check_records(records)


def test_check_reports_a_bad_field_as_one_error_line(clean_records, tmp_path, capsys):
    records = copy.deepcopy(clean_records)
    idx = next(i for i, rec in enumerate(records) if rec["kind"] == "log-append")
    records[idx]["detail"] = None
    path = tmp_path / "bad.jsonl"
    dump_jsonl(records, str(path))
    assert main(["check", "--trace", str(path)]) == 2
    out = capsys.readouterr().out
    assert out == f"error: record {idx}: bad detail: None\n"


def test_delivered_by_a_replica_outside_run_meta_is_a_check_error(tmp_path, capsys):
    result = run_scenario(ScenarioConfig(n_switches=1, n_controllers=2, packets_per_switch=5, seed=0))
    assert result.report.all_pass
    records = copy.deepcopy(result.records)
    idx = next(i for i, rec in enumerate(records) if rec["kind"] == "delivered")
    records.insert(idx + 1, copy.deepcopy(records[idx]))
    assert not check_records(records).result("T2").passed
    # a smaller replica count must not make T1 and T2 vacuous
    meta = next(rec for rec in records if rec["kind"] == "run-meta")
    meta["detail"]["config"]["n_controllers"] = 0
    with pytest.raises(CheckError, match=f"record {idx}: delivered by 'c"):
        check_records(records)
    path = tmp_path / "shrunk.jsonl"
    dump_jsonl(records, str(path))
    assert main(["check", "--trace", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: record {idx}: ") and out.count("\n") == 1


def test_a_switch_crash_after_the_event_finished_excuses_no_command():
    # the dropped bundle's event finishes long before s1 crashes at 250 ms
    mutation = by_name("skipped-bundle")
    assert run_scenario(mutation.config).report.all_pass
    report = run_scenario(mutation.config, mutate=mutation.apply).report
    t3 = report.result("T3")
    assert not t3.passed
    assert any("never executed on s1" in c.message for c in t3.counterexamples)


# perfbench's det-forward and det-learn-failover workloads at seed 1
_FULL_SIZE = {
    "det-forward": ScenarioConfig(
        n_switches=8, n_controllers=3, packets_per_switch=1000, hosts_per_switch=4,
        inter_arrival_ms=2.0, app="forwarding", seed=1,
    ),
    "det-learn-failover": ScenarioConfig(
        n_switches=8, n_controllers=3, packets_per_switch=2000, hosts_per_switch=4,
        inter_arrival_ms=2.0, app="learning", seed=1,
        fault_plan=[FaultInjection(target="master", point=F2, trigger_event=20),
                    FaultInjection(target="master", point=F3, trigger_event=400)],
    ),
}
_PINNED_SCENARIOS = {
    **{f"{m.name}-seed{cfg.seed}-{side}": (cfg, m.apply if side == "mutated" else None)
       for m in catalog() for cfg in m.configs() for side in ("clean", "mutated")},
    **{name: (cfg, None) for name, cfg in _FULL_SIZE.items()},
}


@pytest.mark.parametrize("name", list(_PINNED_SCENARIOS))
def test_the_report_of_a_scenario_is_pinned(name, request):
    cfg, mutate = _PINNED_SCENARIOS[name]
    _assert_pinned(request, run_scenario(cfg, mutate=mutate).records)


# The check's traced peak per record of the trace: the fold's 31 B/record
# plus half. A checker that keeps a tuple or an int object per record, as
# the batch checker before the fold did (127 B/record), fails it.
CHECK_PEAK_BYTES_PER_RECORD = 46


def test_the_check_keeps_little_beside_the_trace():
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=2000, seed=3)
    records = run_scenario(cfg).records
    assert len(records) == 84_006
    gc.collect()
    tracemalloc.start()
    try:
        assert check_records(records).all_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(records) < CHECK_PEAK_BYTES_PER_RECORD
