"""Scenario config: the JSON round trip, the run-meta replay and the
key=value format."""

import json

import pytest

from ftsdn.harness.cli import main
from ftsdn.harness.config import FaultInjection, ScenarioConfig, config_from_dict, load_config
from ftsdn.harness.scenario import run_scenario


def every_field_cfg() -> ScenarioConfig:
    # every field away from its default
    return ScenarioConfig(
        n_switches=3,
        n_controllers=3,
        batch_size=7,
        batch_time_ms=4.5,
        session_timeout_ms=120.0,
        heartbeat_interval_ms=1.5,
        seed=11,
        transport="sockets",
        app="learning",
        app_params={"flow_priority": 7},
        packets_per_switch=9,
        inter_arrival_ms=2.5,
        hosts_per_switch=2,
        workload_start_ms=55.0,
        fault_plan=[
            FaultInjection(target="master", point="F2", trigger_event=4),
            FaultInjection(target="master", point="zombie", at_time_ms=60.0, pause_ms=150.0),
        ],
    )


def test_to_json_round_trips_every_field():
    cfg = every_field_cfg()
    assert config_from_dict(cfg.to_json()) == cfg
    assert config_from_dict(json.loads(json.dumps(cfg.to_json()))) == cfg
    assert cfg.to_json()["f"] == 2


def test_run_meta_config_replays_a_fault_run(tmp_path):
    cfg = ScenarioConfig(
        n_switches=2,
        n_controllers=2,
        packets_per_switch=10,
        seed=21,
        fault_plan=[FaultInjection(target="master", point="F2", trigger_event=5)],
    )
    first = run_scenario(cfg)
    assert first.passed and any(r["kind"] == "controller-crashed" for r in first.records)
    meta = next(r for r in first.records if r["kind"] == "run-meta")
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(meta["detail"]["config"]))
    replay = run_scenario(load_config(str(path)))
    assert replay.records == first.records


def test_key_value_lines_parse_by_field_type(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("# a comment\nn_switches = 3\n\nworkload_start_ms=55\napp=learning\n")
    cfg = load_config(str(path))
    assert cfg == ScenarioConfig(n_switches=3, workload_start_ms=55.0, app="learning")
    assert type(cfg.workload_start_ms) is float


@pytest.mark.parametrize(
    "text",
    ["no_such_key=1\n", "app_params={}\n", "fault_plan=[]\n"],
)
def test_key_value_rejects_unknown_and_non_scalar_fields(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_config(str(path))


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_dict({"n_switches": 2, "no_such_key": 1})
    fault = {"target": "master", "point": "F1", "trigger_event": 3, "when": 5}
    with pytest.raises(ValueError):
        config_from_dict({"fault_plan": [fault]})


def test_failover_command_reports_the_median_of_its_trials(capsys):
    assert main(["failover", "--transport", "deterministic", "--session-timeout", "100", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count(", ") == 1 and "median gap:" in out and "over 2 trials" in out


@pytest.mark.parametrize(
    "d, field",
    [
        ({"n_switches": "2"}, "n_switches"),
        ({"n_switches": True}, "n_switches"),
        ({"n_switches": 2.0}, "n_switches"),
        ({"batch_time_ms": "5"}, "batch_time_ms"),
        ({"app": 1}, "app"),
        ({"app_params": []}, "app_params"),
        ({"fault_plan": {}}, "fault_plan"),
        ({"seed": None}, "seed"),
        ({"fault_plan": [{"point": "F1", "trigger_event": "3"}]}, "trigger_event"),
        ({"fault_plan": [{"point": "at-time", "at_time_ms": False}]}, "at_time_ms"),
    ],
)
def test_json_rejects_a_value_of_the_wrong_type_by_field(d, field):
    with pytest.raises(ValueError, match=field):
        config_from_dict(d)


def test_json_takes_an_int_for_a_float_and_none_where_allowed():
    fault = {"point": "zombie", "at_time_ms": 60, "pause_ms": None, "trigger_event": None}
    cfg = config_from_dict({"batch_time_ms": 5, "fault_plan": [fault]})
    assert cfg.batch_time_ms == 5 and cfg.fault_plan == [FaultInjection(point="zombie", at_time_ms=60)]


@pytest.mark.parametrize(
    "config",
    [
        {"n_switches": "2", "packets_per_switch": 5},
        {"n_switchez": 2},
        {"fault_plan": [{"point": "F9", "trigger_event": 3}]},
        {"app": "nope"},
        {"app_params": {"port_map": [1, 2]}},
        {"app": "learning", "app_params": {"flow_prio": 5}},
        {"session_timeout_ms": 0.0, "n_switches": 1, "packets_per_switch": 5},
        {"session_timeout_ms": -1.0, "n_switches": 1, "packets_per_switch": 5},
        {"fault_plan": [{"target": "switch:s9", "point": "at-time", "at_time_ms": 50}]},
        {"fault_plan": [{"target": "mastr", "point": "at-time", "at_time_ms": 50}]},
        {"fault_plan": [{"target": "switch:s0", "point": "F2", "trigger_event": 3}]},
        {"hosts_per_switch": 1},
        {"hosts_per_switch": 256},
        {"n_switches": 257},
        {"heartbeat_interval_ms": 0.0, "n_switches": 1, "packets_per_switch": 5},
        {"heartbeat_interval_ms": -1.0, "n_switches": 1, "packets_per_switch": 5},
        {"fault_plan": [{"point": "zombie", "at_time_ms": 50, "pause_ms": 0.0}]},
        {"fault_plan": [{"point": "zombie", "at_time_ms": 50, "pause_ms": -5.0}]},
        "{not json",
        None,
        {"batch_size": 0, "n_switches": 1, "packets_per_switch": 5},
        {"batch_size": -3, "n_switches": 1, "packets_per_switch": 5},
        {"batch_time_ms": -5.0, "n_switches": 1, "packets_per_switch": 5},
    ],
)
def test_run_reports_a_bad_config_as_one_error_line(tmp_path, capsys, config):
    path = tmp_path / "scenario.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--switches", "0"],
        ["failover", "--trials", "0"],
        ["failover", "--transport", "deterministic", "--session-timeout", "0"],
        ["bench", "--batch-size", "0"],
    ],
    ids=["bench-no-switch", "failover-no-trial", "failover-zero-timeout", "bench-empty-batch"],
)
def test_bench_and_failover_report_bad_input_as_one_error_line(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


@pytest.mark.parametrize("app, params", [("learning", {"flow_prio": 5}), ("forwarding", {"flow_priority": 5})])
def test_validate_names_an_app_parameter_the_app_does_not_take(app, params):
    (key,) = params
    with pytest.raises(ValueError, match=f"unexpected keyword argument {key!r}"):
        ScenarioConfig(app=app, app_params=params).validate()


def test_check_reports_a_missing_trace_as_one_error_line(tmp_path, capsys):
    assert main(["check", "--trace", str(tmp_path / "missing.jsonl")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
