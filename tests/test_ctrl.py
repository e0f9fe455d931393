from types import SimpleNamespace

import pytest

from ftsdn import ofwire
from ftsdn.coord import ProcessedBody
from ftsdn.ctrl import AppContext, AppWriteError, Replica, ROLE_MASTER, ROLE_SLAVE
from ftsdn.events import KIND_PACKET_IN, SwitchEvent
from ftsdn.harness.bench import no_bundles, no_log
from ftsdn.ofwire import (
    Action,
    BarrierReply,
    BarrierRequest,
    BundleAdd,
    BundleCommit,
    BundleOpen,
    BundleReply,
    PacketIn,
    PacketOut,
    PortStatus,
    RoleAnnounce,
)


class FakeEnv:
    def __init__(self):
        self.t = 0.0
        self.timers = []
        self.sent = []
        self.appends = []

    def call_later(self, delay_ms, fn):
        handle = [self.t + delay_ms, fn]
        self.timers.append(handle)
        return handle

    def cancel(self, handle):
        handle[1] = None

    def send_switch(self, switch_id, msg):
        self.sent.append((switch_id, msg))

    def coord_append(self, epoch, bodies, callback):
        self.appends.append((epoch, list(bodies), callback))

    def fire_timers(self):
        timers, self.timers = self.timers, []
        for _, fn in timers:
            if fn is not None:
                fn()


class RecordingApp:
    name = "recording"

    def __init__(self, respond=True):
        self.seen = []
        self.respond = respond

    def on_event(self, event, ctx):
        self.seen.append(event.event_id)
        if self.respond and event.kind == KIND_PACKET_IN:
            ctx.write(event.switch_id, PacketOut((Action.output(2),), event.message.payload))


class BoomApp:
    name = "boom"

    def on_event(self, event, ctx):
        ctx.write(event.switch_id, PacketOut((Action.drop(),), b""))
        raise RuntimeError("app bug")


class TwoSwitchApp:
    name = "two"

    def on_event(self, event, ctx):
        if event.kind != KIND_PACKET_IN:
            return
        ctx.write("s0", PacketOut((Action.output(1),), b"a"))
        ctx.write("s1", PacketOut((Action.output(2),), b"b"))


def packet_in(seq=1):
    return PacketIn(ofwire.NO_BUFFER, 1, b"payload-%d" % seq)


def make_replica(app=None, trace=None, **batching):
    """A slave attached to s0 and s1; ``trace(kind, **fields)`` sees each record it writes."""
    env = FakeEnv()
    log = None if trace is None else SimpleNamespace(emit=lambda kind, actor, **fields: trace(kind, **fields))
    replica = Replica("c0", app or RecordingApp(), env, trace=log, **batching)
    replica.attach_switch("s0")
    replica.attach_switch("s1")
    return replica, env


def make_master(app=None, trace=None, **batching):
    replica, env = make_replica(app, trace, **batching)
    replica.on_leadership("c0", 1, 0)
    assert replica.role == ROLE_MASTER
    env.sent.clear()  # drop the promotion's role announcements
    return replica, env


def feed_log(replica, env):
    """Play the appended batches back as log entries, like the service would."""
    seq = replica.log_len
    while env.appends:
        _, bodies, cb = env.appends.pop(0)
        cb(None)
        for body in bodies:
            seq += 1
            replica.on_log_entry(seq, body)


def test_master_assigns_monotonic_ids_in_fifo_order():
    replica, env = make_master()
    replica.on_switch_message("s0", packet_in(seq=1))
    replica.on_switch_message("s0", packet_in(seq=2))
    assert [b.event_id for b in replica.pending_batch] == [1, 2]
    assert [b.switch_seq for b in replica.pending_batch] == [1, 2]


def test_flush_on_batch_size():
    replica, env = make_master(batch_size=3, batch_time_ms=50.0)
    for seq in range(1, 4):
        replica.on_switch_message("s0", packet_in(seq=seq))
    assert len(env.appends) == 1
    _, bodies, _ = env.appends[0]
    assert [b.event_id for b in bodies] == [1, 2, 3]


def test_flush_on_batch_time():
    replica, env = make_master(batch_size=1000, batch_time_ms=50.0)
    replica.on_switch_message("s0", packet_in(seq=1))
    assert env.appends == []
    env.t = 50.0
    env.fire_timers()
    assert len(env.appends) == 1
    assert len(env.appends[0][1]) == 1


def test_batch_size_one_appends_each_event():
    replica, env = make_master(batch_size=1)
    for seq in range(1, 4):
        replica.on_switch_message("s0", packet_in(seq=seq))
    assert len(env.appends) == 3


def test_slave_buffers_without_ids():
    replica, env = make_replica()
    replica.on_switch_message("s0", packet_in(seq=1))
    [ev] = replica.slave_buffer.values()
    assert ev.event_id is None
    assert env.appends == []


def test_marker_records_processed_at_switch_both_roles():
    replica, env = make_replica()
    marker = ofwire.make_commit_marker(1, [7])
    replica.on_switch_message("s0", PacketIn(0, ofwire.CONTROLLER_PORT, marker.payload))
    assert replica.processed_at_switch == {(7, "s0")}
    assert replica.slave_buffer == {}  # markers never become events


def test_slave_filters_buffer_on_log_entry():
    replica, env = make_replica()
    replica.on_switch_message("s0", packet_in(seq=1))
    ev = SwitchEvent("s0", 1, KIND_PACKET_IN, packet_in(seq=1), event_id=1)
    replica.on_log_entry(1, ev)
    assert not replica.slave_buffer
    # arriving after its log entry is a duplicate, not a fresh buffering
    replica.on_log_entry(2, SwitchEvent("s0", 2, KIND_PACKET_IN, packet_in(seq=2), event_id=2))
    replica.on_switch_message("s0", packet_in(seq=2))
    assert not replica.slave_buffer


def test_promotion_drains_only_unlogged_events():
    traced = []
    replica, env = make_replica(trace=lambda kind, **kw: traced.append((kind, kw)), batch_size=10)
    for seq in (1, 2, 3):
        replica.on_switch_message("s0", packet_in(seq=seq))
    for i in (1, 2):
        ev = SwitchEvent("s0", i, KIND_PACKET_IN, packet_in(seq=i), event_id=i)
        replica.on_log_entry(i, ev)
    replica.on_log_entry(3, ProcessedBody(1))
    replica.on_log_entry(4, ProcessedBody(2))
    assert list(replica.slave_buffer) == [("s0", 3)]
    replica.on_leadership("c0", 2, 4)
    assert replica.role == ROLE_MASTER and not replica.slave_buffer
    filtered = [kw for kind, kw in traced if kind == "buffer-filtered"]
    assert [kw.get("event_id") for kw in filtered] == [1, 2]
    assert [(b.switch_seq, b.event_id) for _, bodies, _ in env.appends for b in bodies] == [(3, 3)]


def test_slave_delivers_on_processed_in_id_order_with_writes_discarded():
    app = RecordingApp()
    replica, env = make_replica(app)
    for i in (1, 2):
        ev = SwitchEvent("s0", i, KIND_PACKET_IN, packet_in(seq=i), event_id=i)
        replica.on_log_entry(i, ev)
    replica.on_log_entry(3, ProcessedBody(2))
    assert app.seen == []  # event 1 not finished yet; order gate holds
    replica.on_log_entry(4, ProcessedBody(1))
    assert app.seen == [1, 2]
    assert env.sent == []  # slave writes are discarded
    assert replica.delivered_upto == 2


def test_master_delivers_and_bundles_commands():
    replica, env = make_master(batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    feed_log(replica, env)
    kinds = [type(m).__name__ for _, m in env.sent]
    assert kinds == ["BundleOpen", "BundleAdd", "BundleAdd", "BundleCommit"]
    adds = [m for _, m in env.sent if isinstance(m, BundleAdd)]
    assert ofwire.parse_commit_marker(adds[-1].inner) is not None  # marker staged last
    # reply completes the transaction: a processed entry joins the next batch
    bid = adds[0].bundle_id
    replica.on_switch_message("s0", BundleReply(bid, True))
    assert any(isinstance(b, ProcessedBody) for b in replica.pending_batch) or any(
        isinstance(b, ProcessedBody) for _, bodies, _ in env.appends for b in bodies
    )


def test_no_log_variant_bundles_each_event_at_once_and_never_appends():
    replica, env = make_master(batch_size=1)
    no_log(replica)
    env.coord_append = lambda *args: pytest.fail("the no-log variant appended")
    for seq in (1, 2, 3):
        replica.on_switch_message("s0", packet_in(seq=seq))
    opens = [(sid, m.bundle_id) for sid, m in env.sent if isinstance(m, BundleOpen)]
    assert [replica._bundle_owner[bid] for _, bid in opens] == [1, 2, 3]
    assert replica.delivered_upto == 3
    for sid, bid in opens:
        replica.on_switch_message(sid, BundleReply(bid, True))
    assert not replica.pending_replies
    assert replica.pending_batch == []
    assert replica._pending_keys == set()


def test_no_bundles_variant_sends_plain_commands_then_logs_processed():
    traced = []
    replica, env = make_master(
        TwoSwitchApp(), trace=lambda kind, **kw: traced.append((kind, kw.get("event_id"))), batch_size=1
    )
    no_bundles(replica)
    for seq in (1, 2):
        replica.on_switch_message("s0", packet_in(seq=seq))
    feed_log(replica, env)
    assert [(sid, type(m)) for sid, m in env.sent] == [("s0", PacketOut), ("s1", PacketOut)] * 2
    assert not replica.pending_replies
    assert [eid for kind, eid in traced if kind == "processed-logged"] == [1, 2]


def test_zero_command_event_processed_immediately():
    traced = []
    replica, env = make_master(trace=lambda kind, **kw: traced.append((kind, kw.get("event_id"))), batch_size=1)
    replica.on_switch_message("s0", PortStatus(4, False))
    feed_log(replica, env)
    assert env.sent == []  # recording app only writes for packet-ins
    assert ("processed-logged", 1) in traced


def test_multi_switch_event_gets_one_bundle_per_switch():
    replica, env = make_master(TwoSwitchApp(), batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    feed_log(replica, env)
    opens = [(sid, m) for sid, m in env.sent if isinstance(m, BundleOpen)]
    assert {sid for sid, _ in opens} == {"s0", "s1"}
    assert len(opens) == 2
    # processed only after both switches replied
    bids = {sid: m.bundle_id for sid, m in opens}
    replica.on_switch_message("s0", BundleReply(bids["s0"], True))
    assert replica.pending_replies
    replica.on_switch_message("s1", BundleReply(bids["s1"], True))
    assert not replica.pending_replies


def test_switch_failure_releases_pending_transaction():
    replica, env = make_master(batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    feed_log(replica, env)
    assert replica.pending_replies
    replica.on_switch_disconnect("s0")
    assert not replica.pending_replies
    # the disconnect itself became an event on the normal path
    assert any(
        isinstance(b, SwitchEvent) and b.kind == "switch-failure"
        for _, bodies, _ in env.appends
        for b in bodies
    ) or any(isinstance(b, SwitchEvent) and b.kind == "switch-failure" for b in replica.pending_batch)


def test_app_exception_aborts_writes_but_finishes_event():
    traced = []
    replica, env = make_master(BoomApp(), trace=lambda kind, **kw: traced.append(kind), batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    _, bodies, cb = env.appends.pop(0)
    cb(None)
    replica.on_log_entry(1, bodies[0])
    assert not any(isinstance(m, BundleOpen) for _, m in env.sent)
    assert replica.delivered_upto == 1
    assert "app-error" in traced
    assert [batch for _, batch, _ in env.appends] == [[ProcessedBody(1)]]


def test_app_context_rejects_late_and_invalid_writes():
    captured = {}

    class StashApp:
        name = "stash"

        def on_event(self, event, ctx):
            captured["ctx"] = ctx

    replica, env = make_master(StashApp(), batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    feed_log(replica, env)
    with pytest.raises(AppWriteError):
        captured["ctx"].write("s0", PacketOut((), b""))
    ctx = AppContext(SwitchEvent("s0", 1, KIND_PACKET_IN, packet_in(), 1), lambda s, m: None)
    with pytest.raises(AppWriteError):
        ctx.write("s0", BarrierRequest(1))


def test_port_status_occurrences_are_distinct_and_shared():
    replica, env = make_replica()
    replica.on_switch_message("s0", PortStatus(1, False))
    replica.on_switch_message("s0", PortStatus(1, True))
    keys = [ev.occurrence for ev in replica.slave_buffer.values()]
    assert keys == [("s0", 1), ("s0", 2)]


def test_a_switch_numbers_its_events_by_arrival_markers_included():
    replica, env = make_replica()
    replica.on_switch_message("s0", packet_in(seq=1))
    replica.on_switch_message("s0", PacketIn(0, ofwire.CONTROLLER_PORT, ofwire.make_commit_marker(1, [7]).payload))
    replica.on_switch_message("s0", PortStatus(1, False))
    replica.on_switch_message("s0", packet_in(seq=2))
    replica.on_switch_message("s1", packet_in(seq=3))  # each switch has its own count
    keys = [ev.occurrence for ev in replica.slave_buffer.values()]
    assert keys == [("s0", 1), ("s0", 3), ("s0", 4), ("s1", 1)]
    assert replica.processed_at_switch == {(7, "s0")}


def test_deposed_master_rebuffers_unacked_events():
    replica, env = make_master(batch_size=2)
    replica.on_switch_message("s0", packet_in(seq=1))
    replica.on_switch_message("s0", packet_in(seq=2))  # flushed, in flight
    replica.on_switch_message("s0", packet_in(seq=3))  # still pending
    assert len(env.appends) == 1
    replica.on_leadership("c1", 2, 0)
    assert replica.role == ROLE_SLAVE
    assert sorted(ev.switch_seq for ev in replica.slave_buffer.values()) == [1, 2, 3]
    assert all(ev.event_id is None for ev in replica.slave_buffer.values())
    # the stale append now fails; that must not double-buffer anything
    _, _, cb = env.appends[0]
    cb("not-leader")
    assert sorted(ev.switch_seq for ev in replica.slave_buffer.values()) == [1, 2, 3]


def test_append_rejection_deposes_master():
    replica, env = make_master(batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    _, bodies, cb = env.appends[0]
    cb("not-leader")
    assert replica.role == ROLE_SLAVE
    assert [ev.switch_seq for ev in replica.slave_buffer.values()] == [1]


def test_refused_bundle_deposes_master_without_a_fatal_error():
    replica, env = make_master(batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    feed_log(replica, env)
    bid = next(m.bundle_id for _, m in env.sent if isinstance(m, BundleOpen))
    replica.on_switch_message("s0", BundleReply(bid, False))
    assert replica.role == ROLE_SLAVE
    assert not replica.pending_replies
    replica.on_switch_message("s0", BundleReply(bid, False))  # one refusal per bundle message
    assert replica.role == ROLE_SLAVE


# -- promotion: catch-up, barrier probe, resend ---------------------------------


def log_events(replica, *occurrences):
    """Append one logged event per (switch, seq) behind the replica's log."""
    for sw, seq in occurrences:
        ev = SwitchEvent(sw, seq, KIND_PACKET_IN, packet_in(seq), event_id=replica.max_logged_id + 1)
        replica.on_log_entry(replica.log_len + 1, ev)


def marker(replica, sw, eid):
    """``sw`` shows the replica the old master's (epoch 1) commit marker for ``eid``."""
    msg = ofwire.make_commit_marker(1, [eid])
    replica.on_switch_message(sw, PacketIn(0, ofwire.CONTROLLER_PORT, msg.payload))


def promote(app=None, occurrences=(("s0", 1),), markers=()):
    """A slave that logged ``occurrences`` (none finished) and saw ``markers``
    is elected; returns it with its env and its (kind, fields) trace."""
    traced = []
    replica, env = make_replica(app, trace=lambda kind, **kw: traced.append((kind, kw)))
    log_events(replica, *occurrences)
    for sw, eid in markers:
        marker(replica, sw, eid)
    replica.on_leadership("c0", 2, replica.log_len)
    return replica, env, traced


def barrier_xids(env):
    return {sid: m.xid for sid, m in env.sent if isinstance(m, BarrierRequest)}


def bundle_ids(env):
    return {sid: m.bundle_id for sid, m in env.sent if isinstance(m, BundleOpen)}


def processed(replica, env):
    bodies = [b for _, batch, _ in env.appends for b in batch] + replica.pending_batch
    return [b.event_id for b in bodies if isinstance(b, ProcessedBody)]


def probes(traced):
    return [(kind, kw["event_id"], kw["switch_id"]) for kind, kw in traced if kind.startswith("probe-")]


def test_barrier_reply_without_marker_resends_and_finishes_on_the_bundle_reply():
    replica, env, traced = promote()
    assert replica.role != ROLE_MASTER and processed(replica, env) == []
    replica.on_switch_message("s0", BarrierReply(barrier_xids(env)["s0"]))
    assert probes(traced) == [("probe-resend", 1, "s0")]
    assert list(bundle_ids(env)) == ["s0"] and len([m for _, m in env.sent if isinstance(m, BundleOpen)]) == 1
    assert processed(replica, env) == [] and replica.role != ROLE_MASTER
    replica.on_switch_message("s0", BundleReply(bundle_ids(env)["s0"], True))
    assert processed(replica, env) == [1]
    assert replica.role == ROLE_MASTER and not replica.pending_replies


def test_marker_before_the_barrier_reply_means_no_resend():
    replica, env, traced = promote()
    marker(replica, "s0", 1)
    replica.on_switch_message("s0", BarrierReply(barrier_xids(env)["s0"]))
    assert probes(traced) == [("probe-no-resend", 1, "s0")]
    assert bundle_ids(env) == {}
    assert processed(replica, env) == [1] and replica.role == ROLE_MASTER


def test_switch_lost_mid_probe_finishes_the_event():
    replica, env, traced = promote()
    replica.on_switch_disconnect("s0")
    assert probes(traced) == [("probe-switch-dead", 1, "s0")]
    assert processed(replica, env) == [1] and replica.role == ROLE_MASTER
    replica.on_switch_message("s0", BarrierReply(barrier_xids(env)["s0"]))  # too late: stray
    assert bundle_ids(env) == {} and processed(replica, env) == [1]


def test_switch_lost_while_its_resend_is_pending_finishes_the_event_once():
    replica, env, traced = promote()
    replica.on_switch_message("s0", BarrierReply(barrier_xids(env)["s0"]))
    replica.on_switch_disconnect("s0")
    assert probes(traced) == [("probe-resend", 1, "s0")]  # the barrier had replied: no probe-switch-dead
    assert processed(replica, env) == [1] and replica.role == ROLE_MASTER
    replica.on_switch_message("s0", BundleReply(bundle_ids(env)["s0"], True))
    assert processed(replica, env) == [1]


def test_partly_committed_two_switch_event_finishes_once_after_the_resend_reply():
    replica, env, traced = promote(TwoSwitchApp(), markers=[("s0", 1)])
    assert probes(traced) == [("probe-no-resend", 1, "s0")]
    assert list(barrier_xids(env)) == ["s1"]
    replica.on_switch_message("s1", BarrierReply(barrier_xids(env)["s1"]))
    assert probes(traced)[1:] == [("probe-resend", 1, "s1")]
    assert list(bundle_ids(env)) == ["s1"] and processed(replica, env) == []
    replica.on_switch_message("s1", BundleReply(bundle_ids(env)["s1"], True))
    assert processed(replica, env) == [1] and replica.role == ROLE_MASTER


def test_election_ahead_of_the_local_log_waits_for_the_watermark():
    app = RecordingApp()
    replica, env = make_replica(app)
    log_events(replica, ("s0", 1), ("s0", 2))
    replica.on_log_entry(3, ProcessedBody(1))
    assert app.seen == [1]
    replica.on_leadership("c0", 2, 5)
    assert env.sent == [] and replica.role != ROLE_MASTER and not replica.is_quiescent()
    replica.on_log_entry(4, ProcessedBody(2))  # still a slave delivery: writes discarded
    assert app.seen == [1, 2] and env.sent == []
    log_events(replica, ("s0", 3))  # seq 5 reaches the watermark: catch-up holds event 3
    assert app.seen == [1, 2, 3]
    assert [type(m) for _, m in env.sent] == [RoleAnnounce, RoleAnnounce, BarrierRequest]
    assert list(barrier_xids(env)) == ["s0"]


def test_promotion_complete_counts_the_held_events():
    traced = []
    replica, env = make_replica(trace=lambda kind, **kw: traced.append((kind, kw)))
    log_events(replica, ("s0", 1), ("s1", 1), ("s0", 2), ("s1", 2))
    replica.on_log_entry(5, ProcessedBody(2))  # finished: replayed, not held
    marker(replica, "s0", 1)
    marker(replica, "s0", 3)
    replica.on_leadership("c0", 2, replica.log_len)
    assert probes(traced) == [("probe-no-resend", 1, "s0"), ("probe-no-resend", 3, "s0")]
    replica.on_switch_message("s1", BarrierReply(barrier_xids(env)["s1"]))
    assert [kind for kind, _ in traced].count("promotion-complete") == 0
    replica.on_switch_message("s1", BundleReply(bundle_ids(env)["s1"], True))
    assert [kw["detail"] for kind, kw in traced if kind == "promotion-complete"] == [{"held": 3}]
    assert processed(replica, env) == [1, 3, 4]


def test_switch_lost_mid_probe_may_finish_the_promotion_ahead_of_later_events():
    # event 2 finishes first; losing s0 then finishes event 1, the last one held
    replica, env, traced = promote(occurrences=[("s0", 1), ("s1", 1)])
    marker(replica, "s1", 2)
    replica.on_switch_message("s1", BarrierReply(barrier_xids(env)["s1"]))
    replica.on_switch_disconnect("s0")
    assert probes(traced) == [("probe-no-resend", 2, "s1"), ("probe-switch-dead", 1, "s0")]
    assert sorted(processed(replica, env)) == [1, 2] and replica.role == ROLE_MASTER


def master_with_processed_in_flight():
    """A master (epoch 1) that finished event 1 and has sent ``ProcessedBody(1)``;
    returns it with its env and that append's callback."""
    replica, env = make_master(batch_size=1)
    replica.on_switch_message("s0", packet_in(seq=1))
    _, bodies, cb = env.appends.pop(0)
    cb(None)
    replica.on_log_entry(1, bodies[0])
    replica.on_switch_message("s0", BundleReply(bundle_ids(env)["s0"], True))
    marker(replica, "s0", 1)
    assert processed(replica, env) == [1]  # in flight, not yet logged
    _, _, pending = env.appends.pop(0)
    return replica, env, pending


def test_reelected_master_logs_the_processed_entry_dropped_at_deposition():
    replica, env, pending = master_with_processed_in_flight()
    replica.on_leadership("c1", 2, replica.log_len)
    assert replica.role == ROLE_SLAVE
    pending("not-leader")
    replica.on_leadership("c0", 3, replica.log_len)
    assert replica.role == ROLE_MASTER
    assert processed(replica, env) == [1]


def test_reelected_master_does_not_log_a_processed_entry_another_master_logged():
    replica, env, pending = master_with_processed_in_flight()
    replica.on_leadership("c1", 2, replica.log_len)
    pending("not-leader")
    replica.on_log_entry(2, ProcessedBody(1))  # c1 finished event 1 at epoch 2
    replica.on_leadership("c0", 3, replica.log_len)
    assert replica.role == ROLE_MASTER
    assert processed(replica, env) == []


def test_reelected_master_does_not_log_again_an_append_logged_before_its_reply():
    # the service sends an append's entries before its reply, so the
    # deposition finds the logged entry still in flight
    replica, env, pending = master_with_processed_in_flight()
    replica.on_log_entry(2, ProcessedBody(1))
    replica.on_leadership("c1", 2, replica.log_len)
    pending(None)
    replica.on_leadership("c0", 3, replica.log_len)
    assert replica.role == ROLE_MASTER
    assert processed(replica, env) == []
