import pytest

from ftsdn import ofwire
from ftsdn.ofwire import (
    Action,
    BarrierReply,
    BarrierRequest,
    BundleAdd,
    BundleCommit,
    BundleOpen,
    BundleReply,
    FlowMod,
    MatchKey,
    PacketIn,
    PacketOut,
    RoleAnnounce,
)
from ftsdn.switchsim import Switch
from ftsdn.trace import TraceLog


class FakeConn:
    def __init__(self, controller_id):
        self.controller_id = controller_id
        self.inbox = []

    def send(self, msg):
        self.inbox.append(msg)


def payload(dst="02:00:00:00:00:01", src="02:00:00:00:00:02", body=b"x"):
    return ofwire.ether_payload(dst, src, body)


@pytest.fixture
def log():
    return TraceLog(clock=lambda: 0.0)


def make_switch(n_conns=2, log=None):
    """A switch with ``n_conns`` connections, tracing into ``log`` if one is given."""
    sw = Switch("s0", trace=log)
    conns = [FakeConn(f"c{i}") for i in range(n_conns)]
    for c in conns:
        sw.attach(c)
    return sw, conns


def exec_details(log):
    """The detail of every switch-exec record in ``log``, as ``as_dicts`` renders it."""
    return [r["detail"] for r in log.as_dicts() if r["kind"] == "switch-exec"]


def test_unmatched_packet_fans_out_to_all_controllers(log):
    sw, (c0, c1) = make_switch(log=log)
    sw.inject_packet(payload(), in_port=1)
    assert len(c0.inbox) == 1 and len(c1.inbox) == 1
    a, b = c0.inbox[0], c1.inbox[0]
    assert isinstance(a, PacketIn) and a == b
    assert [r["switch_seq"] for r in log.as_dicts() if r["kind"] == "event-emitted"] == [1]


def test_switch_seq_strictly_increases(log):
    sw, (c0, _) = make_switch(log=log)
    for i in range(5):
        sw.inject_packet(payload(body=b"%d" % i), in_port=1)
    sw.set_port(2, False)
    assert len(c0.inbox) == 6
    seqs = [r["switch_seq"] for r in log.as_dicts() if r["kind"] == "event-emitted"]
    assert seqs == [1, 2, 3, 4, 5, 6]


def test_matched_packet_executes_locally_without_packetin(log):
    sw, (c0, c1) = make_switch(log=log)
    fm = FlowMod(MatchKey(eth_dst="02:00:00:00:00:01"), (Action.output(2),), 10)
    sw.on_message(c0, fm)  # plain FlowMod installs immediately
    before = len(exec_details(log))
    sw.inject_packet(payload(), in_port=1)
    assert len(c0.inbox) == 0 and len(c1.inbox) == 0
    assert len(exec_details(log)) == before + 1
    assert exec_details(log)[-1]["origin"] == "table"


def test_fan_out_counts_live_connections_only():
    sw, conns = (Switch("s0"), [FakeConn(f"c{i}") for i in range(3)])
    for c in conns:
        sw.attach(c)
    sw.on_conn_closed(conns[1])
    sw.inject_packet(payload(), in_port=1)
    assert len(conns[0].inbox) == 1
    assert len(conns[1].inbox) == 0
    assert len(conns[2].inbox) == 1


def test_flow_table_priority_and_tie_break():
    sw, (c0, _) = make_switch()
    low = FlowMod(MatchKey(eth_dst="02:00:00:00:00:01"), (Action.output(1),), 1)
    hi_a = FlowMod(MatchKey(eth_dst="02:00:00:00:00:01"), (Action.output(2),), 5)
    hi_b = FlowMod(MatchKey(in_port=1), (Action.output(3),), 5)
    for fm in (low, hi_a, hi_b):
        sw.on_message(c0, fm)
    rule = sw.flow_table.lookup(1, "02:00:00:00:00:02", "02:00:00:00:00:01")
    assert rule.actions == (Action.output(2),)  # higher priority, older wins ties


def test_flow_table_add_with_same_match_and_priority_replaces_rule():
    sw, (c0, _) = make_switch()
    mk = MatchKey(eth_dst="02:00:00:00:00:01")
    other = FlowMod(MatchKey(in_port=1), (Action.output(4),), 5)
    sw.on_message(c0, FlowMod(mk, (Action.output(2),), 5))
    sw.on_message(c0, other)
    sw.on_message(c0, FlowMod(mk, (Action.output(3),), 5))
    assert len(sw.flow_table) == 2
    rule = sw.flow_table.lookup(1, "02:00:00:00:00:02", "02:00:00:00:00:01")
    assert rule.actions == (Action.output(3),)  # re-learned port, still the older rule
    sw.on_message(c0, FlowMod(mk, (Action.drop(),), 6))
    assert len(sw.flow_table) == 3  # another priority is another rule


def test_bundle_lifecycle_commit_order(log):
    sw, (c0, c1) = make_switch(log=log)
    fm = FlowMod(MatchKey(eth_dst="02:00:00:00:00:01"), (Action.output(2),), 10)
    marker = ofwire.make_commit_marker(1, [7])
    sw.on_message(c0, BundleOpen(5))
    sw.on_message(c0, BundleAdd(5, fm))
    sw.on_message(c0, BundleAdd(5, marker))
    assert len(sw.flow_table) == 0  # staged, not applied
    sw.on_message(c0, BundleCommit(5))
    assert len(sw.flow_table) == 1
    # marker came back as a PacketIn on every connection
    assert any(isinstance(m, PacketIn) and m.payload == marker.payload for m in c0.inbox)
    assert any(isinstance(m, PacketIn) and m.payload == marker.payload for m in c1.inbox)
    # reply went to the owner only
    assert BundleReply(5, True) in c0.inbox
    assert not any(isinstance(m, BundleReply) for m in c1.inbox)
    # the switch-exec records show the bundle contiguous and in order
    kinds = [(e["origin"], e["command"]["type"]) for e in exec_details(log)]
    assert kinds == [("bundle", "FlowMod"), ("bundle", "PacketOut")]


def test_commit_unknown_bundle_fails(log):
    sw, (c0, _) = make_switch(log=log)
    sw.on_message(c0, BundleCommit(99))
    assert c0.inbox == [BundleReply(99, False)]
    assert exec_details(log) == []


def test_add_to_unknown_bundle_fails():
    sw, (c0, _) = make_switch()
    sw.on_message(c0, BundleAdd(4, PacketOut((Action.drop(),), b"")))
    assert c0.inbox == [BundleReply(4, False)]


def test_duplicate_open_is_error_reply():
    sw, (c0, _) = make_switch()
    sw.on_message(c0, BundleOpen(5))
    sw.on_message(c0, BundleOpen(5))
    assert c0.inbox == [BundleReply(5, False)]


def test_switch_refuses_changes_from_a_controller_that_is_not_master(log):
    sw, (c0, c1) = make_switch(log=log)
    sw.on_message(c1, RoleAnnounce(2))
    sw.on_message(c0, BundleOpen(1))
    sw.on_message(c0, BundleAdd(1, ofwire.make_commit_marker(1, [1])))
    sw.on_message(c0, BundleCommit(1))
    sw.on_message(c0, PacketOut((Action.output(2),), payload()))
    sw.on_message(c0, FlowMod(MatchKey(in_port=1), (Action.output(2),), 1))
    sw.on_message(c0, BarrierRequest(7))
    assert c0.inbox == [BundleReply(1, False), BundleReply(1, False), BundleReply(1, False), BarrierReply(7)]
    assert exec_details(log) == [] and sw.bundles == {}
    # a stale announcement does not move the role back
    sw.on_message(c0, RoleAnnounce(1))
    sw.on_message(c0, PacketOut((Action.output(2),), payload()))
    assert sw.master is c1 and exec_details(log) == []
    sw.on_message(c1, PacketOut((Action.output(2),), payload()))
    assert len(exec_details(log)) == 1


def test_the_role_belongs_to_the_connection_it_arrived_on(log):
    sw, (c0, _) = make_switch(log=log)
    sw.on_message(c0, RoleAnnounce(1))
    sw.on_conn_closed(c0)
    assert sw.master is c0  # kept after its connection closes
    c0b = FakeConn("c0")
    sw.attach(c0b)
    sw.on_message(c0b, PacketOut((Action.output(2),), payload()))
    assert exec_details(log) == []  # the same controller on a new connection is not master
    sw.on_message(c0b, RoleAnnounce(2))
    sw.on_message(c0b, PacketOut((Action.output(2),), payload()))
    assert sw.master is c0b and len(exec_details(log)) == 1
    roles = [(r["kind"], r["epoch"], r["detail"]) for r in log.as_dicts() if r["kind"] == "role-announce"]
    assert roles == [("role-announce", 1, {"controller": "c0"}), ("role-announce", 2, {"controller": "c0"})]


def test_barrier_covers_processed_not_pending_bundles():
    sw, (c0, _) = make_switch()
    sw.on_message(c0, BundleOpen(5))
    sw.on_message(c0, BundleAdd(5, FlowMod(MatchKey(), (Action.output(1),), 1)))
    sw.on_message(c0, BarrierRequest(9))
    assert c0.inbox == [BarrierReply(9)]
    # the open bundle is untouched and still commits afterwards
    assert len(sw.flow_table) == 0
    sw.on_message(c0, BundleCommit(5))
    assert len(sw.flow_table) == 1


def test_disconnect_discards_open_bundles():
    sw, (c0, c1) = make_switch()
    sw.on_message(c0, BundleOpen(5))
    for i in range(3):
        sw.on_message(c0, BundleAdd(5, FlowMod(MatchKey(in_port=i), (Action.output(1),), 1)))
    sw.on_conn_closed(c0)
    assert len(sw.flow_table) == 0
    assert sw.bundles == {}
    sw.inject_packet(payload(), in_port=1)
    assert len(c1.inbox) == 1 and len(c0.inbox) == 0


def test_disconnect_without_bundles_only_shrinks_fanout():
    sw, (c0, c1) = make_switch()
    sw.on_conn_closed(c0)
    sw.inject_packet(payload(), in_port=1)
    assert c0.inbox == [] and len(c1.inbox) == 1


def test_reconnect_gets_fresh_bundle_namespace(log):
    sw, (c0, c1) = make_switch(log=log)
    c0b = FakeConn("c0")
    sw.attach(c0b)
    sw.on_message(c0, BundleOpen(5))
    sw.on_message(c0b, BundleOpen(5))
    assert not any(isinstance(m, BundleReply) for m in c0.inbox + c0b.inbox)  # both opens succeeded
    sw.on_conn_closed(c0)
    discarded = [(r["bundle_id"], r["detail"]) for r in log.as_dicts() if r["kind"] == "bundle-discarded"]
    assert discarded == [(5, {"owner": "c0"})]
    assert list(sw.bundles) == [(c0b, 5)]  # the second connection's bundle is kept
    sw.on_message(c0b, BundleAdd(5, ofwire.make_commit_marker(2, [1])))
    sw.on_message(c0b, BundleCommit(5))
    assert BundleReply(5, True) in c0b.inbox


def test_crash_stops_all_activity(log):
    sw, (c0, _) = make_switch(log=log)
    sw.crash()
    sw.inject_packet(payload(), in_port=1)
    sw.on_message(c0, BundleOpen(1))
    assert c0.inbox == []
    assert exec_details(log) == []


def test_committed_bundles_are_contiguous_under_interleaving(log):
    sw, (c0, c1) = make_switch(log=log)
    fm = lambda p: FlowMod(MatchKey(in_port=p), (Action.output(1),), 1)
    sw.on_message(c0, BundleOpen(1))
    sw.on_message(c1, BundleOpen(1))
    sw.on_message(c0, BundleAdd(1, fm(1)))
    sw.on_message(c1, BundleAdd(1, fm(2)))
    sw.on_message(c0, BundleAdd(1, ofwire.make_commit_marker(1, [1])))
    sw.on_message(c1, BundleAdd(1, ofwire.make_commit_marker(1, [2])))
    sw.on_message(c1, BundleCommit(1))
    sw.on_message(c0, BundleCommit(1))
    owners = [e["controller"] for e in exec_details(log)]
    assert owners == ["c1", "c1", "c0", "c0"]

