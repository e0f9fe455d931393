from ftsdn import ofwire
from ftsdn.apps import ForwardingApp, LearningSwitchApp, make_app
from ftsdn.events import KIND_PACKET_IN, KIND_PORT_STATUS, SwitchEvent
from ftsdn.ofwire import Action, FlowMod, PacketIn, PacketOut, PortStatus


class Ctx:
    def __init__(self):
        self.writes = []

    def write(self, switch_id, message):
        self.writes.append((switch_id, message))


def packet_event(sw="s0", seq=1, dst="02:00:00:00:00:01", src="02:00:00:00:00:02", in_port=2, eid=None):
    payload = ofwire.ether_payload(dst, src, b"body")
    return SwitchEvent(sw, seq, KIND_PACKET_IN, PacketIn(0, in_port, payload), event_id=eid)


def test_forwarding_single_packet_out():
    app = ForwardingApp(port_map={"s0": 7})
    ctx = Ctx()
    ev = packet_event()
    app.on_event(ev, ctx)
    assert ctx.writes == [("s0", PacketOut((Action.output(7),), ev.message.payload))]


def test_forwarding_ignores_port_status():
    app = ForwardingApp()
    ctx = Ctx()
    app.on_event(SwitchEvent("s0", 1, KIND_PORT_STATUS, PortStatus(1, False)), ctx)
    assert ctx.writes == []


def test_forwarding_never_writes_flowmods():
    app = ForwardingApp()
    ctx = Ctx()
    for i in range(100):
        app.on_event(packet_event(seq=i + 1), ctx)
    assert len(ctx.writes) == 100
    assert all(isinstance(m, PacketOut) for _, m in ctx.writes)


def test_learning_floods_unknown_destination():
    app = LearningSwitchApp()
    ctx = Ctx()
    app.on_event(packet_event(dst="02:00:00:00:00:0a", src="02:00:00:00:00:0b", in_port=3), ctx)
    assert len(ctx.writes) == 1
    _, po = ctx.writes[0]
    assert isinstance(po, PacketOut) and po.actions == (Action.output(ofwire.FLOOD_PORT),)


def test_learning_installs_flow_after_learning():
    app = LearningSwitchApp()
    ctx = Ctx()
    a, b = "02:00:00:00:00:0a", "02:00:00:00:00:0b"
    app.on_event(packet_event(dst=b, src=a, in_port=1), ctx)  # learn a@1, flood
    app.on_event(packet_event(seq=2, dst=a, src=b, in_port=2), ctx)  # knows a
    assert len(ctx.writes) == 3
    _, fm = ctx.writes[1]
    _, po = ctx.writes[2]
    assert isinstance(fm, FlowMod)
    assert fm.match_key.eth_dst == a and fm.actions == (Action.output(1),)
    assert isinstance(po, PacketOut) and po.actions == (Action.output(1),)


def test_learning_unparseable_payload_floods():
    app = LearningSwitchApp()
    ctx = Ctx()
    ev = SwitchEvent("s0", 1, KIND_PACKET_IN, PacketIn(0, 1, b"short"), event_id=1)
    app.on_event(ev, ctx)
    assert len(ctx.writes) == 1
    assert ctx.writes[0][1].actions == (Action.output(ofwire.FLOOD_PORT),)


def test_identical_sequences_give_identical_write_traces():
    import random

    rng = random.Random(42)
    hosts = [f"02:00:00:00:00:{i:02x}" for i in range(1, 5)]
    events = []
    for seq in range(1, 40):
        src, dst = rng.sample(hosts, 2)
        events.append(packet_event(seq=seq, dst=dst, src=src, in_port=hosts.index(src) + 1))
    traces = []
    for _ in range(2):
        app = make_app("learning")
        ctx = Ctx()
        for ev in events:
            app.on_event(ev, ctx)
        traces.append([(s, ofwire.encode(m)) for s, m in ctx.writes])
    assert traces[0] == traces[1]
