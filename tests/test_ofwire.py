import random

import pytest
from hypothesis import given, settings, strategies as st

from ftsdn import ofwire
from ftsdn.ofwire import (
    Action,
    BarrierReply,
    BarrierRequest,
    BundleAdd,
    BundleCommit,
    BundleOpen,
    BundleReply,
    CommitMarker,
    FlowMod,
    MatchKey,
    PacketIn,
    PacketOut,
    PortStatus,
    RoleAnnounce,
)

ids = st.integers(min_value=0, max_value=2**32 - 1)
small = st.integers(min_value=0, max_value=2**16 - 1)
payloads = st.binary(max_size=64)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:", min_size=1, max_size=12)

actions = st.one_of(
    st.builds(Action.output, small),
    st.just(Action.to_controller()),
    st.just(Action.drop()),
)
flow_actions = st.one_of(st.builds(Action.output, small), st.just(Action.drop()))
match_keys = st.builds(
    MatchKey,
    st.one_of(st.none(), small),
    st.one_of(st.none(), names),
    st.one_of(st.none(), names),
)

inner_msgs = st.one_of(
    st.builds(PacketOut, st.tuples(actions), payloads),
    st.builds(FlowMod, match_keys, st.tuples(flow_actions), small),
)

messages = st.one_of(
    st.builds(PacketIn, ids, small, payloads),
    st.builds(PacketOut, st.lists(actions, max_size=3).map(tuple), payloads),
    st.builds(FlowMod, match_keys, st.lists(flow_actions, max_size=3).map(tuple), small),
    st.builds(BundleOpen, ids),
    st.builds(BundleAdd, ids, inner_msgs),
    st.builds(BundleCommit, ids),
    st.builds(BundleReply, ids, st.booleans()),
    st.builds(BarrierRequest, ids),
    st.builds(BarrierReply, ids),
    st.builds(RoleAnnounce, ids),
    st.builds(PortStatus, small, st.booleans()),
)


def test_barrier_request_frame_layout():
    # 4-byte length prefix covering tag + varint payload: 6 bytes total
    frame = ofwire.encode(BarrierRequest(0))
    assert len(frame) == 6
    assert frame[:4] == bytes([0, 0, 0, 2])


@settings(max_examples=300)
@given(messages)
def test_round_trip(msg):
    frame = ofwire.encode(msg)
    decoded = ofwire.decode(frame)
    assert decoded is not None
    got, consumed = decoded
    assert got == msg
    assert consumed == len(frame)


@settings(max_examples=300)
@given(messages)
def test_json_round_trip(msg):
    assert ofwire.from_json(ofwire.to_json(msg)) == msg


def _corpus(n=1000, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k = rng.randrange(8)
        if k == 0:
            out.append(PacketIn(rng.randrange(2**32), rng.randrange(16), rng.randbytes(rng.randrange(32))))
        elif k == 1:
            out.append(PacketOut((Action.output(rng.randrange(64)),), rng.randbytes(rng.randrange(32))))
        elif k == 2:
            out.append(FlowMod(MatchKey(eth_dst=f"02:00:00:00:00:{rng.randrange(99):02x}"), (Action.output(rng.randrange(8)),), rng.randrange(100)))
        elif k == 3:
            out.append(BundleAdd(rng.randrange(1000), PacketOut((Action.drop(),), rng.randbytes(4))))
        elif k == 4:
            out.append(BundleReply(rng.randrange(1000), rng.random() < 0.5))
        elif k == 5:
            out.append(BarrierRequest(rng.randrange(2**20)))
        elif k == 6:
            out.append(RoleAnnounce(rng.randrange(16)))
        else:
            out.append(PortStatus(rng.randrange(8), rng.random() < 0.5))
    return out


def test_round_trip_random_corpus():
    for msg in _corpus():
        got = ofwire.decode(ofwire.encode(msg))
        assert got is not None and got[0] == msg


def test_encoding_injective_over_corpus():
    corpus = set(_corpus(1500))
    frames = {ofwire.encode(m) for m in corpus}
    assert len(frames) == len(corpus)


def test_split_frames_need_more_bytes():
    for msg in _corpus(40, seed=11):
        frame = ofwire.encode(msg)
        for cut in range(len(frame)):
            assert ofwire.decode(frame[:cut]) is None
        buf = ofwire.FrameBuffer()
        for cut in range(1, len(frame)):
            first = buf.feed(frame[:cut])
            assert first == []
            rest = buf.feed(frame[cut:])
            assert rest == [msg]


def test_concatenated_frames_decode_in_sequence():
    msgs = _corpus(25, seed=3)
    blob = b"".join(ofwire.encode(m) for m in msgs)
    out, off = [], 0
    while (got := ofwire.decode(blob, off)) is not None:
        msg, off = got
        out.append(msg)
    assert out == msgs
    assert off == len(blob)


def test_trailing_bytes_untouched():
    frame = ofwire.encode(BarrierReply(7))
    got = ofwire.decode(frame + b"\xde\xad")
    assert got is not None
    msg, consumed = got
    assert msg == BarrierReply(7)
    assert consumed == len(frame)


def test_unknown_tag_is_protocol_error():
    frame = bytes([0, 0, 0, 2, 0xFF, 0x00])
    with pytest.raises(ofwire.ProtocolError):
        ofwire.decode(frame)


def test_invalid_utf8_string_is_protocol_error():
    # FlowMod(MatchKey(eth_src="x"), (), 0) with the eth_src byte set to 0xff
    frame = bytes.fromhex("0000000803000101ff000000")
    with pytest.raises(ofwire.ProtocolError):
        ofwire.decode(frame)


def test_oversize_payload_rejected():
    with pytest.raises(ofwire.EncodeError):
        ofwire.encode(PacketOut((), b"x" * (ofwire.MAX_FRAME_BODY + 1)))


def test_bundle_inner_restriction():
    with pytest.raises(ofwire.ProtocolError):
        BundleAdd(1, BundleOpen(2))
    with pytest.raises(ofwire.ProtocolError):
        BundleAdd(1, BarrierRequest(0))


def test_controller_action_illegal_in_flowmod():
    with pytest.raises(ofwire.ProtocolError):
        FlowMod(MatchKey(), (Action.to_controller(),), 1)


def test_marker_round_trip():
    po = ofwire.make_commit_marker(1, [7])
    assert po.actions == (Action.to_controller(),)
    pkt = PacketIn(0, ofwire.CONTROLLER_PORT, po.payload)
    assert ofwire.parse_commit_marker(pkt) == CommitMarker(1, (7,))


def test_marker_multi_event_order():
    po = ofwire.make_commit_marker(3, [1, 2])
    got = ofwire.parse_commit_marker(PacketIn(0, 0, po.payload))
    assert got == CommitMarker(3, (1, 2))


def test_marker_none_for_plain_traffic():
    assert ofwire.parse_commit_marker(PacketIn(0, 0, b"hello")) is None


def test_marker_corrupt_payload_raises():
    po = ofwire.make_commit_marker(2, [4, 5])
    broken = PacketIn(0, 0, po.payload[:-1])
    with pytest.raises(ofwire.MarkerParseError):
        ofwire.parse_commit_marker(broken)
    with pytest.raises(ofwire.MarkerParseError):
        ofwire.parse_commit_marker(PacketIn(0, 0, ofwire.MARKER_MAGIC))


def test_marker_disjoint_from_workload_payloads():
    # workload packets start with a locally administered MAC, never the magic
    payload = ofwire.ether_payload("02:00:00:00:00:01", "02:00:00:00:00:02", b"data")
    assert ofwire.parse_commit_marker(PacketIn(0, 1, payload)) is None
    assert ofwire.parse_ether(ofwire.make_commit_marker(1, [1]).payload) is None


def test_marker_payload_bytes_are_pinned():
    assert ofwire.make_commit_marker(3, [1, 300]).payload.hex() == "454f434d030201ac02"


def test_marker_empty_ids_rejected():
    with pytest.raises(ofwire.EncodeError):
        ofwire.make_commit_marker(1, [])


def test_ether_helpers():
    p = ofwire.ether_payload("02:00:00:01:00:02", "02:00:00:01:00:03", b"x")
    assert ofwire.parse_ether(p) == ("02:00:00:01:00:02", "02:00:00:01:00:03")
    assert ofwire.parse_ether(b"short") is None


@pytest.mark.parametrize(
    "bad", ["02:00:00:01:00", "02-00-00-01-00-02", "2:0:0:1:0:2", "02:00:00:01:00:0g", "02:00:00:01:00: 2", "  :00:00:00:00:00"]
)
def test_mac_bytes_rejects_anything_but_six_hex_pairs(bad):
    with pytest.raises(ValueError):
        ofwire.mac_bytes(bad)


@settings(derandomize=True)
@given(st.binary(min_size=6, max_size=6))
def test_mac_text_is_lowercase_hex_pairs_and_round_trips(raw):
    assert ofwire.bytes_mac(raw) == ":".join(f"{b:02x}" for b in raw)
    assert ofwire.mac_bytes(ofwire.bytes_mac(raw)) == raw


# Golden frames and JSON: the wire format and the trace rendering are
# normative, so these bytes and dicts are pinned exactly.
_MK_ALL = MatchKey(1, "02:00:00:00:00:01", "02:00:00:00:00:02")
_MK_NONE_JSON = {"in_port": None, "eth_src": None, "eth_dst": None}
_MK_ALL_JSON = {"in_port": 1, "eth_src": "02:00:00:00:00:01", "eth_dst": "02:00:00:00:00:02"}
_INNER_FLOW = FlowMod(MatchKey(eth_dst="02:00:00:00:00:02"), (Action.output(1),), 1)
_INNER_FLOW_JSON = {
    "type": "FlowMod",
    "match_key": {"in_port": None, "eth_src": None, "eth_dst": "02:00:00:00:00:02"},
    "actions": [{"kind": "output", "port": 1}],
    "priority": 1,
}

GOLDEN = [
    (
        PacketIn(ofwire.NO_BUFFER, 2, b"\x02\x00\x01"),
        "0000000b01ffffffff0f0203020001",
        {"type": "PacketIn", "buffer_id": 4294967295, "in_port": 2, "payload": "020001"},
    ),
    (
        PacketOut((Action.output(3), Action.to_controller()), b"hi"),
        "000000080202010302026869",
        {"type": "PacketOut", "actions": [{"kind": "output", "port": 3}, {"kind": "controller", "port": None}], "payload": "6869"},
    ),
    (
        FlowMod(_MK_ALL, (Action.output(200), Action.drop()), 10),
        "0000002f030101011130323a30303a30303a30303a30303a3031011130323a30303a30303a30303a30303a30320201c801030a",
        {"type": "FlowMod", "match_key": _MK_ALL_JSON, "actions": [{"kind": "output", "port": 200}, {"kind": "drop", "port": None}], "priority": 10},
    ),
    (
        FlowMod(MatchKey(), (), 0),
        "00000006030000000000",
        {"type": "FlowMod", "match_key": _MK_NONE_JSON, "actions": [], "priority": 0},
    ),
    (BundleOpen(5), "000000020405", {"type": "BundleOpen", "bundle_id": 5}),
    (
        BundleAdd(5, _INNER_FLOW),
        "0000001d05051a030000011130323a30303a30303a30303a30303a303201010101",
        {"type": "BundleAdd", "bundle_id": 5, "inner": _INNER_FLOW_JSON},
    ),
    (
        BundleAdd(6, PacketOut((Action.drop(),), b"")),
        "0000000705060402010300",
        {"type": "BundleAdd", "bundle_id": 6, "inner": {"type": "PacketOut", "actions": [{"kind": "drop", "port": None}], "payload": ""}},
    ),
    (BundleCommit(5), "000000020605", {"type": "BundleCommit", "bundle_id": 5}),
    (BundleReply(5, True), "00000003070501", {"type": "BundleReply", "bundle_id": 5, "success": True}),
    (BarrierRequest(128), "00000003088001", {"type": "BarrierRequest", "xid": 128}),
    (BarrierReply(7), "000000020907", {"type": "BarrierReply", "xid": 7}),
    (RoleAnnounce(3), "000000020a03", {"type": "RoleAnnounce", "epoch": 3}),
    (PortStatus(4, False), "000000030b0400", {"type": "PortStatus", "port": 4, "up": False}),
]


_GOLDEN_IDS = [
    "packet-in", "packet-out", "flow-mod-match-all", "flow-mod-match-none", "bundle-open",
    "bundle-add-flow-mod", "bundle-add-packet-out", "bundle-commit", "bundle-reply",
    "barrier-request", "barrier-reply", "role-announce", "port-status",
]


@pytest.mark.parametrize("msg,frame_hex,as_json", GOLDEN, ids=_GOLDEN_IDS)
def test_golden_codec(msg, frame_hex, as_json):
    frame = ofwire.encode(msg)
    assert frame.hex() == frame_hex
    assert ofwire.decode(frame) == (msg, len(frame))
    got = ofwire.to_json(msg)
    assert got == as_json
    assert list(got) == list(as_json)
    assert ofwire.from_json(as_json) == msg


def test_golden_covers_every_message_type():
    assert {type(m) for m, _, _ in GOLDEN} == set(ofwire._TAGS)


def test_frame_buffer_returns_many_frames_from_one_chunk():
    msgs = [BarrierRequest(i) for i in range(1000)]
    blob = b"".join(ofwire.encode(m) for m in msgs)
    buf = ofwire.FrameBuffer()
    assert buf.feed(blob + ofwire.encode(BarrierReply(1))[:3]) == msgs
    assert buf.feed(ofwire.encode(BarrierReply(1))[3:]) == [BarrierReply(1)]


_BAD_JSON = [
    5,
    {"type": "Nope"},
    {"type": ["PacketOut"]},
    {"type": "BarrierRequest"},
    {"type": "BarrierRequest", "xid": -1},
    {"type": "BarrierRequest", "xid": "7"},
    {"type": "BundleReply", "bundle_id": 1, "success": 1},
    {"type": "RoleAnnounce", "epoch": "1"},
    {"type": "FlowMod", "match_key": {"in_port": None, "eth_src": 3, "eth_dst": None}, "actions": [], "priority": 1},
    {"type": "PacketOut", "actions": [], "payload": "zz"},
    {"type": "PacketOut", "actions": [], "payload": None},
    {"type": "PacketOut", "actions": 7, "payload": ""},
    {"type": "PacketOut", "actions": [{"kind": "output"}], "payload": ""},
    {"type": "PacketOut", "actions": ["drop"], "payload": ""},
    {"type": "FlowMod", "match_key": None, "actions": [], "priority": 1},
    {"type": "FlowMod", "match_key": {"in_port": None, "eth_src": None}, "actions": [], "priority": 1},
    {"type": "BundleAdd", "bundle_id": 1, "inner": {"type": "BundleOpen", "bundle_id": 2}},
    {"type": "BundleAdd", "bundle_id": 1, "inner": "x"},
]


@pytest.mark.parametrize("bad", _BAD_JSON)
def test_from_json_rejects_malformed_input(bad):
    with pytest.raises(ofwire.ProtocolError):
        ofwire.from_json(bad)
