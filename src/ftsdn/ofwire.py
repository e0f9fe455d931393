"""OpenFlow-subset message model and wire codec.

Messages travel between controllers and switches either as in-memory objects
(deterministic transport) or as binary frames (socket transport). The frame
layout is normative for socket mode:

    4 bytes   big-endian frame length N (variant tag + payload)
    1 byte    variant tag
    N-1 bytes variant payload

Integers are unsigned LEB128 varints, byte/character strings are
varint-length prefixed, optional fields carry a one-byte presence flag, and
lists a varint element count. The JSON rendering produced by ``to_json`` is
normative for trace files. The socket transport's coordination link uses the
same framing, with a JSON message as the body.

Each message's payload is its dataclass fields in declaration order, and its
JSON object is ``type`` followed by the same fields in the same order. Each
field's annotation picks one entry of ``_FIELD_CODECS``, which holds the
binary and JSON forms of that type. To add a message, declare a frozen
dataclass and give it a tag in ``_TAGS``; a field of a new type also needs a
``_FIELD_CODECS`` entry. As in OpenFlow 1.3, the connection names the switch
and the controller, so no message names either, and no PacketIn is numbered.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

MAX_FRAME_BODY = 1 << 24

# Reserved OpenFlow-style port numbers used by the simulator.
FLOOD_PORT = 0xFFFB
CONTROLLER_PORT = 0xFFFD
NO_BUFFER = 0xFFFFFFFF

# Commit markers are PacketOut payloads with this prefix; the tag is reserved
# and workload packet generators must never emit payloads starting with it.
MARKER_MAGIC = b"EOCM"


class OfwireError(Exception):
    pass


class ProtocolError(OfwireError):
    """Malformed or unknown bytes on the wire."""


class EncodeError(OfwireError):
    """Message violates an encoding precondition (e.g. oversize payload)."""


class MarkerParseError(OfwireError):
    """Payload carries the marker magic but the rest does not parse."""


@dataclass(frozen=True)
class Action:
    kind: str  # "output" | "controller" | "drop"
    port: int | None = None

    @staticmethod
    def output(port: int) -> "Action":
        return Action("output", port)

    @staticmethod
    def to_controller() -> "Action":
        return Action("controller")

    @staticmethod
    def drop() -> "Action":
        return Action("drop")


@dataclass(frozen=True)
class MatchKey:
    in_port: int | None = None
    eth_src: str | None = None
    eth_dst: str | None = None

    def matches(self, in_port: int, eth_src: str | None, eth_dst: str | None) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_src is not None and self.eth_src != eth_src:
            return False
        if self.eth_dst is not None and self.eth_dst != eth_dst:
            return False
        return True


@dataclass(frozen=True)
class PacketIn:
    buffer_id: int
    in_port: int
    payload: bytes


@dataclass(frozen=True)
class PacketOut:
    actions: tuple[Action, ...]
    payload: bytes


@dataclass(frozen=True)
class FlowMod:
    match_key: MatchKey
    actions: tuple[Action, ...]
    priority: int

    def __post_init__(self) -> None:
        for a in self.actions:
            if a.kind == "controller":
                raise ProtocolError("output-to-controller is only legal inside PacketOut")


@dataclass(frozen=True)
class BundleOpen:
    bundle_id: int


@dataclass(frozen=True)
class BundleAdd:
    bundle_id: int
    inner: PacketOut | FlowMod

    def __post_init__(self) -> None:
        if not isinstance(self.inner, (PacketOut, FlowMod)):
            raise ProtocolError("bundle inner message must be PacketOut or FlowMod")


@dataclass(frozen=True)
class BundleCommit:
    bundle_id: int


@dataclass(frozen=True)
class BundleReply:
    bundle_id: int
    success: bool


@dataclass(frozen=True)
class BarrierRequest:
    xid: int


@dataclass(frozen=True)
class BarrierReply:
    xid: int


@dataclass(frozen=True)
class RoleAnnounce:
    epoch: int


@dataclass(frozen=True)
class PortStatus:
    port: int
    up: bool


OfMessage = (
    PacketIn
    | PacketOut
    | FlowMod
    | BundleOpen
    | BundleAdd
    | BundleCommit
    | BundleReply
    | BarrierRequest
    | BarrierReply
    | RoleAnnounce
    | PortStatus
)

_TAGS: dict[type, int] = {
    PacketIn: 1,
    PacketOut: 2,
    FlowMod: 3,
    BundleOpen: 4,
    BundleAdd: 5,
    BundleCommit: 6,
    BundleReply: 7,
    BarrierRequest: 8,
    BarrierReply: 9,
    RoleAnnounce: 10,
    PortStatus: 11,
}
_BY_TAG = {tag: cls for cls, tag in _TAGS.items()}


# ---------------------------------------------------------------------------
# primitive codecs


def _put_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise EncodeError(f"cannot encode negative integer {value}")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _get_uvarint(data: bytes, off: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if off >= len(data):
            raise ProtocolError("truncated varint")
        if shift > 63:
            raise ProtocolError("varint overflow")
        b = data[off]
        off += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, off
        shift += 7


def _put_bytes(out: bytearray, value: bytes) -> None:
    _put_uvarint(out, len(value))
    out.extend(value)


def _get_bytes(data: bytes, off: int) -> tuple[bytes, int]:
    n, off = _get_uvarint(data, off)
    if off + n > len(data):
        raise ProtocolError("truncated byte field")
    return data[off : off + n], off + n


def _put_str(out: bytearray, value: str) -> None:
    _put_bytes(out, value.encode("utf-8"))


def _get_str(data: bytes, off: int) -> tuple[str, int]:
    raw, off = _get_bytes(data, off)
    try:
        return raw.decode("utf-8"), off
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"string field is not UTF-8: {exc}") from exc


def _put_bool(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _get_bool(data: bytes, off: int) -> tuple[bool, int]:
    if off >= len(data):
        raise ProtocolError("truncated bool")
    b = data[off]
    if b not in (0, 1):
        raise ProtocolError(f"invalid bool byte {b:#x}")
    return bool(b), off + 1


_ACTION_TAGS = {"output": 1, "controller": 2, "drop": 3}
_ACTION_BY_TAG = {tag: kind for kind, tag in _ACTION_TAGS.items()}


def _put_action(out: bytearray, action: Action) -> None:
    tag = _ACTION_TAGS.get(action.kind)
    if tag is None:
        raise EncodeError(f"unknown action kind {action.kind!r}")
    out.append(tag)
    if action.kind == "output":
        _put_uvarint(out, action.port or 0)


def _get_action(data: bytes, off: int) -> tuple[Action, int]:
    if off >= len(data):
        raise ProtocolError("truncated action")
    kind = _ACTION_BY_TAG.get(data[off])
    if kind is None:
        raise ProtocolError(f"unknown action tag {data[off]:#x}")
    off += 1
    if kind != "output":
        return Action(kind), off
    port, off = _get_uvarint(data, off)
    return Action(kind, port), off


# ---------------------------------------------------------------------------
# field codecs: one entry per field type, each message's fields from its
# dataclass


class _Codec(NamedTuple):
    put: Callable[[bytearray, Any], None]
    get: Callable[[bytes, int], tuple[Any, int]]
    to_json: Callable[[Any], Any]
    from_json: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def _checked(what: str, ok: Callable[[Any], bool]) -> Callable[[Any], Any]:
    def from_json(value: Any) -> Any:
        if not ok(value):
            raise ProtocolError(f"expected {what}, got {value!r}")
        return value

    return from_json


def _hex_from_json(value: Any) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"expected a hex string, got {value!r}") from exc


def _optional(codec: _Codec) -> _Codec:
    def put(out: bytearray, value: Any) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            codec.put(out, value)

    def get(data: bytes, off: int) -> tuple[Any, int]:
        present, off = _get_bool(data, off)
        return codec.get(data, off) if present else (None, off)

    return _Codec(
        put,
        get,
        lambda v: None if v is None else codec.to_json(v),
        lambda v: None if v is None else codec.from_json(v),
    )


def _tuple_of(codec: _Codec) -> _Codec:
    def put(out: bytearray, values: tuple) -> None:
        _put_uvarint(out, len(values))
        for v in values:
            codec.put(out, v)

    def get(data: bytes, off: int) -> tuple[tuple, int]:
        n, off = _get_uvarint(data, off)
        items = []
        for _ in range(n):
            item, off = codec.get(data, off)
            items.append(item)
        return tuple(items), off

    def from_json(values: Any) -> tuple:
        if type(values) is not list:
            raise ProtocolError(f"expected a list, got {values!r}")
        return tuple(codec.from_json(v) for v in values)

    return _Codec(put, get, lambda values: [codec.to_json(v) for v in values], from_json)


def _get_inner(data: bytes, off: int) -> tuple[OfMessage, int]:
    raw, off = _get_bytes(data, off)
    return decode_body(raw), off


# Keyed by annotation text: ``from __future__ import annotations`` keeps
# every dataclass field type as a string.
_FIELD_CODECS: dict[str, _Codec] = {
    "int": _Codec(_put_uvarint, _get_uvarint, _same, _checked("unsigned int", lambda v: type(v) is int and v >= 0)),
    "str": _Codec(_put_str, _get_str, _same, _checked("str", lambda v: type(v) is str)),
    "bool": _Codec(_put_bool, _get_bool, _same, _checked("bool", lambda v: type(v) is bool)),
    "bytes": _Codec(_put_bytes, _get_bytes, lambda v: v.hex(), _hex_from_json),
    # A bundled message is a nested frame body; BundleAdd rejects other types.
    # The lambdas look up to_json/from_json, defined below, at call time.
    "PacketOut | FlowMod": _Codec(
        lambda out, m: _put_bytes(out, encode_body(m)),
        _get_inner,
        lambda m: to_json(m),
        lambda d: from_json(d),
    ),
}


def _field_codec(annotation: str) -> _Codec:
    if annotation.endswith(" | None"):
        return _optional(_field_codec(annotation[: -len(" | None")]))
    return _FIELD_CODECS[annotation]


def _record(cls: type) -> _Codec:
    """Codec for a dataclass: its fields in declaration order, as a JSON object."""
    spec = tuple((f.name, _field_codec(f.type)) for f in fields(cls))
    puts = tuple((name, c.put) for name, c in spec)
    gets = tuple(c.get for _, c in spec)
    to_jsons = tuple((name, c.to_json) for name, c in spec)
    from_jsons = tuple((name, c.from_json) for name, c in spec)

    def put(out: bytearray, obj: Any) -> None:
        for name, put_field in puts:
            put_field(out, getattr(obj, name))

    def get(data: bytes, off: int) -> tuple[Any, int]:
        values = []
        for get_field in gets:
            value, off = get_field(data, off)
            values.append(value)
        return cls(*values), off

    def to_json(obj: Any) -> dict:
        return {name: field_json(getattr(obj, name)) for name, field_json in to_jsons}

    def from_json(d: Any) -> Any:
        if type(d) is not dict:
            raise ProtocolError(f"{cls.__name__} must be a JSON object, got {d!r}")
        values = []
        for name, field_from_json in from_jsons:
            if name not in d:
                raise ProtocolError(f"{cls.__name__} lacks field {name!r}")
            values.append(field_from_json(d[name]))
        return cls(*values)

    return _Codec(put, get, to_json, from_json)


_ACTION_JSON = _record(Action)  # actions keep their own tagged wire form
_FIELD_CODECS["tuple[Action, ...]"] = _tuple_of(
    _Codec(_put_action, _get_action, _ACTION_JSON.to_json, _ACTION_JSON.from_json)
)
_FIELD_CODECS["tuple[int, ...]"] = _tuple_of(_FIELD_CODECS["int"])
_FIELD_CODECS["MatchKey"] = _record(MatchKey)
_BODIES: dict[type, _Codec] = {cls: _record(cls) for cls in _TAGS}
_BY_NAME: dict[str, type] = {cls.__name__: cls for cls in _TAGS}


# ---------------------------------------------------------------------------
# message body codecs


def encode_body(msg: OfMessage) -> bytes:
    """A frame body: the variant tag, then the payload. The compact form of a
    message that a trace record stores, too."""
    tag = _TAGS.get(type(msg))
    if tag is None:
        raise EncodeError(f"not an OfMessage: {msg!r}")
    out = bytearray((tag,))
    _BODIES[type(msg)].put(out, msg)
    return bytes(out)


def decode_body(body: bytes) -> OfMessage:
    """The message ``encode_body`` encoded; raises :class:`ProtocolError` on bad bytes."""
    if not body:
        raise ProtocolError("empty frame body")
    cls = _BY_TAG.get(body[0])
    if cls is None:
        raise ProtocolError(f"unknown message tag {body[0]:#x}")
    msg, off = _BODIES[cls].get(body, 1)
    if off != len(body):
        raise ProtocolError(f"{len(body) - off} trailing bytes inside frame body")
    return msg


def frame(body: bytes) -> bytes:
    """A self-delimiting frame: the body's length, then the body."""
    if len(body) > MAX_FRAME_BODY:
        raise EncodeError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BODY}")
    return struct.pack(">I", len(body)) + body


def encode(msg: OfMessage) -> bytes:
    """Encode one message as a self-delimiting frame. Deterministic."""
    return frame(encode_body(msg))


def _frame_end(data: bytes, offset: int) -> int | None:
    """The offset just past the frame that starts at ``offset``, or ``None``
    when the buffer does not yet hold all of it."""
    if len(data) - offset < 4:
        return None
    (length,) = struct.unpack_from(">I", data, offset)
    if length > MAX_FRAME_BODY:
        raise ProtocolError(f"declared frame body of {length} bytes exceeds limit")
    end = offset + 4 + length
    return end if len(data) >= end else None


def decode(data: bytes, offset: int = 0, decode_body: Callable[[bytes], Any] = decode_body) -> tuple[Any, int] | None:
    """Decode one frame starting at ``offset``, its body by ``decode_body``.

    Returns ``(message, next_offset)``, leaving trailing bytes untouched, or
    ``None`` when the buffer does not yet hold a complete frame.
    """
    end = _frame_end(data, offset)
    if end is None:
        return None
    return decode_body(data[offset + 4 : end]), end


class FrameBuffer:
    """Incremental frame reassembly for stream transports; ``decode_body``
    turns each frame's body into a message."""

    def __init__(self, decode_body: Callable[[bytes], Any] = decode_body) -> None:
        self._buf = b""  # the start of a frame that has not fully arrived
        self._decode_body = decode_body

    def feed(self, data: bytes) -> list:
        buf = self._buf + data if self._buf else data  # most reads end on a frame boundary: no copy
        msgs = []
        off = 0
        while _frame_end(buf, off) is not None:  # decode only a frame that has fully arrived
            msg, off = decode(buf, off, self._decode_body)
            msgs.append(msg)
        self._buf = buf[off:]
        return msgs


# ---------------------------------------------------------------------------
# commit markers


@dataclass(frozen=True)
class CommitMarker:
    """Payload the master appends at the end of every bundle.

    The switch echoes it back to all connected controllers as a PacketIn, so
    even replicas that did not issue the commit learn which event's commands
    the switch executed, and under which master epoch. The payload is
    ``MARKER_MAGIC``, then this dataclass in the message codec's binary form.
    """

    master_epoch: int
    event_ids: tuple[int, ...]


_MARKER = _record(CommitMarker)


def make_commit_marker(epoch: int, event_ids: list[int] | tuple[int, ...]) -> PacketOut:
    if not event_ids:
        raise EncodeError("commit marker must cover at least one event")
    out = bytearray(MARKER_MAGIC)
    _MARKER.put(out, CommitMarker(epoch, tuple(event_ids)))
    return PacketOut(actions=(Action.to_controller(),), payload=bytes(out))


def parse_commit_marker(msg: PacketIn | PacketOut) -> CommitMarker | None:
    """Parse a marker out of a PacketIn (or the PacketOut that produced it).

    Returns ``None`` for ordinary traffic whose payload lacks the magic tag;
    raises :class:`MarkerParseError` when the tag is present but the payload
    is corrupt.
    """
    payload = msg.payload
    if not payload.startswith(MARKER_MAGIC):
        return None
    try:
        marker, off = _MARKER.get(payload, len(MARKER_MAGIC))
        if not marker.event_ids:
            raise ProtocolError("marker with zero events")
        if off != len(payload):
            raise ProtocolError("trailing bytes after marker")
    except ProtocolError as exc:
        raise MarkerParseError(str(exc)) from exc
    return marker


# ---------------------------------------------------------------------------
# JSON rendering (normative for trace files)


def to_json(msg: OfMessage) -> dict:
    body = _BODIES.get(type(msg))
    if body is None:
        raise EncodeError(f"not an OfMessage: {msg!r}")
    return {"type": type(msg).__name__, **body.to_json(msg)}


def from_json(d: dict) -> OfMessage:
    """Rebuild a message from its ``to_json`` form; raises :class:`ProtocolError`
    on any unknown type, missing field, wrongly typed value or bad hex."""
    t = d.get("type") if type(d) is dict else None
    cls = _BY_NAME.get(t) if type(t) is str else None
    if cls is None:
        raise ProtocolError(f"unknown message type {t!r}")
    return _BODIES[cls].from_json(d)


# ---------------------------------------------------------------------------
# workload packet helpers (ethernet-like: 6-byte dst MAC, 6-byte src MAC, body)


def mac_bytes(mac: str) -> bytes:
    """Parse six colon-separated two-digit hex bytes, the form ``bytes_mac`` writes."""
    raw = bytes.fromhex(mac.replace(":", "")) if mac[2::3] == ":::::" else b""
    if len(mac) != 17 or len(raw) != 6:  # fromhex skips whitespace
        raise ValueError(f"bad MAC {mac!r}")
    return raw


def bytes_mac(raw: bytes) -> str:
    return raw.hex(":")


def ether_payload(dst: str, src: str, body: bytes = b"") -> bytes:
    return mac_bytes(dst) + mac_bytes(src) + body


def parse_ether(payload: bytes) -> tuple[str, str] | None:
    """Extract (eth_dst, eth_src) from a workload packet, or None."""
    if len(payload) < 12 or payload.startswith(MARKER_MAGIC):
        return None
    return bytes_mac(payload[:6]), bytes_mac(payload[6:12])
