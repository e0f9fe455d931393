"""Switch-originated events as seen by controller replicas.

Every event carries an occurrence key ``(switch_id, switch_seq)`` that is
identical at all replicas, so a buffered copy can be matched against the
shared log. One rule numbers them: ``switch_seq`` is the message's 1-based
arrival count among the PacketIns (commit markers included) and PortStatus
messages on the switch's connection since the replica bound it. Replicas
bind every switch before its first message, and it sends each on every
connection in one order, so the counts agree. A switch failure has
``SWITCH_FAILURE_SEQ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from . import ofwire

KIND_PACKET_IN = "packet-in"
KIND_PORT_STATUS = "port-status"
KIND_SWITCH_FAILURE = "switch-failure"

SWITCH_FAILURE_SEQ = -1

_REQUIRED_FIELDS = frozenset({"switch_id", "switch_seq", "kind"})


@dataclass
class SwitchEvent:
    switch_id: str
    switch_seq: int
    kind: str
    message: ofwire.OfMessage | None
    event_id: int | None = None  # master-assigned total-order id, None until assigned

    @property
    def occurrence(self) -> tuple[str, int]:
        return (self.switch_id, self.switch_seq)

    def to_json(self) -> dict:
        return {
            "event_id": self.event_id,
            "switch_id": self.switch_id,
            "switch_seq": self.switch_seq,
            "kind": self.kind,
            "message": ofwire.to_json(self.message) if self.message is not None else None,
        }

    @staticmethod
    def from_json(d: dict) -> "SwitchEvent":
        """Rebuild an event from its ``to_json`` form; raises
        :class:`ofwire.ProtocolError` when a required field is missing."""
        missing = _REQUIRED_FIELDS - d.keys()
        if missing:
            raise ofwire.ProtocolError(f"switch event lacks {sorted(missing)}")
        msg = ofwire.from_json(d["message"]) if d.get("message") is not None else None
        return SwitchEvent(d["switch_id"], d["switch_seq"], d["kind"], msg, d.get("event_id"))


# What a node built without a trace writes to: it keeps nothing. It sits here,
# below the nodes and below ``trace``, which imports ``coord``.
NULL_TRACE = SimpleNamespace(emit=lambda kind, actor, **fields: None)
