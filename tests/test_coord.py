import pytest

from ftsdn.coord import (
    CoordService,
    ElectionError,
    EmptyAppend,
    NotLeader,
    ProcessedBody,
    SessionExpired,
    body_to_json,
)
from ftsdn.events import SwitchEvent
from ftsdn.trace import TraceLog


def ev(i, sw="s0", seq=None):
    return SwitchEvent(sw, seq if seq is not None else i, "packet-in", None, event_id=i)


def recorder(pushes):
    """A watch callback that keeps each push as ``(first_seq, bodies)``."""
    return lambda first, bodies: pushes.append((first, bodies))


def seqs(pushes):
    """The seq of every entry in a watch's pushes, one list per push."""
    return [list(range(first, first + len(bodies))) for first, bodies in pushes]


def make_leader(svc, owner="c0", timeout=500.0):
    sid = svc.open_session(owner, timeout, now=0.0)
    svc.enroll(sid, owner, now=0.0)
    return sid


def test_append_batch_atomic_and_contiguous():
    svc = CoordService()
    sid = make_leader(svc)
    seen = []
    svc.subscribe(1, recorder(seen))
    lo, hi = svc.append(sid, svc.epoch, [ev(1), ev(2), ev(3)], now=1.0)
    assert (lo, hi) == (1, 3)
    assert seqs(seen) == [[1, 2, 3]]
    assert [b.event_id for b in seen[0][1]] == [1, 2, 3]


def test_the_log_holds_the_appended_bodies_and_a_watch_gets_the_first_seq():
    svc = CoordService()
    sid = make_leader(svc)
    bodies = [ev(1), ProcessedBody(1), ev(2)]
    svc.append(sid, svc.epoch, bodies, now=1.0)
    assert len(svc.log) == len(bodies)
    for i, body in enumerate(bodies):
        assert svc.log[i] is body
    pushes = []
    svc.subscribe(2, recorder(pushes))
    assert pushes == [(2, svc.log[1:])]
    assert all(a is b for a, b in zip(pushes[0][1], bodies[1:]))


def test_one_append_reaches_each_watch_as_one_call():
    svc = CoordService()
    sid = make_leader(svc)
    svc.append(sid, 1, [ev(1), ev(2)], now=1.0)
    early, late = [], []
    svc.subscribe(1, recorder(early))
    svc.append(sid, 1, [ev(3), ProcessedBody(1), ev(4)], now=2.0)
    svc.subscribe(2, recorder(late))  # a late watch gets its whole backlog at once
    assert seqs(early) == [[1, 2], [3, 4, 5]]
    assert seqs(late) == [[2, 3, 4, 5]]
    svc.append(sid, 1, [ev(5), ev(6)], now=3.0)
    assert seqs(early)[-1] == seqs(late)[-1] == [6, 7]
    assert len(early) == 3 and len(late) == 2


def test_empty_append_rejected():
    svc = CoordService()
    sid = make_leader(svc)
    with pytest.raises(EmptyAppend):
        svc.append(sid, svc.epoch, [], now=1.0)
    assert svc.log == []


def test_deposed_leader_append_fenced():
    svc = CoordService()
    s0 = make_leader(svc, "c0", timeout=100.0)
    s1 = svc.open_session("c1", 1000.0, now=0.0)
    svc.enroll(s1, "c1", now=0.0)
    svc.append(s0, 1, [ev(1)], now=10.0)
    svc.heartbeat(s1, 150.0)
    svc.check_expiry(150.0)  # c0 missed its heartbeat; c1 takes over with epoch 2
    assert svc.leader == "c1"
    assert svc.epoch == 2
    with pytest.raises(SessionExpired):
        svc.append(s0, 1, [ev(2)], now=151.0)
    assert len(svc.log) == 1


def test_stale_epoch_append_fenced_for_live_session():
    svc = CoordService()
    s0 = make_leader(svc, "c0")
    s1 = svc.open_session("c1", 500.0, now=0.0)
    svc.enroll(s1, "c1", now=0.0)
    svc.resign(s0)  # leadership moves while c0's session stays live
    assert svc.leader == "c1" and svc.epoch == 2
    with pytest.raises(NotLeader):
        svc.append(s0, 1, [ev(1)], now=1.0)
    with pytest.raises(NotLeader):
        svc.append(s1, 1, [ev(1)], now=1.0)  # right leader, stale epoch
    svc.append(s1, 2, [ev(1)], now=1.0)
    assert len(svc.log) == 1


def test_non_leader_append_rejected():
    svc = CoordService()
    make_leader(svc, "c0")
    s1 = svc.open_session("c1", 500.0, now=0.0)
    svc.enroll(s1, "c1", now=0.0)
    with pytest.raises(NotLeader):
        svc.append(s1, svc.epoch, [ev(1)], now=1.0)


def test_watch_catch_up_then_live_tail():
    svc = CoordService()
    sid = make_leader(svc)
    for i in range(1, 6):
        svc.append(sid, 1, [ev(i)], now=1.0)
    seen = []
    svc.subscribe(1, recorder(seen))
    assert seqs(seen) == [[1, 2, 3, 4, 5]]
    svc.append(sid, 1, [ev(6)], now=2.0)
    assert seqs(seen)[-1] == [6]


def test_two_subscribers_identical_streams():
    svc = CoordService()
    sid = make_leader(svc)
    a, b = [], []
    svc.subscribe(1, lambda first, bodies: a.extend(enumerate(bodies, start=first)))
    svc.append(sid, 1, [ev(1), ev(2)], now=1.0)
    svc.subscribe(1, lambda first, bodies: b.extend(enumerate(bodies, start=first)))
    svc.append(sid, 1, [ev(3), ProcessedBody(1)], now=2.0)
    assert [(seq, body_to_json(body)) for seq, body in a] == [(seq, body_to_json(body)) for seq, body in b]
    assert [seq for seq, _ in a] == [1, 2, 3, 4]


def test_slow_subscriber_sees_everything_in_order():
    svc = CoordService()
    sid = make_leader(svc)
    queue: list[SwitchEvent] = []
    svc.subscribe(1, lambda first, bodies: queue.extend(bodies))  # consumer drains lazily; order must hold
    for i in range(1, 21):
        svc.append(sid, 1, [ev(i)], now=float(i))
    drained = [queue.pop(0).event_id for _ in range(len(queue))]
    assert drained == list(range(1, 21))


def test_watch_from_mid_sequence():
    svc = CoordService()
    sid = make_leader(svc)
    for i in range(1, 6):
        svc.append(sid, 1, [ev(i)], now=1.0)
    seen = []
    svc.subscribe(3, recorder(seen))
    assert seqs(seen) == [[3, 4, 5]]


def test_expiry_fires_once_and_is_irrevocable():
    log = TraceLog(clock=lambda: 0.0)
    svc = CoordService(trace=log)
    sid = svc.open_session("c0", 100.0, now=0.0)
    assert svc.check_expiry(50.0) == []
    assert svc.check_expiry(101.0) == ["c0"]
    assert svc.check_expiry(102.0) == []
    with pytest.raises(SessionExpired):
        svc.heartbeat(sid, 103.0)
    assert [r for r in log.as_dicts() if r["kind"] == "session-expired"] == [
        {"kind": "session-expired", "actor": "coord", "timestamp": 0.0, "detail": {"controller": "c0"}}
    ]


def test_regular_heartbeats_never_expire():
    svc = CoordService()
    sid = svc.open_session("c0", 90.0, now=0.0)
    now = 0.0
    for _ in range(100):
        now += 30.0  # timeout / 3
        svc.heartbeat(sid, now)
        assert svc.check_expiry(now) == []


def test_first_candidate_becomes_leader():
    svc = CoordService()
    events = []
    svc.watch_leadership(lambda l, e, n: events.append((l, e, n)))
    sid = svc.open_session("c0", 500.0, now=0.0)
    svc.enroll(sid, "c0", now=0.0)
    assert events == [("c0", 1, 0)]


def test_leader_expiry_promotes_survivor():
    svc = CoordService()
    s0 = svc.open_session("c0", 100.0, now=0.0)
    s1 = svc.open_session("c1", 1000.0, now=0.0)
    svc.enroll(s0, "c0", now=0.0)
    svc.enroll(s1, "c1", now=0.0)
    events = []
    svc.watch_leadership(lambda l, e, n: events.append((l, e)))
    assert events == [("c0", 1)]
    svc.heartbeat(s1, 200.0)
    svc.check_expiry(200.0)
    assert events[-1] == ("c1", 2)


def test_succession_is_arrival_ordered():
    svc = CoordService()
    sids = {}
    for c in ("c0", "c1", "c2"):
        sids[c] = svc.open_session(c, 100.0 if c == "c0" else 1000.0, now=0.0)
        svc.enroll(sids[c], c, now=0.0)
    svc.heartbeat(sids["c1"], 150.0)
    svc.heartbeat(sids["c2"], 150.0)
    svc.check_expiry(150.0)
    assert svc.leader == "c1"  # not c2: survivors keep arrival order
    assert svc.epoch == 2


def test_duplicate_candidacy_rejected():
    svc = CoordService()
    sid = make_leader(svc)
    with pytest.raises(ElectionError):
        svc.enroll(sid, "c0", now=0.0)


def test_epochs_strictly_increase():
    svc = CoordService()
    seen = []
    svc.watch_leadership(lambda l, e, n: seen.append(e))
    s0 = svc.open_session("c0", 500.0, now=0.0)
    s1 = svc.open_session("c1", 500.0, now=0.0)
    svc.enroll(s0, "c0", now=0.0)
    svc.enroll(s1, "c1", now=0.0)
    svc.resign(s0)
    svc.enroll(s0, "c0", now=10.0)
    svc.resign(s1)
    assert seen == sorted(seen) and len(set(seen)) == len(seen)


def test_next_deadline_tracks_earliest_session():
    svc = CoordService()
    svc.open_session("c0", 100.0, now=0.0)
    svc.open_session("c1", 50.0, now=0.0)
    assert svc.next_deadline() == 50.0
    svc.check_expiry(60.0)
    assert svc.next_deadline() == 100.0
