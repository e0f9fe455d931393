"""Direct tests of the deterministic transport: scheduler, executor, channel."""

import random
from types import SimpleNamespace

from ftsdn.harness.runtime_det import Channel, Crashed, Executor, Scheduler

from latency_pins import pin_latencies


def test_events_at_equal_times_run_in_schedule_order():
    sched = Scheduler(seed=1)
    ran = []
    for name in "abcde":
        sched.schedule_at(5.0, lambda name=name: ran.append(name))
    sched.schedule_at(1.0, lambda: ran.append("early"))
    assert sched.run(until=100.0)
    assert ran == ["early", "a", "b", "c", "d", "e"]
    assert sched.now == 5.0


def test_double_cancel_lowers_live_work_once():
    sched = Scheduler(seed=1)
    ran = []
    handle = sched.schedule_at(1.0, lambda: ran.append("cancelled"))
    sched.schedule_at(2.0, lambda: ran.append("live"))
    sched.cancel(handle)
    sched.cancel(handle)
    # With one live event left, quiescence must wait for it to run; a second
    # decrement would report quiescence at once and leave it queued.
    assert sched.run(until=100.0, quiescent=lambda: True)
    assert ran == ["live"]


def test_maintenance_timers_do_not_stop_quiescence():
    sched = Scheduler(seed=1)
    ticks = []

    def heartbeat() -> None:
        ticks.append(sched.now)
        sched.schedule_at(sched.now + 1.0, heartbeat, maintenance=True)

    sched.schedule_at(0.0, heartbeat, maintenance=True)
    sched.schedule_at(3.5, lambda: ticks.append("work"))
    assert sched.run(until=1000.0, quiescent=lambda: True)
    # the run stops as soon as the last live event is done, not at the deadline
    assert "work" in ticks
    assert sched.now < 10.0
    # a predicate that never holds runs the timers to the deadline and fails
    assert not sched.run(until=50.0, quiescent=lambda: False)
    assert 49.0 <= sched.now <= 50.0


def test_crashed_raised_by_a_handler_is_swallowed():
    sched = Scheduler(seed=1)
    ran = []

    def dies() -> None:
        ran.append("dies")
        raise Crashed()

    sched.schedule_at(1.0, dies)
    sched.schedule_at(2.0, lambda: ran.append("after"))
    assert sched.run(until=100.0)
    assert ran == ["dies", "after"]


def test_channel_directions_are_fifo_with_minimal_spacing():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    latencies = iter([5.0, 1.0, 1.0, 2.0, 0.5])
    sched.latency = lambda src, dst, n: next(latencies)
    chan = Channel(sched, a, b)
    got = {0: [], 1: []}
    chan.ends[0].on_message = lambda msg: got[0].append((msg, sched.now))
    chan.ends[1].on_message = lambda msg: got[1].append((msg, sched.now))

    def send_from_a() -> None:
        chan.ends[0].send("a1")  # latency 5.0
        chan.ends[0].send("a2")  # latency 1.0, held behind a1
        chan.ends[0].send("a3")  # latency 1.0, held behind a2

    def send_from_b() -> None:
        chan.ends[1].send("b1")  # latency 2.0
        chan.ends[1].send("b2")  # latency 0.5, held behind b1

    sched.schedule_at(0.0, send_from_a)
    sched.schedule_at(0.0, send_from_b)
    sched.run(until=100.0)
    assert got[1] == [("a1", 5.0), ("a2", 5.0 + 1e-9), ("a3", 5.0 + 1e-9 + 1e-9)]
    # the other direction keeps its own order and is not held behind a1
    assert got[0] == [("b1", 2.0), ("b2", 2.0 + 1e-9)]


def test_channel_close_reaches_the_peer_after_in_flight_messages():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    sched.latency = lambda src, dst, n: 3.0
    chan = Channel(sched, a, b)
    seen = []
    chan.ends[1].on_message = lambda msg: seen.append(("msg", msg, sched.now))
    chan.ends[1].on_close = lambda: seen.append(("close", sched.now))

    def send_and_close() -> None:
        chan.ends[0].send("last")
        chan.ends[0].close()
        chan.ends[0].send("dropped")

    sched.schedule_at(0.0, send_and_close)
    sched.run(until=100.0)
    assert seen == [("msg", "last", 3.0), ("close", 3.0 + 1e-6)]


def test_busy_until_follows_the_cost_model():
    sched = Scheduler(seed=1)
    a, ex = Executor(sched, "a"), Executor(sched, "x")
    sched.latency = lambda src, dst, n: 1.0
    chan = Channel(sched, a, ex)
    starts = []

    def handler(msg: tuple[float, float]) -> None:
        starts.append(ex.now())
        ex.debit(msg[0])

    # each message is (extra work its handler debits, its receive cost)
    chan.ends[1].recv_cost = lambda msg: msg[1]
    chan.ends[1].on_message = handler
    sched.schedule_at(0.0, lambda: chan.ends[0].send((1.0, 2.0)))
    # arrives at 2.0 while the executor is still busy, so it starts at 4.0
    sched.schedule_at(1.0, lambda: chan.ends[0].send((0.0, 3.0)))
    # arrives at 11.0 after the executor went idle, so it starts on arrival
    sched.schedule_at(10.0, lambda: chan.ends[0].send((0.0, 0.5)))
    sched.run(until=100.0)
    # inside a handler now() is its start plus the receive cost
    assert starts == [3.0, 7.0, 11.5]
    assert ex.busy_until == 11.5
    assert ex.now() == sched.now == 11.0


def test_send_cost_delays_departure_and_dead_executors_run_nothing():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    sched.latency = lambda src, dst, n: 1.0
    chan = Channel(sched, a, b)
    chan.ends[0].send_cost = lambda msg: 4.0
    chan.ends[1].recv_cost = lambda msg: 0.25
    seen = []
    chan.ends[1].on_message = lambda msg: seen.append((msg, sched.now, b.now()))

    a.post(lambda: chan.ends[0].send("m"), arrive=0.0)
    sched.run(until=100.0)
    # departs after the 4 ms send cost, arrives 1 ms later, costs 0.25 ms to receive
    assert seen == [("m", 5.0, 5.25)]
    assert b.busy_until == 5.25

    b.kill()
    a.post(lambda: chan.ends[0].send("lost"), arrive=20.0)
    sched.run(until=100.0)
    assert seen == [("m", 5.0, 5.25)]


def test_a_handlers_sends_to_one_peer_arrive_as_one_delivery():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    draws = []

    def latency(src: str, dst: str, n: int) -> float:
        draws.append((src, dst, n))
        return 2.0

    sched.latency = latency
    chan = Channel(sched, a, b)
    chan.ends[1].recv_cost = {"m1": 0.5, "m2": 0.25, "m3": 1.0}.__getitem__
    seen = []
    chan.ends[1].on_message = lambda msg: seen.append((msg, sched.now, b.now()))

    def sends() -> None:
        for msg in ("m1", "m2", "m3"):
            chan.ends[0].send(msg)

    a.post(sends, arrive=0.0)
    sched.run(until=100.0)
    # one arrival time, and one handler on b charged the summed receive cost
    assert draws == [("a", "b", 3)]  # one latency draw for the three
    assert seen == [("m1", 2.0, 3.75), ("m2", 2.0, 3.75), ("m3", 2.0, 3.75)]
    assert b.busy_until == 3.75


def test_sends_to_two_peers_make_two_deliveries():
    sched = Scheduler(seed=1)
    a, b, c = Executor(sched, "a"), Executor(sched, "b"), Executor(sched, "c")
    sched.latency = lambda src, dst, n: {"b": 1.0, "c": 3.0}[dst]
    to_b, to_c = Channel(sched, a, b), Channel(sched, a, c)
    got = []
    to_b.ends[1].on_message = lambda msg: got.append((msg, sched.now))
    to_c.ends[1].on_message = lambda msg: got.append((msg, sched.now))
    scheduled = []
    schedule_at = sched.schedule_at

    def counted(when, fn, maintenance=False):
        scheduled.append(when)
        return schedule_at(when, fn, maintenance)

    sched.schedule_at = counted

    def sends() -> None:
        to_b.ends[0].send("b1")
        to_c.ends[0].send("c1")
        to_b.ends[0].send("b2")

    a.post(sends, arrive=0.0)
    sched.run(until=100.0)
    assert got == [("b1", 1.0), ("b2", 1.0), ("c1", 3.0)]
    assert scheduled == [0.0, 1.0, 3.0]  # the handler, then one delivery per peer


def test_a_node_killed_in_a_handler_delivers_its_sends_before_the_close():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    sched.latency = lambda src, dst, n: 3.0
    chan = Channel(sched, a, b)
    seen = []
    chan.ends[1].on_message = lambda msg: seen.append(("msg", msg, sched.now))
    chan.ends[1].on_close = lambda: seen.append(("close", sched.now))

    def dies() -> None:
        chan.ends[0].send("first")
        chan.ends[0].send("second")
        a.kill()
        chan.ends[0].close()
        chan.ends[0].send("dropped")
        raise Crashed()

    a.post(dies, arrive=0.0)
    sched.run(until=100.0)
    assert seen == [("msg", "first", 3.0), ("msg", "second", 3.0), ("close", 3.0 + 1e-6)]


def test_a_send_outside_any_handler_is_delivered_alone():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    latencies = iter([2.0, 1.0])
    sched.latency = lambda src, dst, n: next(latencies)
    chan = Channel(sched, a, b)
    chan.ends[1].recv_cost = lambda msg: 0.5
    seen = []
    chan.ends[1].on_message = lambda msg: seen.append((msg, sched.now, b.now()))

    def inject() -> None:
        chan.ends[0].send("x")
        chan.ends[0].send("y")

    sched.schedule_at(0.0, inject)
    sched.run(until=100.0)
    # a latency draw and a handler on b for each; y waits for b to finish x
    assert seen == [("x", 2.0, 2.5), ("y", 2.0 + 1e-9, 3.0)]


def test_a_delivery_of_n_messages_takes_the_latest_of_n_latencies():
    # a lone message draws what a per-message uniform latency would
    assert Scheduler(seed=5).latency("a", "b", 1) == random.Random(5).uniform(0.2, 1.5)
    sched = Scheduler(seed=5)
    draws = [sched.latency("a", "b", 50) for _ in range(1000)]
    assert all(0.2 <= d < 1.5 for d in draws)
    # the largest of n uniforms on [lo, hi) has mean lo + (hi - lo) * n / (n + 1)
    assert abs(sum(draws) / len(draws) - (0.2 + 1.3 * 50 / 51)) < 0.01


def test_each_delivery_asks_for_the_latency_of_its_direction():
    sched = Scheduler(seed=1)
    a, b = Executor(sched, "a"), Executor(sched, "b")
    draws = []
    draw = sched.latency

    def latency(src: str, dst: str, n: int) -> float:
        draws.append((src, dst, n))
        return draw(src, dst, n)

    sched.latency = latency
    chan = Channel(sched, a, b)
    chan.ends[1].on_message = lambda msg: chan.ends[1].send("re-" + msg)
    got = []
    chan.ends[0].on_message = got.append

    def sends() -> None:
        chan.ends[0].send("m1")
        chan.ends[0].send("m2")

    a.post(sends, arrive=0.0)
    sched.run(until=100.0)
    # the two replies leave b's one handler as one delivery back to a
    assert got == ["re-m1", "re-m2"]
    assert draws == [("a", "b", 2), ("b", "a", 2)]


def test_a_pinned_pair_takes_its_value_both_ways_without_drawing():
    world = SimpleNamespace(sched=Scheduler(seed=5))
    pin_latencies({("a", "b"): 4.0})(world)
    assert world.sched.latency("a", "b", 1) == world.sched.latency("b", "a", 3) == 4.0
    # the pins drew nothing, so the first unpinned draw is the seed's first
    assert world.sched.latency("a", "c", 1) == random.Random(5).uniform(0.2, 1.5)


def test_a_delivery_leaves_with_its_last_send():
    sched = Scheduler(seed=1)
    a, b, c = Executor(sched, "a"), Executor(sched, "b"), Executor(sched, "c")
    sched.latency = lambda src, dst, n: 1.0
    to_b, to_c = Channel(sched, a, b), Channel(sched, a, c)
    to_b.ends[0].send_cost = lambda msg: 2.0
    to_c.ends[0].send_cost = lambda msg: 5.0
    got = []
    to_b.ends[1].on_message = lambda msg: got.append((msg, sched.now))
    to_c.ends[1].on_message = lambda msg: got.append((msg, sched.now))

    def sends() -> None:
        to_b.ends[0].send("b1")
        to_b.ends[0].send("b2")
        to_c.ends[0].send("c1")

    a.post(sends, arrive=0.0)
    sched.run(until=100.0)
    # b's messages leave after their 4 ms of send cost, not when the handler ends at 9 ms
    assert got == [("b1", 5.0), ("b2", 5.0), ("c1", 10.0)]


def test_stop_closes_each_link_after_what_was_sent_and_twice_is_once():
    sched = Scheduler(seed=1)
    a, b, c = Executor(sched, "a"), Executor(sched, "b"), Executor(sched, "c")
    sched.latency = lambda src, dst, n: {"b": 3.0, "c": 1.0}[dst]
    to_b, to_c = Channel(sched, a, b), Channel(sched, a, c)
    assert a.links == [to_b.ends[0], to_c.ends[0]]
    seen = []
    for name, chan in (("b", to_b), ("c", to_c)):
        chan.ends[1].on_message = lambda msg, name=name: seen.append((name, msg, sched.now))
        chan.ends[1].on_close = lambda name=name: seen.append((name, "close", sched.now))

    def sends_then_stops() -> None:
        to_b.ends[0].send("m1")
        to_c.ends[0].send("m2")
        a.stop()
        a.stop()
        to_b.ends[0].send("dropped")

    a.post(sends_then_stops, arrive=0.0)
    sched.run(until=100.0)
    assert not a.alive
    assert seen == [("c", "m2", 1.0), ("c", "close", 1.0 + 1e-6), ("b", "m1", 3.0), ("b", "close", 3.0 + 1e-6)]
    a.stop()
    assert sched.run(until=200.0)
    assert len(seen) == 4
