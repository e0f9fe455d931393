"""Pin the latency of chosen links in a deterministic world."""


def pin_latencies(pins: dict[tuple[str, str], float]):
    """A ``mutate`` for ``run_scenario``: each ``(a, b)`` pair in ``pins`` takes
    its fixed latency in both directions without touching the RNG, and every
    other pair keeps the scheduler's own draw.

    The pin is made after the world is built. The only sends made while it is
    being built are the coordination service's leader pushes, so a pin on a
    ``coord`` pair would miss those."""
    fixed = {**pins, **{(b, a): value for (a, b), value in pins.items()}}

    def mutate(world) -> None:
        draw = world.sched.latency

        def latency(src: str, dst: str, n: int) -> float:
            value = fixed.get((src, dst))
            return draw(src, dst, n) if value is None else value

        world.sched.latency = latency

    return mutate
