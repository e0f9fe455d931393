"""The model bench's figures, pinned per mode.

The bench runs on simulated time with a seeded latency model, so each figure
is exact. A change that moves one moved the protocol's message flows or the
cost model, and has to say so."""

import pytest

from ftsdn.harness.bench import BenchConfig, bench

PINNED = {
    "events": 69886.159,
    "commands": 63891.205,
    "both": 64189.745,
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_bench_figure_is_pinned(mode):
    result = bench(BenchConfig(mode=mode, n_switches=4))
    assert result.saturated
    assert round(result.responses_per_sec, 3) == PINNED[mode]
