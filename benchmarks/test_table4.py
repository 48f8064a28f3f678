"""Table 4 benchmark: prefetch scheme comparison."""

import pytest

from repro.experiments import table4

#: Known deviation 3, pinned: unscheduled prefetching collapses far
#: harder than the paper's 0.33x normalized IPC.  Measured: 0.09x at
#: tiny (8,000 references) and 0.11x at quick.
UNSCHEDULED_DEVIATION = (
    "deviation 3: unscheduled prefetching reaches 0.09x (tiny) / 0.11x "
    "(quick) normalized IPC against the paper's 0.33x"
)


def test_table4(profile, request):
    result = table4.run(profile)
    print("\n" + table4.render(result))
    # Paper shape: unscheduled prefetching reaches the lowest miss rate
    # but catastrophic latency; scheduling keeps most of the miss-rate
    # win at almost no latency cost; LIFO edges out FIFO.
    assert result.miss_rate["fifo_prefetch"] < result.miss_rate["base"]
    assert result.miss_rate["scheduled_lifo"] < result.miss_rate["base"]
    assert result.miss_latency["fifo_prefetch"] > 3 * result.miss_latency["base"]
    assert result.miss_latency["scheduled_lifo"] < 1.5 * result.miss_latency["base"]
    assert result.normalized_ipc["fifo_prefetch"] < 1.0
    assert result.normalized_ipc["scheduled_lifo"] >= result.normalized_ipc["base"] * 0.999
    # Marked only now, so the claims above still fail as failures; a
    # deviation that closes to within 2x of the paper fails as a strict
    # XPASS.
    request.applymarker(
        pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=UNSCHEDULED_DEVIATION
        )
    )
    # Paper magnitude: 0.33x.
    assert result.normalized_ipc["fifo_prefetch"] >= 0.33 / 2
