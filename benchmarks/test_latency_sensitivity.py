"""Section 4.6 benchmark: DRAM latency sensitivity."""

from repro.experiments import latency_sensitivity


def test_latency_sensitivity(profile):
    result = latency_sensitivity.run(profile)
    print("\n" + latency_sensitivity.render(result))
    # Paper: baseline IPC tracks the DRAM speed grade, but the
    # prefetching gain is nearly insensitive to the speed ratio
    # (15.6% vs 14.2% across the extremes).
    labels = result.labels
    assert result.mean_ipc[(labels[0], False)] <= result.mean_ipc[(labels[2], False)] * 1.05
    gains = [result.prefetch_gain(label) for label in labels]
    assert all(g > -0.05 for g in gains)
    assert result.gain_spread < 0.25
