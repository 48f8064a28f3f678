"""Section 4.5 benchmark: L2 capacity sweep with/without prefetching."""

from repro.experiments import cache_size


def test_cache_size(profile):
    result = cache_size.run(profile, (1, 2, 4))
    print("\n" + cache_size.render(result))
    # Paper: larger caches help the baseline monotonically-ish, and the
    # prefetching gain remains positive and stable across capacities.
    # Short traces limit how much capacity beyond the touched working
    # sets can matter, so the bounds are directional.
    assert result.baseline_speedup(2) > -0.15
    assert result.baseline_speedup(4) >= result.baseline_speedup(2) - 0.10
    for size in (1, 2, 4):
        assert result.prefetch_gain(size) > -0.15
