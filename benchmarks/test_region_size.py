"""Section 4.2 benchmark: prefetch region size sweep."""

from repro.experiments import region_size
from repro.experiments.common import Profile
from repro.workloads import FIGURE5_WINNERS


def test_region_size(profile):
    # The effect is concentrated in the prefetch-friendly benchmarks.
    names = tuple(b for b in profile.benchmarks if b in FIGURE5_WINNERS) or ("swim", "gap")
    prof = Profile(profile.name + "-rs", memory_refs=profile.memory_refs, benchmarks=names)
    result = region_size.run(prof, (512, 2048, 4096, 8192))
    print("\n" + region_size.render(result))
    # Paper: 4KB best overall; below 2KB the improvement drops off;
    # beyond 4KB the impact is negligible.
    assert result.gain(4096) > result.gain(512) - 0.02
    assert abs(result.gain(8192) - result.gain(4096)) < 0.15
    assert result.gain(4096) > 0.0
