"""Section 4.7 benchmark: software vs. region prefetching."""

from repro.experiments import software_prefetch
from repro.experiments.common import Profile


def test_software_prefetch(profile):
    prof = Profile(profile.name + "-sw", memory_refs=profile.memory_refs)
    result = software_prefetch.run(prof, ("mgrid", "swim", "wupwise", "galgel"))
    print("\n" + software_prefetch.render(result))
    # Paper: software prefetching helps the streaming trio on the base
    # system (+10..39%)...
    helped = [result.row(b).sw_gain_alone for b in ("mgrid", "swim", "wupwise")]
    assert max(helped) > 0.03
    # ...but is subsumed by region prefetching (<= ~2% extra).
    for b in ("mgrid", "swim", "wupwise"):
        assert result.row(b).sw_gain_with_region < max(
            result.row(b).sw_gain_alone, 0.05
        )
