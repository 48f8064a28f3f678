"""Figure 5 benchmark: tuned scheduled region prefetching."""

import pytest
from conftest import run_once

from repro.experiments import figure5
from repro.experiments.common import Profile

#: Known deviation, pinned: at the tiny profile (8,000 references) the
#: 8-channel system trails the 4-channel one on the ten winners' mean
#: IPC.  Measured: 8ch_xor_pf 2.438 against 4ch_xor_pf 2.451.  At quick
#: the claim holds.
TINY_8CH_DEVIATION = (
    "tiny: mean IPC 8ch_xor_pf 2.438 < 4ch_xor_pf 2.451 on the ten winners"
)


def test_figure5(benchmark, profile, request):
    # Figure 5 is defined over the ten winners; keep the profile's
    # effort level but force the winner set.
    prof = Profile(profile.name + "-f5", memory_refs=profile.memory_refs)
    result = run_once(benchmark, figure5.run, prof)
    print("\n" + figure5.render(result))
    # Paper shapes: XOR helps (+33%), prefetching adds more (+43%),
    # the 8ch/256B+PF system dominates (+118% over 4ch base) and most
    # benchmarks prefer 4ch+PF to 8ch without PF.
    assert result.prefetch_speedup > 0.05
    assert result.best_speedup_over_base > result.xor_speedup
    assert result.pf4_beats_8ch_count >= len(result.benchmarks) // 3
    if profile.name == "tiny":
        # Marked only now, so the claims above still fail as failures; a
        # deviation that disappears fails as a strict XPASS.
        request.applymarker(
            pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=TINY_8CH_DEVIATION
            )
        )
    assert result.mean("8ch_xor_pf") >= result.mean("4ch_xor_pf")
