"""Figure 5 benchmark: tuned scheduled region prefetching."""

import pytest

from repro.experiments import figure5
from repro.experiments.common import Profile

#: Known deviation, pinned: at the tiny profile (8,000 references) the
#: 8-channel system trails the 4-channel one on the ten winners' mean
#: IPC.  Measured: 8ch_xor_pf 2.438 against 4ch_xor_pf 2.451.  At quick
#: the claim holds.
TINY_8CH_DEVIATION = (
    "tiny: mean IPC 8ch_xor_pf 2.438 < 4ch_xor_pf 2.451 on the ten winners"
)

#: Known deviation 5, pinned: the core dispatches at most 4 instructions
#: a cycle and models no FP/ALU dependences, so perfect L2 sits at that
#: bound and no real system comes within 10% of it.  Measured: 0/10 at
#: tiny and at quick; mean IPC 8ch_xor_pf 2.438 against perfect L2's
#: 3.996 (tiny), 2.563 against 3.998 (quick).
NEAR_PERFECT_DEVIATION = (
    "deviation 5: 8ch+PF within 10% of perfect L2 on 0/10 winners against "
    "the paper's 8/10; mean IPC 2.438 against perfect L2's 3.996 (tiny), "
    "2.563 against 3.998 (quick)"
)


@pytest.fixture(scope="module")
def result(profile):
    # Figure 5 is defined over the ten winners; keep the profile's
    # effort level but force the winner set.  Both tests read one run.
    return figure5.run(Profile(profile.name + "-f5", memory_refs=profile.memory_refs))


def test_figure5(result, profile, request):
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


def test_figure5_near_perfect_l2(result, request):
    # Shape: perfect L2 bounds every real system.
    assert result.mean("perfect_l2") > result.mean("8ch_xor_pf")
    # Marked only now, so the claim above still fails as a failure; an
    # 8ch+PF system that comes within 10% of perfect L2 on 8 winners
    # fails as a strict XPASS.
    request.applymarker(
        pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=NEAR_PERFECT_DEVIATION
        )
    )
    # Paper: 8ch/256B+PF within 10% of perfect L2 on 8 of the 10 winners.
    assert result.within_10pct_of_perfect_count >= 8
