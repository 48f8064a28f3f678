"""Figure 1 benchmark: stall-time decomposition of the SPEC suite."""

import pytest

from repro.experiments import figure1

#: Known deviation 1, pinned: the synthetic mixtures spend far more of
#: their time in L2 misses than SPEC does.  Measured (L2 / L1 / compute):
#: 91.7 / 1.6 / 6.7% at tiny and 79.4 / 3.1 / 17.5% at quick.
L2_HEAVY_DEVIATION = (
    "deviation 1: L2/L1/compute split 91.7/1.6/6.7% (tiny), 79.4/3.1/17.5% "
    "(quick) against the paper's 57/12/31%"
)


def test_figure1(profile, request):
    result = figure1.run(profile)
    print("\n" + figure1.render(result))
    # Paper: 57% of time in L2 misses, 12% in L1 misses, 31% compute.
    # (Small-subset profiles skew toward the stall-heavy benchmarks, so
    # the bound is generous; the quick/full profiles land near 80/3/17.)
    assert 0.3 < result.mean_l2_stall_fraction < 0.96
    assert result.mean_compute_fraction < 0.6
    # mcf-class benchmarks must sit at the stall-heavy end.
    by_name = {r.benchmark: r for r in result.rows}
    if "mcf" in by_name and "eon" in by_name:
        assert by_name["mcf"].l2_stall_fraction > by_name["eon"].l2_stall_fraction
    # Marked only now, so the claims above still fail as failures; a
    # split that comes within a quarter of the paper's fails as a strict
    # XPASS.
    request.applymarker(
        pytest.mark.xfail(strict=True, raises=AssertionError, reason=L2_HEAVY_DEVIATION)
    )
    # Paper split: 57% of the time in L2 misses.
    assert result.mean_l2_stall_fraction <= 0.57 * 1.25
