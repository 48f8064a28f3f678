"""Section 3.4 benchmark: base vs. XOR address mapping."""

from repro.experiments import mapping


def test_mapping(profile):
    result = mapping.run(profile)
    print("\n" + mapping.render(result))
    # Paper: +16% mean speedup; row-hit rates rise for reads and
    # writebacks (51->72% and 28->55%).
    assert result.mean_speedup > 0.02
    assert result.mean_read_hit_xor > result.mean_read_hit_base
    assert result.mean_wb_hit_xor > result.mean_wb_hit_base
    # Several benchmarks see large individual gains (paper: 40-63%).
    assert any(r.speedup > 0.15 for r in result.rows)
