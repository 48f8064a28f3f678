"""Table 1 benchmark: pollution vs. performance points."""

from repro.experiments import table1


def test_table1(profile):
    result = table1.run(profile)
    print("\n" + table1.render(result))
    # Paper: pollution points sit far above the performance points
    # (2KB mean vs. a 128B suite performance point).
    assert result.mean_pollution_point > result.suite_performance_point
    assert result.suite_performance_point <= 512
    for row in result.rows:
        assert row.pollution_point >= row.performance_point or (
            row.miss_rate_by_block[row.performance_point]
            <= row.miss_rate_by_block[64] + 1e-9
        )
