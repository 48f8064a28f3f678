"""Section 4.4 benchmark: channel utilization with/without prefetching."""

from repro.experiments import utilization


def test_utilization(profile):
    result = utilization.run(profile)
    print("\n" + utilization.render(result))
    # Paper: command/data utilization rise 1.9x/2.5x with prefetching
    # (28->54% and 17->42%); accurate streamers rise the most.
    assert result.mean_cmd_pf > result.mean_cmd_base
    assert result.mean_data_pf > result.mean_data_base
    for row in result.rows:
        assert 0.0 <= row.cmd_pf <= 1.0
        assert 0.0 <= row.data_pf <= 1.0
