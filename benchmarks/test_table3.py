"""Table 3 benchmark: prefetch insertion priority."""

from repro.experiments import table3


def test_table3(profile):
    result = table3.run(profile)
    print("\n" + table3.render(result))
    if ("high", "mru") in result.accuracy:
        # Paper: insertion priority barely moves accuracy for the
        # high-accuracy class.
        spread = abs(
            result.accuracy[("high", "mru")] - result.accuracy[("high", "lru")]
        )
        assert spread < 0.25
    if ("low", "mru") in result.mean_ipc:
        # Paper: LRU insertion protects the low-accuracy class from
        # pollution (MRU costs it ~33%).
        assert result.speedup_vs_mru("low", "lru") >= -0.05
