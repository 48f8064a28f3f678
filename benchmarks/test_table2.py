"""Table 2 benchmark: channel width vs. best block size."""

from repro.experiments import table2

CHANNELS = (2, 4, 8, 32)
BLOCKS = (64, 256, 1024)


def test_table2(profile):
    result = table2.run(profile, CHANNELS, BLOCKS)
    print("\n" + table2.render(result))
    # Paper: the performance point moves to larger blocks as channels
    # widen; a 32-channel system prefers the largest blocks.
    assert result.best_block(32) >= result.best_block(2)
    # More bandwidth never hurts at the largest block size.
    assert result.mean_ipc[(32, 1024)] >= result.mean_ipc[(2, 1024)]
