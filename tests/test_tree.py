import pytest
from hypothesis import given
from hypothesis import strategies as st

from dchag.config import ConfigError, build_tree_spec


def assert_partition(levels, local_channels, max_group):
    """Each level's groups sum to the group count of the level before (level
    0 to the local channels), the last level is one group, no group exceeds
    `max_group`, and the groups of one level differ by at most one."""
    expect = local_channels
    for level in levels:
        assert sum(level) == expect
        assert max(level) <= max_group
        assert max(level) - min(level) <= 1
        expect = len(level)
    assert expect == 1


def test_two_gpus_512_channels_grouping():
    # 512 channels over two ranks -> 256 local, two 128-wide groups then a combiner
    assert build_tree_spec(256, 128) == ((128, 128), (2,))


def test_eight_layers_of_32():
    assert build_tree_spec(256, 32) == ((32,) * 8, (8,))


def test_no_split_needed():
    assert build_tree_spec(5, 8) == ((5,),)
    assert build_tree_spec(1, 2) == ((1,),)


def test_balanced_remainders():
    assert build_tree_spec(10, 4) == ((4, 3, 3), (3,))


def test_deep_recursion_terminates_at_one():
    levels = build_tree_spec(64, 2)
    assert levels[-1] == (2,)
    assert_partition(levels, 64, 2)


def test_bad_args():
    with pytest.raises(ConfigError):
        build_tree_spec(0, 4)
    with pytest.raises(ConfigError):
        build_tree_spec(8, 1)


@given(local_channels=st.integers(1, 4096), max_group=st.integers(2, 256))
def test_tree_spec_properties(local_channels, max_group):
    assert_partition(build_tree_spec(local_channels, max_group), local_channels, max_group)
