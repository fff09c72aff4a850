import pytest
from hypothesis import given
from hypothesis import strategies as st

from dchag.config import ConfigError, TreeSpec, build_tree_spec


def test_two_gpus_512_channels_grouping():
    # 512 channels over two ranks -> 256 local, two 128-wide groups then a combiner
    spec = build_tree_spec(256, 128)
    assert spec.levels == ((128, 128), (2,))
    assert spec.fanout_max == 128


def test_eight_layers_of_32():
    spec = build_tree_spec(256, 32)
    assert spec.levels == ((32,) * 8, (8,))
    assert spec.fanout_max == 32


def test_no_split_needed():
    assert build_tree_spec(5, 8).levels == ((5,),)
    assert build_tree_spec(1, 2).levels == ((1,),)


def test_balanced_remainders():
    spec = build_tree_spec(10, 4)
    assert spec.levels == ((4, 3, 3), (3,))
    for level in spec.levels:
        assert max(level) - min(level) <= 1


def test_deep_recursion_terminates_at_one():
    spec = build_tree_spec(64, 2)
    assert spec.levels[-1] == (2,) or spec.levels[-1] == (1,)
    spec.validate(64)


def test_validate_rejects_bad_partition():
    with pytest.raises(ConfigError):
        TreeSpec(((2, 2),)).validate(5)
    with pytest.raises(ConfigError):
        TreeSpec(((2, 2), (2,), (2,))).validate(4)


def test_bad_args():
    with pytest.raises(ConfigError):
        build_tree_spec(0, 4)
    with pytest.raises(ConfigError):
        build_tree_spec(8, 1)


@given(local_channels=st.integers(1, 4096), max_group=st.integers(2, 256))
def test_tree_spec_properties(local_channels, max_group):
    spec = build_tree_spec(local_channels, max_group)
    spec.validate(local_channels)
    assert spec.fanout_max <= max_group
    for level in spec.levels:
        assert max(level) - min(level) <= 1
