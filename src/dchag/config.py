"""Configuration types: architecture, aggregation tree, parallel layout, hardware."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


AGG_VARIANTS = ("single_query", "full_cross")
AGG_LAYER_KINDS = ("cross_attention", "linear")
STRATEGY_KINDS = ("serial", "tp_only", "dist_token", "dchag")


@dataclass(frozen=True)
class TreeSpec:
    """Grouping plan for hierarchical channel aggregation.

    levels[0] partitions the local channel count; each later level
    partitions the previous level's group count; the last level has one
    group.  fanout_max is the largest group anywhere in the tree.
    """

    levels: tuple[tuple[int, ...], ...]

    @property
    def fanout_max(self) -> int:
        return max(max(level) for level in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def validate(self, local_channels: int) -> None:
        expect = local_channels
        for i, level in enumerate(self.levels):
            if sum(level) != expect:
                raise ConfigError(
                    f"tree level {i} groups {level} sum to {sum(level)}, expected {expect}"
                )
            expect = len(level)
        if expect != 1:
            raise ConfigError("tree must terminate in a single group")


def build_tree_spec(local_channels: int, max_group: int) -> TreeSpec:
    """Greedy balanced grouping: contiguous groups of size <= max_group
    (sizes differing by at most one), repeated on group counts until a
    single group remains."""
    if local_channels < 1:
        raise ConfigError(f"local_channels must be >= 1, got {local_channels}")
    if max_group < 2:
        raise ConfigError(f"max_group must be >= 2, got {max_group}")
    levels = []
    n = local_channels
    while True:
        k = -(-n // max_group)  # ceil
        base, rem = divmod(n, k)
        level = tuple([base + 1] * rem + [base] * (k - rem))
        levels.append(level)
        if k == 1:
            break
        n = k
    return TreeSpec(tuple(levels))


@dataclass(frozen=True)
class ModelConfig:
    channels: int
    image_h: int
    image_w: int
    patch: int
    embed: int
    depth: int
    heads: int
    mlp_ratio: int = 4
    agg_variant: str = "full_cross"
    mask_ratio: float = 0.5
    decoder_depth: int = 1
    decoder_dim: int = 16

    @property
    def seq(self) -> int:
        """Spatial token count per channel."""
        return (self.image_h // self.patch) * (self.image_w // self.patch)

    @property
    def patch_pixels(self) -> int:
        return self.patch * self.patch

    def validate(self) -> None:
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}"
                " (no padding is applied)"
            )
        if self.embed % self.heads:
            raise ConfigError(f"embed {self.embed} not divisible by heads {self.heads}")
        if not (0 <= self.mask_ratio < 1):
            raise ConfigError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.agg_variant not in AGG_VARIANTS:
            raise ConfigError(f"agg_variant must be one of {AGG_VARIANTS}")


@dataclass(frozen=True)
class StrategyConfig:
    """How the model is spread over the tp group.

    `max_group` and `agg_layer_kind` are the one home of the hierarchical
    aggregation tree: they shape the per-slab trees of dchag and of its
    single-process reference.  Every other kind aggregates flat and
    accepts, but does not read, them.

    Three derived properties say what a kind splits over tp; the
    simulator, the parameter placement and the cost model read only
    these.  A group of one rank splits nothing, so a tp=1 parallel step
    runs the serial layers.
    """

    kind: str = "serial"
    tp_degree: int = 1
    max_group: int = 128
    agg_layer_kind: str = "cross_attention"  # tree nodes: cross_attention or linear
    final_layer_tp_split: bool = False
    vit_tp_split: bool = True  # False applies the tp group to channel work only

    @property
    def slabs_channels(self) -> bool:
        """Each tp rank tokenizes only its own channel slab."""
        return self.kind in ("dist_token", "dchag")

    @property
    def splits_agg(self) -> bool:
        """The flat aggregation layer (agg.flat, or dchag's agg.final) is
        head-split over tp."""
        return self.tp_degree > 1 and (self.kind in ("tp_only", "dist_token") or (
            self.kind == "dchag" and self.final_layer_tp_split))

    @property
    def splits_vit(self) -> bool:
        """The transformer blocks are head-split over tp."""
        return self.tp_degree > 1 and self.kind != "serial" and self.vit_tp_split

    def validate(self, model: ModelConfig) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"strategy kind must be one of {STRATEGY_KINDS}")
        if self.kind == "serial" and self.tp_degree != 1:
            raise ConfigError("serial strategy requires tp_degree=1")
        if self.tp_degree < 1:
            raise ConfigError("tp_degree must be >= 1")
        if self.agg_layer_kind not in AGG_LAYER_KINDS:
            raise ConfigError(f"agg_layer_kind must be one of {AGG_LAYER_KINDS}")
        if self.slabs_channels and model.channels % self.tp_degree:
            raise ConfigError(
                f"channels {model.channels} not divisible by tp_degree {self.tp_degree}"
                " (equal channel slabs required)"
            )
        if (self.splits_agg or self.splits_vit) and model.heads % self.tp_degree:
            raise ConfigError(
                f"heads {model.heads} not divisible by tp_degree {self.tp_degree}"
            )
        if self.kind in ("tp_only", "dist_token") and not self.vit_tp_split:
            raise ConfigError(f"{self.kind} requires vit_tp_split=true")

    def local_channels(self, model: ModelConfig) -> int:
        if self.slabs_channels:
            return model.channels // self.tp_degree
        return model.channels


@dataclass(frozen=True)
class ParallelConfig:
    dchag_tp: int = 1
    fsdp: int = 1
    dp: int = 1

    @property
    def world_size(self) -> int:
        return self.dchag_tp * self.fsdp * self.dp

    def validate(self) -> None:
        for name in ("dchag_tp", "fsdp", "dp"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def coords(self, rank: int) -> tuple[int, int, int]:
        """(tp_index, fsdp_index, dp_index); rank is row-major over (dp, fsdp, tp)."""
        tp_i = rank % self.dchag_tp
        rest = rank // self.dchag_tp
        fsdp_i = rest % self.fsdp
        dp_i = rest // self.fsdp
        return tp_i, fsdp_i, dp_i

    def rank_of(self, tp_i: int, fsdp_i: int, dp_i: int) -> int:
        return (dp_i * self.fsdp + fsdp_i) * self.dchag_tp + tp_i


@dataclass(frozen=True)
class HardwareModel:
    bytes_per_gpu: int = 64 * 2**30

    def validate(self) -> None:
        if self.bytes_per_gpu <= 0:
            raise ConfigError("bytes_per_gpu must be positive")
