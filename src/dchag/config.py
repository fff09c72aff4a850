"""Configuration types: architecture, aggregation tree, parallel layout, hardware."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


AGG_VARIANTS = ("single_query", "full_cross")
AGG_LAYER_KINDS = ("cross_attention", "linear")
STRATEGY_KINDS = ("serial", "tp_only", "dist_token", "dchag")


def build_tree_spec(local_channels: int, max_group: int) -> tuple[tuple[int, ...], ...]:
    """The grouping plan of hierarchical channel aggregation, as its levels
    of group sizes.

    Greedy balanced grouping: level 0 partitions the local channels into
    contiguous groups of size <= max_group (sizes differing by at most
    one); each later level partitions the previous level's group count the
    same way, until a level of one group."""
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
    return tuple(levels)


# The least value of each ModelConfig size; only a block stack may be empty.
_SIZE_FLOORS = {"channels": 1, "image_h": 1, "image_w": 1, "patch": 1, "embed": 1,
                "heads": 1, "mlp_ratio": 1, "decoder_dim": 1, "depth": 0,
                "decoder_depth": 0}


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

    @property
    def masked_count(self) -> int:
        """Spatial tokens masked per sample: `mask_ratio` of the sequence,
        rounded, and at least one, so the loss always has a term; `validate`
        rejects a count that leaves no position to keep."""
        return max(1, int(round(self.mask_ratio * self.seq)))

    def validate(self) -> None:
        for name, least in _SIZE_FLOORS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}"
                " (no padding is applied)"
            )
        if self.embed % self.heads:
            raise ConfigError(f"embed {self.embed} not divisible by heads {self.heads}")
        if not (0 <= self.mask_ratio < 1):
            raise ConfigError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.masked_count == self.seq:
            raise ConfigError(f"mask_ratio {self.mask_ratio} masks all {self.seq} positions,"
                              " so no position is kept to aggregate")
        if self.agg_variant not in AGG_VARIANTS:
            raise ConfigError(f"agg_variant must be one of {AGG_VARIANTS}")


@dataclass(frozen=True)
class StrategyConfig:
    """How the model is spread over tp: a kind, its tp degree, dchag's tree.

    `max_group` and `agg_layer_kind` are the one home of the hierarchical
    aggregation tree: they shape the per-slab trees of dchag and of its
    single-process reference.  Every other kind aggregates flat and
    accepts, but does not read, them.

    Three derived properties say what a kind splits over tp; the
    simulator, the parameter placement and the cost model read only
    these.  At tp > 1 every parallel kind head-splits the transformer
    blocks; tp_only and dist_token also head-split their flat
    aggregation layer, while dchag's final layer stays replicated.  A
    group of one rank splits nothing, so a tp=1 parallel step runs the
    serial layers.
    """

    kind: str = "serial"
    tp_degree: int = 1
    max_group: int = 128
    agg_layer_kind: str = "cross_attention"  # tree nodes: cross_attention or linear

    @property
    def slabs_channels(self) -> bool:
        """Each tp rank tokenizes only its own channel slab."""
        return self.kind in ("dist_token", "dchag")

    @property
    def splits_agg(self) -> bool:
        """The flat aggregation layer agg.flat is head-split over tp."""
        return self.tp_degree > 1 and self.kind != "dchag"

    @property
    def splits_vit(self) -> bool:
        """The transformer blocks are head-split over tp (serial has tp=1)."""
        return self.tp_degree > 1

    def validate(self, model: ModelConfig, pconfig: ParallelConfig | None = None) -> None:
        """Check `model` and this strategy's layout over it; given a parallel
        grid, check the grid too, and that its tp degree is this strategy's."""
        model.validate()
        if pconfig is not None:
            pconfig.validate()
            if pconfig.dchag_tp != self.tp_degree:
                raise ConfigError(f"parallel grid tp={pconfig.dchag_tp} != strategy"
                                  f" tp_degree={self.tp_degree}")
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"strategy kind must be one of {STRATEGY_KINDS}")
        if self.kind == "serial" and self.tp_degree != 1:
            raise ConfigError("serial strategy requires tp_degree=1")
        if self.tp_degree < 1:
            raise ConfigError("tp_degree must be >= 1")
        if self.agg_layer_kind not in AGG_LAYER_KINDS:
            raise ConfigError(f"agg_layer_kind must be one of {AGG_LAYER_KINDS}")
        if self.max_group < 2:
            raise ConfigError(f"max_group must be >= 2, got {self.max_group}")
        if self.slabs_channels and model.channels % self.tp_degree:
            raise ConfigError(
                f"channels {model.channels} not divisible by tp_degree {self.tp_degree}"
                " (equal channel slabs required)"
            )
        if model.heads % self.tp_degree:
            raise ConfigError(
                f"heads {model.heads} not divisible by tp_degree {self.tp_degree}"
            )

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
