"""Full pipeline assembly: per-variant parameter construction and the
sample-to-token-sequence forward path.

Pseudo-modalities are always inferred from RGB; ground truth enters only
through losses. The predicted depth map and class map leave the graph as
plain data before back-projection and region masking, so the point and
region encoders train through their own weights while the depth and
segmentation decoders train through their supervision losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from . import vocab as V
from .errors import CompatibilityError, ConfigurationError
from .fusion import (
    SEGMENTS,
    VARIANTS,
    FusionConfig,
    TokenSequence,
    build_fusion_params,
    build_input_sequence,
    lm_forward,
    pooled_image_feature,
    project_image_tokens,
    project_pc_tokens,
    project_seg_tokens,
    slot_layout,
)
from .geometry import DepthMap, PointCloud, reconstruct_point_cloud
from .nn import EVAL_CTX, ExecContext, ModelParams, mlp_forward
from .scenegen import CLASS_COLORS, Sample
from .spatial import (
    SpatialBlockConfig,
    build_spatial_params,
    depth_head_forward,
    downsample_map,
    encode_point_cloud,
    encoder_forward,
    logits_to_map,
    region_pool,
    seg_head_forward,
    tokens_to_grid,
)
from .tensor import Tensor

DEPTH_SCALE = 10.0  # meters mapped to roughly [0, 1] for image-style inputs
MAX_ENCODED_POINTS = 256  # point encoder input cap (deterministic stride)


def subsample_cloud(cloud, max_points: int):
    """Deterministic stride subsampling keeps the encoder input bounded;
    the raster stride preserves scene coverage."""
    n = len(cloud)
    if n <= max_points:
        return cloud
    stride = int(np.ceil(n / max_points))
    return PointCloud(points=cloud.points[::stride],
                      source_pixels=cloud.source_pixels[::stride])

# Spatial sub-networks each variant needs: (depth, seg, region, pc).
SPATIAL_NEEDS = {
    "full": (True, True, True, True),
    "no-pc": (True, True, True, False),
    "no-seg": (True, False, False, True),
    "no-depth": (False, True, True, False),
    "no-depth-seg": (False, False, False, False),
    "no-fusion": (True, True, False, False),
    "stacked": (True, True, False, False),
}


@dataclass
class ModelConfig:
    variant: str = "full"
    spatial: SpatialBlockConfig = field(default_factory=SpatialBlockConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.spatial.image_size % self.fusion.image_patch != 0:
            raise ConfigurationError("image_size must be divisible by image_patch")


def build_model_params(cfg: ModelConfig, seed: int) -> ModelParams:
    params = ModelParams()
    rng = np.random.default_rng(np.random.SeedSequence([0x90DE1, seed]))
    depth, seg, region, pc = SPATIAL_NEEDS[cfg.variant]
    if depth or seg:
        build_spatial_params(params, cfg.spatial, rng, depth=depth, seg=seg,
                             region=region, pc=pc)
    build_fusion_params(params, cfg.fusion, cfg.spatial, rng, cfg.variant)
    return params


def infer_variant(names: set[str]) -> str:
    """Recover the ablation variant from the parameter name set."""
    if "proj.early_embed.w" in names:
        return "no-fusion"
    if "proj.depth_embed.w" in names:
        return "no-pc"
    if "spatial.encoder.embed.w" not in names:
        return "no-depth-seg"
    has_depth = "spatial.depth.stage0.conv.w" in names
    has_seg = "spatial.seg.pixel.fc1.w" in names
    if not has_depth:
        return "no-depth"
    if not has_seg:
        return "no-seg"
    if "proj.seg_head.fc1.w" not in names:
        return "stacked"
    return "full"


@dataclass
class ModalityBundle:
    """Per-sample projected segments plus inspection hooks for evaluation."""

    img_toks: Tensor
    seg_toks: Tensor | None
    pc_toks: Tensor | None
    pred_depth: np.ndarray | None = None
    pred_seg: np.ndarray | None = None
    seg_class_ids: list[int] | None = None


class Model:
    """One trained pipeline: parameters plus the per-sample forward logic."""

    def __init__(self, cfg: ModelConfig, params: ModelParams):
        self.cfg = cfg
        self.params = params
        n_img = (cfg.spatial.image_size // cfg.fusion.image_patch) ** 2
        self.layout = slot_layout(n_img, cfg.spatial.seg_classes,
                                  cfg.fusion.pc_tokens)

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "Model":
        return cls(cfg, build_model_params(cfg, seed))

    # -- spatial inference -------------------------------------------------

    def spatial_grid(self, rgb, ctx: ExecContext = EVAL_CTX):
        tokens = encoder_forward(rgb[None] if rgb.ndim == 3 else rgb,
                                 self.params, self.cfg.spatial, ctx)
        return tokens, tokens_to_grid(tokens, self.cfg.spatial)

    def predict_depth(self, grid, ctx: ExecContext = EVAL_CTX) -> Tensor:
        return depth_head_forward(grid, self.params, self.cfg.spatial, ctx)

    def predict_seg(self, grid, ctx: ExecContext = EVAL_CTX):
        logits = seg_head_forward(grid, self.params, self.cfg.spatial, ctx)
        maps = [logits_to_map(logits.data[b], self.cfg.spatial.seg_classes)
                for b in range(logits.shape[0])]
        return logits, maps

    # -- per-variant token assembly -----------------------------------------

    def modality_tokens(self, sample: Sample,
                        ctx: ExecContext = EVAL_CTX) -> ModalityBundle:
        return self.modality_tokens_batch([sample], ctx)[0]

    def modality_tokens_batch(self, samples: list[Sample],
                              ctx: ExecContext = EVAL_CTX) -> list[ModalityBundle]:
        """Modality tokens for several samples with one batched pass through
        the heavy encoder/decoder stacks; only the per-sample region and
        point-cloud heads run as loops."""
        variant = self.cfg.variant
        fcfg = self.cfg.fusion
        B = len(samples)
        rgb = np.stack([np.asarray(s.rgb, dtype=np.float64) for s in samples])

        def split_rows(batched: Tensor) -> list[Tensor]:
            return [T.slice_(batched, b) for b in range(B)]

        if variant == "no-depth-seg":
            img = split_rows(project_image_tokens(rgb, self.params, fcfg, ctx))
            return [ModalityBundle(img_toks=img[b], seg_toks=None, pc_toks=None)
                    for b in range(B)]

        cell_tokens, grid = self.spatial_grid(rgb, ctx)
        depth = maps = None
        needs_depth, needs_seg, needs_region, needs_pc = SPATIAL_NEEDS[variant]
        if needs_depth:
            depth = self.predict_depth(grid, ctx)
        if needs_seg:
            _, maps = self.predict_seg(grid, ctx)

        if variant == "no-fusion":
            # Early fusion: recolored predicted classes over RGB, predicted
            # depth as a fourth channel, one shared tower.
            overlay = 0.5 * rgb + 0.5 * np.stack(
                [CLASS_COLORS[m.ids - 1] for m in maps]
            )
            composite = np.concatenate(
                [overlay, depth.data[..., None] / DEPTH_SCALE], axis=-1
            )
            img = split_rows(project_image_tokens(composite, self.params, fcfg,
                                                  ctx, embed="proj.early_embed"))
            return [ModalityBundle(img_toks=img[b], seg_toks=None, pc_toks=None,
                                   pred_depth=depth.data[b], pred_seg=maps[b].ids)
                    for b in range(B)]

        img = split_rows(project_image_tokens(rgb, self.params, fcfg, ctx))

        if variant == "stacked":
            # Parallel views through the shared tower, concatenated late:
            # recolored segmentation in the seg slot, depth in the pc slot.
            seg_view = np.stack([CLASS_COLORS[m.ids - 1] for m in maps])
            depth_view = np.repeat(depth.data[..., None] / DEPTH_SCALE, 3, axis=-1)
            seg_t = split_rows(project_image_tokens(seg_view, self.params, fcfg, ctx))
            pc_t = split_rows(project_image_tokens(depth_view, self.params, fcfg, ctx))
            return [ModalityBundle(img_toks=img[b], seg_toks=seg_t[b],
                                   pc_toks=pc_t[b], pred_depth=depth.data[b],
                                   pred_seg=maps[b].ids)
                    for b in range(B)]

        depth_tokens = None
        if variant == "no-pc":
            # Depth map treated as an extra 2D image input in the pc slot.
            dview = depth.data[..., None] / DEPTH_SCALE
            depth_tokens = split_rows(project_image_tokens(
                T.constant(dview), self.params, fcfg, ctx, embed="proj.depth_embed"
            ))

        # Per-sample masked means and point features are cheap gathers; the
        # projection MLPs run once over the concatenated batch and the
        # results are split back, which matches the per-sample path exactly.
        seg_tok_list = [None] * B
        seg_ids_list: list[list[int] | None] = [None] * B
        if needs_seg:
            pooled, counts = [], []
            for b in range(B):
                cells = T.slice_(cell_tokens, b)
                small = downsample_map(maps[b].ids, self.cfg.spatial.grid_size)
                flat = small.reshape(-1)
                ids = [int(k) for k in sorted(np.unique(flat))]
                for k in ids:
                    cell_idx = np.flatnonzero(flat == k)
                    pooled.append(T.mean(T.gather_rows(cells, cell_idx), axis=0))
                counts.append(len(ids))
                seg_ids_list[b] = ids
            feats = mlp_forward(T.stack(pooled, axis=0), self.params,
                                "spatial.region.phi", ctx)
            feats = mlp_forward(feats, self.params, "proj.seg_head", ctx)
            offset = 0
            for b in range(B):
                seg_tok_list[b] = T.slice_(
                    feats, (slice(offset, offset + counts[b]), slice(None))
                )
                offset += counts[b]

        pc_tok_list = [None] * B
        if variant == "no-pc":
            pc_tok_list = depth_tokens
        elif needs_pc:
            point_feats = []
            for b in range(B):
                cloud = reconstruct_point_cloud(DepthMap(depth.data[b].copy()),
                                                samples[b].K, samples[b].pose)
                cloud = subsample_cloud(cloud, MAX_ENCODED_POINTS)
                feat = encode_point_cloud(cloud, self.params, ctx) \
                    if len(cloud) else None
                point_feats.append(feat)
            if all(f is not None for f in point_feats):
                stacked = mlp_forward(T.stack(point_feats, axis=0), self.params,
                                      "proj.pc_head", ctx)
                pc_tok_list = [
                    T.reshape(T.slice_(stacked, b),
                              (fcfg.pc_tokens, fcfg.d_token))
                    for b in range(B)
                ]
            else:
                pc_tok_list = [project_pc_tokens(f, self.params, fcfg, ctx)
                               for f in point_feats]

        return [
            ModalityBundle(
                img_toks=img[b], seg_toks=seg_tok_list[b], pc_toks=pc_tok_list[b],
                pred_depth=None if depth is None else depth.data[b],
                pred_seg=None if maps is None else maps[b].ids,
                seg_class_ids=seg_ids_list[b],
            )
            for b in range(B)
        ]

    # -- sequence assembly ---------------------------------------------------

    def assemble(self, sample: Sample, prompt_ids, answer_ids=None,
                 ctx: ExecContext = EVAL_CTX,
                 bundle: ModalityBundle | None = None) -> TokenSequence:
        if bundle is None:
            bundle = self.modality_tokens(sample, ctx)
        return build_input_sequence(
            bundle.img_toks, bundle.seg_toks, bundle.pc_toks, prompt_ids,
            self.params, self.cfg.fusion, self.cfg.variant, answer_ids,
            layout=self.layout, seg_class_ids=bundle.seg_class_ids,
        )

    def text_sequence(self, prompt_ids, answer_ids=None) -> TokenSequence:
        """Text-only sequence (stage-1 records): prompt plus optional answer
        segments, no modality tokens. Text occupies the same positional
        slots it will occupy in multimodal sequences."""
        parts = [T.gather_rows(self.params["lm.wte"], np.asarray(prompt_ids))]
        tags = ["prompt"] * len(prompt_ids)
        base = self.layout.prompt_base
        positions = list(range(base, base + len(prompt_ids)))
        if answer_ids is not None:
            parts.append(T.gather_rows(self.params["lm.wte"], np.asarray(answer_ids)))
            tags += ["answer"] * len(answer_ids)
            positions += list(range(positions[-1] + 1,
                                    positions[-1] + 1 + len(answer_ids)))
        return TokenSequence(tokens=T.concat(parts, axis=0), tags=tags,
                             positions=np.array(positions, dtype=np.int64))

    def contrastive_features(self, bundle: ModalityBundle) -> Tensor:
        return pooled_image_feature(bundle.img_toks, self.params)

    def check_vocab(self, vocab_size: int) -> None:
        have = self.params["lm.wte"].shape[0]
        if have != vocab_size:
            raise CompatibilityError(
                f"checkpoint vocabulary size {have} != dataset vocabulary "
                f"{vocab_size}"
            )
