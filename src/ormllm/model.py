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
from .errors import CompatibilityError, ConfigurationError
from .fusion import (
    FusionConfig,
    TokenSequence,
    build_fusion_params,
    build_input_sequence,
    lm_forward,  # unused here; perfbench's tracer test patches this binding
    pooled_image_feature,
    project_image_tokens,
    project_pc_tokens,
    slot_layout,
)
from .geometry import DepthMap, PointCloud, reconstruct_point_cloud
from .nn import ModelParams, mlp_forward
from .scenegen import CLASS_COLORS, Sample
from .spatial import (
    SpatialBlockConfig,
    build_spatial_params,
    depth_head_forward,
    encode_point_cloud,
    encoder_forward,
    logits_to_map,
    region_pool,
    seg_head_forward,
    tokens_to_grid,
)
from .tensor import Tensor
from .variants import variant_spec

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


@dataclass
class ModelConfig:
    variant: str = "full"
    spatial: SpatialBlockConfig = field(default_factory=SpatialBlockConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self):
        variant_spec(self.variant)
        if self.spatial.image_size % self.fusion.image_patch != 0:
            raise ConfigurationError("image_size must be divisible by image_patch")


def build_model_params(cfg: ModelConfig, seed: int) -> ModelParams:
    params = ModelParams()
    rng = np.random.default_rng(np.random.SeedSequence([0x90DE1, seed]))
    spec = variant_spec(cfg.variant)
    if spec.spatial:
        build_spatial_params(params, cfg.spatial, rng, depth=spec.needs_depth,
                             seg=spec.needs_seg, region=spec.seg == "regions",
                             pc=spec.pc == "points")
    build_fusion_params(params, cfg.fusion, cfg.spatial, rng, cfg.variant)
    return params


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

    def spatial_grid(self, rgb):
        tokens = encoder_forward(rgb[None] if rgb.ndim == 3 else rgb,
                                 self.params, self.cfg.spatial)
        return tokens, tokens_to_grid(tokens, self.cfg.spatial)

    def predict_depth(self, grid) -> Tensor:
        return depth_head_forward(grid, self.params, self.cfg.spatial)

    def predict_seg(self, grid):
        logits = seg_head_forward(grid, self.params, self.cfg.spatial)
        maps = [logits_to_map(logits.data[b], self.cfg.spatial.seg_classes)
                for b in range(logits.shape[0])]
        return logits, maps

    # -- per-variant token assembly -----------------------------------------

    def modality_tokens(self, sample: Sample) -> ModalityBundle:
        return self.modality_tokens_batch([sample])[0]

    def modality_tokens_batch(self, samples: list[Sample]) -> list[ModalityBundle]:
        """Modality tokens for several samples, slot by slot as the variant's
        row says. The encoder and the depth and seg heads run once over the
        batch, and so does every projection head; only the masked means of
        region pooling and the point-cloud encoding loop over samples. The
        depth and seg heads run without recording: their outputs enter the
        tokens only as data, and they train through the supervision losses
        of the VFM phase."""
        spec = variant_spec(self.cfg.variant)
        fcfg = self.cfg.fusion
        B = len(samples)
        rgb = np.stack([np.asarray(s.rgb, dtype=np.float64) for s in samples])

        def per_sample(batched: Tensor) -> list[Tensor]:
            return [T.slice_(batched, b) for b in range(B)]

        def tower(image, embed: str = "proj.img_embed") -> list[Tensor]:
            return per_sample(project_image_tokens(image, self.params, fcfg,
                                                   embed=embed))

        depth = maps = None
        if spec.spatial:
            cell_tokens, grid = self.spatial_grid(rgb)
            # The head outputs leave the graph as data, so recording them
            # would only keep their tapes alive.
            with T.no_grad():
                if spec.needs_depth:
                    depth = self.predict_depth(grid)
                if spec.needs_seg:
                    _, maps = self.predict_seg(grid)

        if spec.image == "early":
            # Recolored predicted classes over RGB, predicted depth as a
            # fourth channel, one shared tower.
            overlay = 0.5 * rgb + 0.5 * np.stack([CLASS_COLORS[m.ids - 1] for m in maps])
            img = tower(np.concatenate([overlay, depth.data[..., None] / DEPTH_SCALE],
                                       axis=-1), embed="proj.early_embed")
        else:
            img = tower(rgb)

        seg = [None] * B
        seg_ids: list[list[int] | None] = [None] * B
        if spec.seg == "regions":
            feats, seg_ids = region_pool(maps, cell_tokens, self.params,
                                         self.cfg.spatial)
            toks = mlp_forward(feats, self.params, "proj.seg_head")
            bounds = np.cumsum([0] + [len(ids) for ids in seg_ids])
            seg = [T.slice_(toks, (slice(bounds[b], bounds[b + 1]), slice(None)))
                   for b in range(B)]
        elif spec.seg == "view":
            seg = tower(np.stack([CLASS_COLORS[m.ids - 1] for m in maps]))

        pc = [None] * B
        if spec.pc == "points":
            point_feats = []
            for b, s in enumerate(samples):
                cloud = reconstruct_point_cloud(DepthMap(depth.data[b].copy()),
                                                s.K, s.pose)
                cloud = subsample_cloud(cloud, MAX_ENCODED_POINTS)
                point_feats.append(encode_point_cloud(cloud, self.params)
                                   if len(cloud) else None)
            pc = project_pc_tokens(point_feats, self.params, fcfg)
        elif spec.pc == "depth_patches":
            pc = tower(T.constant(depth.data[..., None] / DEPTH_SCALE),
                       embed="proj.depth_embed")
        elif spec.pc == "view":
            pc = tower(np.repeat(depth.data[..., None] / DEPTH_SCALE, 3, axis=-1))

        return [
            ModalityBundle(
                img_toks=img[b], seg_toks=seg[b], pc_toks=pc[b],
                pred_depth=None if depth is None else depth.data[b],
                pred_seg=None if maps is None else maps[b].ids,
                seg_class_ids=seg_ids[b],
            )
            for b in range(B)
        ]

    # -- sequence assembly ---------------------------------------------------

    def assemble(self, sample: Sample, prompt_ids, answer_ids=None,
                 bundle: ModalityBundle | None = None) -> TokenSequence:
        if bundle is None:
            bundle = self.modality_tokens(sample)
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
