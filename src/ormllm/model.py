"""Full pipeline assembly: per-variant parameter construction and the
sample-to-token-sequence forward path.

Pseudo-modalities are always inferred from RGB; ground truth enters only
through losses. Perception (`Model.perceive`) runs the encoder and the
depth and seg heads without recording and returns plain data: per sample,
the encoder cell tokens, predicted classes and predicted depth that the
slots read. So no token loss reaches the encoder or the heads: they train
only through the depth and segmentation supervision losses, and the
region and point encoders and the projections train through their own
weights. Training computes each sample's percept once for the whole
fusion phase and reuses it.

The modality path runs each head only where its slot reads it. Region
pooling reads the predicted classes at the encoder cell centres, and the
point encoder reads the predicted depth on `cloud_raster`: flat pixels
0, s, 2s, ... with s = ceil(H * W / MAX_ENCODED_POINTS), of which the
pixels with non-positive depth are dropped. That is the cloud of every
valid pixel subsampled at the same stride whenever every predicted depth
is > 0, which softplus guarantees unless its input is below about -745.
The early composite and the view and depth-patch slots read whole maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import CompatibilityError, ConfigurationError, ContractError
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
from .geometry import reconstruct_point_cloud
from .nn import ModelParams, mlp_forward
from .scenegen import CLASS_COLORS, Sample
from .spatial import (
    SpatialBlockConfig,
    build_spatial_params,
    cell_centres,
    depth_head_forward,
    encode_point_cloud,
    encoder_forward,
    logits_to_ids,
    region_pool,
    seg_head_forward,
    tokens_to_grid,
)
from .tensor import Tensor
from .variants import variant_spec

DEPTH_SCALE = 10.0  # meters mapped to roughly [0, 1] for image-style inputs
MAX_ENCODED_POINTS = 256  # point encoder input cap (deterministic stride)


def cloud_raster(image_size: int) -> np.ndarray:
    """The flat pixels (v * W + u) the point cloud is back-projected at:
    0, s, 2s, ... with s = ceil(H * W / MAX_ENCODED_POINTS), so at most
    MAX_ENCODED_POINTS of them, spread over the whole image."""
    n = image_size * image_size
    return np.arange(0, n, -(-n // MAX_ENCODED_POINTS))


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
class Percept:
    """What the slots read of one sample's perception, as plain data; None
    where no slot reads it. `cell_tokens` [n_cells, C] are the encoder cells
    that region pooling reads; `seg_ids` are the predicted class ids at the
    cell centres [n_cells] (`seg_at_cells`) or over the whole map [H, W];
    `depth` is the predicted depth on the cloud raster [P]
    (`depth_on_raster`) or over the whole map [H, W]."""

    cell_tokens: np.ndarray | None = None
    seg_ids: np.ndarray | None = None
    depth: np.ndarray | None = None


@dataclass
class ModalityBundle:
    """Per-sample projected segments, plus the class id of each region
    token."""

    img_toks: Tensor
    seg_toks: Tensor | None
    pc_toks: Tensor | None
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

    def predict_depth(self, grid, pixels=None) -> Tensor:
        """Depth [B, H, W], or [B, P] at flat pixels [P]."""
        return depth_head_forward(grid, self.params, self.cfg.spatial, pixels)

    def predict_seg(self, grid, pixels=None) -> tuple[Tensor, np.ndarray]:
        """Class logits [B, K, H, W] and ids [B, H, W], or [B, K, P] and
        [B, P] at flat pixels [P]."""
        logits = seg_head_forward(grid, self.params, self.cfg.spatial, pixels)
        return logits, logits_to_ids(logits.data)

    # -- per-variant token assembly -----------------------------------------

    def modality_tokens(self, sample: Sample) -> ModalityBundle:
        return self.modality_tokens_batch([sample])[0]

    def perceive(self, samples: list[Sample]) -> list[Percept]:
        """Each sample's percept. The encoder and the depth and seg heads
        run once over the batch, without recording, at the pixels the slots
        read: the seg head at the cell centres when only region pooling
        reads it (`seg_at_cells`), the depth head on the cloud raster when
        only the point encoder does (`depth_on_raster`), else over whole
        maps."""
        spec = variant_spec(self.cfg.variant)
        B = len(samples)
        if not spec.spatial:
            return [Percept() for _ in range(B)]
        scfg = self.cfg.spatial
        rgb = np.stack([np.asarray(s.rgb, dtype=np.float64) for s in samples])
        cell_tokens = seg_ids = depth = [None] * B
        with T.no_grad():
            tokens, grid = self.spatial_grid(rgb)
            if spec.seg == "regions":
                cell_tokens = tokens.data
            if spec.needs_depth:
                depth = self.predict_depth(
                    grid, cloud_raster(scfg.image_size) if spec.depth_on_raster
                    else None).data
            if spec.needs_seg:
                _, seg_ids = self.predict_seg(
                    grid, cell_centres(scfg) if spec.seg_at_cells else None)
        return [Percept(cell_tokens[b], seg_ids[b], depth[b]) for b in range(B)]

    def modality_tokens_batch(self, samples: list[Sample],
                              percepts: list[Percept] | None = None
                              ) -> list[ModalityBundle]:
        """Modality tokens for several samples, slot by slot as the variant's
        row says, from the samples' percepts (`perceive` runs when none are
        given). Every projection head runs once over the batch; only the
        masked means of region pooling and the point-cloud encoding loop
        over samples."""
        if percepts is None:
            percepts = self.perceive(samples)
        if len(percepts) != len(samples):
            raise ContractError(f"{len(percepts)} percepts for {len(samples)} samples")
        spec = variant_spec(self.cfg.variant)
        scfg, fcfg = self.cfg.spatial, self.cfg.fusion
        B = len(samples)
        rgb = np.stack([np.asarray(s.rgb, dtype=np.float64) for s in samples])
        centres, raster = cell_centres(scfg), cloud_raster(scfg.image_size)

        def per_sample(batched: Tensor) -> list[Tensor]:
            return [T.slice_(batched, b) for b in range(B)]

        def tower(image, embed: str = "proj.img_embed") -> list[Tensor]:
            return per_sample(project_image_tokens(image, self.params, fcfg,
                                                   embed=embed))

        def stacked(name: str) -> np.ndarray:
            return np.stack([getattr(p, name) for p in percepts])

        depth = stacked("depth") if spec.needs_depth else None
        seg_ids = stacked("seg_ids") if spec.needs_seg else None

        if spec.image == "early":
            # Recolored predicted classes over RGB, predicted depth as a
            # fourth channel, one shared tower.
            overlay = 0.5 * rgb + 0.5 * CLASS_COLORS[seg_ids - 1]
            img = tower(np.concatenate([overlay, depth[..., None] / DEPTH_SCALE],
                                       axis=-1), embed="proj.early_embed")
        else:
            img = tower(rgb)

        seg = [None] * B
        region_ids: list[list[int] | None] = [None] * B
        if spec.seg == "regions":
            cell_ids = seg_ids if spec.seg_at_cells else seg_ids.reshape(B, -1)[:, centres]
            feats, region_ids = region_pool(cell_ids, T.constant(stacked("cell_tokens")),
                                            self.params, scfg)
            toks = mlp_forward(feats, self.params, "proj.seg_head")
            bounds = np.cumsum([0] + [len(ids) for ids in region_ids])
            seg = [T.slice_(toks, (slice(bounds[b], bounds[b + 1]), slice(None)))
                   for b in range(B)]
        elif spec.seg == "view":
            seg = tower(CLASS_COLORS[seg_ids - 1])

        pc = [None] * B
        if spec.pc == "points":
            at_raster = depth if spec.depth_on_raster else depth.reshape(B, -1)[:, raster]
            uv = np.stack([raster % scfg.image_size, raster // scfg.image_size], axis=1)
            point_feats = []
            for b, s in enumerate(samples):
                cloud = reconstruct_point_cloud(at_raster[b], s.K, s.pose, pixels=uv)
                point_feats.append(encode_point_cloud(cloud, self.params)
                                   if len(cloud) else None)
            pc = project_pc_tokens(point_feats, self.params, fcfg)
        elif spec.pc == "depth_patches":
            pc = tower(T.constant(depth[..., None] / DEPTH_SCALE),
                       embed="proj.depth_embed")
        elif spec.pc == "view":
            pc = tower(np.repeat(depth[..., None] / DEPTH_SCALE, 3, axis=-1))

        return [ModalityBundle(img_toks=img[b], seg_toks=seg[b], pc_toks=pc[b],
                               seg_class_ids=region_ids[b])
                for b in range(B)]

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
