"""The 3D spatial block: pseudo-modality inference from a single RGB image.

One shared transformer encoder feeds three heads: an upsampling depth
decoder with a softplus output (depth is strictly positive), a
segmentation decoder producing per-pixel class logits, and region pooling
over the predicted class map. A separate shared-MLP point encoder turns a
back-projected cloud into one permutation-invariant global feature.

Both decoders apply their 1x1 (per-pixel affine) maps to the encoder grid
before upsampling, not after: each row of the bilinear upsampling operator
sums to 1, so the two orders agree up to rounding, and the grid has
4**depth_decoder_stages times fewer pixels than the output.

Images are [H, W, 3] (or [B, H, W, 3]) float64 in [0, 1]. Class ids are
1-based; id 1 doubles as the background for pixels with no geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    EmptyDomainError,
    EmptyInputError,
)
from .geometry import DepthMap
from .nn import (
    ModelParams,
    attention_block_forward,
    init_attention_block,
    init_linear,
    init_mlp,
    linear,
    mlp_forward,
)
from .tensor import Tensor


@dataclass
class SpatialBlockConfig:
    image_size: int = 32            # H == W
    encoder_blocks: int = 2
    encoder_dim: int = 64           # C
    encoder_heads: int = 4
    encoder_patch: int = 4
    depth_decoder_stages: int = 2
    seg_classes: int = 8            # K
    lambda_l1: float = 1.0
    lambda_grad: float = 0.5
    lambda_dice: float = 1.0
    pc_hidden: int = 64
    pc_feature_dim: int = 64        # width of the global point feature

    def __post_init__(self):
        if self.seg_classes < 2:
            raise ConfigurationError("need at least 2 segmentation classes")
        for name in ("image_size", "encoder_blocks", "encoder_dim", "encoder_heads",
                     "encoder_patch", "depth_decoder_stages", "pc_hidden",
                     "pc_feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("lambda_l1", "lambda_grad", "lambda_dice"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.encoder_patch != 2 ** self.depth_decoder_stages:
            raise ConfigurationError(
                "encoder_patch must equal 2**depth_decoder_stages so the decoder "
                "returns to input resolution"
            )
        if self.image_size % self.encoder_patch != 0:
            raise ConfigurationError("image_size must be divisible by encoder_patch")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.encoder_patch

    @property
    def n_cells(self) -> int:
        return self.grid_size * self.grid_size


@dataclass
class PanopticMap:
    ids: np.ndarray       # [H, W], values in [1, num_classes]
    num_classes: int

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ConfigurationError(f"panoptic map must be 2-d, got {ids.shape}")
        if ids.min(initial=1) < 1 or ids.max(initial=1) > self.num_classes:
            raise DomainError(
                f"class ids must lie in [1, {self.num_classes}], "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        self.ids = ids

    @property
    def height(self) -> int:
        return self.ids.shape[0]

    @property
    def width(self) -> int:
        return self.ids.shape[1]


def build_spatial_params(params: ModelParams, cfg: SpatialBlockConfig,
                         rng: np.random.Generator, *, depth: bool = True,
                         seg: bool = True, region: bool | None = None,
                         pc: bool = True) -> None:
    if region is None:
        region = seg
    c = cfg.encoder_dim
    patch_dim = cfg.encoder_patch * cfg.encoder_patch * 3
    init_linear(params, "spatial.encoder.embed", patch_dim, c, rng)
    params.add("spatial.encoder.pos", rng.normal(0.0, 0.02, (cfg.n_cells, c)))
    for i in range(cfg.encoder_blocks):
        init_attention_block(params, f"spatial.encoder.blocks.{i}", c, 4, rng)
    if depth:
        for s in range(cfg.depth_decoder_stages):
            params.add(f"spatial.depth.stage{s}.conv.w",
                       rng.normal(0.0, 1.0 / np.sqrt(9 * c), (c, c, 3, 3)))
            params.add(f"spatial.depth.stage{s}.conv.b", np.zeros(c))
            init_linear(params, f"spatial.depth.stage{s}.skip", c, c, rng)
        init_linear(params, "spatial.depth.head", c, 1, rng)
    if seg:
        init_mlp(params, "spatial.seg.pixel", c, c, cfg.seg_classes, rng)
    if region:
        init_mlp(params, "spatial.region.phi", c, c, c, rng)
    if pc:
        init_mlp(params, "spatial.pc", 3, cfg.pc_hidden, cfg.pc_feature_dim, rng)


def patchify(image: Tensor, patch: int) -> Tensor:
    """[B, H, W, ch] -> [B, (H/p)*(W/p), p*p*ch] in raster patch order."""
    B, H, W, ch = image.shape
    if H % patch or W % patch:
        raise ConfigurationError(f"image side {H}x{W} not divisible by patch {patch}")
    g = H // patch
    x = T.reshape(image, (B, g, patch, g, patch, ch))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (B, g * g, patch * patch * ch))


def _ensure_batched(image) -> Tensor:
    t = T.as_tensor(image)
    if t.ndim == 3:
        return T.reshape(t, (1,) + t.shape)
    if t.ndim != 4:
        raise DimensionError(f"expected [H,W,3] or [B,H,W,3] image, got {t.shape}")
    return t


def encoder_forward(image, params: ModelParams, cfg: SpatialBlockConfig) -> Tensor:
    """Shared encoder: patch embedding plus attention blocks.

    Returns cell features [B, n_cells, C] in raster cell order.
    """
    x = _ensure_batched(image)
    if x.shape[1] != cfg.image_size or x.shape[2] != cfg.image_size or x.shape[3] != 3:
        raise DimensionError(
            f"encoder expects [{cfg.image_size},{cfg.image_size},3] images, "
            f"got {tuple(x.shape[1:])}"
        )
    tokens = linear(patchify(x, cfg.encoder_patch), params, "spatial.encoder.embed")
    tokens = tokens + params["spatial.encoder.pos"]
    for i in range(cfg.encoder_blocks):
        tokens = attention_block_forward(
            tokens, params, f"spatial.encoder.blocks.{i}", cfg.encoder_heads,
            causal=False,
        )
    return tokens


def tokens_to_grid(tokens: Tensor, cfg: SpatialBlockConfig) -> Tensor:
    B = tokens.shape[0]
    g = cfg.grid_size
    return T.transpose(T.reshape(tokens, (B, g, g, cfg.encoder_dim)), (0, 3, 1, 2))


def conv1x1(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """Channel-mixing 1x1 convolution on [B, C, H, W]."""
    B, C, H, W = x.shape
    flat = T.reshape(T.transpose(x, (0, 2, 3, 1)), (B, H * W, C))
    out = linear(flat, params, prefix)
    return T.transpose(T.reshape(out, (B, H, W, out.shape[-1])), (0, 3, 1, 2))


def depth_head_forward(grid: Tensor, params: ModelParams,
                       cfg: SpatialBlockConfig) -> Tensor:
    """Upsampling decoder over encoder features; returns depth [B, H, W] > 0.

    Stage s adds a 1x1 skip map of the encoder grid, upsampled s + 1 times.
    The map runs at grid resolution, before the upsampling, because a
    per-pixel affine map commutes with bilinear_up2 (its interpolation
    weights sum to 1): the result is that of upsampling first, up to
    rounding, at 1/4**(s+1) of the 1x1 cost."""
    g = grid
    for s in range(cfg.depth_decoder_stages):
        skip = conv1x1(grid, params, f"spatial.depth.stage{s}.skip")
        for _ in range(s + 1):
            skip = T.bilinear_up2(skip)
        g = T.conv3x3(T.bilinear_up2(g),
                      params[f"spatial.depth.stage{s}.conv.w"],
                      params[f"spatial.depth.stage{s}.conv.b"])
        g = T.gelu(g + skip)
    out = conv1x1(g, params, "spatial.depth.head")
    B, _, H, W = out.shape
    return T.softplus(T.reshape(out, (B, H, W)))


def depth_forward(image, params: ModelParams, cfg: SpatialBlockConfig) -> Tensor:
    """Encoder plus depth decoder: strictly positive depth, [H, W] for a
    single image and [B, H, W] for a batch."""
    grid = tokens_to_grid(encoder_forward(image, params, cfg), cfg)
    return T.reshape(depth_head_forward(grid, params, cfg),
                     T.as_tensor(image).shape[:-1])


def seg_head_forward(grid: Tensor, params: ModelParams,
                     cfg: SpatialBlockConfig) -> Tensor:
    """Per-pixel class logits [B, K, H, W] from encoder features.

    The per-pixel MLP "spatial.seg.pixel" splits around the upsampling: fc1
    is affine, so it commutes with bilinear_up2 and runs on the encoder
    grid; gelu and fc2 run at full resolution. The logits are
    those of the MLP over upsampled features, up to rounding."""
    g = conv1x1(grid, params, "spatial.seg.pixel.fc1")
    for _ in range(cfg.depth_decoder_stages):
        g = T.bilinear_up2(g)
    B, C, H, W = g.shape
    flat = T.gelu(T.reshape(T.transpose(g, (0, 2, 3, 1)), (B, H * W, C)))
    logits = linear(flat, params, "spatial.seg.pixel.fc2")
    return T.transpose(T.reshape(logits, (B, H, W, cfg.seg_classes)), (0, 3, 1, 2))


def logits_to_map(logits_data: np.ndarray, num_classes: int) -> PanopticMap:
    """Argmax over the class axis of one [K, H, W] slice; ties resolve to the
    smaller class id (argmax returns the first maximum)."""
    return PanopticMap(ids=logits_data.argmax(axis=0) + 1, num_classes=num_classes)


def depth_loss(pred, gt, cfg: SpatialBlockConfig) -> Tensor:
    """L1 depth error plus forward-difference gradient matching, both averaged
    over the valid domain. gt pixels equal to 0 are excluded; a gradient pair
    counts only when both of its pixels are valid."""
    pred = T.as_tensor(pred)
    gt_arr = gt.values if isinstance(gt, DepthMap) else np.asarray(gt, dtype=np.float64)
    if pred.shape != gt_arr.shape:
        raise DimensionError(f"depth_loss shapes differ: {pred.shape} vs {gt_arr.shape}")
    valid = gt_arr > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyDomainError("depth_loss: no valid ground-truth pixels")

    flat_valid = np.flatnonzero(valid.reshape(-1))
    l1 = T.mean(T.abs_(T.take_flat(pred, flat_valid) - T.constant(gt_arr.reshape(-1)[flat_valid])))

    def grad_term(axis: int) -> Tensor:
        a = valid.take(range(0, valid.shape[axis] - 1), axis=axis)
        b = valid.take(range(1, valid.shape[axis]), axis=axis)
        pair = a & b
        if not pair.any():
            return T.constant(0.0)
        idx_a = np.flatnonzero(_shift_mask(pair, valid.shape, axis, 0))
        idx_b = np.flatnonzero(_shift_mask(pair, valid.shape, axis, 1))
        d_pred = T.take_flat(pred, idx_b) - T.take_flat(pred, idx_a)
        gt_flat = gt_arr.reshape(-1)
        d_gt = gt_flat[idx_b] - gt_flat[idx_a]
        return T.mean(T.abs_(d_pred - T.constant(d_gt)))

    # u runs along width (last axis), v along height (second to last).
    term_u = grad_term(pred.ndim - 1)
    term_v = grad_term(pred.ndim - 2)
    return cfg.lambda_l1 * l1 + cfg.lambda_grad * (term_u + term_v)


def _shift_mask(pair: np.ndarray, shape, axis: int, offset: int) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    sl = [slice(None)] * len(shape)
    sl[axis] = slice(offset, pair.shape[axis] + offset)
    out[tuple(sl)] = pair
    return out


def seg_loss(logits, gt, cfg: SpatialBlockConfig) -> Tensor:
    """Mean per-pixel cross entropy plus a Dice penalty summed over classes.

    Dice_k = (2 * sum(p_k * y_k) + eps) / (sum(p_k) + sum(y_k) + eps) with
    eps = 1e-6 and sums taken over every pixel (and every batch item)."""
    logits = T.as_tensor(logits)
    squeeze = logits.ndim == 3
    if squeeze:
        logits = T.reshape(logits, (1,) + logits.shape)
    if isinstance(gt, PanopticMap):
        gt_ids = gt.ids[None]
    else:
        gt_ids = np.asarray(gt, dtype=np.int64)
        if gt_ids.ndim == 2:
            gt_ids = gt_ids[None]
    K = cfg.seg_classes
    if logits.shape[1] != K:
        raise DimensionError(f"seg_loss expects {K} class planes, got {logits.shape[1]}")
    if logits.shape[0] != gt_ids.shape[0] or logits.shape[2:] != gt_ids.shape[1:]:
        raise DimensionError(f"seg_loss shapes differ: {logits.shape} vs {gt_ids.shape}")
    if gt_ids.min() < 1 or gt_ids.max() > K:
        raise DomainError(f"ground-truth ids outside [1, {K}]")

    B, _, H, W = logits.shape
    logp = T.log_softmax(logits, axis=1)
    bidx, vidx, uidx = np.meshgrid(np.arange(B), np.arange(H), np.arange(W),
                                   indexing="ij")
    flat = np.ravel_multi_index(
        (bidx.reshape(-1), (gt_ids - 1).reshape(-1), vidx.reshape(-1), uidx.reshape(-1)),
        logits.shape,
    )
    ce = -T.mean(T.take_flat(logp, flat))

    eps = 1e-6
    p = T.softmax(logits, axis=1)
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, (gt_ids - 1)[:, None], 1.0, axis=1)
    inter = T.sum_(p * T.constant(onehot), axis=(0, 2, 3))
    psum = T.sum_(p, axis=(0, 2, 3))
    ysum = T.constant(onehot.sum(axis=(0, 2, 3)))
    dice = (2.0 * inter + eps) / (psum + ysum + eps)
    dice_pen = T.sum_(1.0 - dice)
    return ce + cfg.lambda_dice * dice_pen


def downsample_map(map_ids: np.ndarray, grid: int) -> np.ndarray:
    """Nearest-neighbor reduction of a [H, W] id map to [grid, grid]."""
    H, W = map_ids.shape
    sy, sx = H // grid, W // grid
    return map_ids[sy // 2 :: sy, sx // 2 :: sx][:grid, :grid]


def region_pool(maps: list[PanopticMap], cell_tokens: Tensor,
                params: ModelParams,
                cfg: SpatialBlockConfig) -> tuple[Tensor, list[list[int]]]:
    """Region features for a batch: for each sample, a masked mean over its
    encoder cells per class present in its downsampled map (classes that
    vanish at encoder resolution are skipped), then one pass of a small MLP
    over all of them. cell_tokens is [B, n_cells, C] in raster cell order.

    Returns the features [R, C], sample by sample and within a sample in
    ascending class id, and each sample's class ids."""
    if (cell_tokens.ndim != 3 or cell_tokens.shape[0] != len(maps)
            or cell_tokens.shape[1] != cfg.n_cells):
        raise DimensionError(
            f"region_pool expects [{len(maps)}, {cfg.n_cells}, C] cell features, "
            f"got {cell_tokens.shape}"
        )
    pooled, class_ids = [], []
    for b, pmap in enumerate(maps):
        cells = T.slice_(cell_tokens, b)
        small = downsample_map(pmap.ids, cfg.grid_size).reshape(-1)
        ids = [int(k) for k in sorted(np.unique(small))]
        for k in ids:
            pooled.append(T.mean(T.gather_rows(cells, np.flatnonzero(small == k)),
                                 axis=0))
        class_ids.append(ids)
    feats = mlp_forward(T.stack(pooled, axis=0), params, "spatial.region.phi")
    return feats, class_ids


def encode_point_cloud(cloud, params: ModelParams) -> Tensor:
    """Shared per-point MLP followed by a coordinate-wise max over points.
    Exactly permutation and duplication invariant. The cloud enters as plain
    coordinates: gradients flow into the encoder weights only."""
    points = cloud.points if hasattr(cloud, "points") else np.asarray(cloud)
    if len(points) == 0:
        raise EmptyInputError("cannot encode an empty point cloud")
    per_point = mlp_forward(T.constant(points), params, "spatial.pc")
    return T.max_reduce(per_point, axis=0)
