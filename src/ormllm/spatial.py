"""The 3D spatial block: pseudo-modality inference from a single RGB image.

One shared transformer encoder feeds three heads: an upsampling depth
decoder with a softplus output (depth is strictly positive), a
segmentation decoder producing per-pixel class logits, and region pooling
over the predicted classes. A separate shared-MLP point encoder turns a
back-projected cloud into one permutation-invariant global feature.

Both decoders apply their 1x1 (per-pixel affine) maps to the encoder grid
before upsampling, not after: each row of the bilinear upsampling operator
sums to 1, so the two orders agree up to rounding, and the grid has
4**depth_decoder_stages times fewer pixels than the output.

Both decoders also run at a set of flat pixels (v * W + u) instead of the
whole map: their per-pixel work (the last 3x3 conv, gelu and the output
maps) then covers only those pixels. The losses and the full-map slots
read every pixel; region pooling reads the class map only at the encoder
cell centres (`cell_centres`), and the point encoder the depth only on a
raster (`model.cloud_raster`).

Images come in batches [B, H, W, 3], float64 in [0, 1]. Class ids are
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


def encoder_forward(image, params: ModelParams, cfg: SpatialBlockConfig) -> Tensor:
    """Shared encoder: patch embedding plus attention blocks.

    Takes images [B, H, W, 3]; returns cell features [B, n_cells, C] in
    raster cell order.
    """
    x = T.as_tensor(image)
    if x.shape[1:] != (cfg.image_size, cfg.image_size, 3):
        raise DimensionError(
            f"encoder expects [B,{cfg.image_size},{cfg.image_size},3] images, "
            f"got {x.shape}"
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


def _at_pixels(x: Tensor, pixels: np.ndarray | None) -> Tensor:
    """[B, C, H, W] -> [B, C, P]: the maps at flat pixels (v * W + u), or x
    itself without them."""
    if pixels is None:
        return x
    B, C, H, W = x.shape
    planes = np.arange(B * C).reshape(B, C, 1) * (H * W)
    return T.take_flat(x, planes + np.asarray(pixels, dtype=np.int64))


def _channels_last(x: Tensor) -> Tensor:
    """[B, C, ...] -> [B, N, C] with the trailing dims flattened to N rows."""
    B, C = x.shape[:2]
    return T.transpose(T.reshape(x, (B, C, -1)), (0, 2, 1))


def depth_head_forward(grid: Tensor, params: ModelParams,
                       cfg: SpatialBlockConfig, pixels=None) -> Tensor:
    """Upsampling decoder over encoder features; returns depth [B, H, W] > 0,
    or [B, P] at flat output pixels [P] (v * W + u).

    Stage s adds a 1x1 skip map of the encoder grid, upsampled s + 1 times.
    The map runs at grid resolution, before the upsampling, because a
    per-pixel affine map commutes with bilinear_up2 (its interpolation
    weights sum to 1): the result is that of upsampling first, up to
    rounding, at 1/4**(s+1) of the 1x1 cost. At `pixels`, the last stage's
    3x3 conv gathers only their im2col rows, and gelu, the 1x1 head and
    softplus run on those P rows; the earlier stages and the upsampling stay
    whole. The values at the pixels are the full map's up to rounding, and
    byte for byte at the run configs' cell centres and cloud raster (see
    T.conv3x3; the 1x1 head is a matrix-vector product that OpenBLAS runs
    4 rows at a time, so with P not a multiple of 4 the last rows can
    differ in the last bit)."""
    g = grid
    last = cfg.depth_decoder_stages - 1
    for s in range(cfg.depth_decoder_stages):
        at = pixels if s == last else None
        skip = conv1x1(grid, params, f"spatial.depth.stage{s}.skip")
        for _ in range(s + 1):
            skip = T.bilinear_up2(skip)
        g = T.conv3x3(T.bilinear_up2(g),
                      params[f"spatial.depth.stage{s}.conv.w"],
                      params[f"spatial.depth.stage{s}.conv.b"], pixels=at)
        g = g + _at_pixels(skip, at)
        del skip  # freed before gelu allocates its output and slope
        g = T.gelu(g)
    out = linear(_channels_last(g), params, "spatial.depth.head")  # [B, N, 1]
    return T.softplus(T.reshape(out, (g.shape[0],) + g.shape[2:]))


def seg_head_forward(grid: Tensor, params: ModelParams,
                     cfg: SpatialBlockConfig, pixels=None) -> Tensor:
    """Per-pixel class logits [B, K, H, W] from encoder features, or
    [B, K, P] at flat output pixels [P] (v * W + u).

    The per-pixel MLP "spatial.seg.pixel" splits around the upsampling: fc1
    is affine, so it commutes with bilinear_up2 and runs on the encoder
    grid; gelu and fc2 run at full resolution, or on the P rows of
    `pixels` only. The logits are those of the MLP over upsampled features,
    up to rounding; at the pixels they are the full map's. gelu is
    elementwise, so it runs before the channels-last copy: the upsampled
    map is freed as gelu returns, and gelu's output once it is copied."""
    g = conv1x1(grid, params, "spatial.seg.pixel.fc1")
    for _ in range(cfg.depth_decoder_stages):
        g = T.bilinear_up2(g)
    g = T.gelu(_at_pixels(g, pixels))
    shape = (g.shape[0], cfg.seg_classes) + g.shape[2:]
    g = _channels_last(g)
    logits = linear(g, params, "spatial.seg.pixel.fc2")
    return T.reshape(T.transpose(logits, (0, 2, 1)), shape)


def logits_to_ids(logits_data: np.ndarray) -> np.ndarray:
    """Class ids from [B, K, ...] logits: the argmax over the class axis,
    1-based; ties resolve to the smaller class id (argmax returns the first
    maximum)."""
    return logits_data.argmax(axis=1) + 1


def depth_loss(pred, gt, cfg: SpatialBlockConfig) -> Tensor:
    """L1 depth error plus forward-difference gradient matching, both averaged
    over the valid domain. gt pixels equal to 0 are excluded; a gradient pair
    counts only when both of its pixels are valid."""
    pred = T.as_tensor(pred)
    gt_arr = np.asarray(gt, dtype=np.float64)
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
    """Mean per-pixel cross entropy plus a Dice penalty summed over classes,
    from logits [B, K, H, W] and ground-truth ids [B, H, W].

    Dice_k = (2 * sum(p_k * y_k) + eps) / (sum(p_k) + sum(y_k) + eps) with
    eps = 1e-6 and sums taken over every pixel of every batch item."""
    logits = T.as_tensor(logits)
    gt_ids = np.asarray(gt, dtype=np.int64)
    K = cfg.seg_classes
    if logits.ndim != 4 or gt_ids.ndim != 3:
        raise DimensionError(
            f"seg_loss expects [B,K,H,W] logits and [B,H,W] ids, got "
            f"{logits.shape} and {gt_ids.shape}")
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


def cell_centres(cfg: SpatialBlockConfig) -> np.ndarray:
    """The flat pixel (v * W + u) at the centre of each encoder cell, in
    raster cell order: rows and columns p // 2, p // 2 + p, ... for patch
    side p. Reading a class map there is its nearest-neighbour reduction to
    the encoder grid."""
    side = np.arange(cfg.encoder_patch // 2, cfg.image_size, cfg.encoder_patch)
    return (side[:, None] * cfg.image_size + side[None, :]).reshape(-1)


def region_pool(cell_ids: np.ndarray, cell_tokens: Tensor, params: ModelParams,
                cfg: SpatialBlockConfig) -> tuple[Tensor, list[list[int]]]:
    """Region features for a batch: for each sample, a masked mean over its
    encoder cells per class present among its cell ids, then one pass of a
    small MLP over all of them. cell_ids [B, n_cells] holds each sample's
    predicted class at the cell centres (`cell_centres`), so a class that
    covers no centre is skipped; cell_tokens is [B, n_cells, C], both in
    raster cell order.

    Returns the features [R, C], sample by sample and within a sample in
    ascending class id, and each sample's class ids."""
    cell_ids = np.asarray(cell_ids)
    if (cell_tokens.ndim != 3 or cell_tokens.shape[1] != cfg.n_cells
            or cell_ids.shape != cell_tokens.shape[:2]):
        raise DimensionError(
            f"region_pool expects [{len(cell_ids)}, {cfg.n_cells}] cell ids and "
            f"[{len(cell_ids)}, {cfg.n_cells}, C] cell features, got "
            f"{cell_ids.shape} and {cell_tokens.shape}"
        )
    pooled, class_ids = [], []
    for b, small in enumerate(cell_ids):
        cells = T.slice_(cell_tokens, b)
        ids = [int(k) for k in np.unique(small)]
        for k in ids:
            pooled.append(T.mean(T.gather_rows(cells, np.flatnonzero(small == k)),
                                 axis=0))
        class_ids.append(ids)
    feats = mlp_forward(T.stack(pooled, axis=0), params, "spatial.region.phi")
    return feats, class_ids


def encode_point_cloud(points, params: ModelParams) -> Tensor:
    """Shared per-point MLP over a cloud [N, 3] followed by a coordinate-wise
    max over points. Exactly permutation and duplication invariant. The
    cloud enters as plain coordinates: gradients flow into the encoder
    weights only."""
    points = np.asarray(points)
    if len(points) == 0:
        raise EmptyInputError("cannot encode an empty point cloud")
    per_point = mlp_forward(T.constant(points), params, "spatial.pc")
    return T.max_reduce(per_point, axis=0)
