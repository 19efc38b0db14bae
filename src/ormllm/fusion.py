"""Token-space fusion and the causal language model.

Every modality is projected into one d_token space, the segments are
concatenated in the fixed order [image, seg, pc, prompt, answer], learned
absolute positional embeddings are added, and a small causal transformer
produces per-position vocabulary logits. Ablation variants drop or
substitute segments but never reorder the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vocab as V
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    EmptyDomainError,
    SequenceLengthError,
)
from .nn import (
    EVAL_CTX,
    ExecContext,
    KVCache,
    ModelParams,
    attention_block_forward,
    init_attention_block,
    init_layer_norm,
    init_linear,
    init_mlp,
    layer_norm,
    linear,
    mlp_forward,
)
from .spatial import RegionFeatureSet, SpatialBlockConfig, patchify
from .tensor import Tensor

VARIANTS = ("full", "no-pc", "no-seg", "no-depth", "no-depth-seg", "no-fusion",
            "stacked")

# Which [image, seg, pc] segments each variant assembles. The no-pc variant
# fills the pc slot with depth-patch tokens; stacked fills seg/pc slots with
# the recolored-seg and depth views run through the shared image tower.
SEGMENTS = {
    "full": (True, True, True),
    "no-pc": (True, True, True),
    "no-seg": (True, False, True),
    "no-depth": (True, True, False),
    "no-depth-seg": (True, False, False),
    "no-fusion": (True, False, False),
    "stacked": (True, True, True),
}


@dataclass
class FusionConfig:
    d_token: int = 64
    lm_layers: int = 2
    lm_heads: int = 4
    vocab_size: int = 0             # set from the dataset vocabulary
    max_seq_len: int = 384
    image_patch: int = 8
    pc_tokens: int = 1
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.d_token % self.lm_heads != 0:
            raise ConfigurationError(
                f"d_token {self.d_token} not divisible by {self.lm_heads} heads"
            )
        for name in ("d_token", "lm_layers", "lm_heads", "max_seq_len",
                     "image_patch", "pc_tokens"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


@dataclass
class TokenSequence:
    tokens: Tensor          # [S, d_token]
    tags: list[str]         # parallel, values in {image, seg, pc, prompt, answer}
    positions: np.ndarray | None = None  # positional slot per token

    def __post_init__(self):
        if self.tokens.shape[0] != len(self.tags):
            raise ContractError("token/tag lengths differ")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=np.int64)
            if len(self.positions) != len(self.tags):
                raise ContractError("position/tag lengths differ")

    def __len__(self) -> int:
        return len(self.tags)

    def segment_start(self, tag: str) -> int:
        return self.tags.index(tag)

    def segment_slice(self, tag: str) -> slice:
        idx = [i for i, t in enumerate(self.tags) if t == tag]
        return slice(idx[0], idx[-1] + 1) if idx else slice(0, 0)

    def next_position(self) -> int:
        if self.positions is None:
            return len(self.tags)
        return int(self.positions.max()) + 1 if len(self.positions) else 0


@dataclass(frozen=True)
class SlotLayout:
    """Fixed positional slots per segment, shared by every variant and both
    training stages, so the prompt always occupies the same positions
    regardless of how many region tokens a sample produced. Region tokens
    index their slot by class id, which also exposes class identity
    positionally."""

    img_base: int
    seg_base: int
    pc_base: int
    prompt_base: int
    seg_by_class: bool = True


def slot_layout(n_image_tokens: int, seg_classes: int, pc_tokens: int) -> SlotLayout:
    seg_width = max(seg_classes, n_image_tokens)   # stacked uses view tokens
    pc_width = max(pc_tokens, n_image_tokens)      # no-pc uses depth patches
    return SlotLayout(
        img_base=0,
        seg_base=n_image_tokens,
        pc_base=n_image_tokens + seg_width,
        prompt_base=n_image_tokens + seg_width + pc_width,
    )


def build_fusion_params(params: ModelParams, cfg: FusionConfig,
                        scfg: SpatialBlockConfig, rng: np.random.Generator,
                        variant: str = "full") -> None:
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    d = cfg.d_token
    patch_dim = cfg.image_patch * cfg.image_patch * 3
    if variant == "no-fusion":
        # Early fusion: seg recolor overlaid on RGB plus depth as channel 4.
        init_linear(params, "proj.early_embed", cfg.image_patch**2 * 4, d, rng)
    else:
        init_linear(params, "proj.img_embed", patch_dim, d, rng)
    if variant == "no-pc":
        init_linear(params, "proj.depth_embed", cfg.image_patch**2, d, rng)
    init_mlp(params, "proj.img_head", d, d, d, rng)
    if SEGMENTS[variant][1] and variant != "stacked":
        init_mlp(params, "proj.seg_head", scfg.encoder_dim, d, d, rng)
        params.add("proj.seg_null", rng.normal(0.0, 0.02, (1, d)))
    if variant in ("full", "no-seg"):
        init_mlp(params, "proj.pc_head", scfg.pc_feature_dim, d, cfg.pc_tokens * d, rng)
        params.add("proj.pc_null", rng.normal(0.0, 0.02, (cfg.pc_tokens, d)))
    init_linear(params, "proj.pool", d, d, rng)
    params.add("fusion.pos_embed", rng.normal(0.0, 0.02, (cfg.max_seq_len, d)))
    if cfg.vocab_size < len(V.RESERVED):
        raise ConfigurationError("vocab_size must cover at least the reserved ids")
    params.add("lm.wte", rng.normal(0.0, 0.02, (cfg.vocab_size, d)))
    for i in range(cfg.lm_layers):
        init_attention_block(params, f"lm.blocks.{i}", d, cfg.mlp_ratio, rng)
    init_layer_norm(params, "lm.ln_f", d)
    init_linear(params, "lm.out", d, cfg.vocab_size, rng)


def project_image_tokens(image, params: ModelParams, cfg: FusionConfig,
                         ctx: ExecContext = EVAL_CTX,
                         embed: str = "proj.img_embed") -> Tensor:
    """Patch flattening, learned linear patch embedding, then the two-layer
    projection head. Strictly per patch: no cross-patch mixing."""
    img = T.as_tensor(image)
    squeeze = img.ndim == 3
    if squeeze:
        img = T.reshape(img, (1,) + img.shape)
    if img.shape[1] % cfg.image_patch or img.shape[2] % cfg.image_patch:
        raise ConfigurationError(
            f"image sides {img.shape[1:3]} not divisible by patch {cfg.image_patch}"
        )
    tokens = linear(patchify(img, cfg.image_patch), params, embed)
    tokens = mlp_forward(tokens, params, "proj.img_head", ctx)
    return T.reshape(tokens, tokens.shape[1:]) if squeeze else tokens


def project_seg_tokens(regions: RegionFeatureSet | None, params: ModelParams,
                       ctx: ExecContext = EVAL_CTX) -> Tensor:
    """One token per region; an empty region set yields the learned null
    token so the segment never vanishes silently."""
    if regions is None or len(regions) == 0:
        return params["proj.seg_null"]
    stacked = T.stack([f for _, f in regions.regions], axis=0)
    return mlp_forward(stacked, params, "proj.seg_head", ctx)


def project_pc_tokens(feat: Tensor | None, params: ModelParams, cfg: FusionConfig,
                      ctx: ExecContext = EVAL_CTX) -> Tensor:
    """Maps the global point feature to pc_tokens tokens; null input yields
    the learned null token (a parameter distinct from the seg null)."""
    if feat is None:
        return params["proj.pc_null"]
    out = mlp_forward(T.reshape(feat, (1, feat.shape[-1])), params, "proj.pc_head", ctx)
    return T.reshape(out, (cfg.pc_tokens, cfg.d_token))


def pooled_image_feature(img_tokens: Tensor, params: ModelParams) -> Tensor:
    """Global image feature for contrastive alignment: mean over image
    tokens through a linear pooling head."""
    return T.reshape(
        linear(T.reshape(T.mean(img_tokens, axis=0), (1, -1)), params, "proj.pool"),
        (-1,),
    )


def _embed_ids(ids, params: ModelParams, cfg: FusionConfig) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise DomainError(
            f"token id outside vocabulary of size {cfg.vocab_size}"
        )
    return T.gather_rows(params["lm.wte"], ids)


def build_input_sequence(img_toks, seg_toks, pc_toks, prompt_ids,
                         params: ModelParams, cfg: FusionConfig,
                         variant: str = "full",
                         answer_ids=None,
                         layout: SlotLayout | None = None,
                         seg_class_ids=None) -> TokenSequence:
    """Concatenates modality segments with embedded prompt (and optional
    answer) ids in the fixed order. Variant flags drop segments; the caller
    supplies substituted content (depth-as-image tokens in the pc slot for
    no-pc, tower views for stacked). With a layout, every token also gets a
    fixed positional slot; without one, positions default to sequence order.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    use_img, use_seg, use_pc = SEGMENTS[variant]
    parts: list[Tensor] = []
    tags: list[str] = []
    positions: list[int] = []
    if use_img:
        parts.append(img_toks)
        tags += ["image"] * img_toks.shape[0]
        base = layout.img_base if layout else 0
        positions += list(range(base, base + img_toks.shape[0]))
    if use_seg:
        if seg_toks is None:
            raise ContractError(f"variant {variant!r} requires seg tokens")
        parts.append(seg_toks)
        tags += ["seg"] * seg_toks.shape[0]
        if layout:
            if layout.seg_by_class and seg_class_ids is not None:
                if len(seg_class_ids) != seg_toks.shape[0]:
                    raise ContractError("seg_class_ids length mismatch")
                positions += [layout.seg_base + int(k) - 1 for k in seg_class_ids]
            else:
                positions += list(range(layout.seg_base,
                                        layout.seg_base + seg_toks.shape[0]))
        else:
            positions += list(range(len(positions),
                                    len(positions) + seg_toks.shape[0]))
    if use_pc:
        if pc_toks is None:
            raise ContractError(f"variant {variant!r} requires pc-slot tokens")
        parts.append(pc_toks)
        tags += ["pc"] * pc_toks.shape[0]
        base = layout.pc_base if layout else len(positions)
        positions += list(range(base, base + pc_toks.shape[0]))
    prompt_ids = list(prompt_ids)
    if not prompt_ids:
        raise ContractError("prompt must be non-empty")
    parts.append(_embed_ids(prompt_ids, params, cfg))
    tags += ["prompt"] * len(prompt_ids)
    base = layout.prompt_base if layout else len(positions)
    positions += list(range(base, base + len(prompt_ids)))
    if answer_ids is not None:
        answer_ids = list(answer_ids)
        parts.append(_embed_ids(answer_ids, params, cfg))
        tags += ["answer"] * len(answer_ids)
        base = positions[-1] + 1
        positions += list(range(base, base + len(answer_ids)))
    total = len(tags)
    if total > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {total} exceeds max_seq_len {cfg.max_seq_len}"
        )
    if positions and max(positions) >= cfg.max_seq_len:
        raise SequenceLengthError(
            f"positional slot {max(positions)} exceeds max_seq_len {cfg.max_seq_len}"
        )
    return TokenSequence(tokens=T.concat(parts, axis=0), tags=tags,
                         positions=np.array(positions, dtype=np.int64))


def lm_hidden(tokens: Tensor, params: ModelParams, cfg: FusionConfig,
              ctx: ExecContext = EVAL_CTX, positions=None,
              cache: KVCache | None = None) -> Tensor:
    """Causal transformer over an embedded sequence [S, d] or batch
    [B, S, d]; returns the final hidden states after the last norm.
    Positional rows follow `positions` when given (slot layout), otherwise
    sequence order.

    With a cache (inference only), `tokens` are the rows that follow the
    cache.length rows it holds, `positions` are theirs (sequence order
    continues from cache.length when omitted), and the cache is extended
    by them."""
    S = tokens.shape[-2]
    past = 0 if cache is None else cache.length
    if past + S > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {past + S} exceeds {cfg.max_seq_len}"
        )
    if positions is None and cache is None:
        pos = T.slice_(params["fusion.pos_embed"], (slice(0, S), slice(None)))
    else:
        if positions is None:
            positions = np.arange(past, past + S)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.max(initial=0) >= cfg.max_seq_len or positions.min(initial=0) < 0:
            raise SequenceLengthError("positional slot outside the embedding table")
        pos = T.gather_rows(params["fusion.pos_embed"], positions)
    h = tokens + pos
    for i in range(cfg.lm_layers):
        h = attention_block_forward(h, params, f"lm.blocks.{i}", cfg.lm_heads,
                                    causal=True, ctx=ctx, cache=cache)
    if cache is not None:
        cache.length += S
    return layer_norm(h, params, "lm.ln_f")


def lm_forward(seq: TokenSequence | Tensor, params: ModelParams, cfg: FusionConfig,
               ctx: ExecContext = EVAL_CTX, return_hidden: bool = False,
               positions=None, cache: KVCache | None = None):
    """Per-position logits over the vocabulary for a token sequence; with a
    cache, for the new rows only (see lm_hidden)."""
    if isinstance(seq, TokenSequence):
        tokens = seq.tokens
        if positions is None:
            positions = seq.positions
    else:
        tokens = seq
    if tokens.shape[-2] == 0:
        raise ContractError("cannot run the LM on an empty sequence")
    hidden = lm_hidden(tokens, params, cfg, ctx, positions, cache)
    logits = linear(hidden, params, "lm.out")
    return (logits, hidden) if return_hidden else logits


def prefix_cache(seq: TokenSequence, rows: int, params: ModelParams,
                 cfg: FusionConfig) -> KVCache:
    """K/V cache of the first `rows` rows of `seq`, for decode_answer's
    `past`. Sequences that share those rows (same tokens, same positions)
    can all start from it."""
    cache = KVCache()
    if rows:
        positions = None if seq.positions is None else seq.positions[:rows]
        with T.no_grad():
            lm_hidden(T.slice_(seq.tokens, slice(0, rows)), params, cfg,
                      positions=positions, cache=cache)
    return cache


def answer_loss(logits: Tensor, target_ids, answer_mask) -> Tensor:
    """Mean negative log-likelihood of the target ids at masked positions.
    The mask must select answer-prediction positions only."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    mask = np.asarray(answer_mask, dtype=bool)
    if logits.ndim != 2:
        raise ContractError(f"answer_loss expects [S, V] logits, got {logits.shape}")
    S, Vn = logits.shape
    if target_ids.shape != (S,) or mask.shape != (S,):
        raise ContractError("target_ids and answer_mask must both have length S")
    positions = np.flatnonzero(mask)
    if positions.size == 0:
        raise EmptyDomainError("answer_loss: empty answer mask")
    logp = T.log_softmax(logits, axis=-1)
    flat = positions * Vn + target_ids[positions]
    return -T.mean(T.take_flat(logp, flat))


def decode_answer(seq_prefix: TokenSequence, params: ModelParams, cfg: FusionConfig,
                  mode: str = "greedy", beam_k: int = 1,
                  max_new: int = 16, past: KVCache | None = None) -> list[int]:
    """Autoregressive decoding from an assembled prefix.

    Appends BOS, then either greedy argmax or beam search ranked by summed
    log probability with ties broken toward the smaller token id. Stops at
    EOS or after max_new tokens; the returned ids exclude BOS and EOS.

    The LM runs once on the prefix rows plus BOS, filling a K/V cache, and
    then on one row per step: the token chosen last. `past`, if given, must
    hold the keys and values of exactly the first past.length rows of
    seq_prefix at their positions (see prefix_cache); only the rows after
    them are run. It is not modified. A beam copies its cache when it
    branches. Each step runs lm_forward once per unfinished beam, so a
    greedy decode makes one call per generated token, EOS included.
    """
    if mode not in ("greedy", "beam"):
        raise ContractError(f"unknown decode mode {mode!r}")
    if mode == "beam" and beam_k < 1:
        raise ContractError("beam search requires k >= 1")
    if past is not None and not 0 <= past.length <= len(seq_prefix):
        raise ContractError(
            f"past covers {past.length} rows of a {len(seq_prefix)}-row prefix"
        )
    if max_new == 0:
        return []
    k = 1 if mode == "greedy" else beam_k
    with T.no_grad():
        wte = params["lm.wte"].data
        start = 0 if past is None else past.length
        rows = np.concatenate([seq_prefix.tokens.data[start:], wte[V.BOS][None]],
                              axis=0)
        if seq_prefix.positions is not None:
            pos = np.concatenate([seq_prefix.positions,
                                  [seq_prefix.next_position()]])
        else:
            pos = np.arange(len(seq_prefix) + 1, dtype=np.int64)
        bos_pos = int(pos[-1])

        # (score, ids, cache, rows still to run, their positions, finished)
        beams = [(0.0, (), KVCache() if past is None else past, rows, pos[start:],
                  False)]
        for _ in range(max_new):
            candidates = []
            for beam in beams:
                score, ids, cache, rows, pos, finished = beam
                if finished:
                    candidates.append(beam)
                    continue
                cache = cache.copy()
                logits = lm_forward(Tensor(rows), params, cfg, positions=pos,
                                    cache=cache).data[-1]
                shifted = logits - logits.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                order = np.lexsort((np.arange(len(logp)), -logp))[:k]
                for tok in order:
                    tok = int(tok)
                    new_ids = ids + (tok,)
                    # A token whose slot lies outside the embedding table
                    # ends the beam without being run.
                    next_pos = bos_pos + len(new_ids)
                    done = tok == V.EOS or next_pos >= cfg.max_seq_len
                    candidates.append((score + logp[tok], new_ids, cache,
                                       wte[tok][None], np.array([next_pos]), done))
            # Rank by score; on ties the lexicographically smaller id tuple wins.
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:k]
            if all(b[5] for b in beams):
                break
        ids = list(beams[0][1])
    return ids[:-1] if ids and ids[-1] == V.EOS else ids
