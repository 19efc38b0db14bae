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
from .spatial import SpatialBlockConfig, patchify
from .tensor import Tensor
from .variants import variant_spec


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
    positions: np.ndarray                # positional slot per token
    prompt_ids: tuple[int, ...] = ()     # the ids embedded in the prompt segment

    def __post_init__(self):
        if self.tokens.shape[0] != len(self.tags):
            raise ContractError("token/tag lengths differ")
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if len(self.positions) != len(self.tags):
            raise ContractError("position/tag lengths differ")

    def __len__(self) -> int:
        return len(self.tags)

    def segment_start(self, tag: str) -> int:
        return self.tags.index(tag)

    def next_position(self) -> int:
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
    spec = variant_spec(variant)
    d = cfg.d_token
    patch_dim = cfg.image_patch * cfg.image_patch * 3
    if spec.image == "early":
        # Early fusion: seg recolor overlaid on RGB plus depth as channel 4.
        init_linear(params, "proj.early_embed", cfg.image_patch**2 * 4, d, rng)
    else:
        init_linear(params, "proj.img_embed", patch_dim, d, rng)
    if spec.pc == "depth_patches":
        init_linear(params, "proj.depth_embed", cfg.image_patch**2, d, rng)
    init_mlp(params, "proj.img_head", d, d, d, rng)
    if spec.seg == "regions":
        init_mlp(params, "proj.seg_head", scfg.encoder_dim, d, d, rng)
        # Read by nothing (every predicted map has a region) but kept, so the
        # parameter stream and the checkpoint layout stay as they are.
        params.add("proj.seg_null", rng.normal(0.0, 0.02, (1, d)))
    if spec.pc == "points":
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
    tokens = mlp_forward(tokens, params, "proj.img_head")
    return T.reshape(tokens, tokens.shape[1:]) if squeeze else tokens


def project_pc_tokens(feats: list[Tensor | None], params: ModelParams,
                      cfg: FusionConfig) -> list[Tensor]:
    """Maps each global point feature to pc_tokens tokens, running the head
    once over the stacked features; a None feature (empty cloud) yields the
    learned null tokens (a parameter distinct from the seg null)."""
    present = [f for f in feats if f is not None]
    tokens = []
    if present:
        out = mlp_forward(T.stack(present, axis=0), params, "proj.pc_head")
        tokens = [T.reshape(T.slice_(out, i), (cfg.pc_tokens, cfg.d_token))
                  for i in range(len(present))]
    tokens = iter(tokens)
    return [params["proj.pc_null"] if f is None else next(tokens) for f in feats]


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
    answer) ids in the fixed order. The variant's row says which of the seg
    and pc slots are filled (the image slot always is); the caller supplies
    their content. With a layout, every token also gets a fixed positional
    slot; without one, positions default to sequence order.
    """
    spec = variant_spec(variant)
    parts: list[Tensor] = [img_toks]
    tags: list[str] = ["image"] * img_toks.shape[0]
    base = layout.img_base if layout else 0
    positions: list[int] = list(range(base, base + img_toks.shape[0]))
    if spec.seg is not None:
        if seg_toks is None:
            raise ContractError(f"variant {variant!r} requires seg tokens")
        parts.append(seg_toks)
        tags += ["seg"] * seg_toks.shape[0]
        if layout:
            if seg_class_ids is not None:
                if len(seg_class_ids) != seg_toks.shape[0]:
                    raise ContractError("seg_class_ids length mismatch")
                positions += [layout.seg_base + int(k) - 1 for k in seg_class_ids]
            else:
                positions += list(range(layout.seg_base,
                                        layout.seg_base + seg_toks.shape[0]))
        else:
            positions += list(range(len(positions),
                                    len(positions) + seg_toks.shape[0]))
    if spec.pc is not None:
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
                         positions=np.array(positions, dtype=np.int64),
                         prompt_ids=tuple(int(i) for i in prompt_ids))


def lm_hidden(tokens: Tensor, params: ModelParams, cfg: FusionConfig,
              positions, cache: KVCache | None = None) -> Tensor:
    """Causal transformer over an embedded sequence [S, d] or batch
    [B, S, d]; returns the final hidden states after the last norm.
    Each row adds the row of fusion.pos_embed that `positions` names.

    With a cache (inference only), `tokens` are the rows that follow the
    cache.length rows it holds, `positions` are theirs, and the cache is
    extended by them."""
    S = tokens.shape[-2]
    past = 0 if cache is None else cache.length
    if past + S > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {past + S} exceeds {cfg.max_seq_len}"
        )
    positions = np.asarray(positions, dtype=np.int64)
    if positions.max(initial=0) >= cfg.max_seq_len or positions.min(initial=0) < 0:
        raise SequenceLengthError("positional slot outside the embedding table")
    h = tokens + T.gather_rows(params["fusion.pos_embed"], positions)
    for i in range(cfg.lm_layers):
        h = attention_block_forward(h, params, f"lm.blocks.{i}", cfg.lm_heads,
                                    causal=True, cache=cache)
    if cache is not None:
        cache.length += S
    return layer_norm(h, params, "lm.ln_f")


def lm_forward(seq: TokenSequence | Tensor, params: ModelParams, cfg: FusionConfig,
               return_hidden: bool = False, positions=None,
               cache: KVCache | None = None):
    """Per-position logits over the vocabulary for a token sequence; with a
    cache, for the new rows only (see lm_hidden). A TokenSequence brings
    its own positions; a bare token tensor needs `positions`."""
    if isinstance(seq, TokenSequence):
        tokens = seq.tokens
        if positions is None:
            positions = seq.positions
    else:
        tokens = seq
    if positions is None:
        raise ContractError("lm_forward on a token tensor needs positions")
    if tokens.shape[-2] == 0:
        raise ContractError("cannot run the LM on an empty sequence")
    hidden = lm_hidden(tokens, params, cfg, positions, cache)
    logits = linear(hidden, params, "lm.out")
    return (logits, hidden) if return_hidden else logits


def prefix_cache(seq: TokenSequence, rows: int, params: ModelParams,
                 cfg: FusionConfig) -> KVCache:
    """K/V cache of the first `rows` rows of `seq`, for decode_answer's
    `past`. Sequences that share those rows (same tokens, same positions)
    can all start from it."""
    cache = KVCache()
    if rows:
        with T.no_grad():
            lm_hidden(T.slice_(seq.tokens, slice(0, rows)), params, cfg,
                      positions=seq.positions[:rows], cache=cache)
    return cache


def answer_loss(logits: Tensor, target_ids, answer_mask) -> Tensor:
    """Mean negative log-likelihood of the target ids at masked positions.
    The mask must select answer-prediction positions only.

    [S, V] logits with [S] targets and mask give a scalar. [B, S, V] logits
    with [B, S] targets and masks (a padded group of records, each with a
    non-empty mask) give the [B] per-record mean NLLs as one node; each
    record's value and gradient are those of the [S, V] call on its rows."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    mask = np.asarray(answer_mask, dtype=bool)
    if logits.ndim not in (2, 3):
        raise ContractError(
            f"answer_loss expects [S, V] or [B, S, V] logits, got {logits.shape}")
    if target_ids.shape != logits.shape[:-1] or mask.shape != logits.shape[:-1]:
        raise ContractError(
            f"target_ids {target_ids.shape} and answer_mask {mask.shape} must "
            f"both have the logits' leading shape {logits.shape[:-1]}")
    if logits.ndim == 2:
        positions = np.flatnonzero(mask)
        if positions.size == 0:
            raise EmptyDomainError("answer_loss: empty answer mask")
        logp = T.log_softmax(logits, axis=-1)
        flat = positions * logits.shape[1] + target_ids[positions]
        return -T.mean(T.take_flat(logp, flat))
    if not mask.any(axis=1).all():
        raise EmptyDomainError("answer_loss: a record has an empty answer mask")
    return T.masked_nll(logits, target_ids, mask)


# Most ids a greedy decode guesses ahead per LM call (see decode_answer).
# Scene-graph LM calls and rows, drafting from the evaluation's stream and
# the decode's own history, on the benchmark's reference eval model (seed
# 104, 36 samples, 5,202 tokens) and on the smoke probe's `full` model
# (seed 0, 180 samples, 17,280 tokens):
#   DRAFT            4       8      12      16      24      32
#   104 calls    1,224     780     632     558     442     408
#   104 rows     6,060   6,597   7,469   8,125   8,651   9,679
#   smoke calls  3,811   2,591   2,230   1,784   1,868   1,421
#   smoke rows  18,857  20,917  22,826  20,570  27,755  21,766
# A call costs about 450 us and each row about 50 us more. Timed in turn
# in one process, 16 beat 8 on seeds 104-106 (all 9 rounds, by about 15%
# in the median) and tied on the smoke model.
DRAFT = 16

# Longest suffix of the history that a draft lookup matches. Scene-graph
# LM calls at DRAFT = 16 (QA calls did not change past 8):
#   CONTEXT        4      8     16     32
#   104        1,016    642    558    534
#   smoke      2,294  2,052  1,784  1,441
# A match must cover a QA prompt and the last triple or two of a graph
# to tell apart where repeated answers diverge.
CONTEXT = 16


class DecodeStream:
    """Append-only id stream of finished greedy decodes, for drafting (see
    decode_answer). Each decode appends its prompt ids, BOS and the ids it
    generated, EOS included, in one call. Memory is one growable int64
    array."""

    def __init__(self):
        self._ids = np.empty(1024, dtype=np.int64)
        self._len = 0

    def ids(self) -> np.ndarray:
        """The ids appended so far. Later appends do not change the array
        returned: they write past its end or into a new buffer."""
        return self._ids[:self._len]

    def append(self, ids) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        end = self._len + len(ids)
        if end > len(self._ids):
            grown = np.empty(max(end, 2 * len(self._ids)), dtype=np.int64)
            grown[:self._len] = self._ids[:self._len]
            self._ids = grown
        self._ids[self._len:end] = ids
        self._len = end


def _suffix_match(text: np.ndarray, key: np.ndarray) -> tuple[int, int]:
    """The longest suffix of `key`, at most CONTEXT ids, that occurs in
    `text` with at least one id after it: (its length, the index in `text`
    of the id after its latest occurrence), or (0, 0) if there is none.
    With text = key this finds earlier occurrences only, as the last one
    has no successor."""
    ends = np.flatnonzero(text[:-1] == key[-1])
    length, after = 0, 0
    while ends.size:
        length, after = length + 1, int(ends[-1]) + 1
        if length == min(CONTEXT, len(key)):
            break
        ends = ends[ends >= length]
        ends = ends[text[ends - length] == key[-1 - length]]
    return length, after


def decode_answer(seq_prefix: TokenSequence, params: ModelParams, cfg: FusionConfig,
                  max_new: int = 16, past: KVCache | None = None,
                  stream: DecodeStream | None = None) -> list[int]:
    """Greedy autoregressive decoding from an assembled prefix.

    Appends BOS, then takes the argmax at each step, ties broken toward the
    smaller token id. Stops at EOS, after max_new tokens, or at a token
    whose positional slot would lie outside the embedding table; the
    returned ids exclude BOS and EOS.

    The LM runs once on the prefix rows plus BOS, filling a K/V cache, and
    after that only on rows of generated tokens. `past`, if given, must
    hold the keys and values of exactly the first past.length rows of
    seq_prefix at their positions (see prefix_cache); only the rows after
    them are run. It is not modified: each decode works on a copy.

    The decode drafts and verifies. The history is the prompt, BOS and
    the ids generated so far. The draft takes the longest suffix of the
    history, at most CONTEXT ids, that occurs with a successor in `stream`
    (the ids of earlier decodes, e.g. of the same evaluation) or earlier in
    the history, and copies up to DRAFT ids that followed its latest
    occurrence; on equal match lengths the history wins. It never runs
    past an EOS (no id after an accepted EOS is used), max_new or the last
    slot. One cached lm_forward call runs the last
    generated token (BOS at first) plus the draft, so its rows give the
    greedy choice after each of them. The longest draft prefix that equals
    those choices is accepted, followed by the choice at the first mismatch
    (or after the whole draft); the cache then drops the rows of the
    rejected ids (KVCache.truncate). Every accepted id is the argmax after
    exactly its greedy predecessors, so the output is the
    one-token-per-call greedy output whatever the stream holds, in fewer
    calls when drafts hit. The stream is read once, when the decode starts;
    a decode that returns appends its history, EOS included, to it, and one
    that raises leaves it unchanged.
    """
    if past is not None and not 0 <= past.length <= len(seq_prefix):
        raise ContractError(
            f"past covers {past.length} rows of a {len(seq_prefix)}-row prefix"
        )
    if max_new <= 0:
        return []
    with T.no_grad():
        start = 0 if past is None else past.length
        wte = params["lm.wte"].data
        rows = np.concatenate([seq_prefix.tokens.data[start:], wte[V.BOS][None]],
                              axis=0)
        bos_pos = seq_prefix.next_position()
        pos = np.append(seq_prefix.positions[start:], bos_pos)
        cache = KVCache() if past is None else past.copy()
        earlier = np.empty(0, dtype=np.int64) if stream is None else stream.ids()
        history = list(seq_prefix.prompt_ids) + [V.BOS]
        ids: list[int] = []
        while True:
            # The j-th draft id (from 1) runs as generated token len(ids) + j
            # at slot bos_pos + len(ids) + j, so it must fit max_new and the
            # table.
            limit = min(DRAFT, max_new - len(ids) - 1,
                        cfg.max_seq_len - 1 - bos_pos - len(ids))
            draft = _draft(np.array(history, dtype=np.int64), earlier, limit)
            kept = cache.length + len(rows)
            if draft:
                rows = np.concatenate([rows, wte[draft]], axis=0)
                pos = np.concatenate([pos, pos[-1] + 1 + np.arange(len(draft))])
            logits = lm_forward(Tensor(rows), params, cfg, positions=pos,
                                cache=cache).data
            choices = logits[len(logits) - len(draft) - 1:].argmax(axis=-1)
            for j, tok in enumerate(choices.tolist()):
                ids.append(tok)
                history.append(tok)
                if (tok == V.EOS or len(ids) == max_new
                        or bos_pos + len(ids) >= cfg.max_seq_len):
                    if stream is not None:
                        stream.append(history)
                    return ids[:-1] if tok == V.EOS else ids
                if j == len(draft) or tok != draft[j]:
                    break
            cache.truncate(kept + j)
            rows = wte[tok][None]
            pos = np.array([bos_pos + len(ids)])


def _draft(history: np.ndarray, earlier: np.ndarray, limit: int) -> list[int]:
    """Up to `limit` ids that followed the latest occurrence of the longest
    suffix of `history` found in `earlier` or before in `history` itself,
    `history` winning ties, cut after the first EOS (see decode_answer)."""
    if limit <= 0:
        return []
    own, own_after = _suffix_match(history, history)
    found, after = _suffix_match(earlier, history)
    if found > own:
        draft = earlier[after:after + limit].tolist()
    else:
        draft = history[own_after:own_after + limit].tolist() if own else []
    return draft[:draft.index(V.EOS) + 1] if V.EOS in draft else draft
