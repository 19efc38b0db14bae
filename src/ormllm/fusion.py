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
    DimensionError,
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
    tokens: Tensor          # [S, d_token]: modality rows, prompt, any answer
    positions: np.ndarray                # positional slot per token
    prompt_start: int                    # the first prompt row
    prompt_ids: tuple[int, ...] = ()     # the ids embedded in the prompt segment

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if len(self.positions) != self.tokens.shape[0]:
            raise ContractError("position/token lengths differ")

    def __len__(self) -> int:
        return self.tokens.shape[0]

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
    projection head: images [B, H, W, ch] to tokens [B, n_patches, d].
    Strictly per patch: no cross-patch mixing."""
    img = T.as_tensor(image)
    if img.ndim != 4:
        raise DimensionError(f"expected [B,H,W,ch] images, got {img.shape}")
    if img.shape[1] % cfg.image_patch or img.shape[2] % cfg.image_patch:
        raise ConfigurationError(
            f"image sides {img.shape[1:3]} not divisible by patch {cfg.image_patch}"
        )
    tokens = linear(patchify(img, cfg.image_patch), params, embed)
    return mlp_forward(tokens, params, "proj.img_head")


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
                         variant: str = "full", answer_ids=None, *,
                         layout: SlotLayout, seg_class_ids=None) -> TokenSequence:
    """Concatenates modality segments with embedded prompt (and optional
    answer) ids in the fixed order. The variant's row says which of the seg
    and pc slots are filled (the image slot always is); the caller supplies
    their content. With img_toks None the sequence is text only (stage-1
    records): no modality segment, whatever the variant. Every token gets
    its positional slot from the layout: region tokens at their class ids'
    slots when seg_class_ids are given, the prompt from layout.prompt_base,
    the answer right after the prompt.
    """
    spec = variant_spec(variant)
    parts: list[Tensor] = []
    positions: list[int] = []
    if img_toks is not None:
        parts.append(img_toks)
        positions += list(range(layout.img_base, layout.img_base + img_toks.shape[0]))
        if spec.seg is not None:
            if seg_toks is None:
                raise ContractError(f"variant {variant!r} requires seg tokens")
            parts.append(seg_toks)
            if seg_class_ids is not None:
                if len(seg_class_ids) != seg_toks.shape[0]:
                    raise ContractError("seg_class_ids length mismatch")
                positions += [layout.seg_base + int(k) - 1 for k in seg_class_ids]
            else:
                positions += list(range(layout.seg_base,
                                        layout.seg_base + seg_toks.shape[0]))
        if spec.pc is not None:
            if pc_toks is None:
                raise ContractError(f"variant {variant!r} requires pc-slot tokens")
            parts.append(pc_toks)
            positions += list(range(layout.pc_base, layout.pc_base + pc_toks.shape[0]))
    prompt_ids = list(prompt_ids)
    if not prompt_ids:
        raise ContractError("prompt must be non-empty")
    prompt_start = len(positions)
    parts.append(_embed_ids(prompt_ids, params, cfg))
    positions += list(range(layout.prompt_base, layout.prompt_base + len(prompt_ids)))
    if answer_ids is not None:
        answer_ids = list(answer_ids)
        parts.append(_embed_ids(answer_ids, params, cfg))
        base = positions[-1] + 1
        positions += list(range(base, base + len(answer_ids)))
    total = len(positions)
    if total > cfg.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {total} exceeds max_seq_len {cfg.max_seq_len}"
        )
    if max(positions) >= cfg.max_seq_len:
        raise SequenceLengthError(
            f"positional slot {max(positions)} exceeds max_seq_len {cfg.max_seq_len}"
        )
    return TokenSequence(tokens=T.concat(parts, axis=0),
                         positions=np.array(positions, dtype=np.int64),
                         prompt_start=prompt_start,
                         prompt_ids=tuple(int(i) for i in prompt_ids))


def lm_hidden(tokens: Tensor, params: ModelParams, cfg: FusionConfig,
              positions, cache: KVCache | None = None, rows=None) -> Tensor:
    """Causal transformer over an embedded sequence [S, d] or batch
    [B, S, d]; returns the final hidden states after the last norm.
    Each row adds the row of fusion.pos_embed that `positions` names.

    Every block but the last runs at all S rows. The last block, and
    lm.ln_f after it, run at `rows` only ([k] or [B, k] strictly
    increasing indices into the S rows; see attention_block_forward), so
    the result is [k, d] or [B, k, d]: the full result's rows at `rows`.
    Without `rows` they run at every row.

    With a cache (inference only), `tokens` are the rows that follow the
    cache.length rows it holds, `positions` are theirs, and the cache is
    extended by all of them, whatever `rows` says."""
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
        last = i == cfg.lm_layers - 1
        h = attention_block_forward(h, params, f"lm.blocks.{i}", cfg.lm_heads,
                                    causal=True, cache=cache,
                                    rows=rows if last else None)
    if cache is not None:
        cache.length += S
    return layer_norm(h, params, "lm.ln_f")


def lm_forward(tokens: Tensor, params: ModelParams, cfg: FusionConfig,
               positions, return_hidden: bool = False,
               cache: KVCache | None = None, rows=None):
    """Per-position logits over the vocabulary for embedded tokens [S, d] or
    [B, S, d] at `positions` (see lm_hidden); with a cache, for the new rows
    only, and with `rows`, for those rows only."""
    if tokens.shape[-2] == 0:
        raise ContractError("cannot run the LM on an empty sequence")
    hidden = lm_hidden(tokens, params, cfg, positions, cache, rows)
    logits = linear(hidden, params, "lm.out")
    return (logits, hidden) if return_hidden else logits


def prefix_cache(seq: TokenSequence, rows: int, params: ModelParams,
                 cfg: FusionConfig) -> KVCache:
    """K/V cache of the first `rows` rows of `seq`, for decode_answer's
    `past`. Sequences that share those rows (same tokens, same positions)
    can all start from it. Only keys and values are kept, so the last
    block runs at none of the rows: it forms their keys and values only."""
    cache = KVCache()
    if rows:
        with T.no_grad():
            lm_hidden(T.slice_(seq.tokens, slice(0, rows)), params, cfg,
                      positions=seq.positions[:rows], cache=cache,
                      rows=np.empty(0, dtype=np.int64))
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
# LM calls of a whole evaluation, drafting from its stream and the
# decode's own history, on the smoke probe's `full` model (seed 0, 180
# samples, 11,410 scene-graph tokens) and on the benchmark's reference
# eval model (seed 104, 36 samples, 189 scene-graph tokens):
#   DRAFT            8      12      16      24      32
#   smoke        1,917   1,549   1,334   1,115   1,013
#   104            143     143     143     143     143
# A call costs about 450 us and each row about 50 us more. Timed in turn
# in one process over the smoke model's evaluation, 32 beat 16 in 7 of
# 11 rounds, by 0.8% in the median, so 16 stays; on the older, longer
# scene-graph form 16 beat 8 in all 9 rounds on seeds 104-106.
DRAFT = 16

# Longest suffix of the history that a draft lookup matches. LM calls at
# DRAFT = 16, as above:
#   CONTEXT        8     16     32
#   smoke      1,511  1,334  1,284
#   104          143    143    143
# A match must cover a QA prompt and the last pair or two of a graph
# to tell apart where repeated answers diverge.
CONTEXT = 16


class _Growing:
    """A growable int64 array. The views it hands out never change: later
    extends write past their end or into a new buffer."""

    def __init__(self, capacity: int):
        self._data = np.empty(capacity, dtype=np.int64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def view(self) -> np.ndarray:
        return self._data[:self._len]

    def extend(self, values) -> None:
        end = self._len + len(values)
        if end > len(self._data):
            grown = np.empty(max(end, 2 * len(self._data)), dtype=np.int64)
            grown[:self._len] = self._data[:self._len]
            self._data = grown
        self._data[self._len:end] = values
        self._len = end


# Fills the CONTEXT slots before a stream's first id, so that the narrowing
# of a suffix match reads no id in front of the stream (see _narrow).
_NO_ID = -1


class DecodeStream:
    """Append-only id stream of finished greedy decodes, for drafting (see
    decode_answer). A decode call appends, for each of its prompts in
    order and in one append each, the prompt ids, BOS and the ids it
    generated, EOS included. The stream also keeps, per id, the ascending
    positions at which it occurs, so a draft lookup (match) starts from
    the occurrences of the key's last id instead of scanning the stream.
    Its buffer holds CONTEXT _NO_ID ids before the first id."""

    def __init__(self):
        self._pad = CONTEXT
        self._ids = _Growing(1024)
        self._ids.extend(np.full(self._pad, _NO_ID))
        self._at: dict[int, _Growing] = {}

    def ids(self) -> np.ndarray:
        """The ids appended so far. Later appends do not change the array
        returned."""
        return self._ids.view()[self._pad:]

    def append(self, ids) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        where: dict[int, list[int]] = {}
        for i, tok in enumerate(ids.tolist(), start=len(self._ids) - self._pad):
            where.setdefault(tok, []).append(i)
        self._ids.extend(ids)
        for tok, positions in where.items():
            self._at.setdefault(tok, _Growing(16)).extend(positions)

    def match(self, key: np.ndarray) -> tuple[int, int]:
        """_suffix_match(self.ids(), key), narrowed from the indexed
        occurrences of key's last id."""
        at = self._at.get(int(key[-1]))
        if at is None:
            return 0, 0
        ends = at.view()
        if ends[-1] == len(self._ids) - self._pad - 1:  # the last id has no successor
            ends = ends[:-1]
        return _narrow(self._ids.view(), self._pad, key, ends)


def _suffix_match(text: np.ndarray, key: np.ndarray) -> tuple[int, int]:
    """The longest suffix of `key`, at most CONTEXT ids, that occurs in
    `text` with at least one id after it: (its length, the index in `text`
    of the id after its latest occurrence), or (0, 0) if there is none.
    With text = key this finds earlier occurrences only, as the last one
    has no successor."""
    padded = np.concatenate([np.full(CONTEXT, _NO_ID), text])
    return _narrow(padded, CONTEXT, key, np.flatnonzero(text[:-1] == key[-1]))


def _narrow(padded: np.ndarray, pad: int, key: np.ndarray,
            ends: np.ndarray) -> tuple[int, int]:
    """_suffix_match over the text that follows `pad` >= CONTEXT - 1
    _NO_ID ids in `padded`, given `ends`, the ascending indices in the
    text, its last id excluded, at which key's last id occurs. The padding
    ends a candidate's match at the text's start without a bounds test."""
    length, after = 0, 0
    while ends.size:
        length, after = length + 1, int(ends[-1]) + 1
        if length == min(CONTEXT, len(key)):
            break
        ends = ends[padded[ends + (pad - length)] == key[-1 - length]]
    return length, after


@dataclass
class _Greedy:
    """One prompt's decode in progress (see decode_answer): its history
    (prompt, BOS, the ids chosen so far), its chosen ids, the slot of its
    BOS, and the embedded rows (with their slots) that its next LM call
    runs before the draft."""

    history: list[int]
    ids: list[int]
    bos_pos: int
    new: np.ndarray
    pos: np.ndarray


def decode_answer(prefixes: list[TokenSequence], params: ModelParams,
                  cfg: FusionConfig, *, max_new: int = 16,
                  past: KVCache | None = None,
                  stream: DecodeStream | None = None) -> list[list[int]]:
    """Greedy autoregressive decoding of several prompts, one id list per
    prompt of `prefixes` (assembled sequences that share their first
    past.length rows); a single decode is a list of one.

    Each decode appends BOS, then takes the argmax at each step, ties
    broken toward the smaller token id. It stops at EOS, after max_new
    tokens, or at a token whose positional slot would lie outside the
    embedding table; the returned ids exclude BOS and EOS.

    `past`, if given, must hold the keys and values of exactly the first
    past.length rows of every prefix at their positions (see
    prefix_cache); only the rows after them are run. It is not modified:
    the decodes work on a copy. The first LM call runs every prompt's new
    rows (its prefix rows after past, BOS and its draft) as one
    right-padded batch over `past` broadcast to every prompt (KVCache).
    A prompt's pad rows come after all of its real rows, so the causal
    mask alone keeps them out of every real row's view. A prompt that has
    not ended after that call continues alone, from its own entry of the
    call's cache cut to the rows it accepted (KVCache.select, truncate),
    one LM call at a time; the prompts continue in order. Of the rows a
    call runs, only each prompt's last len(draft) + 1 real rows, whose
    choices are read, run the last block, lm.ln_f and lm.out (the `rows`
    window of lm_forward, padded to the longest); the others run the last
    block's keys and values only.

    Each call drafts and verifies. The draft takes the longest suffix of
    the history, at most CONTEXT ids, that occurs with a successor in
    `stream` (the ids of earlier decodes, e.g. of the same evaluation) or
    earlier in the history, and copies up to DRAFT ids that followed its
    latest occurrence; on equal match lengths the history wins. It never
    runs past an EOS (no id after an accepted EOS is used), max_new or
    the last slot. The call runs the last generated token (BOS at first)
    plus the draft, so its rows give the greedy choice after each of
    them. The longest draft prefix that equals those choices is accepted,
    followed by the choice at the first mismatch (or after the whole
    draft); the cache then drops the rows of the rejected ids. Every
    accepted id is the argmax after exactly its greedy predecessors, so
    each output is the one-token-per-call greedy output whatever the
    stream holds, in fewer calls when drafts hit. The call appends to the
    stream only when it returns, so the prompts of one call do not draft
    from each other; it appends every prompt's history, EOS included, in
    prompt order, and a call that raises leaves the stream unchanged.
    """
    start = 0 if past is None else past.length
    for seq in prefixes:
        if start > len(seq):
            raise ContractError(f"past covers {start} rows of a {len(seq)}-row prefix")
    if max_new <= 0 or not prefixes:
        return [[] for _ in prefixes]
    with T.no_grad():
        wte = params["lm.wte"].data
        earlier = DecodeStream() if stream is None else stream
        decodes = [_Greedy(history=list(seq.prompt_ids) + [V.BOS], ids=[],
                           bos_pos=seq.next_position(),
                           new=np.concatenate([seq.tokens.data[start:],
                                               wte[V.BOS][None]], axis=0),
                           pos=np.append(seq.positions[start:], seq.next_position()))
                   for seq in prefixes]
        cache = KVCache() if past is None else past.copy()
        caches = _verify(decodes, cache, earlier, params, cfg, max_new)
        for d, own in zip(decodes, caches):
            while own is not None:
                own = _verify([d], own, earlier, params, cfg, max_new)[0]
    if stream is not None:
        for d in decodes:
            stream.append(d.history)
    return [d.ids[:-1] if d.ids[-1] == V.EOS else d.ids for d in decodes]


def _verify(decodes: list[_Greedy], cache: KVCache, earlier: DecodeStream,
            params: ModelParams, cfg: FusionConfig,
            max_new: int) -> list[KVCache | None]:
    """One draft-and-verify LM call for `decodes`, batch entry b for
    decodes[b], over `cache` (of batch 1 or len(decodes)); see
    decode_answer. Each decode takes the ids it accepts. Returns, per
    decode, None if it ended, else its own cache cut to the rows it
    accepted, with its next rows set to its last choice."""
    wte = params["lm.wte"].data
    drafts = []
    for d in decodes:
        # The j-th draft id (from 1) runs as generated token len(ids) + j
        # at slot bos_pos + len(ids) + j, so it must fit max_new and the
        # table.
        n = len(d.ids)
        limit = min(DRAFT, max_new - n - 1, cfg.max_seq_len - 1 - d.bos_pos - n)
        drafts.append(_draft(np.array(d.history, dtype=np.int64), earlier, limit))
    lens = [len(d.new) + len(draft) for d, draft in zip(decodes, drafts)]
    S, k = max(lens), max(len(draft) for draft in drafts) + 1
    tokens = np.zeros((len(decodes), S, wte.shape[1]))
    pos = np.zeros((len(decodes), S), dtype=np.int64)
    for b, (d, draft) in enumerate(zip(decodes, drafts)):
        tokens[b, :len(d.new)] = d.new
        tokens[b, len(d.new):lens[b]] = wte[draft]
        pos[b, :lens[b]] = np.append(d.pos, d.pos[-1] + 1 + np.arange(len(draft)))
    # Each read window starts at the decode's last pending row, moved back
    # where the longest window would pass the padded length.
    firsts = np.array([len(d.new) - 1 for d in decodes])
    starts = np.minimum(firsts, S - k)
    held = cache.length
    choices = lm_forward(Tensor(tokens), params, cfg, positions=pos, cache=cache,
                         rows=starts[:, None] + np.arange(k)).data.argmax(axis=-1)
    out: list[KVCache | None] = []
    for b, (d, draft) in enumerate(zip(decodes, drafts)):
        read = choices[b, firsts[b] - starts[b]:][:len(draft) + 1]
        for j, tok in enumerate(read.tolist()):
            d.ids.append(tok)
            d.history.append(tok)
            ended = (tok == V.EOS or len(d.ids) == max_new
                     or d.bos_pos + len(d.ids) >= cfg.max_seq_len)
            if ended or j == len(draft) or tok != draft[j]:
                break
        if ended:
            out.append(None)
            continue
        own = cache.select(b)
        own.truncate(held + len(d.new) + j)
        d.new, d.pos = wte[tok][None], np.array([d.bos_pos + len(d.ids)])
        out.append(own)
    return out


def _draft(history: np.ndarray, earlier: DecodeStream, limit: int) -> list[int]:
    """Up to `limit` ids that followed the latest occurrence of the longest
    suffix of `history` found in `earlier` or before in `history` itself,
    `history` winning ties, cut after the first EOS (see decode_answer)."""
    if limit <= 0:
        return []
    own, own_after = _suffix_match(history, history)
    found, after = earlier.match(history)
    if found > own:
        draft = earlier.ids()[after:after + limit].tolist()
    else:
        draft = history[own_after:own_after + limit].tolist() if own else []
    return draft[:draft.index(V.EOS) + 1] if V.EOS in draft else draft
