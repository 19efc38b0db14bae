"""Two-stage training: language adaptation, then vision and projection
tuning against the composite language-modeling plus contrastive objective.

Stage 1 trains exactly the lm.* tensors on text-only QA records. Stage 2
freezes them and trains everything else on full multimodal records. It
opens with a supervision (VFM) phase that fits the encoder and the depth
and segmentation decoders to rendered ground truth (the stand-in for
fine-tuning pretrained perception backbones before fusion training). The
fusion phase then optimizes lm_loss + lambda_clip * InfoNCE. There the
perception nets are fixed: each sample's percept (`Model.perceive`) is
computed once, when a batch first holds the sample, and reused for the
rest of the phase, and no fusion loss reaches the encoder or the heads.
So they end stage 2 as the VFM phase left them, and with vfm_epochs = 0
stage 2 never trains them. The optimizer skips a tensor with no gradient,
as torch.optim.AdamW does, so weight decay moves nothing a step does not
reach. All shuffling derives from the config seed, so loss logs are
bit-reproducible.

In both stages the LM runs once per task group of a batch (QA, SGG), each
group padded only to its own longest record. Every block but the last runs
at all of the group's rows; the last block, lm.ln_f and lm.out run only at
each record's read window, the rows its losses read: the answer-mask rows
and, in stage 2, the InfoNCE text row (see _lm_by_task). Each group's
answer loss is one answer_loss node that gives its records' losses; they
are put back in batch order before they are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from . import vocab as V
from .errors import ConfigurationError, ContractError, NumericError
from .fusion import answer_loss, build_input_sequence, lm_forward
from .metrics import normalize
from .model import Model, Percept
from .nn import ModelParams
from .scenegen import Sample, triples_to_text
from .spatial import depth_loss, seg_loss
from .tensor import Tensor
from .variants import variant_spec
from .vocab import Vocabulary


@dataclass
class TrainConfig:
    stage: int = 1
    lr_lm: float = 3e-3
    lr_vision: float = 3e-3
    lr_pretrained_vision: float = 5e-4  # fusion phase: spatial.region, spatial.pc
    batch_size: int = 8
    epochs: int = 10
    warmup_steps: int = 10
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    weight_decay: float = 0.01
    lambda_clip: float = 0.1
    tau: float = 0.07
    seed: int = 0
    vfm_epochs: int = 3       # stage-2 depth/seg supervision phase; with 0,
                              # stage 2 never trains encoder, depth or seg
    qa_per_sample: int = 2    # stage-2 QA records drawn per sample (0 = all)
    # Scene-graph targets hold the whole graph. The field, whose only legal
    # value is 0, and make_stage2_records' keyword of the same name are kept
    # only because the benchmark passes cfg.sgg_max_triples to the builder.
    sgg_max_triples: int = 0

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigurationError(f"stage must be 1 or 2, got {self.stage}")
        for name in ("lr_lm", "lr_vision", "lr_pretrained_vision", "tau"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.lambda_clip < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError("invalid lambda_clip, batch_size or epochs")
        # Adam's moment decays lie in [0, 1): beta = 1 never forgets, and its
        # bias correction divides by zero.
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"train.{name} must be in [0, 1), got {value}")
        for name in ("warmup_steps", "weight_decay", "vfm_epochs", "qa_per_sample"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"train.{name} must be >= 0, got {value}")
        _check_whole_graph(self.sgg_max_triples)


@dataclass
class TrainRecord:
    stage: int
    task: str                  # "qa" | "sgg"
    sample_index: int | None   # into TrainData.samples; None for stage 1
    prompt_ids: list[int]
    answer_ids: list[int]      # raw answer tokens, BOS/EOS added at assembly


@dataclass
class TrainData:
    stage: int
    records: list[TrainRecord]
    samples: list[Sample]
    vocab_size: int


def qa_prompt_ids(vocab: Vocabulary, question: str) -> list[int]:
    return vocab.encode(" ".join(normalize(question)))


def _check_whole_graph(sgg_max_triples: int) -> None:
    if sgg_max_triples != 0:
        raise ConfigurationError(
            f"sgg_max_triples must be 0 (targets hold the whole graph), got {sgg_max_triples}")


def make_stage1_records(samples: list[Sample], vocab: Vocabulary) -> TrainData:
    """Text-only instruction records: QA pairs plus one scene-graph
    serialization record per scene, its whole graph in the compact form of
    triples_to_text. The frozen stage-2 LM can only emit triple grammar it
    has already seen here; one record per scene (views share triples)
    teaches the grammar without flooding the corpus with sequences whose
    content is unpredictable from text alone."""
    records = []
    seen_scenes: set[int] = set()
    for s in samples:
        for question, answers in s.qa:
            records.append(TrainRecord(
                stage=1, task="qa", sample_index=None,
                prompt_ids=qa_prompt_ids(vocab, question),
                answer_ids=vocab.encode(answers[0]),
            ))
        if s.scene_id not in seen_scenes:
            seen_scenes.add(s.scene_id)
            records.append(TrainRecord(
                stage=1, task="sgg", sample_index=None,
                prompt_ids=[V.SGG_TASK],
                answer_ids=vocab.encode(triples_to_text(s.triples)),
            ))
    return TrainData(stage=1, records=records, samples=[], vocab_size=len(vocab))


def make_stage2_records(samples: list[Sample], vocab: Vocabulary,
                        qa_per_sample: int, seed: int,
                        sgg_max_triples: int = 0) -> TrainData:
    """Multimodal records: per sample, `qa_per_sample` of its QA pairs
    (0 = all), drawn by `seed`, plus one scene-graph record whose target
    is the sample's whole graph in the compact form of triples_to_text.
    `sgg_max_triples` must be 0 (see TrainConfig)."""
    _check_whole_graph(sgg_max_triples)
    rng = np.random.default_rng(np.random.SeedSequence([0x2EC02D, seed]))
    records = []
    for idx, s in enumerate(samples):
        qa = list(s.qa)
        if qa_per_sample and len(qa) > qa_per_sample:
            picks = sorted(rng.choice(len(qa), size=qa_per_sample, replace=False))
            qa = [qa[i] for i in picks]
        for question, answers in qa:
            records.append(TrainRecord(
                stage=2, task="qa", sample_index=idx,
                prompt_ids=qa_prompt_ids(vocab, question),
                answer_ids=vocab.encode(answers[0]),
            ))
        records.append(TrainRecord(
            stage=2, task="sgg", sample_index=idx,
            prompt_ids=[V.SGG_TASK],
            answer_ids=vocab.encode(triples_to_text(s.triples)),
        ))
    return TrainData(stage=2, records=records, samples=list(samples),
                     vocab_size=len(vocab))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def contrastive_loss(v: Tensor, t: Tensor, tau: float,
                     sample_ids=None) -> Tensor:
    """One-directional (image to text) InfoNCE over cosine similarities.

    loss = -(1/N) sum_i log( exp(sim(v_i,t_i)/tau) / sum_{j in N(i)} exp(sim(v_i,t_j)/tau) )

    N(i) is i plus every j whose sample id differs from i's: two records of
    one sample share their image feature, so neither is a negative of the
    other (Chuang et al., Debiased Contrastive Learning). Without
    `sample_ids` every record is its own sample.
    """
    if v.ndim != 2 or t.ndim != 2 or v.shape != t.shape:
        raise ContractError(f"contrastive_loss needs matching [N, D], got "
                            f"{v.shape} and {t.shape}")
    n = v.shape[0]
    if n < 1:
        raise ContractError("contrastive_loss needs at least one pair")
    ids = np.arange(n) if sample_ids is None else np.asarray(sample_ids)
    if ids.shape != (n,):
        raise ContractError(f"contrastive_loss needs {n} sample ids, got shape "
                            f"{ids.shape}")
    same = (ids[:, None] == ids[None, :]) & ~np.eye(n, dtype=bool)
    for name, x in (("image", v), ("text", t)):
        norms = np.linalg.norm(x.data, axis=1)
        if (norms == 0.0).any():
            raise NumericError(f"zero-norm {name} feature: cosine undefined")
    vn = v / T.reshape(T.sqrt(T.sum_(v * v, axis=1)), (n, 1))
    tn = t / T.reshape(T.sqrt(T.sum_(t * t, axis=1)), (n, 1))
    sims = T.matmul(vn, T.transpose(tn, (1, 0))) * (1.0 / tau)
    sims = sims + T.constant(np.where(same, -np.inf, 0.0))
    lse = T.logsumexp(sims, axis=-1)
    diag = T.take_flat(sims, np.arange(n) * n + np.arange(n))
    return T.mean(lse - diag)


def stage2_loss(lm_loss, contrast, lambda_clip: float):
    """Composite stage-2 objective: lm_loss + lambda_clip * contrast."""
    return lm_loss + lambda_clip * contrast


def lr_at_step(step: int, total_steps: int, cfg: TrainConfig,
               base: float) -> float:
    """Linear warmup to the base rate, then cosine decay to zero."""
    if total_steps <= 0:
        raise ConfigurationError("total_steps must be positive")
    if cfg.warmup_steps >= total_steps:
        raise ConfigurationError("warmup_steps must be smaller than total_steps")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warmup = cfg.warmup_steps
    if warmup > 0 and step < warmup:
        return base * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return base * 0.5 * (1.0 + np.cos(np.pi * progress))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# Keeps AdamW's denominator away from zero.
ADAM_EPS = 1e-8


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def optimizer_step(params: ModelParams, state: AdamWState, cfg: TrainConfig,
                   rate_for) -> None:
    """Decoupled-weight-decay adaptive-moment update with bias correction.

    rate_for maps a tensor name to its learning rate (already scheduled).
    Frozen tensors, and trainable ones whose grad is None because no loss
    reached them, are untouched bit-exactly: neither their moments nor
    weight decay move. Any non-finite gradient aborts the whole step before
    any tensor is modified."""
    trainable = [name for name, flag in params.trainable.items()
                 if flag and params[name].grad is not None]
    for name in trainable:
        if not np.isfinite(params[name].grad).all():
            raise NumericError(f"non-finite gradient in tensor {name!r}")
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name in trainable:
        tensor = params[name]
        g = tensor.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        lr = rate_for(name)
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        tensor.data -= lr * (update + cfg.weight_decay * tensor.data)


def stage_mask(params: ModelParams, stage: int) -> dict[str, bool]:
    """Stage 1 trains exactly the lm.* tensors; stage 2 trains everything
    else (vision, projections, the fusion positional table)."""
    if stage not in (1, 2):
        raise ContractError(f"stage must be 1 or 2, got {stage}")
    return {name: name.startswith("lm.") == (stage == 1)
            for name in params.names()}


def apply_stage_mask(params: ModelParams, stage: int) -> None:
    """Tracks exactly the tensors the stage trains."""
    for name, flag in stage_mask(params, stage).items():
        params[name].requires_grad = flag


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class LossRow:
    step: int
    stage: str
    lm_loss: float
    contrast_loss: float
    total: float
    lr: float

    def format(self) -> str:
        return (f"{self.step}\t{self.stage}\t{self.lm_loss:.17g}\t"
                f"{self.contrast_loss:.17g}\t{self.total:.17g}\t{self.lr:.17g}")


@dataclass
class TrainResult:
    rows: list[LossRow]
    epoch_means: list[float]       # main-phase epochs
    vfm_epoch_means: list[float]


def _pad_stack(seqs: list[Tensor],
               positions: list[np.ndarray]) -> tuple[Tensor, np.ndarray]:
    """Stack variable-length [S_i, d] sequences into [B, S_max, d] with zero
    rows at the tail; causal attention keeps real positions unaffected.
    Positional slots are padded with 0 (the pad rows never enter a loss).
    Training stacks one task group at a time (see _lm_by_task), so S_max is
    the longest record of that group, not of the whole batch."""
    s_max = max(s.shape[0] for s in seqs)
    padded, pos_rows = [], []
    for s, pos in zip(seqs, positions):
        pad = s_max - s.shape[0]
        if pad:
            s = T.concat([s, T.constant(np.zeros((pad, s.shape[1])))], axis=0)
            pos = np.concatenate([pos, np.zeros(pad, dtype=np.int64)])
        padded.append(s)
        pos_rows.append(pos)
    return T.stack(padded, axis=0), np.stack(pos_rows)


def _in_batch_order(parts: list[Tensor], order: list[int]) -> Tensor:
    """Joins per-group results along axis 0 and puts their rows back in
    batch order; `order` lists the batch index of each joined row."""
    joined = parts[0] if len(parts) == 1 else T.concat(parts, axis=0)
    if order == sorted(order):
        return joined
    where = np.argsort(order)
    if joined.ndim == 1:
        return T.take_flat(joined, where)
    return T.gather_rows(joined, where)


def _lm_by_task(model: Model, records: list[TrainRecord], seqs: list[Tensor],
                positions: list[np.ndarray],
                metas: list[tuple[np.ndarray, np.ndarray]],
                text_rows: list[int] | None = None):
    """Runs the LM once per task present in the batch, each call padded to
    the longest record of its own task: QA records are short and SGG records
    long, so one call over the whole batch would pad every QA record to the
    SGG length. Groups run in order of first appearance; a one-task batch
    makes exactly one call over the whole batch.

    Only the rows a loss reads run the last block, lm.ln_f and lm.out (see
    lm_hidden). Each record reads one contiguous window: its answer-mask
    rows (from `metas`) and, with `text_rows` (one row index per record),
    its text row. A group's windows share the longest one's length n_q,
    each starting at its record's first read row, moved back where it
    would pass the padded length S. Each group's answer loss is one
    answer_loss call on its [G, n_q] logits, with each record's targets and
    mask read from its window. Returns the [B] per-record losses in batch
    order and, with `text_rows`, the [B, d] hidden rows at those indices,
    also in batch order; otherwise None."""
    order, losses, feats = [], [], []
    for task in dict.fromkeys(rec.task for rec in records):
        group = [i for i, rec in enumerate(records) if rec.task == task]
        tokens, pos = _pad_stack([seqs[i] for i in group],
                                 [positions[i] for i in group])
        G, S = tokens.shape[:2]
        targets = np.zeros((G, S), dtype=np.int64)
        mask = np.zeros((G, S), dtype=bool)
        firsts, lasts = [], []
        for j, i in enumerate(group):
            rec_targets, rec_mask = metas[i]
            targets[j, : len(rec_targets)] = rec_targets
            mask[j, : len(rec_mask)] = rec_mask
            read = np.flatnonzero(rec_mask)
            firsts.append(read[0] if text_rows is None else min(read[0], text_rows[i]))
            lasts.append(read[-1])
        n_q = max(last - first for first, last in zip(firsts, lasts)) + 1
        starts = np.minimum(firsts, S - n_q)
        rows = starts[:, None] + np.arange(n_q)
        out = lm_forward(tokens, model.params, model.cfg.fusion,
                         return_hidden=text_rows is not None, positions=pos,
                         rows=rows)
        logits, hidden = out if text_rows is not None else (out, None)
        at = np.arange(G)[:, None], rows
        losses.append(answer_loss(logits, targets[at], mask[at]))
        if text_rows is not None:
            d = hidden.shape[2]
            flat = np.array([j * n_q + text_rows[i] - starts[j]
                             for j, i in enumerate(group)])
            feats.append(T.take_flat(hidden, flat[:, None] * d + np.arange(d)))
        order += group
    return (_in_batch_order(losses, order),
            _in_batch_order(feats, order) if feats else None)


def _answer_targets(prompt_len: int, answer_ids: list[int],
                    n_modality: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets and mask for a sequence [modality, prompt, BOS, answer..., EOS].
    Positions BOS..last-answer-token predict answer tokens then EOS."""
    k = len(answer_ids)
    total = n_modality + prompt_len + k + 2
    targets = np.zeros(total, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    bos_pos = n_modality + prompt_len
    for i, tok in enumerate(answer_ids):
        targets[bos_pos + i] = tok
        mask[bos_pos + i] = True
    targets[bos_pos + k] = V.EOS
    mask[bos_pos + k] = True
    return targets, mask


def _batch_stage1(model: Model, records: list[TrainRecord]) -> Tensor:
    seqs, poss, metas = [], [], []
    for rec in records:
        answer_seg = [V.BOS] + rec.answer_ids + [V.EOS]
        seq = build_input_sequence(None, None, None, rec.prompt_ids, model.params,
                                   model.cfg.fusion, answer_ids=answer_seg,
                                   layout=model.layout)
        seqs.append(seq.tokens)
        poss.append(seq.positions)
        metas.append(_answer_targets(len(rec.prompt_ids), rec.answer_ids, 0))
    losses, _ = _lm_by_task(model, records, seqs, poss, metas)
    return T.mean(losses)


def _batch_stage2(model: Model, data: TrainData, records: list[TrainRecord],
                  cfg: TrainConfig,
                  percepts: dict[int, Percept]) -> tuple[Tensor, Tensor]:
    """LM loss and InfoNCE of one fusion batch. Modality tokens are built
    once per sample of the batch, from `percepts` (sample index -> percept),
    which this fills for the samples it lacks."""
    indices = list(dict.fromkeys(rec.sample_index for rec in records))
    new = [i for i in indices if i not in percepts]
    if new:
        percepts.update(zip(new, model.perceive([data.samples[i] for i in new])))
    bundles = dict(zip(indices, model.modality_tokens_batch(
        [data.samples[i] for i in indices], [percepts[i] for i in indices])))
    seqs, poss, metas, v_feats, prompt_starts = [], [], [], [], []
    for rec in records:
        bundle = bundles[rec.sample_index]
        answer_seg = [V.BOS] + rec.answer_ids + [V.EOS]
        seq = model.assemble(bundle, rec.prompt_ids, answer_seg)
        n_modality = seq.prompt_start
        seqs.append(seq.tokens)
        poss.append(seq.positions)
        metas.append(_answer_targets(len(rec.prompt_ids), rec.answer_ids,
                                     n_modality))
        v_feats.append(model.contrastive_features(bundle))
        prompt_starts.append(n_modality)
    losses, t_feats = _lm_by_task(model, records, seqs, poss, metas,
                                  text_rows=prompt_starts)
    contrast = contrastive_loss(T.stack(v_feats, axis=0), t_feats, cfg.tau,
                                sample_ids=[rec.sample_index for rec in records])
    return T.mean(losses), contrast


def _vfm_step(model: Model, samples: list[Sample], backward) -> float:
    """The forward and backward of one VFM batch; returns its loss, the
    depth loss plus the seg loss. `backward` runs each head loss's backward.

    One graph is alive at a time. The encoder first runs untracked, and its
    grid enters the heads as a leaf that holds only its data. Each head's
    forward forms its loss, whose backward frees that head's graph and adds
    the head's grid adjoint into the leaf; only then does the next head
    run. Last, the encoder runs again on the same images, this time
    recording, and its backward runs once, seeded with the adjoint the
    heads summed (gradient checkpointing at the grid: Chen et al., arXiv
    1604.06174). The encoder's forward is deterministic, so both runs form
    the same grid. Depth goes first: it is the order in which one backward
    through the whole graph sums the grid's adjoint, so every gradient
    keeps the bytes of that backward of depth_loss + seg_loss (seg first
    changes encoder gradients). The step's peak is then the depth head's:
    its last stage's graph plus the full-resolution maps of its 1x1 output
    head, forward and backward, with no encoder graph beside it."""
    spec = variant_spec(model.cfg.variant)
    cfg = model.cfg.spatial
    rgb = np.stack([s.rgb for s in samples])
    with T.no_grad():
        leaf = Tensor(model.spatial_grid(rgb)[1].data, requires_grad=True)
    losses = []
    if spec.needs_depth:
        gt_depth = np.stack([s.depth for s in samples])
        losses.append(depth_loss(model.predict_depth(leaf), gt_depth, cfg))
        backward(losses[-1])
    if spec.needs_seg:
        gt_seg = np.stack([s.seg for s in samples])
        losses.append(seg_loss(model.predict_seg(leaf)[0], gt_seg, cfg))
        backward(losses[-1])
    grid_adjoint = leaf.grad
    del leaf
    _, grid = model.spatial_grid(rgb)
    T.backward(grid, grid_adjoint)
    return sum(loss.item() for loss in losses)


def train_stage(data: TrainData, model: Model, cfg: TrainConfig,
                log=None, on_epoch=None) -> TrainResult:
    """Runs one training stage to completion.

    Batch order and record subsampling are functions of cfg.seed. `log`
    receives one LossRow per batch; `on_epoch` is called with the epoch
    index after each main-phase epoch."""
    if data.stage != cfg.stage:
        raise ContractError(
            f"dataset built for stage {data.stage}, config wants {cfg.stage}"
        )
    for rec in data.records:
        if rec.stage != cfg.stage:
            raise ContractError("record stage does not match config stage")
        if cfg.stage == 2 and rec.sample_index is None:
            raise ContractError("stage-2 records need multimodal samples")
    result = TrainResult(rows=[], epoch_means=[], vfm_epoch_means=[])
    if cfg.epochs == 0 or not data.records:
        return result

    apply_stage_mask(model.params, cfg.stage)
    rng_order = np.random.default_rng(np.random.SeedSequence([0x0D0E5, cfg.seed]))
    state = AdamWState()
    step = 0

    def emit(stage_label, lm_val, contrast_val, total_val, lr):
        row = LossRow(step=step, stage=stage_label, lm_loss=lm_val,
                      contrast_loss=contrast_val, total=total_val, lr=lr)
        result.rows.append(row)
        if log is not None:
            log(row)

    def batches_per_epoch(n):
        return (n + cfg.batch_size - 1) // cfg.batch_size

    def backward(loss: Tensor) -> None:
        if not np.isfinite(loss.data).all():
            raise NumericError(f"non-finite loss at step {step + 1}")
        T.backward(loss)

    def run_batches(items, step_fn, epochs, stage_label, rate_fn, state):
        """Runs step_fn(batch), a batch's forward and backward returning its
        lm, contrast and total loss values, then the optimizer step."""
        nonlocal step
        n = len(items)
        total_steps = epochs * batches_per_epoch(n)
        # Short phases clamp the warmup so the schedule precondition holds.
        phase_cfg = cfg
        if cfg.warmup_steps >= total_steps:
            phase_cfg = replace(cfg, warmup_steps=max(total_steps - 1, 0))
        local_step = 0
        epoch_means = []
        for epoch in range(epochs):
            order = rng_order.permutation(n)
            epoch_losses = []
            for lo in range(0, n, cfg.batch_size):
                batch = [items[i] for i in order[lo : lo + cfg.batch_size]]
                model.params.zero_grads()
                lm_val, contrast_val, total = step_fn(batch)
                scale = lr_at_step(local_step, total_steps, phase_cfg, 1.0)
                optimizer_step(model.params, state, cfg,
                               lambda name: scale * rate_fn(name))
                step += 1
                local_step += 1
                emit(stage_label, lm_val, contrast_val, total,
                     scale * rate_fn("lm." if cfg.stage == 1 else "proj."))
                epoch_losses.append(total)
            epoch_means.append(float(np.mean(epoch_losses)))
            if stage_label != "2vfm" and on_epoch is not None:
                on_epoch(epoch)
        return epoch_means

    if cfg.stage == 1:
        def step1(batch):
            lm = _batch_stage1(model, batch)
            backward(lm)
            return lm.item(), 0.0, lm.item()

        result.epoch_means = run_batches(
            data.records, step1, cfg.epochs, "1", lambda name: cfg.lr_lm, state
        )
        return result

    # Stage 2: a supervision phase fits the perception nets at the full
    # vision rate. The fusion phase reads them only through cached
    # percepts, so it tunes the projections at the full rate and the spatial
    # nets it does reach, spatial.region and spatial.pc, at the slower
    # pretrained-vision rate.
    if cfg.vfm_epochs > 0 and variant_spec(model.cfg.variant).spatial:
        sample_idx = sorted({rec.sample_index for rec in data.records})
        vfm_items = [data.samples[i] for i in sample_idx]

        def step_vfm(batch):
            return 0.0, 0.0, _vfm_step(model, batch, backward)

        result.vfm_epoch_means = run_batches(
            vfm_items, step_vfm, cfg.vfm_epochs, "2vfm",
            lambda name: cfg.lr_vision, state
        )
        state = AdamWState()  # fresh moments for the fusion phase

    def fusion_rate(name: str) -> float:
        if name.startswith("spatial."):
            return cfg.lr_pretrained_vision
        return cfg.lr_vision

    percepts: dict[int, Percept] = {}  # filled as batches first hold a sample

    def step2(batch):
        lm, contrast = _batch_stage2(model, data, batch, cfg, percepts)
        total = stage2_loss(lm, contrast, cfg.lambda_clip)
        backward(total)
        return lm.item(), contrast.item(), total.item()

    result.epoch_means = run_batches(
        data.records, step2, cfg.epochs, "2", fusion_rate, state
    )
    return result
