"""Parameter containers and the shared network building blocks.

ModelParams is an ordered name -> Tensor mapping; ordering is creation
order and fixes the checkpoint layout. Names are dotted paths
("lm.blocks.0.attn.wq") and the training stage masks key off the first
path segment.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, DimensionError
from .tensor import Tensor


class ModelParams:
    """Ordered collection of named tensors. A tensor trains exactly when it
    requires gradients; a frozen one is not tracked, so ops on frozen
    tensors alone record no node and no gradient is formed for them."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=trainable, name=name)
        self._tensors[name] = t
        return t

    @property
    def trainable(self) -> Mapping[str, bool]:
        """Read-only name -> flag view of each tensor's requires_grad."""
        return MappingProxyType({k: t.requires_grad for k, t in self._tensors.items()})

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None


def init_linear(params: ModelParams, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator, bias: bool = True) -> None:
    params.add(f"{prefix}.w", rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)))
    if bias:
        params.add(f"{prefix}.b", np.zeros(d_out))


def linear(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    w = params[f"{prefix}.w"]
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"linear {prefix!r}: input width {x.shape[-1]} != weight rows {w.shape[0]}"
        )
    bias = params[f"{prefix}.b"] if f"{prefix}.b" in params else None
    return T.affine(x, w, bias)


def init_mlp(params: ModelParams, prefix: str, d_in: int, d_hidden: int, d_out: int,
             rng: np.random.Generator) -> None:
    init_linear(params, f"{prefix}.fc1", d_in, d_hidden, rng)
    init_linear(params, f"{prefix}.fc2", d_hidden, d_out, rng)


def mlp_forward(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """Two linear layers with an exact-CDF gelu between them."""
    h = T.gelu(linear(x, params, f"{prefix}.fc1"))
    return linear(h, params, f"{prefix}.fc2")


def init_layer_norm(params: ModelParams, prefix: str, d: int) -> None:
    params.add(f"{prefix}.g", np.ones(d))
    params.add(f"{prefix}.b", np.zeros(d))


def layer_norm(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


# Hidden width of a block's MLP, in multiples of the model width.
MLP_RATIO = 4


def init_attention_block(params: ModelParams, prefix: str, d: int,
                         rng: np.random.Generator) -> None:
    init_layer_norm(params, f"{prefix}.ln1", d)
    # q/k/v projections carry no bias: a key bias shifts every score in a
    # row equally, which softmax cancels, leaving a structurally zero
    # gradient that finite-difference checks cannot certify.
    for name in ("wq", "wk", "wv"):
        init_linear(params, f"{prefix}.attn.{name}", d, d, rng, bias=False)
    init_linear(params, f"{prefix}.attn.wo", d, d, rng)
    init_layer_norm(params, f"{prefix}.ln2", d)
    init_mlp(params, f"{prefix}.mlp", d, MLP_RATIO * d, d, rng)


class KVCache:
    """Attention keys and values of the rows a stack of blocks has already
    run, one (k, v) pair of [B, heads, length, dh] arrays per block prefix,
    for inference-only incremental decoding. `length` counts the rows held.

    A draft-and-verify decoder extends the cache by a guessed continuation
    in one call and then rolls back the rows it rejected with truncate().
    Several decodes can share a prefix: a cache of batch 1 extended by B
    new rows per block broadcasts its rows to all B, and select(b) then
    gives batch entry b alone. Entries are replaced, never mutated in
    place: extend() concatenates into new arrays, and truncate() and
    select() keep views. So copy() (a shallow dict copy) gives an
    independent branch, e.g. one per decode call from a shared prefix
    cache.
    """

    def __init__(self):
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.length = 0

    def copy(self) -> "KVCache":
        out = KVCache()
        out.kv = dict(self.kv)
        out.length = self.length
        return out

    def extend(self, prefix: str, k: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Appends one block's new keys/values [B, heads, n, dh] to the held
        ones, which a held batch of 1 gives to every one of the B; returns
        all keys, all values and the number of rows held before."""
        if T.grad_enabled():
            raise ContractError("the K/V cache is inference-only; run under no_grad")
        past = 0
        if prefix in self.kv:
            past_k, past_v = self.kv[prefix]
            past = past_k.shape[2]
            if past_k.shape[0] != k.shape[0]:
                if past_k.shape[0] != 1:
                    raise DimensionError(f"cannot extend a batch-{past_k.shape[0]} "
                                         f"cache by a batch of {k.shape[0]}")
                past_k = np.broadcast_to(past_k, (k.shape[0],) + past_k.shape[1:])
                past_v = np.broadcast_to(past_v, past_k.shape)
            k = np.concatenate([past_k, k], axis=2)
            v = np.concatenate([past_v, v], axis=2)
        self.kv[prefix] = (k, v)
        return k, v, past

    def truncate(self, length: int) -> None:
        """Keeps only the first `length` rows, dropping the later ones. The
        held arrays are sliced, never written, so a cache that shares them
        (the source of a copy()) is unchanged."""
        if not 0 <= length <= self.length:
            raise ContractError(f"cannot truncate a {self.length}-row cache to {length}")
        self.kv = {name: (k[:, :, :length], v[:, :, :length])
                   for name, (k, v) in self.kv.items()}
        self.length = length

    def select(self, b: int) -> "KVCache":
        """Batch entry b alone, as a new cache of batch 1 and the same
        length. Its arrays are views of this cache's, so neither cache
        changes the other."""
        out = KVCache()
        out.kv = {name: (k[b:b + 1], v[b:b + 1]) for name, (k, v) in self.kv.items()}
        out.length = self.length
        return out


def _causal_mask(n: int, past: int = 0, rows=None) -> np.ndarray:
    """Additive mask for n new rows after `past` earlier ones: new row i
    sees columns <= past + i. With `rows` ([..., k] indices into the n new
    rows), the mask of those rows only, [..., k, past + n]."""
    rows = np.arange(n) if rows is None else rows
    return np.where(np.arange(past + n) > past + rows[..., None], -np.inf, 0.0)


def attention_block_forward(x: Tensor, params: ModelParams, prefix: str, heads: int,
                            causal: bool, cache: KVCache | None = None,
                            rows=None) -> Tensor:
    """Pre-norm multi-head self-attention plus MLP, both with residuals.

    Accepts [n, d] or [B, n, d]. With causal=True, position i attends only
    to positions <= i. The attention core (head split, scaled scores, mask,
    softmax, P·V, head merge) is one tape node, T.attention_core;
    every projection is one T.affine node.

    With a cache, x holds only the new rows: q/k/v are computed for them,
    k/v are appended to the cache's entry for this block, and new row i
    attends to every cached row and to new rows <= i. The cache is
    inference-only: passing one while graph recording is on raises
    ContractError. Without a cache the block sees the whole sequence.

    `rows`, strictly increasing indices into the n new rows ([k] for [n, d]
    input, [B, k] for [B, n, d]), runs the block's output only there: keys
    and values are still formed for all n rows (and cached), but the
    queries, the attention core, attn.wo, both residuals, ln2 and the MLP
    run at those k rows, and the block returns [k, d] or [B, k, d]. Each
    returned row equals the full block's row at its index, since in a
    causal block nothing else reads it. Without `rows` every row runs.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != x.ndim - 1 or rows.shape[:-1] != x.shape[:-2]:
            raise DimensionError(f"block rows {rows.shape} do not fit input {x.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= x.shape[-2]
                          or (np.diff(rows, axis=-1) <= 0).any()):
            raise ContractError(
                f"block rows must increase strictly within [0, {x.shape[-2]})")
        if rows.shape[-1] == x.shape[-2]:  # every row, so skip the gathers
            rows = None
    squeeze = x.ndim == 2
    if squeeze:
        x = T.reshape(x, (1,) + x.shape)
        rows = None if rows is None else rows[None]
    if x.ndim != 3:
        raise DimensionError(f"attention block expects [n,d] or [B,n,d], got {x.shape}")
    B, n, d = x.shape
    if d % heads != 0:
        raise ConfigurationError(f"model width {d} not divisible by {heads} heads")

    h = layer_norm(x, params, f"{prefix}.ln1")
    k = linear(h, params, f"{prefix}.attn.wk")
    v = linear(h, params, f"{prefix}.attn.wv")
    if rows is not None:
        x, h = T.take_rows(x, rows), T.take_rows(h, rows)
    q = linear(h, params, f"{prefix}.attn.wq")
    past = 0
    if cache is not None:
        k, v, past = cache.extend(prefix, T.split_heads(k.data, heads),
                                  T.split_heads(v.data, heads))
    mask = None
    if causal and (n > 1 if rows is None else (rows < n - 1).any()):
        mask = _causal_mask(n, past, rows)[..., None, :, :]
    attn = T.attention_core(q, k, v, heads, mask)
    x = x + linear(attn, params, f"{prefix}.attn.wo")
    x = x + mlp_forward(layer_norm(x, params, f"{prefix}.ln2"), params,
                        f"{prefix}.mlp")
    if squeeze:
        x = T.reshape(x, x.shape[1:])
    return x
