"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive op computes its result eagerly with numpy and, when
gradient tracking is on and at least one input requires gradients,
records a node holding the inputs and a backward closure. backward()
linearizes the recorded graph into a ComputationTape (a topological
ordering of the nodes reachable from the loss) and replays adjoints in
reverse, visiting each node exactly once. Replays are deterministic:
the tape order is fixed by the graph structure, so two backward passes
over identical graphs produce bit-identical gradients.

All math is 64-bit. Broadcasting follows numpy rules except where an op
documents a stricter contract.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_state = threading.local()


def grad_enabled() -> bool:
    """Whether ops on tracked tensors currently record graph nodes."""
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self):
        self._saved = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._saved
        return False


class Node:
    """One recorded primitive: inputs plus a closure producing input adjoints."""

    __slots__ = ("inputs", "backward_fn", "out_shape")

    def __init__(self, inputs, backward_fn, out_shape):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.out_shape = out_shape


class Tensor:
    """A float64 array with an optional gradient buffer and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "node", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        """The single element of a size-1 tensor of any shape, as a Python
        float. Raises ContractError for any other size."""
        if self.data.size != 1:
            raise ContractError(f"item expects a size-1 tensor, got shape {self.shape}")
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # Operator sugar; all routed through module-level primitives.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_const(self, p)

    def __getitem__(self, key):
        return slice_(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never tracks gradients (frozen input data)."""
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def _tracked(t: Tensor) -> bool:
    # A tensor participates in the graph if it is a leaf that wants grads
    # or was itself produced by a recorded node.
    return t.requires_grad or t.node is not None


def _make(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if grad_enabled() and any(_tracked(t) for t in inputs):
        out.requires_grad = True
        out.node = Node(tuple(inputs), backward_fn, out_data.shape)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class ComputationTape:
    """Topological ordering of the nodes reachable from one output tensor."""

    def __init__(self, root: Tensor):
        self.nodes: list[Node] = []
        self.producer: dict[int, Tensor] = {}
        if root.node is None:
            return
        # Iterative post-order DFS; child (input) nodes land before parents,
        # so reversed(self.nodes) is a valid reverse topological order.
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            node = t.node
            if node is None:
                continue
            if expanded:
                self.nodes.append(node)
                self.producer[id(node)] = t
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((t, True))
            for inp in node.inputs:
                if inp.node is not None and id(inp.node) not in seen:
                    stack.append((inp, False))

    def replay_adjoints(self, root: Tensor, seed: np.ndarray) -> None:
        """Walk nodes in reverse topological order exactly once, accumulating
        adjoints into .grad of every requires_grad tensor encountered."""
        adjoint: dict[int, np.ndarray] = {id(root): seed}

        def deposit(t: Tensor, g: np.ndarray):
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g

        deposit(root, seed)
        for node in reversed(self.nodes):
            out = self.producer[id(node)]
            g_out = adjoint.pop(id(out), None)
            if g_out is None:
                continue
            grads = node.backward_fn(g_out)
            for inp, g in zip(node.inputs, grads):
                if g is None or not _tracked(inp):
                    continue
                if id(inp) in adjoint:
                    adjoint[id(inp)] = adjoint[id(inp)] + g
                else:
                    adjoint[id(inp)] = g
                if inp.node is None:
                    deposit(inp, g)
                    adjoint.pop(id(inp), None)


def backward(loss: Tensor, params=None) -> None:
    """Populate .grad of every reachable requires_grad tensor with the exact
    reverse-mode adjoint of a scalar loss.

    Tensors not reachable from the loss keep grad None, meaning zero; when
    `params` (an iterable of Tensors) is given, their missing grads are
    materialized as zero buffers so optimizers can treat them uniformly.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = ComputationTape(loss)
    seed = np.ones_like(loss.data)
    tape.replay_adjoints(loss, seed)
    if params is not None:
        for t in params:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


def zero_grads(params) -> None:
    for t in params:
        t.grad = None


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (-g,)

    return _make(-a.data, (a,), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(out, (a, b), bw)


def pow_const(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    out = a.data**p

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(out, (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _make(out, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def bw(g):
        return (g / a.data,)

    return _make(out, (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), bw)


def abs_(a) -> Tensor:
    # Subgradient 0 at exactly 0 (np.sign(0) == 0): deterministic tie rule.
    a = as_tensor(a)

    def bw(g):
        return (g * np.sign(a.data),)

    return _make(np.abs(a.data), (a,), bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF gelu: x * Phi(x), not the tanh approximation."""
    a = as_tensor(a)
    x = a.data
    phi_cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    out = x * phi_cdf

    def bw(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi_cdf + x * pdf),)

    return _make(out, (a,), bw)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def bw(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * a.data))
        return (g * sig,)

    return _make(out, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires 2-d or higher operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), bw)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(np.asarray(out), (a,), bw)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def bw(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(np.asarray(out), (a,), bw)


def max_reduce(a, axis: int) -> Tensor:
    """Max along one axis; the gradient routes to the first argmax per slot."""
    a = as_tensor(a)
    out = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def bw(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(
            ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
        )
        return (ga,)

    return _make(out, (a,), bw)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax; outputs are strictly positive and each
    slice along `axis` sums to 1 within accumulation rounding."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (g.reshape(a.shape),)

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)

    def bw(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes).copy(), (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(out, tuple(tensors), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _make(out, tuple(tensors), bw)


def slice_(a, key) -> Tensor:
    """Basic (non-fancy) indexing; slices never alias, so the backward is a
    plain write into a zero buffer."""
    a = as_tensor(a)
    out = a.data[key]

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _make(np.array(out, copy=True), (a,), bw)


def take_flat(a, flat_index: np.ndarray) -> Tensor:
    """Gather arbitrary elements by flat index; output has the index's shape.
    Duplicate indices accumulate in the backward pass."""
    a = as_tensor(a)
    flat_index = np.asarray(flat_index, dtype=np.int64)
    out = a.data.reshape(-1)[flat_index]

    def bw(g):
        ga = np.zeros(a.size, dtype=np.float64)
        np.add.at(ga, flat_index.reshape(-1), np.asarray(g).reshape(-1))
        return (ga.reshape(a.shape),)

    return _make(out, (a,), bw)


def gather_rows(a, row_ids) -> Tensor:
    """Row lookup (embedding fetch) from a 2-d table."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"gather_rows expects a 2-d table, got {a.shape}")
    row_ids = np.asarray(row_ids, dtype=np.int64)
    ncol = a.shape[1]
    flat = row_ids[..., None] * ncol + np.arange(ncol, dtype=np.int64)
    return take_flat(a, flat)


def conv3x3(x, w, b) -> Tensor:
    """Same-padded 3x3 convolution. x: [B,C,H,W], w: [O,C,3,3], b: [O]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise DimensionError(f"conv3x3 shapes: x {x.shape}, w {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"conv3x3 channel mismatch: x has {x.shape[1]}, w expects {w.shape[1]}"
        )
    B, C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    acc = np.zeros((B, H, W, O))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + H, dj : dj + W]
            acc += np.tensordot(patch, w.data[:, :, di, dj], axes=([1], [1]))
    out = acc.transpose(0, 3, 1, 2) + b.data[None, :, None, None]

    def bw(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.zeros_like(w.data)
        gx_pad = np.zeros_like(xp)
        for di in range(3):
            for dj in range(3):
                patch = xp[:, :, di : di + H, dj : dj + W]
                gw[:, :, di, dj] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
                gx_pad[:, :, di : di + H, dj : dj + W] += np.tensordot(
                    g, w.data[:, :, di, dj], axes=([1], [0])
                ).transpose(0, 3, 1, 2)
        return gx_pad[:, :, 1 : 1 + H, 1 : 1 + W], gw, gb

    return _make(out, (x, w, b), bw)


def _up2_indices(n: int):
    dst = np.arange(2 * n, dtype=np.float64)
    src = np.maximum(dst / 2.0 - 0.25, 0.0)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n - 1)
    f = src - i0
    i1 = np.minimum(i0 + 1, n - 1)
    f = np.where(i1 == i0, 0.0, f)
    return i0, i1, f


_UP2_MATRICES: dict[int, np.ndarray] = {}


def _up2_matrix(n: int) -> np.ndarray:
    """Dense [2n, n] interpolation operator for one axis (edge-clamped
    bilinear with output centers at src = dst/2 - 0.25)."""
    mat = _UP2_MATRICES.get(n)
    if mat is None:
        i0, i1, f = _up2_indices(n)
        mat = np.zeros((2 * n, n))
        rows = np.arange(2 * n)
        np.add.at(mat, (rows, i0), 1.0 - f)
        np.add.at(mat, (rows, i1), f)
        _UP2_MATRICES[n] = mat
    return mat


def bilinear_up2(x) -> Tensor:
    """Doubles the two trailing spatial dims of [B,C,H,W] by bilinear
    interpolation with edge clamping. The map is a fixed pair of axis
    matrices, so forward and backward are plain matmuls."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"bilinear_up2 expects [B,C,H,W], got {x.shape}")
    B, C, H, W = x.shape
    rh = _up2_matrix(H)
    rw = _up2_matrix(W)
    # [B,C,H,W] -> rows: [B,C,2H,W] -> cols: [B,C,2H,2W]
    out = np.einsum("ih,bchw->bciw", rh, x.data, optimize=True)
    out = np.einsum("jw,bciw->bcij", rw, out, optimize=True)

    def bw(g):
        # Transpose of the forward map: contract over the output axes i, j.
        gr = np.einsum("jw,bcij->bciw", rw, g, optimize=True)
        return (np.einsum("ih,bciw->bchw", rh, gr, optimize=True),)

    return _make(out, (x,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def bw(g):
        gg = _unbroadcast(g * xhat, gain.shape)
        gb = _unbroadcast(g, bias.shape)
        dxhat = g * gain.data
        gx = (
            inv
            / n
            * (
                n * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            )
        )
        return gx, gg, gb

    return _make(out, (x, gain, bias), bw)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode with p > 0."""
    x = as_tensor(x)
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    out = x.data * mask

    def bw(g):
        return (g * mask,)

    return _make(out, (x,), bw)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp composed from primitives; the data-derived max
    shift is a constant, which leaves the derivative exact."""
    a = as_tensor(a)
    shift = a.data.max(axis=axis, keepdims=True)
    e = exp(sub(a, constant(shift)))
    s = sum_(e, axis=axis, keepdims=True)
    out = add(log(s), constant(shift))
    if not keepdims:
        out = reshape(out, np.delete(np.array(out.shape), axis))
    return out
