"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive op computes its result eagerly with numpy and, when
gradient tracking is on and at least one input requires gradients,
records a node: one link per input and a backward closure. backward()
linearizes the recorded graph into a ComputationTape (a topological
ordering of the nodes reachable from the loss) and replays adjoints in
reverse, visiting each node exactly once. Replays are deterministic:
the tape order is fixed by the graph structure, so two backward passes
over identical graphs produce bit-identical gradients.

A graph holds nothing that no backward reads. A node links to its inputs'
producer nodes, not to the input tensors, so an intermediate's data lives
only as long as the caller holds the tensor or a closure saved the array.
The rule for every primitive, and for any new one: the backward closure
captures the arrays and shapes its formula reads (an input's data only
when the other operand's gradient needs it, shapes as tuples, tracking
flags taken at forward time), never an input Tensor.

Buffers are owned. The rule for every primitive, and for any new one:
- a primitive may write in place only into arrays it allocated itself and
  has not handed out (as an output's data or as a returned gradient):
  attention_core runs its softmax in its score buffer and, backward,
  forms the score gradient in the buffer of dP;
- a backward may overwrite what its own forward allocated and saved,
  since it runs once: gelu returns its slope multiplied by the adjoint,
  and conv3x3 folds the input gradient into its padded input copy;
- a backward never writes into an incoming adjoint, which other nodes
  may share, or into an input's data.
An in-place form must keep the operations, and so the bytes, of the
out-of-place expression it replaces.

Recompute instead of store. A backward may rebuild an intermediate from
arrays its closure already saves, using the forward's own operations in
the forward's order, instead of saving the intermediate: the rebuilt array
has the forward's bytes, so every gradient keeps its bytes too, and the
graph holds the smaller arrays only. attention_core rebuilds its
[B, heads, n, m] probabilities from the split queries and keys, the mask
and the saved row max and row sum.

A graph serves one backward and is freed as that backward runs: once a
node has passed its adjoints on, it drops its closure and its inputs, so
the activations it saved are released during the pass, and nothing of the
graph outlives it even while the caller still holds the loss. A second
backward through a released node raises ContractError; rebuild the graph
with a new forward instead.

All math is 64-bit. Broadcasting follows numpy rules except where an op
documents a stricter contract.

gelu's Gaussian CDF is scipy's compiled ndtr ufunc, loaded from the one
extension module that defines it (scipy/special/_special_ufuncs) rather
than through `import scipy.special`, which loads 315 more modules (66 of
them scipy's) and about doubles a process's resident memory (26.8 to
52.4 MB ru_maxrss after numpy, scipy 1.17) for this one function. The
ufunc is the object `scipy.special.ndtr` is bound to, so every byte gelu
forms is the same.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError

_NDTR_MODULE = "scipy.special._special_ufuncs"


def _load_ndtr(scipy_dir: str | None = None):
    """scipy's ndtr ufunc, loaded from its extension module by file location
    without running scipy's or scipy.special's package code. `scipy_dir` is
    scipy's package directory, found by importlib.util.find_spec (which
    imports nothing) when None.

    sys.modules is left as it was found: the module stays out of it, so a
    later `import scipy.special` loads it as a submodule and binds it on its
    package as usual, and that load hands out the same ufunc objects. A
    missing file raises ImportError naming the file and the installed
    scipy's version."""
    if scipy_dir is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(scipy_dir, "special",
                        "_special_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        import scipy
        raise ImportError(f"gelu needs scipy's ndtr from {path}, which is missing "
                          f"(installed scipy {scipy.__version__})", path=path)
    saved = sys.modules.get(_NDTR_MODULE)
    loader = importlib.machinery.ExtensionFileLoader(_NDTR_MODULE, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NDTR_MODULE, path, loader=loader))
    loader.exec_module(module)
    if saved is None:
        sys.modules.pop(_NDTR_MODULE, None)
    else:
        sys.modules[_NDTR_MODULE] = saved
    return module.ndtr


_ndtr = _load_ndtr()

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
    """One recorded primitive: one link per input plus a closure producing
    the input adjoints, in input order.

    A link is the producer Node of a non-leaf input, the leaf Tensor itself
    when it takes a gradient, or None for an untracked constant. The node
    holds no other tensor, and its closure holds only the arrays and shapes
    its formula reads. A backward that has passed through it releases it:
    inputs become () and backward_fn None."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


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

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never tracks gradients (frozen input data)."""
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def _tracked(t: Tensor) -> bool:
    # A tensor participates in the graph if it is a leaf that wants grads
    # or was itself produced by a recorded node.
    return t.requires_grad or t.node is not None


def _link(t: Tensor):
    """What a node keeps of one input: its producer node, the leaf itself
    when it takes a gradient, or None for an untracked constant."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _records(*inputs: Tensor) -> bool:
    """Whether an op on these inputs records a node."""
    return grad_enabled() and any(_tracked(t) for t in inputs)


def _make(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _records(*inputs):
        out.requires_grad = True
        out.node = Node(tuple(_link(t) for t in inputs), backward_fn)
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


def _deposit(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


class ComputationTape:
    """Topological ordering of the nodes reachable from one output tensor.

    Raises ContractError when one of them was released by an earlier
    backward, since its adjoints can no longer be formed."""

    def __init__(self, root: Tensor):
        self.nodes: list[Node] = []
        if root.node is None:
            return
        # Iterative post-order DFS; child (input) nodes land before parents,
        # so reversed(self.nodes) is a valid reverse topological order.
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward_fn is None:
                raise ContractError(
                    "backward reaches a node an earlier backward released: a "
                    "graph serves one backward, so run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for link in node.inputs:
                if isinstance(link, Node) and id(link) not in seen:
                    stack.append((link, False))

    def replay_adjoints(self, root: Tensor, seed: np.ndarray) -> None:
        """Walk nodes in reverse topological order exactly once, accumulating
        adjoints into .grad of every requires_grad tensor encountered.

        Each node is released as soon as its adjoints are passed on, and the
        tape pops it, so what its closure saved is freed during the walk;
        nodes no adjoint reaches are released too. Adjoints wait keyed by
        id(node): the tape holds every node it has not yet processed, so no
        key can be reused while its adjoint waits. A leaf link takes each
        contribution into .grad as it arrives; a root that is a leaf takes
        the seed, and a root that is not keeps grad None."""
        if root.node is None:
            _deposit(root, seed)
            return
        adjoint: dict[int, np.ndarray] = {id(root.node): seed}
        while self.nodes:
            node = self.nodes.pop()
            g_out = adjoint.pop(id(node), None)
            inputs, backward_fn = node.inputs, node.backward_fn
            node.inputs, node.backward_fn = (), None
            if g_out is None:
                continue
            grads = backward_fn(g_out)
            for link, g in zip(inputs, grads):
                if g is None or link is None:
                    continue
                if isinstance(link, Tensor):
                    _deposit(link, g)
                elif id(link) in adjoint:
                    adjoint[id(link)] = adjoint[id(link)] + g
                else:
                    adjoint[id(link)] = g


def backward(loss: Tensor, grad: np.ndarray | None = None) -> None:
    """Populate .grad of every reachable requires_grad tensor with the exact
    reverse-mode adjoint of a scalar loss; given `grad`, the adjoint of an
    output of any shape, that of sum(loss * grad).

    Only leaves receive .grad: the loss itself, unless it is a leaf, and
    every intermediate keep grad None. Tensors not reachable from the loss
    keep grad None, meaning zero.

    The graph serves this one backward and is freed as it runs: every node
    reachable from the loss is released, its saved arrays dropped, even
    while the caller still holds `loss` or an intermediate. A second
    backward through any released node, from this loss or from a new op
    built on one of its intermediates, raises ContractError.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if grad is None:
        if loss.size != 1:
            raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
        grad = np.ones_like(loss.data)
    elif np.shape(grad) != loss.shape:
        raise ContractError(
            f"backward adjoint shape {np.shape(grad)} differs from output {loss.shape}")
    tape = ComputationTape(loss)
    tape.replay_adjoints(loss, grad)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (-g,)

    return _make(-a.data, (a,), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    # Each operand's data is kept only for the other operand's gradient.
    ad = a.data if _tracked(b) else None
    bd = b.data if _tracked(a) else None

    def bw(g):
        ga = _unbroadcast(g * bd, a_shape) if bd is not None else None
        gb = _unbroadcast(g * ad, b_shape) if ad is not None else None
        return ga, gb

    return _make(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    a_shape, b_shape, bd = a.shape, b.shape, b.data
    ta, ad = _tracked(a), (a.data if _tracked(b) else None)

    def bw(g):
        ga = _unbroadcast(g / bd, a_shape) if ta else None
        gb = _unbroadcast(-g * ad / (bd * bd), b_shape) if ad is not None else None
        return ga, gb

    return _make(out, (a, b), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _make(out, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.log(x)

    def bw(g):
        return (g / x,)

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
    x = a.data

    def bw(g):
        return (g * np.sign(x),)

    return _make(np.abs(x), (a,), bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF gelu: x * Phi(x), not the tanh approximation.

    Phi is scipy's ndtr, kept for its left-tail accuracy: it does not
    cancel there, and its relative error against 0.5 * erfc(-x / √2) is
    about 1e-14 where 0.5 * (1 + erf(x / √2)) reaches 1e-10. It is the
    compiled ufunc itself, loaded from scipy.special's _special_ufuncs
    extension without importing scipy.special (see _load_ndtr), since a
    numpy port of it differs by 1 ulp on about 1% of inputs.

    Recording saves the slope Phi(x) + x * pdf(x) alone. The output is
    formed in the Phi buffer and the slope in one more, so gelu holds two
    arrays besides its input, and the backward multiplies the adjoint into
    the slope and returns it. The operations are those of the out-of-place
    x * Phi and Phi + x * pdf, so the bytes are too."""
    a = as_tensor(a)
    x = a.data
    out = _ndtr(x, out=np.empty(x.shape))  # Phi(x) until x multiplies it
    recording = _records(a)
    if recording:
        slope = np.multiply(-0.5, x, out=np.empty(x.shape))
        slope *= x
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= x
        slope += out
    out *= x
    if not recording:
        return Tensor(out)

    def bw(g):
        return (np.multiply(slope, g, out=slope),)

    return _make(out, (a,), bw)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    x = a.data
    out = np.logaddexp(0.0, x)

    def bw(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * x))
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
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if _tracked(b) else None
    bd = b.data if _tracked(a) else None

    def bw(g):
        ga = gb = None
        if bd is not None:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), a_shape)
        if ad is not None:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b_shape)
        return ga, gb

    return _make(out, (a, b), bw)


def affine(x, w, b=None) -> Tensor:
    """x @ w (+ b) as one node, for x [..., d_in], w [d_in, d_out] and an
    optional bias [d_out].

    The forward is the same numpy product and sum as matmul + add, so its
    bytes match theirs. The backward flattens the leading dims of x into
    rows: the weight gradient is one 2-d GEMM and the bias gradient one row
    sum, not a batched product that _unbroadcast then sums. An untracked
    operand (a frozen weight) gets None, and its product is never formed."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(f"affine expects [..., d_in] @ [d_in, d_out], "
                             f"got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"affine inner dims differ: {x.shape} @ {w.shape}")
    inputs = (x, w)
    out = x.data @ w.data
    if b is not None:
        b = as_tensor(b)
        inputs += (b,)
        out = out + b.data
    x_shape, (d_in, d_out) = x.shape, w.shape
    wd = w.data if _tracked(x) else None
    xd = x.data if _tracked(w) else None
    tb = b is not None and _tracked(b)

    def bw(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ wd.T).reshape(x_shape) if wd is not None else None
        gw = xd.reshape(-1, d_in).T @ g2 if xd is not None else None
        return gx, gw, (g2.sum(axis=0) if tb else None)

    return _make(out, inputs, bw)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

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
    shape = a.shape

    def bw(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(np.asarray(out), (a,), bw)


def max_reduce(a, axis: int) -> Tensor:
    """Max along one axis; the gradient routes to the first argmax per slot."""
    a = as_tensor(a)
    out = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)
    shape = a.shape

    def bw(g):
        ga = np.zeros(shape)
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


def masked_nll(logits, target_ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Per-record mean negative log-likelihood as one node: [B, S, V]
    logits, [B, S] target ids and a [B, S] boolean mask with at least one
    position per record give [B].

    Record b's value and gradient have the bytes of
    -mean(take_flat(log_softmax(logits[b]), ...)) over its masked rows: the
    same numpy arithmetic, row by row, and a zero gradient on unmasked rows.
    """
    a = as_tensor(logits)
    rows = [np.flatnonzero(m) for m in mask]
    picks = [target_ids[b, r] for b, r in enumerate(rows)]
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = np.array([-logp[b, r, t].mean() for b, (r, t) in enumerate(zip(rows, picks))])
    shape = a.shape

    def bw(g):
        gl = np.zeros(shape)
        for b, (r, t) in enumerate(zip(rows, picks)):
            gl[b, r, t] = np.asarray(-g[b]) / r.size
        return (gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def bw(g):
        return (g.reshape(in_shape),)

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
            for i in range(len(sizes))
        )

    return _make(out, tuple(tensors), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def bw(g):
        return tuple(np.take(g, i, axis=axis) for i in range(count))

    return _make(out, tuple(tensors), bw)


def slice_(a, key) -> Tensor:
    """Basic (non-fancy) indexing; slices never alias, so the backward is a
    plain write into a zero buffer."""
    a = as_tensor(a)
    out = a.data[key]
    shape = a.shape

    def bw(g):
        ga = np.zeros(shape)
        ga[key] = g
        return (ga,)

    return _make(np.array(out, copy=True), (a,), bw)


def take_flat(a, flat_index: np.ndarray) -> Tensor:
    """Gather arbitrary elements by flat index; output has the index's shape.
    Duplicate indices accumulate in the backward pass."""
    a = as_tensor(a)
    flat_index = np.asarray(flat_index, dtype=np.int64)
    out = a.data.reshape(-1)[flat_index]
    shape, size = a.shape, a.size

    def bw(g):
        ga = np.zeros(size, dtype=np.float64)
        np.add.at(ga, flat_index.reshape(-1), np.asarray(g).reshape(-1))
        return (ga.reshape(shape),)

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


def take_rows(a, rows) -> Tensor:
    """Per-batch row lookup: a [B, n, d] and distinct row indices [B, k]
    give [B, k, d] with out[b, i] = a[b, rows[b, i]]."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    batch = np.arange(a.shape[0])[:, None]
    shape = a.shape

    def bw(g):
        ga = np.zeros(shape)
        ga[batch, rows] = g
        return (ga,)

    return _make(a.data[batch, rows], (a,), bw)


def _im2col(xp: np.ndarray, pixels: np.ndarray | None = None) -> np.ndarray:
    """[H+2, W+2, C] channel-last padded input -> [H*W, 9*C] columns, each
    row the 3x3 neighbourhood of one output pixel in (di, dj, c) order; with
    flat output pixels [P], only their rows, [P, 9*C]."""
    H, W, C = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))  # [H, W, C, 3, 3]
    if pixels is None:
        return win.transpose(0, 1, 3, 4, 2).reshape(H * W, 9 * C)
    v, u = np.divmod(pixels, W)
    return win[v, u].transpose(0, 2, 3, 1).reshape(len(pixels), 9 * C)


# The fewest output pixels in one block of conv3x3's forward columns. A
# block is a run of whole image rows; a map of fewer pixels is one block.
# 256 keeps a block's columns at a quarter of a 32x32 map's, and far above
# the row counts at which OpenBLAS changes kernel (see conv3x3).
_CONV_BLOCK_PIXELS = 256


def _row_blocks(H: int, W: int) -> list[tuple[int, int]]:
    """conv3x3's forward blocks of an H x W map: n runs [h0, h1) of image
    rows, as even as whole rows allow, n the most that leaves each run
    _CONV_BLOCK_PIXELS pixels or more."""
    n = max(1, H // -(-_CONV_BLOCK_PIXELS // W))  # runs of >= ceil(block / W) rows
    return [(k * H // n, (k + 1) * H // n) for k in range(n)]


def _col2im_add(xp: np.ndarray, cols: np.ndarray) -> None:
    """The adjoint of _im2col over the full map, in place: adds [H*W, 9*C]
    columns onto the [H+2, W+2, C] padded slot they index, with nine
    slice-adds."""
    H, W, C = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    cols = cols.reshape(H, W, 3, 3, C)
    for di in range(3):
        for dj in range(3):
            xp[di : di + H, dj : dj + W] += cols[:, :, di, dj]


def conv3x3(x, w, b, pixels=None) -> Tensor:
    """Same-padded 3x3 convolution. x: [B,C,H,W], w: [O,C,3,3], b: [O];
    returns [B,O,H,W], or [B,O,P] at flat output pixels [P] (v * W + u).

    Lowered to GEMMs with K = 9C (im2col; Chellapilla et al., High
    Performance Convolutional Neural Networks for Document Processing,
    2006): the columns come from a sliding window over a channel-last padded
    copy of x. The forward never holds a sample's whole [H*W, 9C] columns
    (Anderson et al., Low-memory GEMM-based convolution algorithms for deep
    neural networks, 2017): it forms them a block of image rows at a time
    (_row_blocks, at least _CONV_BLOCK_PIXELS pixels a block) and writes
    each block's cols @ w2, transposed, straight into the channel-first
    [B, O, H*W] output, to which the bias is then added in place. Its
    transients are one block's columns and product; the padded copy and the
    output are its only whole-map arrays. (np.matmul(w2ᵀ, colsᵀ, out=...)
    would skip the product, but its bytes differ from cols @ w2 at some
    shapes.) At `pixels`, only their rows are gathered, as one block.
    A GEMM computes each output row on its own, so a block's or a pixel's
    value is the whole-sample GEMM's up to rounding, and byte for byte
    while BLAS keeps one kernel for both row counts: with numpy's OpenBLAS
    at C = O = 64, 28 or more rows matched and 16 or fewer did not (its
    small-matrix kernel groups the K = 576 sum differently), hence the
    block floor. At `pixels` the conv is inference-only: when it would
    record, it raises ContractError.

    The backward, over whole maps, rebuilds each sample's columns rather
    than keeping a [B*H*W, 9C] matrix alive between forward and backward:
    the weight gradient is colsᵀ @ g, and the input gradient is g @ w2ᵀ
    folded back onto the padded input (_col2im_add). Blocking those would
    regroup the weight gradient's sum over pixels and the fold's overlapping
    adds, so the two whole-sample [H*W, 9C] arrays stay, and they are the
    conv's peak. The fold writes into the padded copy the forward kept,
    each sample's slot once its weight-gradient columns are taken, so the
    input gradient allocates no padded buffer of its own while the weight
    is tracked."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise DimensionError(f"conv3x3 shapes: x {x.shape}, w {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"conv3x3 channel mismatch: x has {x.shape[1]}, w expects {w.shape[1]}"
        )
    B, C, H, W = x.shape
    O = w.shape[0]
    if pixels is not None:
        if _records(x, w, b):
            raise ContractError("conv3x3 at pixels is inference-only; run under no_grad")
        pixels = np.asarray(pixels, dtype=np.int64)
    rows = H * W if pixels is None else len(pixels)
    xp = np.pad(x.data.transpose(0, 2, 3, 1), ((0, 0), (1, 1), (1, 1), (0, 0)))
    w2 = w.data.transpose(2, 3, 1, 0).reshape(9 * C, O)
    out = np.empty((B, O, rows))
    for i in range(B):
        if pixels is not None:
            out[i] = (_im2col(xp[i], pixels) @ w2).T
            continue
        for h0, h1 in _row_blocks(H, W):
            # Output rows h0..h1-1 read padded rows h0..h1+1.
            out[i, :, h0 * W : h1 * W] = (_im2col(xp[i, h0 : h1 + 2]) @ w2).T
    out += b.data[:, None]
    out = out.reshape((B, O) + ((H, W) if pixels is None else (rows,)))
    # The padded input is kept for the weight gradient, the weight matrix
    # for the input gradient.
    xp_shape, tb = xp.shape, _tracked(b)
    xp_kept = xp if _tracked(w) else None
    w2_kept = w2 if _tracked(x) else None

    def bw(g):
        gl = np.moveaxis(g, 1, -1)  # a view; each sample's rows are copied apart
        gw2 = np.zeros((9 * C, O)) if xp_kept is not None else None
        gxp = None
        if w2_kept is not None:
            # The input gradient accumulates in the padded copy the forward
            # kept, each sample's slot zeroed once its columns are taken.
            gxp = xp_kept if xp_kept is not None else np.empty(xp_shape)
        for i in range(B):
            gi = gl[i].reshape(H * W, O)
            if gw2 is not None:
                gw2 += _im2col(xp_kept[i]).T @ gi
            if gxp is not None:
                gxp[i] = 0.0
                _col2im_add(gxp[i], gi @ w2_kept.T)
        gx = gw = gb = None
        if gxp is not None:
            gx = gxp[:, 1 : 1 + H, 1 : 1 + W].transpose(0, 3, 1, 2)
        if gw2 is not None:
            gw = gw2.reshape(3, 3, C, O).transpose(3, 2, 0, 1)
        if tb:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

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
    matrices rh [2H, H] and rw [2W, W]: the forward is (rh @ x) @ rwᵀ and
    the backward rhᵀ @ (g @ rw), two broadcast matmuls each way. Every row
    of an axis matrix sums to 1 with weights in {0, 1/4, 3/4, 1}, so a
    per-pixel affine map commutes with this upsampling up to rounding."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"bilinear_up2 expects [B,C,H,W], got {x.shape}")
    B, C, H, W = x.shape
    rh = _up2_matrix(H)
    rw = _up2_matrix(W)
    out = (rh @ x.data) @ rw.T

    def bw(g):
        return (rh.T @ (g @ rw),)

    return _make(out, (x,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned scale and shift.
    An untracked operand (a frozen gain or bias) gets None in the backward."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    # sum / n is the reduce-then-divide of ndarray.mean, without its
    # Python-level wrapper: the same bytes at a third of the call cost.
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data
    gain_shape, bias_shape = gain.shape, bias.shape
    tg, tb = _tracked(gain), _tracked(bias)
    gain_data = gain.data if _tracked(x) else None

    def bw(g):
        gg = _unbroadcast(g * xhat, gain_shape) if tg else None
        gb = _unbroadcast(g, bias_shape) if tb else None
        if gain_data is None:
            return None, gg, gb
        dxhat = g * gain_data
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


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, n, d] -> a contiguous [B, heads, n, d // heads] copy."""
    B, n, d = x.shape
    return x.reshape(B, n, heads, d // heads).transpose(0, 2, 1, 3).copy()


def _attention_scores(qh, kh, scale, mask) -> np.ndarray:
    """qh khᵀ · scale + mask in a new [B, heads, n, m] buffer, with a
    contiguous kᵀ."""
    scores = qh @ kh.transpose(0, 1, 3, 2).copy()
    scores *= scale
    if mask is not None:
        scores += mask
    return scores


def attention_core(q, k, v, heads: int, mask=None) -> Tensor:
    """Multi-head softmax(q kᵀ / √dh + mask) · v as one node.

    q is [B, n, d]. k and v are [B, m, d], or already split into heads as
    [B, heads, m, dh] (the rows a KVCache holds). `mask` is an additive
    array that broadcasts to [B, heads, n, m], or None. Returns [B, n, d]
    with the heads merged back.

    The forward runs the numpy operations of the composed ops (head split
    with contiguous copies, contiguous kᵀ, scale, mask, stable softmax,
    P·V, head merge) in their order, so its bytes match theirs. The
    backward is the standard hand-written one (Dao et al., FlashAttention,
    arXiv 2205.14135): with O = P·V, the softmax correction term
    rowsum(dP ∘ P) equals rowsum(dO ∘ O). Like FlashAttention it does not
    store the [B, heads, n, m] probabilities P: it rebuilds them from the
    split q and k it keeps, the mask and the softmax's [B, heads, n, 1]
    row max and row sum, with the forward's operations in its order, so P
    and every gradient keep their bytes. The graph then holds the split
    q, k and v, the attention output and the two row statistics.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim not in (3, 4) or v.shape != k.shape:
        raise DimensionError(f"attention_core shapes: q {q.shape}, k {k.shape}, "
                             f"v {v.shape}")
    B, n, d = q.shape
    if d % heads != 0:
        raise DimensionError(f"attention_core: width {d} not divisible by {heads} heads")
    dh = d // heads
    split_kv = k.ndim == 3
    qh = split_heads(q.data, heads)
    kh = split_heads(k.data, heads) if split_kv else k.data
    vh = split_heads(v.data, heads) if split_kv else v.data
    if kh.shape[:2] != (B, heads) or kh.shape[3] != dh:
        raise DimensionError(f"attention_core: k {k.shape} does not match q {q.shape} "
                             f"with {heads} heads")
    scale = 1.0 / np.sqrt(dh)
    # The scores become their softmax in one buffer.
    probs = _attention_scores(qh, kh, scale, mask)
    row_max = probs.max(axis=-1, keepdims=True)
    probs -= row_max
    np.exp(probs, out=probs)
    row_sum = probs.sum(axis=-1, keepdims=True)
    probs /= row_sum
    attn = probs @ vh
    out = attn.transpose(0, 2, 1, 3).copy().reshape(B, n, d)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(B, t.shape[2], d)

    def bw(g):
        probs = _attention_scores(qh, kh, scale, mask)
        probs -= row_max
        np.exp(probs, out=probs)
        probs /= row_sum
        ga = split_heads(g, heads)
        gv = np.swapaxes(probs, -1, -2) @ ga
        gs = ga @ np.swapaxes(vh, -1, -2)  # dP, then the score gradient
        gs -= (ga * attn).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        gq = gs @ kh
        gk = np.swapaxes(gs, -1, -2) @ qh
        if split_kv:
            return merge(gq), merge(gk), merge(gv)
        return merge(gq), gk, gv

    return _make(out, (q, k, v), bw)


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
