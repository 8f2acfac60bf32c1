"""Reverse-mode automatic differentiation on dense numpy arrays.

Carries exactly the op set the segmentation nets need: dilated 3x3
convolution, instance normalisation, 2x2 max pooling, x2 bilinear
upsampling, channel concat, pointwise arithmetic and MSE. Ops record onto
an ambient Tape (see `Tape`); with no active tape they run value-only,
which is the evaluation path. Numerical checks run in float64, training
in float32; dtype follows the operands.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, GraphError, ParameterError

__all__ = [
    "Tensor", "Tape", "active_tape", "as_tensor", "record_op", "backward",
    "add", "mul", "scale", "mse", "relu", "sigmoid", "stop_gradient",
    "concat_channels", "take_batch", "maxpool2", "upsample_bilinear2",
    "instance_norm", "conv2d", "same_padding",
]


class _TapeStack(threading.local):
    """Per-thread stack of active tapes, so concurrent forward passes in
    different threads never record onto each other's tape."""

    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


class Tape:
    """Ordered record of ops; every node's inputs precede the node itself.

    One tape backs one forward/backward cycle. `backward` marks the tape
    consumed and a second call raises, so gradients can never silently
    accumulate across training steps. It also empties `nodes`, releasing
    the recorded graph as soon as its gradients are delivered.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.tapes.pop()
        if popped is not self:
            raise GraphError("tapes exited out of order")
        return False


def active_tape() -> Tape | None:
    tapes = _TAPES.tapes
    return tapes[-1] if tapes else None


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tensor:
    """Dense float array, optionally carrying a gradient and a tape link.

    Leaves built with requires_grad=True (parameters) own a persistent
    grad buffer, zero-initialised; op outputs keep grad=None and are
    routed through transient storage during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape", "tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.tape: Tape | None = None
        self.tape_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        flags = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flags})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(tape: Tape | None, inputs: Sequence[Tensor]) -> bool:
    return tape is not None and any(t.requires_grad for t in inputs)


def record_op(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
              backward_fn: Callable) -> Tensor:
    """Build the output tensor for an op and record it on the active tape.

    backward_fn maps the output gradient to one gradient (or None) per
    input, in input order. Nothing is recorded in evaluation mode or when
    no input requires gradients.
    """
    out = Tensor(out_data)
    tape = active_tape()
    if _records(tape, inputs):
        out.requires_grad = True
        out.tape = tape
        out.tape_id = len(tape.nodes)
        tape.nodes.append(_Node(op, tuple(inputs), out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad.

    The tape is traversed exactly once, in reverse creation order, which
    is a valid topological order by construction, and each node is
    dropped once visited; that also breaks the Tape -> node -> output ->
    Tape reference cycle, so the graph is freed without the cycle
    collector. Unreachable parameters keep their zero gradients.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise GraphError("loss is not connected to a tape; run the forward pass "
                         "inside a Tape context")
    if tape.consumed:
        raise GraphError("tape already consumed by a backward pass; gradients do "
                         "not accumulate, rebuild the graph")
    tape.consumed = True

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = flowing.pop(id(node.output), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is not None:          # parameter leaf
                t.grad += gi
            elif t.tape is tape:            # intermediate on this tape
                prev = flowing.get(id(t))
                flowing[id(t)] = gi if prev is None else prev + gi


# ---------------------------------------------------------------------------
# pointwise and reduction ops

def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return record_op("add", (a, b), a.data + b.data, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return record_op("mul", (a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(x: Tensor, k: float) -> Tensor:
    k = float(k)
    return record_op("scale", (x,), x.data * k, lambda g: (g * k,))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements, as a scalar tensor."""
    _check_same_shape("mse", a, b)
    d = a.data - b.data
    k = 2.0 / d.size
    out = np.asarray(np.mean(d * d))

    def bw(g):
        gd = g * k * d
        return (gd, -gd)

    return record_op("mse", (a, b), out, bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient 0 at 0
    return record_op("relu", (x,), np.maximum(x.data, 0), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    # Branch-free split form: exp only ever sees -|x|, so large |x| cannot
    # overflow, and for x < 0 the value e/(1+e) stays a small positive
    # number instead of rounding 1 - 1/(1+e) to zero.
    xd = x.data
    e = np.exp(-np.abs(xd))
    r = 1.0 / (1.0 + e)
    out = np.where(xd >= 0, r, e * r)

    def bw(g):
        return (g * out * (1.0 - out),)

    return record_op("sigmoid", (x,), out, bw)


def stop_gradient(x: Tensor) -> Tensor:
    """Value-identical leaf with no tape link: gradients end here."""
    return Tensor(x.data)


# ---------------------------------------------------------------------------
# structured ops

def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise DimensionError("concat_channels expects NCHW inputs")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(f"concat_channels: incompatible shapes {a.shape} "
                             f"and {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return record_op("concat_channels", (a, b), out,
                     lambda g: (g[:, :ca], g[:, ca:]))


def take_batch(x: Tensor, start: int, stop: int) -> Tensor:
    """Samples start:stop along the batch axis; the gradient is zero for
    every other sample. Splits a jointly forwarded batch into its parts."""
    n = x.shape[0] if x.data.ndim else 0
    if not 0 <= start < stop <= n:
        raise DimensionError(f"take_batch: range {start}:{stop} outside a "
                             f"batch of {n}")

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return record_op("take_batch", (x,), x.data[start:stop], bw)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. Ties route gradient to the first
    maximal element in window row-major order."""
    if x.data.ndim != 4:
        raise DimensionError("maxpool2 expects NCHW input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = (x.data.reshape(n, c, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gw = np.zeros_like(win)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gx = (gw.reshape(n, c, h // 2, w // 2, 2, 2)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        return (gx,)

    return record_op("maxpool2", (x,), out, bw)


def upsample_bilinear2(x: Tensor) -> Tensor:
    """x2 bilinear upsampling, align-corners-false.

    Rows (H) are interpolated first, then columns (W); the per-pixel
    expression tree is fixed so a naive reimplementation matches bitwise.
    """
    if x.data.ndim != 4:
        raise DimensionError("upsample_bilinear2 expects NCHW input")
    out = _upsample_axis(_upsample_axis(x.data, -2), -1)

    def bw(g):
        return (_upsample_adjoint(_upsample_adjoint(g, 3), 2),)

    return record_op("upsample_bilinear2", (x,), out, bw)


def _upsample_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """x2 linear upsampling, align-corners-false, along axis -2 or -1.

    Output 2i is 0.25*x[i-1] + 0.75*x[i] and output 2i+1 is
    0.75*x[i] + 0.25*x[i+1], with out-of-range neighbours clamped to the
    edge: each parity is one strided store.
    """
    def at(s):
        return (Ellipsis, s) + (slice(None),) * (-1 - axis)

    prev = np.concatenate([x[at(slice(None, 1))], x[at(slice(None, -1))]], axis)
    nxt = np.concatenate([x[at(slice(1, None))], x[at(slice(-1, None))]], axis)
    shape = list(x.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=x.dtype)
    out[at(slice(0, None, 2))] = 0.25 * prev + 0.75 * x
    out[at(slice(1, None, 2))] = 0.75 * x + 0.25 * nxt
    return out


def _upsample_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of x2 linear upsampling along one axis (length 2m -> m).

    Output 2i mixes 0.25*x[i-1] + 0.75*x[i] and output 2i+1 mixes
    0.75*x[i] + 0.25*x[i+1], with out-of-range neighbours clamped to the
    edge; the adjoint gathers those four contributions per input.
    """
    g = np.moveaxis(g, axis, -1)
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = 0.75 * (ge + go)
    gx[..., 1:] += 0.25 * go[..., :-1]
    gx[..., :-1] += 0.25 * ge[..., 1:]
    gx[..., 0] += 0.25 * ge[..., 0]
    gx[..., -1] += 0.25 * go[..., -1]
    return np.moveaxis(gx, -1, axis)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                  eps: float = 1e-5) -> Tensor:
    """Per-(sample, channel) normalisation over the spatial extent.

    Chosen over batch statistics because training runs at batch size 1.
    A 1x1 spatial extent has zero variance and collapses to beta.
    """
    if eps <= 0:
        raise ParameterError("instance_norm: eps must be positive")
    if x.data.ndim != 4:
        raise DimensionError("instance_norm expects NCHW input")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"instance_norm: affine shapes {gamma.shape}/"
                             f"{beta.shape} do not match {c} channels")
    # statistics over a flat (n, c, h*w) view; the variance comes from the
    # centred values, which become xhat in place
    size = h * w
    xhat = x.data.reshape(n, c, size)
    xhat = xhat - xhat.mean(axis=-1, keepdims=True)
    var = np.einsum("ncl,ncl->nc", xhat, xhat)[:, :, None] / size
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]

    def bw(g):
        g = g.reshape(n, c, size)
        gsum = g.sum(axis=-1)
        gxsum = np.einsum("ncl,ncl->nc", g, xhat)
        gx = g - (gsum / size)[:, :, None]
        gx -= xhat * (gxsum / size)[:, :, None]
        gx *= inv * gamma.data[:, None]
        return (gx.reshape(n, c, h, w), gxsum.sum(axis=0), gsum.sum(axis=0))

    return record_op("instance_norm", (x, gamma, beta),
                     out.reshape(n, c, h, w), bw)


def same_padding(kernel: int, dilation: int = 1) -> int:
    """Padding that keeps spatial size under stride-1 dilated convolution."""
    return dilation * (kernel - 1) // 2


# Column-buffer budget of one value-only conv2d GEMM; 1 MiB evaluates
# faster than 8 MiB and keeps train-then-eval peak RSS off heap layout.
_COLS_BYTES = 1 << 20


def _im2col(xd: np.ndarray, k: int, d: int, p: int) -> np.ndarray:
    """Flat-shift im2col of NCHW `xd` for a k x k kernel at dilation d and
    padding p, as a (c*k*k, n*ho*wp) column matrix with wp = w + 2p.

    Each sample is zero-padded into a (hp, wp) plane with one spare bottom
    row, and flattened. Output pixel (i, j) then reads tap (ki, kj) at flat
    offset i*wp + j + ki*d*wp + kj*d, so every tap is one contiguous slice
    of length L = ho*wp. Outputs are computed on the ho x wp grid; its last
    wp - wo columns wrap into the next row and `_conv_apply` drops them.
    The spare row keeps the last tap's slice in bounds. One GEMM over the
    columns covers the whole batch.
    """
    n, c, h, w = xd.shape
    hp, wp = h + 2 * p + 1, w + 2 * p
    L = (h + 2 * p - d * (k - 1)) * wp
    xp = np.zeros((c, n, hp, wp), dtype=xd.dtype)
    xp[:, :, p:p + h, p:p + w] = xd.transpose(1, 0, 2, 3)
    xp = xp.reshape(c, n, hp * wp)
    cols = np.empty((c, k * k, n, L), dtype=xd.dtype)
    for t in range(k * k):
        off = (t // k) * d * wp + (t % k) * d
        cols[:, t] = xp[:, :, off:off + L]
    return cols.reshape(c * k * k, n * L)


def _conv_apply(w2: np.ndarray, bias: np.ndarray | None, cols: np.ndarray,
                ho: int, wo: int, wp: int) -> np.ndarray:
    """(o, c*k*k) weights times `_im2col` columns, plus an optional bias,
    with the wrap columns dropped: the NCHW (n, o, ho, wo) result."""
    out2 = w2 @ cols
    if bias is not None:
        out2 += bias[:, None]
    out2 = out2.reshape(w2.shape[0], -1, ho, wp)[:, :, :, :wo]
    return np.ascontiguousarray(out2.transpose(1, 0, 2, 3))


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int,
           dilation: int = 1) -> Tensor:
    """Stride-1 dilated 2D convolution, NCHW x OIHW -> NOHW.

    The effective kernel extent is dilation*(K-1)+1; same-size output
    needs padding = dilation*(K-1)/2 for odd K. Internally a flat-shift
    im2col/matmul formulation (`_im2col`, `_conv_apply`). The input
    gradient is the same kernel run on the output gradient with the
    flipped, channel-transposed weights; the quadruple-loop definition is
    kept in the test suite as the oracle.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d expects NCHW input and OIHW weights")
    n, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    if kh != kw:
        raise DimensionError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if ci != c:
        raise DimensionError(f"conv2d: weight expects {ci} input channels, "
                             f"input has {c}")
    if b.shape != (o,):
        raise DimensionError(f"conv2d: bias shape {b.shape} != ({o},)")
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ParameterError(f"conv2d: dilation must be a positive int, got "
                             f"{dilation!r}")
    if padding < 0:
        raise ParameterError("conv2d: padding must be non-negative")

    k, d, p = kh, int(dilation), int(padding)
    eff = d * (k - 1) + 1
    ho = h + 2 * p - eff + 1
    wo = wd + 2 * p - eff + 1
    if ho <= 0 or wo <= 0:
        raise DimensionError(f"conv2d: effective kernel {eff} exceeds padded "
                             f"input {h + 2 * p}x{wd + 2 * p}")

    wp = wd + 2 * p
    w2 = w.data.reshape(o, c * k * k)

    # Value-only calls (evaluation at the batch size of a whole case) run
    # in groups of samples whose column buffer stays near _COLS_BYTES, so
    # it stays cache-sized and the process's peak memory stays low.
    per_sample = c * k * k * ho * wp * x.data.itemsize
    if (n * per_sample > _COLS_BYTES
            and not _records(active_tape(), (x, w, b))):
        step = max(1, _COLS_BYTES // per_sample)
        return Tensor(np.concatenate([
            _conv_apply(w2, b.data, _im2col(x.data[s:s + step], k, d, p),
                        ho, wo, wp)
            for s in range(0, n, step)]))

    cols = _im2col(x.data, k, d, p)
    out = _conv_apply(w2, b.data, cols, ho, wo, wp)
    needs_gx = x.requires_grad

    def bw(g):
        gb = g.sum(axis=(0, 2, 3))
        # the wrap columns get zero gradient, so they add nothing below
        g2 = np.zeros((o, n, ho, wp), dtype=g.dtype)
        g2[:, :, :, :wo] = g.transpose(1, 0, 2, 3)
        g2 = g2.reshape(o, n * ho * wp)
        # cols @ g2.T runs ~2x faster in BLAS than g2 @ cols.T at o << c*k*k
        gw = (cols @ g2.T).T.reshape(o, c, k, k)
        if not needs_gx:
            return (None, gw, gb)
        # gx is g convolved with the flipped kernel, channels transposed, at
        # padding q = eff-1-p. A negative q (padding beyond the kernel's
        # reach) runs at padding 0 and crops -q from each border.
        q = eff - 1 - p
        qc, crop = max(q, 0), max(-q, 0)
        wt2 = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        gx = _conv_apply(wt2, None, _im2col(g, k, d, qc),
                         h + 2 * crop, wd + 2 * crop, wo + 2 * qc)
        if crop:
            gx = gx[:, :, crop:crop + h, crop:crop + wd]
        return (gx, gw, gb)

    return record_op("conv2d", (x, w, b), out, bw)
