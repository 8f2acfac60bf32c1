"""Reverse-mode automatic differentiation on dense numpy arrays.

Carries exactly the op set the segmentation nets need: dilated 3x3
convolution, instance normalisation, their conv -> relu -> norm stage,
2x2 max pooling, x2 bilinear upsampling, channel concat, pointwise
arithmetic and MSE. Ops record onto an ambient Tape (see `Tape`); with no
active tape they run value-only, which is the evaluation path. Numerical
checks run in float64, training in float32; dtype follows the operands.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, GraphError, ParameterError

__all__ = [
    "Tensor", "Tape", "active_tape", "as_tensor", "record_op", "backward",
    "add", "mul", "scale", "mse", "relu", "sigmoid", "stop_gradient",
    "concat_channels", "take_batch", "window_extreme", "maxpool2", "conv2d",
    "upsample_bilinear2", "instance_norm", "conv_relu_norm", "same_padding",
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

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.tape: Tape | None = None

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
    out = np.maximum(x.data, 0)
    # out > 0 exactly where x > 0 (subgradient 0 at 0): the mask is built
    # only if a backward pass asks for it
    return record_op("relu", (x,), out, lambda g: (g * (out > 0),))


def sigmoid(x: Tensor) -> Tensor:
    # Split form: exp only ever sees -|x| or min(x, 0), so large |x| cannot
    # overflow, and for x < 0 the value e/(1+e) stays a small positive
    # number instead of rounding 1 - 1/(1+e) to zero. exp(min(x, 0)) is e
    # for x < 0 and exactly 1 otherwise, so the product selects e*r or r
    # without a masked select, which costs ten times an exp.
    xd = x.data
    r = 1.0 / (1.0 + np.exp(-np.abs(xd)))
    out = np.exp(np.minimum(xd, 0)) * r

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


def window_extreme(op: str, x: Tensor, k: int, stride: int, pad: int,
                   reduce) -> Tensor:
    """Max (`reduce` np.maximum) or min (np.minimum) over every k x k
    window of NCHW `x` at `stride`, the border padded with `pad` rows and
    columns of -inf (max) or +inf (min) so that the pad never wins.

    The forward is a running `reduce` over the k*k tap views, one strided
    slice each, and copies no window. The backward routes each output
    gradient to the first tap, in window row-major order, that equals the
    output: argmax's first-index tie rule, kept by clearing `free` where
    a tap has already taken the gradient.
    """
    h, w = x.shape[2:]
    src = x.data
    if pad:
        fill = -np.inf if reduce is np.maximum else np.inf
        src = np.pad(src, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                     constant_values=fill)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    taps = [(Ellipsis, slice(i, i + stride * (ho - 1) + 1, stride),
             slice(j, j + stride * (wo - 1) + 1, stride))
            for i in range(k) for j in range(k)]
    # np.maximum/np.minimum return their second operand when -0.0 meets
    # +0.0, so the running value goes second and the earlier tap wins
    out = reduce(src[taps[1]], src[taps[0]])
    for t in taps[2:]:
        reduce(src[t], out, out=out)

    def bw(g):
        free = np.ones(out.shape, dtype=bool)
        hits = []
        for t in taps:
            hit = src[t] == out
            hit &= free
            free ^= hit
            hits.append(hit)
        # last tap first: each input then sums its gradients in the order
        # of the outputs that read it, as a scatter-add over them would
        gs = np.zeros_like(src)
        for t, hit in zip(reversed(taps), reversed(hits)):
            gs[t] += g * hit
        return (gs[..., pad:pad + h, pad:pad + w],)

    return record_op(op, (x,), out, bw)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. Ties route gradient to the first
    maximal element in window row-major order."""
    if x.data.ndim != 4:
        raise DimensionError("maxpool2 expects NCHW input")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    return window_extreme("maxpool2", x, 2, 2, 0, np.maximum)


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


# added to each (sample, channel) variance before its square root
_NORM_EPS = 1e-5


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-(sample, channel) normalisation over the spatial extent.

    Chosen over batch statistics because training runs at batch size 1.
    A 1x1 spatial extent has zero variance and collapses to beta.
    """
    if x.data.ndim != 4:
        raise DimensionError("instance_norm expects NCHW input")
    out, bw = _norm(x.data.copy(), gamma, beta)
    return record_op("instance_norm", (x, gamma, beta), out, bw)


def _norm(y: np.ndarray, gamma: Tensor, beta: Tensor):
    """instance_norm of NCHW `y`, in place, as (output, backward)."""
    n, c, h, w = y.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"instance_norm: affine shapes {gamma.shape}/"
                             f"{beta.shape} do not match {c} channels")
    # statistics over a flat (n, c, h*w) view, the mean in np.mean's bits;
    # the variance comes from the centred values, which become xhat in place
    size = h * w
    xhat = y.reshape(n, c, size)
    xhat -= np.add.reduce(xhat, -1, keepdims=True) / size
    var = np.einsum("ncl,ncl->nc", xhat, xhat)[:, :, None] / size
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
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

    return out.reshape(n, c, h, w), bw


def same_padding(kernel: int, dilation: int = 1) -> int:
    """Padding that keeps spatial size under stride-1 dilated convolution."""
    return dilation * (kernel - 1) // 2


# Blocks of the tap walk: the rows a block reads (the c input rows, or the
# k*k*c stacked columns) stay within this many bytes, in cache.
# Unblocked, a 16-slice 64x64 MM forward took 165 ms instead of 130 ms
# (2-vCPU x86-64, OpenBLAS on one thread).
_BLOCK_BYTES = 1 << 18
# The per-tap walk makes the k*k tap products of one sample's block at once
# only while they fit in this many bytes, in L2; beyond, it adds each tap's
# GEMM in place. Making them at once at every size, a width-8 MM forward of
# 64x64 slices in two-slice chunks took 9.68 ms per slice instead of 8.23
# (medians of 40 interleaved runs on that host; an 8 -> 8 conv's products
# are 1.2 MB there), while the 32x32 training convs make at most 0.4 MB.
TAP_PRODUCT_BYTES = 1 << 19


def _flat_grid(a: np.ndarray, hp: int, wp: int, at: int,
               tail: int) -> np.ndarray:
    """NCHW `a` laid out channels-first as one flat (c, n*hp*wp + tail)
    array of zeros, with each sample's plane written at row and column
    offset `at` of its own hp x wp grid, the grids end to end."""
    n, c, h, w = a.shape
    flat = np.zeros((c, n * hp * wp + tail), dtype=a.dtype)
    grid = flat[:, :n * hp * wp].reshape(c, n, hp, wp)
    grid[:, :, at:at + h, at:at + w] = a.transpose(1, 0, 2, 3)
    return flat


def _blocks(n: int, length: int, rows: int, itemsize: int):
    """(samples, columns) slices of a tap walk over n samples of `length`
    columns, each sample's kept rows only, that reads `rows` rows: whole
    samples while one sample's rows fit in _BLOCK_BYTES, column ranges
    inside one sample beyond that."""
    step = max(1, _BLOCK_BYTES // (rows * itemsize))
    if length > step:
        for i in range(n):
            for m0 in range(0, length, step):
                yield slice(i, i + 1), slice(m0, min(m0 + step, length))
        return
    per = step // max(length, 1)  # an input of zero rows walks 0 columns
    for i0 in range(0, n, per):
        yield slice(i0, min(i0 + per, n)), slice(None)


def _tap_view(src: np.ndarray, k: int, d: int, wp: int, n: int,
              length: int, stride: int, start: int = 0) -> np.ndarray:
    """Every kernel tap of n samples of a flat (c, ...) `src` at once, as a
    (k, k, n, c, length) strided view that copies nothing: tap (ki, kj) of
    sample i is src[:, f:f + length] at f = start + i*stride + ki*d*wp +
    kj*d. The start is an offset, not a slice of `src`, because
    np.ndarray takes only a contiguous buffer."""
    size = src.itemsize
    return np.ndarray((k, k, n, src.shape[0], length), src.dtype, src,
                      start * size,
                      (d * wp * size, d * size, stride * size,
                       src.strides[0], size))


def _conv_flat(taps: np.ndarray, view: np.ndarray) -> np.ndarray:
    """The (n, o, length) sum over taps (ki, kj) of
    taps[ki, kj] @ view[ki, kj], for (k, k, o, c) `taps` and a `_tap_view`,
    block by block. conv2d's forward and input gradient both walk it, each
    over only the rows it keeps of every sample.

    Each tap's view goes to BLAS in place as its own GEMM per sample. While
    a block's k*k products fit in TAP_PRODUCT_BYTES, one broadcast matmul
    per sample makes them and np.add.reduce sums them in row-major tap
    order; beyond, each tap's GEMM is added in place, in the same order,
    so both give the same bits. Where o > c, copying the c input rows of
    every tap is cheaper, so the views are stacked into one (k*k*c,
    columns) matrix per sample and one GEMM; a 1x1 kernel's one view
    stacks without a copy."""
    k, _, o, c = taps.shape
    n, length = view.shape[2], view.shape[-1]
    out = np.empty((n, o, length), dtype=view.dtype)
    stacked = o > c or k == 1
    w2 = taps.transpose(2, 0, 1, 3).reshape(o, k * k * c) if stacked else None
    for s, m in _blocks(n, length, k * k * c if stacked else c,
                        view.itemsize):
        blk, cols = out[s, :, m], view[:, :, s, :, m]
        if stacked:  # the reshape is the copy
            np.matmul(w2, cols.transpose(2, 0, 1, 3, 4).reshape(
                blk.shape[0], k * k * c, blk.shape[-1]), out=blk)
            continue
        if k * k * o * blk.shape[-1] * view.itemsize > TAP_PRODUCT_BYTES:
            np.matmul(taps[0, 0], cols[0, 0], out=blk)
            for t in range(1, k * k):
                blk += taps[t // k, t % k] @ cols[t // k, t % k]
            continue
        for i in range(blk.shape[0]):
            prod = np.matmul(taps, cols[:, :, i]).reshape(k * k, o, -1)
            if prod[0].size == 1:  # reduce would sum a lone axis pairwise
                prod = np.add.accumulate(prod)[-1:]
            np.add.reduce(prod, axis=0, out=blk[i])
            del prod  # before the next products are made
    return out


def _conv_weight_grad(gf: np.ndarray, view: np.ndarray) -> np.ndarray:
    """The (k, k, o, c) weight gradient: tap (ki, kj) is the sum over
    samples i of gf[:, i] @ view[ki, kj, i].T, for (o, n, length) `gf` and
    the forward's (k, k, n, c, length) `_tap_view`, in the blocks of its c
    input rows. Every tap of a sample's block goes to BLAS in one batched
    GEMM."""
    k, _, n, c, length = view.shape
    gw = np.zeros((k, k, gf.shape[0], c), dtype=gf.dtype)
    for s, m in _blocks(n, length, c, view.itemsize):
        for i in range(s.start, s.stop):
            gw += np.matmul(gf[:, i, m], view[:, :, i, :, m].swapaxes(-1, -2))
    return gw


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int,
           dilation: int = 1) -> Tensor:
    """Stride-1 dilated 2D convolution, NCHW x OIHW -> NOHW.

    The effective kernel extent is dilation*(K-1)+1; same-size output
    needs padding = dilation*(K-1)/2 for odd K. Internally one GEMM per
    kernel tap over strided views of the flat padded input (`_conv_flat`),
    with no column buffer, over only each sample's output rows. The tape
    keeps the input, not its padded copy: the backward lays the padded
    grid out again for the weight gradient. The input gradient is the same
    walk over each sample's input rows of the padded output gradient, with
    the flipped, channel-transposed weights, and the weight gradient
    reduces over the forward's columns; the quadruple-loop definition is
    kept in the test suite as the oracle.
    """
    out, bw = _conv(x, w, b, padding, dilation)
    return record_op("conv2d", (x, w, b), out, bw)


def conv_relu_norm(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor,
                   beta: Tensor, padding: int, dilation: int = 1) -> Tensor:
    """instance_norm(relu(conv2d(...)), gamma, beta) as one tape node, bit
    for bit in values and gradients: relu and the norm run in place on the
    fresh conv output, and only a recorded call keeps relu's mask."""
    records = _records(active_tape(), (x, w, b, gamma, beta))
    y, conv_bw = _conv(x, w, b, padding, dilation)
    np.maximum(y, 0, out=y)
    mask = y > 0 if records else None  # where the conv output was > 0
    out, norm_bw = _norm(y, gamma, beta)
    if not records:
        return Tensor(out)

    def bw(g):
        gy, ggamma, gbeta = norm_bw(g)
        gy *= mask
        return (*conv_bw(gy), ggamma, gbeta)

    return record_op("conv_relu_norm", (x, w, b, gamma, beta), out, bw)


def _conv(x: Tensor, w: Tensor, b: Tensor, padding: int, dilation: int):
    """conv2d as (a fresh output array, backward)."""
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
    for name, value, least in (("dilation", dilation, 1),
                               ("padding", padding, 0)):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < least):
            raise ParameterError(f"conv2d: {name} must be an int >= {least}, "
                                 f"got {value!r}")

    k, d, p = kh, int(dilation), int(padding)
    eff = d * (k - 1) + 1
    ho = h + 2 * p - eff + 1
    wo = wd + 2 * p - eff + 1
    if ho <= 0 or wo <= 0:
        raise DimensionError(f"conv2d: effective kernel {eff} exceeds padded "
                             f"input {h + 2 * p}x{wd + 2 * p}")

    # Every sample is zero-padded into an hp x wp grid, flattened, and the
    # grids laid end to end: output (i, j) of a sample then reads tap
    # (ki, kj) at flat offset i*wp + j + ki*d*wp + kj*d from its grid's
    # start, so each tap is one strided (c, ho*wp) view per sample, and
    # the output comes out NCHW. The columns past wo wrap into the next
    # row; the bias add writes the output without them. The tail keeps the
    # last tap's view in bounds. The grid copies x, which the tape keeps
    # anyway, so it goes with the forward and the backward lays it out
    # again.
    hp, wp = h + 2 * p, wd + 2 * p
    m, tail = n * hp * wp, (eff - 1) * (wp + 1)
    xd = x.data
    taps = w.data.transpose(2, 3, 0, 1)

    def x_view():
        return _tap_view(_flat_grid(xd, hp, wp, p, tail), k, d, wp, n,
                         ho * wp, hp * wp)

    out = _conv_flat(taps, x_view())
    out = np.add(out.reshape(n, o, ho, wp)[..., :wo], b.data[:, None, None])
    needs_gx = x.requires_grad

    def bw(g):
        gb = g.sum(axis=(0, 2, 3))
        # g written at row and column eff-1 of the forward's grid lands
        # `tail` flat places after output (i, j), so each sample's first
        # ho*wp columns of gp[:, tail:tail + m] are g on the forward's
        # columns, zero on the wrap ones: the weight gradient's operand.
        # Input (i, j) meets g at (i - ki*d, j - kj*d), flat offset
        # tail - ki*d*wp - kj*d in gp, which is the flipped tap's offset:
        # the input gradient is the tap walk over each sample's input rows
        # p..p+h of gp with the flipped, channel-transposed kernel.
        gp = _flat_grid(g, hp, wp, eff - 1, tail)
        gf = gp[:, tail:tail + m].reshape(o, n, hp * wp)[:, :, :ho * wp]
        gw = _conv_weight_grad(gf, x_view()).transpose(2, 3, 0, 1)
        if not needs_gx:
            return (None, gw, gb)
        gx = _conv_flat(taps[::-1, ::-1].transpose(0, 1, 3, 2),
                        _tap_view(gp, k, d, wp, n, h * wp, hp * wp, p * wp))
        return (gx.reshape(n, c, h, wp)[..., p:p + wd], gw, gb)

    return out, bw
