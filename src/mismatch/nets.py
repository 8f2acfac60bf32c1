"""Network pieces: shared encoder, attention-shifting decoder blocks,
morphological feature perturbation, the variant table, and the parameter
layout.

The segmentation net is a U-shaped encoder/decoder. MisMatch pairs one
decoder built from positive attention shifting blocks (PASB, dilated side
branch that inflates foreground) with one built from negative attention
shifting blocks (NASB, residual side branch that shrinks it); consistency
between the two heads is the training signal on unlabelled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (TAP_PRODUCT_BYTES, Tensor, add, concat_channels,
                       conv2d, conv_relu_norm, maxpool2, mul, same_padding,
                       scale, sigmoid, small_ufunc_buffer, upsample_bilinear2,
                       window_extreme)
from .data import check_memory
from .errors import ConfigError, ContractError, DimensionError, ParameterError

PASB_SIDE_DILATION = 5


@dataclass(frozen=True)
class Variant:
    """An experiment arm: one decoder kind per head (standard | pasb |
    nasb | morph_dilate | morph_erode) and how the arm is trained."""
    decoders: tuple[str, ...]
    semi_supervised: bool
    augment_flip: bool
    augment_noise: bool


# MM is the full method; MM-a/b/c ablate the attention decoders pairwise;
# Sup1 is a plain single-decoder U-net; Sup2 is the MM topology trained
# supervised-only; Morph swaps the learned attention for fixed grey-scale
# dilation/erosion on features.
VARIANTS: dict[str, Variant] = {
    "MM": Variant(("pasb", "nasb"), True, False, False),
    "MM-a": Variant(("standard", "standard"), True, False, False),
    "MM-b": Variant(("standard", "nasb"), True, False, False),
    "MM-c": Variant(("standard", "pasb"), True, False, False),
    "Sup1": Variant(("standard",), False, True, True),
    "Sup2": Variant(("pasb", "nasb"), False, True, True),
    "Morph": Variant(("morph_dilate", "morph_erode"), True, False, True),
}


def variant_spec(name: str) -> Variant:
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of "
                          f"{sorted(VARIANTS)}")
    return VARIANTS[name]


@dataclass
class Model:
    """One decoder kind per head plus every parameter by name, in the
    checkpoint order `param_layout` defines, each a view into `flat`."""
    decoders: tuple[str, ...]
    params: dict[str, Tensor]
    flat: Tensor


# ---------------------------------------------------------------------------
# forward passes

def _stage(x, params, name: str, dilation: int = 1):
    # conv -> relu -> norm, the unit every block is assembled from
    w = params[f"{name}.w"]
    return conv_relu_norm(x, w, params[f"{name}.b"], params[f"{name}.gamma"],
                          params[f"{name}.beta"],
                          padding=same_padding(w.shape[2], dilation),
                          dilation=dilation)


def _check_side_branch(params, prefix: str, who: str, wanted: bool):
    if (f"{prefix}.side1.w" in params) != wanted:
        raise ContractError(f"{who} got {prefix!r}, which "
                            f"{'lacks' if wanted else 'has'} a side branch")


def morph_perturb(x: Tensor, mode: str) -> Tensor:
    """Grey-scale 3x3 dilation or erosion on feature maps, same padding.

    Border windows are padded with -inf (dilate) / +inf (erode) so the pad
    never wins. Gradient routes to the selected element per window, first
    index on ties, like max pooling.
    """
    if mode not in ("dilate", "erode"):
        raise ParameterError(f"morph_perturb: unknown mode {mode!r}")
    if x.data.ndim != 4:
        raise DimensionError("morph_perturb expects NCHW input")
    reduce = np.maximum if mode == "dilate" else np.minimum
    return window_extreme(f"morph_{mode}", x, 3, 1, 1, reduce)


def standard_block(x: Tensor, params, prefix: str,
                   morph_mode: str | None = None) -> Tensor:
    """Two conv/relu/norm stages. With morph_mode set, each stage output is
    morphologically perturbed (two morph_perturb calls per block)."""
    _check_side_branch(params, prefix, "standard_block", wanted=False)
    h = _stage(x, params, f"{prefix}.main1")
    if morph_mode is not None:
        h = morph_perturb(h, morph_mode)
    out = _stage(h, params, f"{prefix}.main2")
    if morph_mode is not None:
        out = morph_perturb(out, morph_mode)
    return out


def pasb(x: Tensor, params, prefix: str,
         capture: dict | None = None) -> Tensor:
    """Positive attention shifting block: out = m + m*a.

    The side branch runs two dilated conv stages (rate 5, effective extent
    11) over the first main stage's output and squashes to an attention
    map a in (0,1); attention above 0.5 inflates the main features.
    """
    _check_side_branch(params, prefix, "pasb", wanted=True)
    h = _stage(x, params, f"{prefix}.main1")
    m = _stage(h, params, f"{prefix}.main2")
    s = _stage(h, params, f"{prefix}.side1", dilation=PASB_SIDE_DILATION)
    del h  # each array goes after its last read, for a value-only peak
    s = _stage(s, params, f"{prefix}.side2", dilation=PASB_SIDE_DILATION)
    a = sigmoid(s)
    del s
    if capture is not None:
        capture["m"], capture["a"] = m, a
    return add(m, mul(m, a))


def nasb(x: Tensor, params, prefix: str,
         capture: dict | None = None) -> Tensor:
    """Negative attention shifting block: out = m + m*a with a residual
    side branch.

    Each side conv stage carries an identity skip: h2 = h + stage(h),
    s = h2 + stage(h2), a = sigmoid(s). With zero side weights the skips
    pass h straight through, so a = sigmoid(h).
    """
    _check_side_branch(params, prefix, "nasb", wanted=True)
    h = _stage(x, params, f"{prefix}.main1")
    m = _stage(h, params, f"{prefix}.main2")
    h2 = add(h, _stage(h, params, f"{prefix}.side1"))
    del h  # each array goes after its last read, for a value-only peak
    s = add(h2, _stage(h2, params, f"{prefix}.side2"))
    del h2
    a = sigmoid(s)
    del s
    if capture is not None:
        capture["m"], capture["a"] = m, a
    return add(m, mul(m, a))


def check_input(params, shape) -> None:
    """Refuse, as DimensionError, an image shape the encoder cannot take:
    not NCHW, a channel count other than enc0's, or spatial dims that two
    2x2 poolings cannot halve."""
    if len(shape) != 4:
        raise DimensionError(f"the encoder expects an NCHW image, got shape "
                             f"{tuple(shape)}")
    channels = params["enc0.main1.w"].shape[1]
    if shape[1] != channels:
        raise DimensionError(f"the model takes {channels}-channel images, "
                             f"got {shape[1]}-channel ones")
    h, w = shape[2], shape[3]
    if h % 4 or w % 4:
        raise DimensionError(f"encoder needs spatial dims divisible by 4, "
                             f"got {h}x{w}")


# Bytes per pixel per base-width channel that a value-only forward of one
# slice holds at its peak, beside the tap products of one conv block.
# tracemalloc peaks of MM forwards read 36.2-39.2 at widths 8, 16 and 24
# (128x128 to 512x512 slices), MM-a, Morph and Sup1 35.2-36.9.
FORWARD_BYTES = 48


def check_forward(params, shape) -> None:
    """Refuse, as ParameterError, NCHW `shape` images whose value-only
    forward of one slice would hold more than physical memory."""
    width = params["enc0.main1.w"].shape[0]
    h, w = shape[2], shape[3]
    check_memory(FORWARD_BYTES * width * h * w + TAP_PRODUCT_BYTES,
                 f"a width-{width} forward of one {h}x{w} slice")


# Bytes per pixel per base-width channel per sample that one recorded
# training step (forward, losses and backward) holds at its peak, per
# decoder kinds. Beside them a step holds, whatever its batch, the tap
# products of one conv block (TAP_PRODUCT_BYTES) and a conv's weight
# gradients, within one parameter buffer; at batch 1 on small slices those
# weigh most. tracemalloc peaks of one step, less TAP_PRODUCT_BYTES, read
# per unit at widths 8 and 16, sides 32 and 64, joint batches 2 and 4 and
# the supervised arms' batch 1: MM and Sup2 262.4-271.3, MM-a 160.0-164.1,
# MM-b 212.3-215.9, MM-c 216.6-220.8, Sup1 86.2-101.9 and Morph
# 207.6-222.0. At widths 2-24, sides 8-64 and those batches, every arm
# peaked within 97.1% of its count.
STEP_BYTES = {
    ("pasb", "nasb"): 280,
    ("standard", "standard"): 170,
    ("standard", "nasb"): 225,
    ("standard", "pasb"): 230,
    ("standard",): 105,
    ("morph_dilate", "morph_erode"): 230,
}


def check_step(model: Model, shape, batch: int) -> None:
    """Refuse, as ParameterError, a training step of `batch` samples of
    NCHW `shape` images whose recorded forward and backward would hold more
    than physical memory."""
    width = model.params["enc0.main1.w"].shape[0]
    h, w = shape[2], shape[3]
    check_memory(STEP_BYTES[model.decoders] * width * h * w * batch
                 + TAP_PRODUCT_BYTES + model.flat.data.nbytes,
                 f"a width-{width} training step of {batch} {h}x{w} slices")


def encoder_forward(image: Tensor, params):
    """Three standard blocks with 2x2 max pooling between them.

    Returns (bottleneck, [skip1, skip2]) where skips keep the two upper
    resolutions for the decoders. The image must pass check_input.
    """
    check_input(params, image.shape)
    s1 = standard_block(image, params, "enc0")
    s2 = standard_block(maxpool2(s1), params, "enc1")
    bottleneck = standard_block(maxpool2(s2), params, "enc2")
    return bottleneck, [s1, s2]


_MORPH_MODES = {"morph_dilate": "dilate", "morph_erode": "erode"}


def _block_forward(x, params, prefix: str, decoder_kind: str):
    if decoder_kind in ("standard", "morph_dilate", "morph_erode"):
        return standard_block(x, params, prefix,
                              morph_mode=_MORPH_MODES.get(decoder_kind))
    if decoder_kind == "pasb":
        return pasb(x, params, prefix)
    if decoder_kind == "nasb":
        return nasb(x, params, prefix)
    raise ContractError(f"unknown decoder kind {decoder_kind!r}")


def decoder_forward(bottleneck: Tensor, skips: list[Tensor], params,
                    prefix: str, kind: str) -> Tensor:
    """Upsample/concat/block twice, one more block, then a 1x1 conv head
    with sigmoid. Output is a probability map in (0,1), input-sized."""
    h = concat_channels(upsample_bilinear2(bottleneck), skips[1])
    h = _block_forward(h, params, f"{prefix}.block0", kind)
    h = concat_channels(upsample_bilinear2(h), skips[0])
    h = _block_forward(h, params, f"{prefix}.block1", kind)
    h = _block_forward(h, params, f"{prefix}.block2", kind)
    logits = conv2d(h, params[f"{prefix}.head.w"], params[f"{prefix}.head.b"],
                    padding=0, dilation=1)
    return sigmoid(logits)


def model_forward(model: Model, image: Tensor) -> list[Tensor]:
    """Run the shared encoder once and every decoder on its outputs.

    It runs under `small_ufunc_buffer`, so numpy does not buffer the
    stages' per-(sample, channel) broadcasts (the conv bias, the norm's
    statistics and affine) over maps of 1024 elements or more: the
    cropped bias add of a (2, 8, 64x64) float32 map took 52.9 us at
    numpy's default buffer and 25.7 with it (numpy 2.4.6), and the
    benchmark's eval scored 14% more 64x64 slices per second.
    """
    with small_ufunc_buffer():
        bottleneck, skips = encoder_forward(image, model.params)
        return [decoder_forward(bottleneck, skips, model.params, f"dec{j}",
                                kind)
                for j, kind in enumerate(model.decoders)]


def average_prediction(probs: list[Tensor]) -> Tensor:
    if len(probs) == 1:
        return probs[0]
    if len(probs) != 2:
        raise ContractError(f"expected 1 or 2 heads, got {len(probs)}")
    return scale(add(probs[0], probs[1]), 0.5)


# ---------------------------------------------------------------------------
# parameter layout and initialisation

def param_layout(kinds: tuple[str, ...], channels: int, in_channels: int):
    """Yield every parameter as (name, shape, init) in checkpoint order.

    init is "he" (Kaiming normal, fan-in scaled for relu stages), "zeros"
    or "ones". Encoder blocks run at widths [C, 2C, 4C]; decoder blocks at
    6C->2C, 3C->C and C->C, then a 1x1 head. Attention blocks add two side
    stages that keep the working width: the side branch reads the first
    main stage's output, so NASB's per-stage identity skips type-check
    and PASB sees the same projection.
    """
    c = channels

    def block(prefix, c_in, c_out, side):
        stages = [("main1", c_in), ("main2", c_out)]
        if side:
            stages += [("side1", c_out), ("side2", c_out)]
        for stage, fan_in in stages:
            yield f"{prefix}.{stage}.w", (c_out, fan_in, 3, 3), "he"
            yield f"{prefix}.{stage}.b", (c_out,), "zeros"
            yield f"{prefix}.{stage}.gamma", (c_out,), "ones"
            yield f"{prefix}.{stage}.beta", (c_out,), "zeros"

    for i, (c_in, c_out) in enumerate([(in_channels, c), (c, 2 * c),
                                       (2 * c, 4 * c)]):
        yield from block(f"enc{i}", c_in, c_out, side=False)
    for j, kind in enumerate(kinds):
        for i, (c_in, c_out) in enumerate([(6 * c, 2 * c), (3 * c, c),
                                           (c, c)]):
            yield from block(f"dec{j}.block{i}", c_in, c_out,
                             side=kind in ("pasb", "nasb"))
        yield f"dec{j}.head.w", (1, c, 1, 1), "he"
        yield f"dec{j}.head.b", (1,), "zeros"


def bind(kinds, shapes, data, trainable: bool = True) -> Model:
    """The one builder of parameter Tensors: views into 1-D `data`, one per
    (name, shape), end to end. A trainable model also gets a zeroed grad
    buffer of the same size, viewed the same way; a snapshot, an average
    or a loaded model is never trained, so it carries none."""
    flat = Tensor(data, requires_grad=trainable)
    params, end = {}, 0
    for name, shape in shapes:
        start, end = end, end + math.prod(shape)
        t = params[name] = Tensor(flat.data[start:end].reshape(shape))
        if trainable:
            t.requires_grad, t.grad = True, flat.grad[start:end].reshape(shape)
    return Model(kinds, params, flat)


def detached_params(model: Model) -> list[str]:
    """Names whose .data or .grad no longer views its own span of
    `model.flat` (say, after `params[name].data = ...`), in layout order."""
    bad, at = [], 0
    for name, t in model.params.items():
        size = t.data.size
        for mine, whole in ((t.data, model.flat.data),
                            (t.grad, model.flat.grad)):
            if whole is None:
                continue
            span = whole[at:at + size]
            if (mine is None or mine.dtype != span.dtype or mine.size != size
                    or not mine.flags.c_contiguous
                    or mine.ctypes.data != span.ctypes.data):
                bad.append(name)
                break
        at += size
    return bad


def _draw(layout, rng, dtype) -> np.ndarray:
    """Initial values of layout entries, end to end; "he" weights draw from
    rng in layout order, biases and norm affines are constant."""
    values = []
    for name, shape, init in layout:
        if init == "he":
            std = np.sqrt(2.0 / (shape[1] * shape[2] * shape[3]))
            data = (rng.standard_normal(shape) * std).astype(dtype)
        else:
            data = (np.ones if init == "ones" else np.zeros)(shape, dtype)
        values.append(data.ravel())
    return np.concatenate(values)


def init_params(variant: str, channels: int, in_channels: int = 1,
                seed: int = 0, dtype=np.float32) -> Model:
    """Build a full model for an experiment variant.

    Encoder and each decoder draw from independent child seeds, so two
    decoders of the same kind still start at different weights.
    """
    kinds = variant_spec(variant).decoders
    if channels < 1:
        raise ParameterError("channels must be >= 1")
    layout = list(param_layout(kinds, channels, in_channels))
    nbytes = np.dtype(dtype).itemsize * sum(math.prod(s) for _, s, _ in layout)
    check_memory(nbytes, f"parameters of width {channels}", ConfigError)
    # one generator per encoder/decoder name prefix, listed in layout order
    parts = ["enc"] + [f"dec{j}." for j in range(len(kinds))]
    children = np.random.SeedSequence(seed).spawn(len(parts))
    data = np.concatenate([
        _draw([e for e in layout if e[0].startswith(part)],
              np.random.default_rng(child), dtype)
        for part, child in zip(parts, children)])
    return bind(kinds, [(name, shape) for name, shape, _ in layout], data)


# ---------------------------------------------------------------------------
# parameter traversal

def named_params(model: Model) -> list[tuple[str, Tensor]]:
    """Stable (name, tensor) listing; the order defines checkpoint layout."""
    return list(model.params.items())


def decoder_param_names(model: Model, index: int) -> list[str]:
    return [n for n in model.params if n.startswith(f"dec{index}.")]


def param_shapes(model: Model) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, t.shape) for name, t in model.params.items()]


def clone_params(model: Model) -> Model:
    """Deep copy of the values, frozen while the source keeps training, and
    with no gradient buffer. Training does not call it: it sums its last
    epoch ends in place, bitwise average_checkpoints of such copies."""
    return bind(model.decoders, param_shapes(model), model.flat.data.copy(),
                trainable=False)
