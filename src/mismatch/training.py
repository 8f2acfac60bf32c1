"""Losses, optimiser, the streaming training loop, and checkpointing.

Supervision is soft Dice on labelled batches; the semi-supervised signal
is a symmetric stop-gradient MSE between the two decoder heads on
unlabelled batches, ramped in by a linear warm-up. The parameters at the
last save_last_k epoch ends are folded into one running sum as they come;
its elementwise mean is the evaluation model.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import astuple, dataclass, field, fields
from functools import reduce

import numpy as np

from .autodiff import (Tape, Tensor, add, as_tensor, backward, mse, record_op,
                       scale, stop_gradient, take_batch)
from .data import ByteCursor, pack, write_atomic
from .errors import (ConfigError, ContractError, DimensionError, FormatError,
                     NumericalAbort)
from .metrics import read_table, write_table
from .nets import (Model, bind, decoder_param_names,
                   detached_params, model_forward, named_params, param_layout,
                   param_shapes, variant_spec)

CONSISTENCY_MODES = ("symmetric", "first_to_second", "second_to_first")
ALPHA_SCHEDULES = ("warmup", "constant")

CHECKPOINT_MAGIC = b"MMCKPT01"
HISTORY_COLUMNS = {"step": int, "epoch": int, "dice1": float, "dice2": float,
                   "consistency": float, "alpha": float, "total": float}


def _key(section: str, default, rule: str, ok):
    """A TrainConfig field: its flat config key is `section.name`, its type
    is its default's, and `ok` accepts the legal values (`rule`, in words)."""
    return field(default=default,
                 metadata={"section": section, "rule": rule, "ok": ok})


@dataclass
class TrainConfig:
    """The run config, the only declaration of each config key, in the
    order the command line lists them."""
    channels: int = _key("model", 8, ">= 1", lambda v: v >= 1)
    in_channels: int = _key("model", 1, ">= 1", lambda v: v >= 1)
    lr: float = _key("train", 1e-3, "> 0", lambda v: v > 0)
    epochs: int = _key("train", 10, ">= 1", lambda v: v >= 1)
    batch_size: int = _key("train", 1, ">= 1", lambda v: v >= 1)
    save_last_k: int = _key("train", 10, ">= 1", lambda v: v >= 1)
    seed: int = _key("train", 0, ">= 0", lambda v: v >= 0)
    alpha_max: float = _key("loss", 0.05, ">= 0", lambda v: v >= 0)
    warmup_fraction: float = _key("loss", 0.2, "in [0, 1]",
                                  lambda v: 0 <= v <= 1)
    alpha_schedule: str = _key("loss", "warmup", f"one of {ALPHA_SCHEDULES}",
                               lambda v: v in ALPHA_SCHEDULES)
    dice_smooth: float = _key("loss", 1.0, "> 0", lambda v: v > 0)
    consistency_mode: str = _key("loss", "symmetric",
                                 f"one of {CONSISTENCY_MODES}",
                                 lambda v: v in CONSISTENCY_MODES)
    labelled_slices: int = _key("data", 4, ">= 1", lambda v: v >= 1)
    augment_noise: float = _key("data", 0.2, ">= 0", lambda v: v >= 0)

    def validate(self) -> "TrainConfig":
        for key, f in CONFIG_FIELDS.items():
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if not f.metadata["ok"](value):
                raise ConfigError(f"{key} must be {f.metadata['rule']}, "
                                  f"got {value!r}")
        return self


# flat config key -> its TrainConfig field, in declaration order
CONFIG_FIELDS = {f"{f.metadata['section']}.{f.name}": f
                 for f in fields(TrainConfig)}


def parse_config_value(key: str, text: str):
    """Parse one flat config value by the type of its field's default.
    A line break is refused: `int("\\n5")` is 5, but the value is echoed
    as one line of a checkpoint and of each CSV's comment block."""
    kind = type(CONFIG_FIELDS[key].default)
    if text.splitlines() not in ([], [text]):
        raise ConfigError(f"bad config value {key}={text!r}: line breaks "
                          f"are not allowed")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"bad config value {key}={text!r}: expected "
                          f"{kind.__name__}") from None


def reference_config() -> TrainConfig:
    """Full-scale reference settings: width 24, lr 2e-5, 50 epochs, batch 1,
    alpha 0.002 and the average of the last 10 epoch ends."""
    return TrainConfig(alpha_max=0.002, lr=2e-5, epochs=50, batch_size=1,
                       channels=24, save_last_k=10)


# ---------------------------------------------------------------------------
# losses

def dice_loss(probs: Tensor, target, smooth: float = 1.0) -> Tensor:
    """Soft Dice loss: 1 - (2*sum(p*g) + smooth) / (sum(p) + sum(g) + smooth).

    Acts on raw probabilities, never on thresholded masks. Perfect overlap
    on a hard target gives exactly 0 because the smooth terms cancel.
    """
    if smooth <= 0:
        raise ConfigError("dice smooth term must be positive")
    target = as_tensor(target)
    if probs.shape != target.shape:
        raise DimensionError(f"dice_loss: prediction {probs.shape} vs target "
                             f"{target.shape}")
    p, g = probs.data, target.data
    a = 2.0 * np.sum(p * g) + smooth
    b = np.sum(p) + np.sum(g) + smooth
    out = np.asarray(1.0 - a / b, dtype=p.dtype)

    def bw(go):
        # d/dp_i [1 - a/b] = (a - 2*g_i*b) / b^2
        return (go * (a - 2.0 * g * b) / (b * b), None)

    return record_op("dice_loss", (probs, target), out, bw)


def consistency_loss(p1: Tensor, p2: Tensor,
                     mode: str = "symmetric") -> Tensor:
    """Stop-gradient MSE between the two heads.

    Symmetric form: 0.5*mse(p1, sg(p2)) + 0.5*mse(p2, sg(p1)). Each head
    chases a frozen copy of the other, so the term never pushes a head
    through its own target. One-sided modes keep a single summand and
    train only the named direction.
    """
    if mode == "symmetric":
        return add(scale(mse(p1, stop_gradient(p2)), 0.5),
                   scale(mse(p2, stop_gradient(p1)), 0.5))
    if mode == "first_to_second":
        return mse(p1, stop_gradient(p2))
    if mode == "second_to_first":
        return mse(p2, stop_gradient(p1))
    raise ConfigError(f"unknown consistency mode {mode!r}")


def alpha_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Consistency weight at a step: linear 0 -> alpha_max over the warm-up
    span, constant afterwards (or constant throughout)."""
    if cfg.alpha_schedule == "constant":
        return cfg.alpha_max
    warm = cfg.warmup_fraction * total_steps
    if warm <= 0:
        return cfg.alpha_max
    return cfg.alpha_max * min(1.0, step / warm)


# ---------------------------------------------------------------------------
# optimiser

# Adam's moment decay rates and the denominator's floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The step count and both moment estimates, shaped like the flat
    parameter buffer."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, flat: Tensor) -> "AdamState":
        return cls(np.zeros_like(flat.data), np.zeros_like(flat.data))


def adam_step(flat: Tensor, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of flat.data from flat.grad, in
    place. Every op is elementwise, so one update over the whole buffer
    equals a per-parameter loop bitwise."""
    g = flat.grad
    if g is None:
        raise ContractError("adam_step: the tensor has no gradient buffer")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    flat.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def zero_grads(named: list[tuple[str, Tensor]]) -> None:
    for _, t in named:
        if t.grad is not None:
            t.grad[...] = 0


# ---------------------------------------------------------------------------
# snapshot averaging

def average_checkpoints(snapshots: list[Model]) -> Model:
    """Elementwise mean of parameter snapshots: a running sum of their
    tensors' .data in the given order, bitwise equal to np.mean, and to
    train's average of the same last-k epoch ends."""
    if not snapshots:
        raise ContractError("average_checkpoints needs at least one snapshot")
    shapes = param_shapes(snapshots[0])
    if any(param_shapes(s) != shapes for s in snapshots):
        raise DimensionError("snapshot parameter shapes differ")
    values = (np.concatenate([t.data.ravel() for t in s.params.values()])
              for s in snapshots)
    return bind(snapshots[0].decoders, shapes,
                reduce(np.add, values) / len(snapshots), trainable=False)


# ---------------------------------------------------------------------------
# training loop

def _keep_heap() -> None:
    """Keep the training step's arrays on one heap that never shrinks.

    A step allocates and frees the same few MB of arrays every time. By
    default glibc hands the free top of the heap back to the kernel: in
    MM training at width 8 on 32x32 slices, each backward shrank the arena
    (mallinfo2) by 2-7 MB and the next forward faulted it back in, 1,050
    to 1,110 minor faults per step in 4 of 5 seeded runs, against 0.4-0.5
    with these settings. Setting either threshold turns off glibc's
    dynamic thresholds, which would otherwise raise both as large blocks
    are freed, so both are set. A no-op where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap blocks up to 32 MiB
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB free


@dataclass
class HistoryRow:
    step: int
    epoch: int
    dice1: float
    dice2: float
    consistency: float
    alpha: float
    total: float


def train(config: TrainConfig, model: Model, labelled_stream,
          unlabelled_stream=None, stop_gradient_audit: bool = False):
    """Streaming training.

    Every step draws one labelled batch (Dice per head) and, when an
    unlabelled stream is given, one unlabelled batch (consistency between
    heads, weighted by the warm-up schedule); both batches share one
    forward pass. Epoch length follows the unlabelled stream when
    present, the labelled stream otherwise; the labelled stream cycles
    independently of epoch boundaries. A non-finite loss or gradient, or
    a gradient whose square overflows, raises NumericalAbort before Adam
    changes any parameter. Returns (final params, the mean of the
    parameters at the last save_last_k epoch ends, history rows). Those
    epoch ends are summed into one buffer as they come, so averaging holds
    one copy of the parameters whatever save_last_k is.

    With stop_gradient_audit=True each step additionally differentiates
    each consistency summand alone and verifies the detached head's own
    parameters receive exactly zero gradient.
    """
    config.validate()
    if labelled_stream is None or labelled_stream.epoch_len == 0:
        raise ConfigError("training needs a non-empty labelled stream")
    if unlabelled_stream is not None and unlabelled_stream.epoch_len == 0:
        raise ConfigError("unlabelled stream is empty; pass None to train "
                          "supervised-only")
    if unlabelled_stream is not None and len(model.decoders) != 2:
        raise ContractError("consistency training needs a two-decoder model")
    if model.flat.grad is None:
        raise ContractError("model has no gradient buffer; train a model "
                            "built by init_params")
    detached = detached_params(model)
    if detached:
        raise ContractError(f"parameters {detached} no longer view the "
                            f"model's flat store; write into .data[...] "
                            f"instead of rebinding it")

    _keep_heap()
    steps_per_epoch = (unlabelled_stream.epoch_len if unlabelled_stream
                       else labelled_stream.epoch_len)
    total_steps = steps_per_epoch * config.epochs
    state = AdamState.for_params(model.flat)
    first = max(0, config.epochs - config.save_last_k)
    history: list[HistoryRow] = []

    step = 0
    for epoch in range(config.epochs):
        for _ in range(steps_per_epoch):
            a = alpha_at(step, total_steps, config)
            xb, yb = labelled_stream.next_batch()
            xu = None
            if unlabelled_stream is not None:
                xu, _ = unlabelled_stream.next_batch()

            if stop_gradient_audit and xu is not None:
                _audit_stop_gradient(model, xu, step)

            dice, cons_val, total = _step_loss(config, model, xb, yb, xu, a)
            total_val = total.item()
            if not np.isfinite(total_val):
                raise NumericalAbort(f"non-finite loss {total_val} at step "
                                     f"{step}", step=step)
            backward(total)
            # g @ g is finite only if every g and every g*g is: a square
            # that overflows would make Adam's second moment inf and
            # silently freeze its parameter
            g = model.flat.grad
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(g @ g):
                    raise NumericalAbort(f"non-finite gradient at step {step}"
                                         f", or one whose square overflows",
                                         step=step)
            adam_step(model.flat, state, config.lr)
            zero_grads([("params", model.flat)])
            d = [t.item() for t in dice] + [0.0]  # dice2 = 0 for one head
            history.append(HistoryRow(step, epoch, d[0], d[1], cons_val, a,
                                      total_val))
            step += 1
        # the sum starts from a copy, not zeros (0 + -0.0 is +0.0), and adds
        # in epoch order: bitwise average_checkpoints of the epochs' clones
        if epoch == first:
            summed = model.flat.data.copy()
        elif epoch > first:
            summed += model.flat.data

    averaged = bind(model.decoders, param_shapes(model),
                    summed / (config.epochs - first), trainable=False)
    return model, averaged, history


def _step_loss(config: TrainConfig, model: Model, xb, yb, xu, a: float):
    """One step's recorded forward: (Dice per head, the consistency value,
    the total loss Tensor to differentiate)."""
    with Tape():
        # One forward over the labelled and any unlabelled samples. Every
        # op is per sample, so each half equals its own forward, and at
        # zero weight the term's gradient is exactly +-0: the step is then
        # bitwise the supervised one.
        x = xb if xu is None else np.concatenate([xb, xu])
        heads = model_forward(model, Tensor(x))
        if xu is not None:
            nb = len(xb)
            heads, up = ([take_batch(p, 0, nb) for p in heads],
                         [take_batch(p, nb, len(x)) for p in heads])
        target = Tensor(yb)
        dice = [dice_loss(p, target, config.dice_smooth) for p in heads]
        total = reduce(add, dice)
        cons_val = 0.0
        if xu is not None:
            cons = consistency_loss(*up, config.consistency_mode)
            cons_val = cons.item()
            total = add(total, scale(cons, a))
    return dice, cons_val, total


def _audit_stop_gradient(model, xu, step):
    """Check both one-sided consistency terms leave the detached head's own
    parameters at exactly zero gradient."""
    for mode, frozen_dec in (("first_to_second", 1), ("second_to_first", 0)):
        with Tape():
            up = model_forward(model, Tensor(xu))
            term = consistency_loss(*up, mode)
        backward(term)
        frozen = set(decoder_param_names(model, frozen_dec))
        for name, t in model.params.items():
            if name in frozen and np.any(t.grad != 0):
                raise ContractError(
                    f"stop-gradient audit failed at step {step}: {name} got "
                    f"gradient from the {mode} consistency term")
        zero_grads([("params", model.flat)])


# ---------------------------------------------------------------------------
# checkpoint container

def save_checkpoint(path, model: Model,
                    config_echo: dict[str, str] | None = None) -> None:
    """Binary container: magic, config echo, then named array records.

    Layout (all integers little-endian u32):
      magic "MMCKPT01" | echo_len | echo utf-8 ("key=value" lines)
      | n_arrays | repeated (name_len | name utf-8 | array record)
    """
    echo = "".join(f"{k}={v}\n" for k, v in (config_echo or {}).items())
    named = named_params(model)
    write_atomic(path, pack(CHECKPOINT_MAGIC, echo, len(named),
                            *(f for name, t in named for f in (name, t.data))))


def load_checkpoint(path):
    """Read a checkpoint container; returns (arrays, config echo dict)."""
    cursor = ByteCursor(path, CHECKPOINT_MAGIC)
    echo = {}
    for line in cursor.text("config echo").splitlines():
        if line:
            k, _, v = line.partition("=")
            echo[k] = v
    arrays: dict[str, np.ndarray] = {}
    for _ in range(cursor.u32("array count")):
        name = cursor.text("array name")
        arrays[name] = cursor.array(name)
    cursor.end()
    return arrays, echo


def echo_value(echo: dict[str, str], key: str):
    """One config key of a checkpoint echo, parsed as the config is."""
    if key not in echo:
        raise FormatError(f"checkpoint echo is missing {key!r}")
    try:
        return parse_config_value(key, echo[key])
    except ConfigError as e:
        raise FormatError(f"checkpoint echo: {e}") from None


def load_model(path) -> tuple[Model, dict[str, str]]:
    """Rebuild a model from a checkpoint; the echo must carry the variant,
    channel width and input channel count under model.* keys."""
    arrays, echo = load_checkpoint(path)
    if "model.variant" not in echo:
        raise FormatError("checkpoint echo is missing 'model.variant'")
    kinds = variant_spec(echo["model.variant"]).decoders
    shapes = [(name, shape) for name, shape, _ in param_layout(
        kinds, echo_value(echo, "model.channels"),
        echo_value(echo, "model.in_channels"))]
    if [(name, a.shape) for name, a in arrays.items()] != shapes:
        raise FormatError("checkpoint arrays do not match the model layout")
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise FormatError(f"checkpoint parameter {name} holds non-finite "
                              f"values")
    return bind(kinds, shapes, np.concatenate(
        [a.ravel() for a in arrays.values()], dtype=np.float32),
        trainable=False), echo


# ---------------------------------------------------------------------------
# history file

def write_history_csv(path, rows: list[HistoryRow],
                      header_comments: tuple[str, ...] = ()) -> None:
    write_table(path, HISTORY_COLUMNS, map(astuple, rows), header_comments)


def read_history_csv(path) -> list[HistoryRow]:
    return [HistoryRow(*row) for row in read_table(path, HISTORY_COLUMNS)]
