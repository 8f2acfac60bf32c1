"""Experiment command line: data generation, training, evaluation,
calibration, and the consistency-weight sweep.

Configuration is flat key=value text (sections model., train., loss.,
data.) whose keys, types and defaults `training.TrainConfig` declares;
defaults < config file < --set overrides < dedicated flags. Every
emitted CSV echoes the full configuration as # comments. Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical abort; failures print
one machine-readable "MM-ERR:" line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .autodiff import Tensor
from .data import (AugmentConfig, CaseSet, casewise_normalize, check_memory,
                   gen_caseset, load_caseset, make_streams, save_caseset)
from .errors import (ConfigError, MisMatchError, NumericalAbort,
                     ParameterError)
from .metrics import (RELIABILITY_SLICES_COLUMNS, MetricsRow, PooledBins,
                      binarize, ece, emit_metrics_csv, emit_reliability_csv,
                      fmt_float, reliability_rows, slice_ious, write_table)
from . import nets
from .nets import average_prediction, init_params, model_forward
from .training import (CONFIG_FIELDS, TrainConfig, _keep_heap, echo_value,
                       load_model, parse_config_value, save_checkpoint,
                       train, write_history_csv)

DEFAULT_CONFIG: dict[str, str] = {key: str(f.default)
                                  for key, f in CONFIG_FIELDS.items()}


# ---------------------------------------------------------------------------
# configuration plumbing

def parse_config_file(path) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as f:
            for ln, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got "
                                      f"{line!r}")
                out[key.strip()] = value.strip()
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not valid UTF-8: "
                          f"{e.reason} at byte {e.start}") from None
    return out


def merge_config(file_path=None, overrides=()) -> dict[str, str]:
    pairs = list(parse_config_file(file_path).items()) if file_path else []
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ParameterError(f"--set expects key=value, got {item!r}")
        pairs.append((key, value))
    cfg = dict(DEFAULT_CONFIG)
    for key, value in pairs:
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    """Parse and validate the TrainConfig keys of a flat config; other keys
    (such as model.variant) are ignored."""
    return TrainConfig(**{f.name: parse_config_value(key, cfg[key])
                          for key, f in CONFIG_FIELDS.items()}).validate()


def echo_lines(cfg: dict[str, str]) -> tuple[str, ...]:
    return tuple(f"{k}={cfg[k]}" for k in sorted(cfg))


# ---------------------------------------------------------------------------
# shared run logic

def _load_normalized(manifest) -> CaseSet:
    """The manifest's cases, each normalised in place of its raw image, so
    a raw image goes as soon as its case is normalised."""
    caseset = load_caseset(manifest)
    cases = caseset.cases
    for i in range(len(cases)):
        cases[i] = casewise_normalize(cases[i])
    return caseset


def run_training(variant: str, cfg: dict[str, str], caseset, out_dir,
                 scored=()):
    """Train one arm on a loaded, normalised `caseset`, or on a manifest
    path, loaded and normalised once every config key has been checked,
    and write final.ckpt, averaged.ckpt and history.csv; returns
    averaged.ckpt's path. The training slices, and the `scored` cases the
    caller will forward through the trained model, are checked against
    the model before out_dir is made."""
    spec = nets.variant_spec(variant)
    train_config_from(cfg)  # every key is checked, for every arm
    cfg = {**cfg, "model.variant": variant}
    if not spec.semi_supervised:
        cfg["loss.alpha_max"] = "0"  # supervised arms carry no consistency
    tc = train_config_from(cfg)

    if not isinstance(caseset, CaseSet):
        caseset = _load_normalized(caseset)
    augment = AugmentConfig(
        flip=spec.augment_flip,
        noise_sigma=tc.augment_noise if spec.augment_noise else 0.0)
    labelled, unlabelled = make_streams(
        caseset, tc.labelled_slices, tc.seed, tc.batch_size,
        labelled_augment=augment)
    if not spec.semi_supervised:
        unlabelled = None
    elif unlabelled is None:
        raise ConfigError(f"variant {variant} needs an unlabelled_train split")

    # a width beyond memory, an input the model cannot take or a step
    # beyond memory leaves no out_dir, and an unusable out_dir fails here,
    # not after the whole training run; make_streams gave every training
    # slice one shape, and an unlabelled batch joins the labelled one
    model = init_params(variant, tc.channels, tc.in_channels, seed=tc.seed)
    shape = (1, *labelled.slice_shape)
    nets.check_input(model.params, shape)
    nets.check_step(model, shape,
                    tc.batch_size * (1 if unlabelled is None else 2))
    _check_scored(model, scored)
    os.makedirs(out_dir, exist_ok=True)
    final, averaged, history = train(tc, model, labelled, unlabelled)

    comments = echo_lines(cfg)
    write_history_csv(os.path.join(out_dir, "history.csv"), history, comments)
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), final, cfg)
    averaged_path = os.path.join(out_dir, "averaged.ckpt")
    save_checkpoint(averaged_path, averaged, cfg)
    return averaged_path


def _check_scored(model, cases) -> None:
    """Refuse cases the model cannot take (DimensionError) or whose
    forward of one slice exceeds physical memory (ParameterError)."""
    for case in cases:
        nets.check_input(model.params, case.image.shape)
        nets.check_forward(model.params, case.image.shape)


def _head_names(model) -> list[str]:
    """The heads calibrate reports; the last is the one eval scores."""
    return ["p"] if len(model.decoders) == 1 else ["p1", "p2", "avg"]


def _case_probs(model, case) -> dict[str, np.ndarray]:
    """Forward a case in chunks of slices (the batch axis) whose base-width
    float32 maps fit in 256 KiB, so each op's operands stay in cache. Every
    op is per sample, so the chunks' probabilities are bitwise those of one
    whole-case forward. No tape is active, so nothing is recorded. A finite
    checkpoint can still overflow on the way: non-finite probabilities are
    a NumericalAbort, never a metric."""
    image = case.image.astype(np.float32, copy=False)
    n, _, h, w = image.shape
    width = model.params["enc0.main1.w"].shape[0]
    step = max(1, 256 * 1024 // (width * h * w * 4))
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = [model_forward(model, Tensor(image[i:i + step]))
                  for i in range(0, n, step)]
    probs = [Tensor(np.concatenate([c[k].data for c in chunks]))
             for k in range(len(chunks[0]))]
    if not all(np.isfinite(p.data).all() for p in probs):
        raise NumericalAbort(f"case {case.case_id}: the model's probabilities "
                             f"are not finite")
    if len(probs) > 1:
        probs.append(average_prediction(probs))
    return dict(zip(_head_names(model), (p.data for p in probs)))


def _split_cases(caseset: CaseSet, split: str) -> list:
    """The cases of `split`; an unknown or empty split is a ConfigError."""
    cases = caseset.cases_in(split)
    if not cases:
        raise ConfigError(f"split {split!r} is empty")
    return cases


# Bytes a reliability bin costs per diagram at the peak of eval or
# calibrate: the diagram's four arrays; write_table holds the text of only
# a piece of reliability_slices.csv's rows at a time. At --bins 20,000 to
# 100,000 over 2- to 16-slice test splits, peak RSS grew by 26-34 B per
# bin per diagram on calibrate (9-51 diagrams; 27-30 B with 260-character
# case paths) and 30-39 B on eval (3-17 diagrams).
BIN_BYTES = 48


def _check_bins(m_bins: int, cases, heads: int) -> None:
    """Refuse, as ParameterError, `m_bins` bins beyond physical memory for
    the reliability diagrams of `heads` scored heads over `cases`: one per
    slice and one pooled, per head."""
    diagrams = heads * (1 + sum(c.image.shape[0] for c in cases))
    check_memory(BIN_BYTES * m_bins * diagrams,
                 f"--bins {m_bins} for {diagrams} reliability diagrams")


def _score(model, cases, heads, m_bins: int):
    """The one pass over a split's slices, one case at a time: each case
    is forwarded, its slices binned and folded into the pooled diagrams,
    and its probabilities dropped before the next case is forwarded.
    Returns per-slice rows (label, head, IoU, bins) in case, slice, head
    order, and the pooled ReliabilityBins of each head. Only the scored
    heads are binned."""
    _keep_heap()
    pooled = {h: PooledBins(m_bins) for h in heads}
    rows = []
    for case in cases:
        probs = _case_probs(model, case)
        per_head = [(h, slice_ious(binarize(probs[h]), case.mask),
                     pooled[h].add(probs[h], case.mask)) for h in heads]
        del probs  # not held through the next case's forward
        for s in range(case.image.shape[0]):
            label = f"{case.case_id}_s{s:03d}"
            rows.extend((label, h, ious[s], bins[s])
                        for h, ious, bins in per_head)
    return rows, {h: pool.bins() for h, pool in pooled.items()}


def evaluate_split(model, cases, m_bins: int):
    """Per-slice (label, IoU, ECE) rows of the last head, their mean and
    std IoU, and the head's pooled ECE."""
    head = _head_names(model)[-1]
    scored, pooled = _score(model, cases, [head], m_bins)
    rows = [(label, slice_iou, ece(bins))
            for label, _, slice_iou, bins in scored]
    ious = np.array([r[1] for r in rows])
    return rows, float(ious.mean()), float(ious.std()), ece(pooled[head])


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    caseset = gen_caseset(args.seed, args.kind, args.cases, args.slices,
                          args.size, args.noise_sigma)
    manifest = save_caseset(args.out, caseset)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    cfg = merge_config(args.config, args.set)
    if args.seed is not None:
        cfg["train.seed"] = str(args.seed)
    if args.labelled_slices is not None:
        cfg["data.labelled_slices"] = str(args.labelled_slices)
    print(run_training(args.variant, cfg, args.data, args.out))
    return 0


def cmd_eval(args) -> int:
    model, echo = load_model(args.checkpoint)
    seed = echo_value({**DEFAULT_CONFIG, **echo}, "train.seed")
    # a bad split or case leaves no --out behind
    cases = _split_cases(load_caseset(args.data), args.split)
    _check_scored(model, cases)
    _check_bins(args.bins, cases, 1)
    os.makedirs(args.out, exist_ok=True)
    rows, mean_iou, std_iou, pooled_ece = evaluate_split(
        model, map(casewise_normalize, cases), args.bins)

    comments = echo_lines(echo)
    write_table(os.path.join(args.out, "per_image.csv"),
                {"image": str, "iou": float, "ece": float}, rows, comments)

    experiment = args.experiment or echo.get("experiment", "default")
    row = MetricsRow(experiment=experiment,
                     seed=seed,
                     model=echo.get("model.variant", "unknown"),
                     iou=mean_iou, ece=pooled_ece)
    emit_metrics_csv([row], os.path.join(args.out, "metrics.csv"), comments)
    print(f"{args.split} iou {fmt_float(mean_iou)} +/- {fmt_float(std_iou)} "
          f"ece {fmt_float(pooled_ece)}")
    return 0


def cmd_calibrate(args) -> int:
    model, echo = load_model(args.checkpoint)
    cases = _split_cases(load_caseset(args.data), args.split)
    _check_scored(model, cases)
    heads = _head_names(model)
    _check_bins(args.bins, cases, len(heads))
    comments = echo_lines(echo)
    os.makedirs(args.out, exist_ok=True)
    rows, pooled = _score(model, map(casewise_normalize, cases), heads,
                          args.bins)

    write_table(os.path.join(args.out, "reliability_slices.csv"),
                RELIABILITY_SLICES_COLUMNS,
                (r for label, h, _, bins in rows
                 for r in reliability_rows(bins, label, h)), comments)
    for h, bins in pooled.items():
        emit_reliability_csv(bins, os.path.join(
            args.out, f"reliability_pooled_{h}.csv"), comments)
    write_table(os.path.join(args.out, "calibration.csv"),
                {"scope": str, "head": str, "ece": float},
                [("pooled", h, ece(bins)) for h, bins in pooled.items()]
                + [(label, h, ece(bins)) for label, h, _, bins in rows],
                comments)
    print(os.path.join(args.out, "calibration.csv"))
    return 0


def _sweep_values(text: str, flag: str, key: str) -> tuple[list, list]:
    """The tokens of a comma-separated sweep flag and their values, each
    parsed and checked as config `key`; a repeated value is refused."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParameterError(f"{flag} needs at least one value")
    values = []
    for t in tokens:
        try:
            value = parse_config_value(key, t)
            TrainConfig(**{CONFIG_FIELDS[key].name: value}).validate()
        except ConfigError as e:
            raise ParameterError(f"bad {flag} value {t!r}: {e}") from None
        if value in values:
            raise ParameterError(f"{flag} repeats the value of {t!r}")
        values.append(value)
    return tokens, values


def cmd_sweep_alpha(args) -> int:
    tokens, _ = _sweep_values(args.values, "--values", "loss.alpha_max")
    _, seeds = _sweep_values(args.seeds, "--seeds", "train.seed")
    base_cfg = merge_config(args.config, args.set)
    if args.labelled_slices is not None:
        base_cfg["data.labelled_slices"] = str(args.labelled_slices)

    # a missing test split or too many bins stops the sweep before its
    # first arm trains
    caseset = _load_normalized(args.data)
    test_cases = _split_cases(caseset, "test")
    _check_bins(args.bins, test_cases, 1)
    results = {}
    for token in tokens:
        for seed in seeds:
            cfg = dict(base_cfg)
            cfg["loss.alpha_max"] = token
            cfg["train.seed"] = str(seed)
            out_dir = os.path.join(args.out, f"alpha_{token}", f"seed_{seed}")
            model, _ = load_model(run_training(args.variant, cfg, caseset,
                                               out_dir, test_cases))
            _, mean_iou, _, _ = evaluate_split(model, test_cases, args.bins)
            results[(token, seed)] = mean_iou

    summary_path = os.path.join(args.out, "alpha_sweep.csv")
    # the alpha column echoes the input tokens exactly
    write_table(summary_path, {"alpha": str, "mean_iou": float},
                [(t, float(np.mean([results[(t, s)] for s in seeds])))
                 for t in tokens], echo_lines(base_cfg))
    print(summary_path)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"MM-ERR: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mismatch",
                description="Semi-supervised segmentation experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic case set and "
                       "manifest")
    g.add_argument("--kind", choices=("tubes", "blobs"), required=True)
    g.add_argument("--cases", type=int, default=10)
    g.add_argument("--slices", type=int, default=8)
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise-sigma", type=float, default=0.8)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one variant on a manifest")
    t.add_argument("--variant", choices=sorted(nets.VARIANTS),
                   required=True)
    t.add_argument("--data", required=True, help="manifest path")
    t.add_argument("--labelled-slices", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--config", default=None, help="key=value config file")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", default="test")
    e.add_argument("--bins", type=int, default=10)
    e.add_argument("--experiment", default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("calibrate", help="reliability diagrams and ECE")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--split", default="test")
    c.add_argument("--bins", type=int, default=10)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("sweep-alpha", help="train/evaluate over consistency "
                       "weights")
    s.add_argument("--values", default="0,0.0005,0.001,0.002,0.004")
    s.add_argument("--seeds", default="0")
    s.add_argument("--variant", default="MM", choices=sorted(
        name for name, v in nets.VARIANTS.items() if v.semi_supervised))
    s.add_argument("--data", required=True)
    s.add_argument("--labelled-slices", type=int, default=None)
    s.add_argument("--bins", type=int, default=10)
    s.add_argument("--config", default=None)
    s.add_argument("--set", action="append", metavar="KEY=VALUE")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep_alpha)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "bins", 1) < 1:  # refused before any command works
            raise ParameterError(f"--bins must be >= 1, got {args.bins}")
        return args.func(args)
    except (MisMatchError, OSError) as e:  # OSError: unreadable, bad --out
        print(f"MM-ERR: {e}", file=sys.stderr)
        return (2 if isinstance(e, ParameterError)
                else 4 if isinstance(e, NumericalAbort) else 3)


if __name__ == "__main__":
    sys.exit(main())
