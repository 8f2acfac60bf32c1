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
from dataclasses import replace

import numpy as np

from .autodiff import Tensor
from .data import (AugmentConfig, CaseSet, casewise_normalize, gen_caseset,
                   load_caseset, make_streams, save_caseset)
from .errors import (ConfigError, MisMatchError, NumericalAbort,
                     ParameterError)
from .metrics import (MetricsRow, binarize, ece, emit_metrics_csv,
                      emit_reliability_csv, fmt_float, iou, reliability_bins,
                      write_table)
from . import nets
from .nets import average_prediction, init_params, model_forward
from .training import (CONFIG_FIELDS, TrainConfig, echo_value, load_model,
                       parse_config_value, save_checkpoint, train,
                       write_history_csv)

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
    caseset = load_caseset(manifest)
    caseset.cases = [casewise_normalize(c) for c in caseset.cases]
    return caseset


def run_training(variant: str, cfg: dict[str, str], manifest, out_dir):
    """Train one arm and write final.ckpt, averaged.ckpt and history.csv."""
    spec = nets.variant_spec(variant)
    tc = train_config_from(cfg)  # every key is checked, for every arm
    cfg = dict(cfg)
    if not spec.semi_supervised:
        cfg["loss.alpha_max"] = "0"  # supervised arms carry no consistency
        tc = replace(tc, alpha_max=0.0)
    cfg["model.variant"] = variant

    caseset = _load_normalized(manifest)
    augment = AugmentConfig(
        flip=spec.augment_flip,
        noise_sigma=tc.augment_noise if spec.augment_noise else 0.0)
    labelled, unlabelled = make_streams(
        caseset, tc.labelled_slices, tc.seed, tc.batch_size,
        labelled_augment=augment)
    if not spec.semi_supervised:
        unlabelled = None
    if unlabelled is None and spec.semi_supervised:
        raise ConfigError(f"variant {variant} needs an unlabelled_train split")

    # an unusable out_dir fails here, not after the whole training run
    os.makedirs(out_dir, exist_ok=True)
    model = init_params(variant, tc.channels, tc.in_channels, seed=tc.seed)
    final, averaged, history = train(tc, model, labelled, unlabelled)

    comments = echo_lines(cfg)
    write_history_csv(os.path.join(out_dir, "history.csv"), history, comments)
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), final, cfg)
    save_checkpoint(os.path.join(out_dir, "averaged.ckpt"), averaged, cfg)
    return {
        "final": os.path.join(out_dir, "final.ckpt"),
        "averaged": os.path.join(out_dir, "averaged.ckpt"),
        "history": os.path.join(out_dir, "history.csv"),
        "config": cfg,
    }


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
    image = case.image.astype(np.float32)
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
    if len(probs) == 1:
        return {"p": probs[0].data}
    return {"p1": probs[0].data, "p2": probs[1].data,
            "avg": average_prediction(probs).data}


def _split_cases(caseset: CaseSet, split: str) -> list:
    """The cases of `split`; an unknown or empty split is a ConfigError."""
    cases = caseset.cases_in(split)
    if not cases:
        raise ConfigError(f"split {split!r} is empty")
    return cases


def _slice_label(case, s: int) -> str:
    return f"{case.case_id}_s{s:03d}"


def evaluate_split(model, caseset: CaseSet, split: str, m_bins: int = 10):
    """Per-slice IoU/ECE on the averaged head plus pooled calibration.

    Returns (per_slice rows, mean_iou, std_iou, pooled_ece).
    """
    eval_head = _head_names(model)[-1]
    rows = []
    pooled_p, pooled_g = [], []
    for case in _split_cases(caseset, split):
        probs = _case_probs(model, case)[eval_head]
        for s in range(case.image.shape[0]):
            p = probs[s, 0]
            g = case.mask[s, 0]
            slice_iou = iou(binarize(p), g)
            slice_ece = ece(reliability_bins(p, g, m_bins))
            rows.append((_slice_label(case, s), slice_iou, slice_ece))
            pooled_p.append(p.ravel())
            pooled_g.append(g.ravel())
    ious = np.array([r[1] for r in rows])
    pooled = reliability_bins(np.concatenate(pooled_p),
                              np.concatenate(pooled_g), m_bins)
    return rows, float(ious.mean()), float(ious.std()), ece(pooled)


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
    out = run_training(args.variant, cfg, args.data, args.out)
    print(out["averaged"])
    return 0


def cmd_eval(args) -> int:
    model, echo = load_model(args.checkpoint)
    seed = echo_value({**DEFAULT_CONFIG, **echo}, "train.seed")
    caseset = _load_normalized(args.data)
    _split_cases(caseset, args.split)  # a bad split leaves no --out behind
    os.makedirs(args.out, exist_ok=True)
    rows, mean_iou, std_iou, pooled_ece = evaluate_split(
        model, caseset, args.split, args.bins)

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
    caseset = _load_normalized(args.data)
    cases = _split_cases(caseset, args.split)
    heads = _head_names(model)
    comments = echo_lines(echo)
    os.makedirs(args.out, exist_ok=True)

    pooled: dict[str, list[np.ndarray]] = {h: [] for h in heads}
    pooled_gt: list[np.ndarray] = []
    summary: list[tuple[str, str, float]] = []
    # every forward runs, and may abort, before the first file is written
    case_probs = [_case_probs(model, case) for case in cases]
    for case, probs in zip(cases, case_probs):
        for s in range(case.image.shape[0]):
            g = case.mask[s, 0].ravel()
            pooled_gt.append(g)
            for h in heads:
                p = probs[h][s, 0].ravel()
                pooled[h].append(p)
                bins = reliability_bins(p, g, args.bins)
                label = _slice_label(case, s)
                fname = f"reliability_{label}_{h}.csv"
                emit_reliability_csv(bins, os.path.join(args.out, fname),
                                     comments)
                summary.append((label, h, ece(bins)))

    gt_all = np.concatenate(pooled_gt)
    pooled_rows = []
    for h in heads:
        bins = reliability_bins(np.concatenate(pooled[h]), gt_all, args.bins)
        emit_reliability_csv(
            bins, os.path.join(args.out, f"reliability_pooled_{h}.csv"),
            comments)
        pooled_rows.append(("pooled", h, ece(bins)))

    write_table(os.path.join(args.out, "calibration.csv"),
                {"scope": str, "head": str, "ece": float},
                pooled_rows + summary, comments)
    print(os.path.join(args.out, "calibration.csv"))
    return 0


def cmd_sweep_alpha(args) -> int:
    tokens = [t.strip() for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise ParameterError("--values needs at least one alpha")
    for t in tokens:
        try:
            TrainConfig(alpha_max=parse_config_value("loss.alpha_max", t)
                        ).validate()
        except ConfigError as e:
            raise ParameterError(f"bad alpha value {t!r}: {e}") from None
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ParameterError(f"--seeds expects comma-separated integers, "
                             f"got {args.seeds!r}") from None
    if not seeds:
        raise ParameterError("--seeds needs at least one seed")
    base_cfg = merge_config(args.config, args.set)
    if args.labelled_slices is not None:
        base_cfg["data.labelled_slices"] = str(args.labelled_slices)

    caseset = _load_normalized(args.data)
    results = {}
    for token in tokens:
        for seed in seeds:
            cfg = dict(base_cfg)
            cfg["loss.alpha_max"] = token
            cfg["train.seed"] = str(seed)
            out_dir = os.path.join(args.out, f"alpha_{token}", f"seed_{seed}")
            paths = run_training(args.variant, cfg, args.data, out_dir)
            model, _ = load_model(paths["averaged"])
            _, mean_iou, _, _ = evaluate_split(model, caseset, "test",
                                               args.bins)
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
    s.add_argument("--variant", choices=sorted(nets.VARIANTS), default="MM")
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
    except ParameterError as e:
        print(f"MM-ERR: {e}", file=sys.stderr)
        return 2
    except NumericalAbort as e:
        print(f"MM-ERR: {e}", file=sys.stderr)
        return 4
    except MisMatchError as e:
        print(f"MM-ERR: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # unreadable inputs, unusable --out paths
        print(f"MM-ERR: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
