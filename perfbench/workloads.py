"""Workload definitions: inputs are made from the seed, and every setting
is pinned here rather than taken from a package default.

train-mm    the acceptance semi-supervised setup through `training.train`:
            MM, width 8, 32x32 tubes at noise 0.8, 4 labelled slices with
            flip + noise 0.2, 4 x 32 unlabelled slices, alpha 0.05 with
            warm-up, lr 1e-3, batch 1.
train-sup1  the same data and settings, Sup1 variant, no unlabelled
            stream, through `cli.run_training`.
eval-calibrate
            `mismatch eval` and `mismatch calibrate` through `cli.main` on
            the test split of a 64x64 blobs data set; the checkpoint comes
            from a short MM `mismatch train` run on fixed-seed data, made
            during set-up.

Each workload has a primary part, which is timed in a loop and traced,
and a secondary part, which supplies the end-to-end metrics the primary
part does not produce: train workloads evaluate and calibrate their
averaged checkpoint on the test split; eval-calibrate takes its training
metrics from the set-up training.
"""

from __future__ import annotations

import os

WORKLOADS = ("train-mm", "train-sup1", "eval-calibrate")

# BLAS threads for every process of the benchmark, at most nproc.
BLAS_THREADS = "1"

TUBE_SIZE = 32
TUBE_NOISE = 0.8
LABELLED_CASE_SLICES = 8
UNLABELLED_CASES = 4
UNLABELLED_CASE_SLICES = 32
TEST_CASES = 5
TEST_CASE_SLICES = 8

# Every key `cli.DEFAULT_CONFIG` has, pinned, so that a changed package
# default cannot silently change a workload.
COMMON_CONFIG = {
    "model.channels": "8",
    "model.in_channels": "1",
    "train.lr": "0.001",
    "train.batch_size": "1",
    "loss.alpha_max": "0.05",
    "loss.warmup_fraction": "0.2",
    "loss.alpha_schedule": "warmup",
    "loss.dice_smooth": "1.0",
    "loss.consistency_mode": "symmetric",
    "data.labelled_slices": "4",
    "data.augment_noise": "0.2",
}

# 2 epochs x 128 unlabelled steps: the first epoch alone is dominated by
# the process's memory growth, which makes the step-time tail unsteady.
MM_CONFIG = {**COMMON_CONFIG, "train.epochs": "2", "train.save_last_k": "2"}

# 160 epochs x 4 labelled steps; a snapshot every 4 steps, the last 40
# averaged. Supervised arms carry no consistency term.
SUP1_CONFIG = {**COMMON_CONFIG, "loss.alpha_max": "0", "train.epochs": "160",
               "train.save_last_k": "40"}

# eval-calibrate: the evaluated data set comes from the workload seed. The
# checkpoint is a fixture: a set-up MM training run on 32x32 blobs (48
# unlabelled steps per epoch) from a fixed seed, so that the quality of
# the evaluated model does not vary from seed to seed; a fully
# convolutional model evaluates at 64x64 unchanged.
EVAL_DATA = {"kind": "blobs", "cases": 10, "slices": 16, "size": 64,
             "noise_sigma": 0.8}
CKPT_DATA = {"kind": "blobs", "cases": 10, "slices": 16, "size": 32,
             "noise_sigma": 0.8}
CKPT_SEED = 0
CKPT_CONFIG = {**COMMON_CONFIG, "train.epochs": "1", "train.save_last_k": "1"}

RELIABILITY_BINS = 10


def full_config(config: dict[str, str], seed: int) -> dict[str, str]:
    """The command line's defaults overridden by a pinned config and the
    seed; keys the package adds later keep their defaults."""
    from mismatch import cli
    return {**cli.DEFAULT_CONFIG, **config, "train.seed": str(seed)}


def gen_data_argv(spec: dict, seed: int, out: str) -> list[str]:
    return ["gen-data", "--kind", spec["kind"], "--cases", str(spec["cases"]),
            "--slices", str(spec["slices"]), "--size", str(spec["size"]),
            "--noise-sigma", str(spec["noise_sigma"]), "--seed", str(seed),
            "--out", out]


def set_args(config: dict[str, str]) -> list[str]:
    out = []
    for key in sorted(config):
        out += ["--set", f"{key}={config[key]}"]
    return out


def tube_caseset(seed: int):
    """The acceptance layout: one labelled case, four unlabelled, five
    test cases, each drawn from its own child seed."""
    from mismatch import data

    def case(key, slices, case_id, labelled=False):
        return data.gen_synthetic_case([seed, key], "tubes", slices, TUBE_SIZE,
                                       TUBE_NOISE, case_id=case_id,
                                       labelled=labelled)

    cases = [case(100, LABELLED_CASE_SLICES, "lab0", labelled=True)]
    split = {"labelled_train": [0], "unlabelled_train": [], "test": []}
    for k in range(UNLABELLED_CASES):
        split["unlabelled_train"].append(len(cases))
        cases.append(case(200 + k, UNLABELLED_CASE_SLICES, f"un{k}"))
    for k in range(TEST_CASES):
        split["test"].append(len(cases))
        cases.append(case(300 + k, TEST_CASE_SLICES, f"test{k}"))
    return data.CaseSet(cases=cases, split=split).validate()


def data_dir(work: str) -> str:
    return os.path.join(work, "data")


def manifest_path(work: str) -> str:
    return os.path.join(data_dir(work), "manifest.txt")
