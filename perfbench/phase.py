"""One measured process of the benchmark.

    python3 perfbench/phase.py SPEC.json

SPEC.json names the workload, seed, run length, mode and work directory;
the process writes its measurements as JSON to the spec's `result` path.
Modes:

timed        the workload's primary part in a closed loop until the run
             length is spent (at least once), untraced, then the
             secondary part and the output checks; reports peak RSS.
traced       the primary part once under the tracer; reports spans,
             counts and the output hashes to compare with `timed`.
setup-train  eval-calibrate's set-up: one `mismatch train` run that
             writes the checkpoint the workload evaluates.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

from mismatch import cli, data, metrics, nets, training  # noqa: E402
from mismatch.autodiff import Tensor  # noqa: E402
from mismatch.errors import NumericalAbort  # noqa: E402

import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import GcWatch, Tracer  # noqa: E402


class Outcome:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def merge(self, other: dict) -> None:
        """Add another process's attempted, failed and failures."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures += other["failures"]


class StepClock:
    """Stamps the start of each labelled `next_batch` call: the training
    loop draws exactly one labelled batch per optimisation step. The
    speed probe samples at these step boundaries."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.stamps: list[float] = []

    def __enter__(self) -> "StepClock":
        self._orig = orig = data.SliceStream.next_batch
        stamps, probe = self.stamps, self.probe

        def next_batch(stream):
            t = time.perf_counter()
            batch = orig(stream)
            if batch[1] is not None:
                stamps.append(t)
                probe.maybe_sample()
            return batch

        data.SliceStream.next_batch = next_batch
        return self

    def __exit__(self, *exc):
        data.SliceStream.next_batch = self._orig
        return False


@contextlib.contextmanager
def sampling_before(owner, attr: str, probe: SpeedProbe):
    """Let the speed probe sample before each call of owner.attr."""
    orig = getattr(owner, attr)

    def sampled(*args, **kwargs):
        probe.sample()
        return orig(*args, **kwargs)

    setattr(owner, attr, sampled)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


class Intervals:
    """Measured intervals, each kept as wall time less probe sampling and
    as the same scaled to nominal machine speed."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []

    def add(self, t0: float, t1: float) -> None:
        self.raw_s.append(t1 - t0 - self.probe.sampled_s(t0, t1))
        self.scaled_s.append(self.probe.scaled_s(t0, t1))

    def as_dict(self) -> dict:
        return {"raw_s": self.raw_s, "scaled_s": self.scaled_s}


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# training reps (primary part of the train workloads)

def mm_rep(seed: int, work: str, out_dir: str) -> None:
    """The acceptance SSL arm through `training.train`, written out the way
    `cli.run_training` writes an arm."""
    cfg = {**wl.full_config(wl.MM_CONFIG, seed), "model.variant": "MM"}
    tc = cli.train_config_from(cfg)
    caseset = data.load_caseset(wl.manifest_path(work))
    caseset.cases = [data.casewise_normalize(c) for c in caseset.cases]
    augment = data.AugmentConfig(flip=True,
                                 noise_sigma=float(cfg["data.augment_noise"]))
    labelled, unlabelled = data.make_streams(
        caseset, int(cfg["data.labelled_slices"]), tc.seed, tc.batch_size,
        labelled_augment=augment)
    model = nets.init_params("MM", tc.channels, tc.in_channels, seed=tc.seed)
    final, averaged, history = training.train(tc, model, labelled, unlabelled)
    os.makedirs(out_dir, exist_ok=True)
    training.write_history_csv(os.path.join(out_dir, "history.csv"), history,
                               cli.echo_lines(cfg))
    training.save_checkpoint(os.path.join(out_dir, "final.ckpt"), final, cfg)
    training.save_checkpoint(os.path.join(out_dir, "averaged.ckpt"), averaged,
                             cfg)


def sup1_rep(seed: int, work: str, out_dir: str) -> None:
    cli.run_training("Sup1", wl.full_config(wl.SUP1_CONFIG, seed),
                     wl.manifest_path(work), out_dir)


TRAIN_REPS = {"train-mm": mm_rep, "train-sup1": sup1_rep}
# eval + calibrate pairs of the train workloads' secondary part; each
# command is short, so their medians need many.
SECONDARY_PAIRS = 10


def check_history(path, outcome: Outcome) -> dict:
    """One attempted operation per step: its losses must be finite."""
    rows = training.read_history_csv(path)
    for r in rows:
        outcome.check(all(map(math.isfinite, (r.dice1, r.dice2, r.consistency,
                                              r.total))),
                      f"non-finite loss at step {r.step}")
    last = rows[-1].epoch if rows else -1
    last_totals = [r.total for r in rows if r.epoch == last]
    return {"steps": len(rows),
            "final_loss": statistics.fmean(last_totals) if last_totals else
            float("nan")}


def run_train_rep(rep, seed, work, out_dir, outcome):
    """Returns False when training aborted (counted as a failed step)."""
    try:
        rep(seed, work, out_dir)
    except NumericalAbort as e:
        outcome.check(False, f"training aborted: {e}")
        return False
    return True


def train_primary(spec: dict, outcome: Outcome, probe: SpeedProbe,
                  tracer: Tracer | None = None) -> dict:
    """Training reps until the run length is spent (one rep when traced).
    Every rep must reproduce the first one's history and checkpoint."""
    rep = TRAIN_REPS[spec["workload"]]
    seed, work = spec["seed"], spec["work"]
    out_dir = os.path.join(work, spec["mode"])
    steps, reps, outputs = Intervals(probe), Intervals(probe), []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        gcw = stack.enter_context(GcWatch())
        clock = stack.enter_context(StepClock(probe))
        start = time.perf_counter()
        while True:
            first = len(clock.stamps)
            t0 = time.perf_counter()
            ok = run_train_rep(rep, seed, work, out_dir, outcome)
            t1 = time.perf_counter()
            if not ok:
                break
            reps.add(t0, t1)
            rep_stamps = clock.stamps[first:]
            hist = check_history(os.path.join(out_dir, "history.csv"), outcome)
            outputs.append({"history": sha256(os.path.join(out_dir,
                                                           "history.csv")),
                            "averaged": sha256(os.path.join(out_dir,
                                                            "averaged.ckpt")),
                            **hist})
            probe.sample()
            for a, b in zip(rep_stamps, rep_stamps[1:]):
                steps.add(a, b)
            if tracer is not None:
                break
            if (t1 - start) + 0.5 * statistics.fmean(reps.raw_s) >= \
                    spec["seconds"]:
                break
    for o in outputs[1:]:
        outcome.check(o["history"] == outputs[0]["history"]
                      and o["averaged"] == outputs[0]["averaged"],
                      "repeated training run gave different outputs")
    return {
        "step_times": steps.as_dict(), "rep_times": reps.as_dict(),
        "outputs": outputs,
        "units": sum(o["steps"] for o in outputs), "gc": gcw.totals(),
        "checkpoint": os.path.join(out_dir, "averaged.ckpt"),
        "manifest": wl.manifest_path(work),
    }


# ---------------------------------------------------------------------------
# eval / calibrate commands

def run_command(kind: str, checkpoint, manifest, out_dir,
                outcome: Outcome) -> tuple[float, float]:
    argv = [kind, "--checkpoint", checkpoint, "--data", manifest,
            "--split", "test", "--bins", str(wl.RELIABILITY_BINS),
            "--out", out_dir]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    t1 = time.perf_counter()
    outcome.check(rc == 0, f"mismatch {kind} exited with {rc}")
    return t0, t1


def test_slices(manifest) -> tuple[int, int, int]:
    caseset = data.load_caseset(manifest)
    cases = caseset.cases_in("test")
    n = sum(c.image.shape[0] for c in cases)
    return n, cases[0].image.shape[2], cases[0].image.shape[3]


def check_eval_outputs(checkpoint, manifest, eval_dir, cal_dir, outcome):
    """metrics.csv IoU against a recompute with `metrics.iou`, and the
    pooled reliability bins of every head against slices x H x W."""
    (row,) = metrics.read_metrics_csv(os.path.join(eval_dir, "metrics.csv"))
    model, _ = training.load_model(checkpoint)
    caseset = data.load_caseset(manifest)
    ious = []
    for case in caseset.cases_in("test"):
        case = data.casewise_normalize(case)
        probs = nets.model_forward(model, Tensor(case.image.astype(np.float32)))
        avg = nets.average_prediction(probs).data
        for s in range(case.image.shape[0]):
            ious.append(metrics.iou(metrics.binarize(avg[s, 0]),
                                    case.mask[s, 0]))
    recomputed = float(metrics.fmt_float(float(np.mean(ious))))
    outcome.check(recomputed == row.iou,
                  f"metrics.csv iou {row.iou} != recomputed {recomputed}")
    n, h, w = test_slices(manifest)
    heads = ["p"] if len(model.decoders) == 1 else ["p1", "p2", "avg"]
    for head in heads:
        bins = metrics.read_reliability_csv(
            os.path.join(cal_dir, f"reliability_pooled_{head}.csv"))
        outcome.check(int(bins.counts.sum()) == n * h * w,
                      f"pooled {head} bins hold {int(bins.counts.sum())} "
                      f"pixels, expected {n * h * w}")
    return {"test_iou": row.iou, "pooled_ece": row.ece}


def csv_hashes(*dirs) -> dict[str, str]:
    out = {}
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".csv"):
                out[f"{os.path.basename(d)}/{name}"] = sha256(
                    os.path.join(d, name))
    return out


def eval_loop(checkpoint, manifest, out_root, outcome: Outcome,
              probe: SpeedProbe, seconds: float, min_each: int):
    """Alternate eval and calibrate until `seconds` are spent and each ran
    at least `min_each` times. The probe samples before each case's
    forward pass."""
    dirs = {kind: os.path.join(out_root, kind)
            for kind in ("eval", "calibrate")}
    times = {kind: Intervals(probe) for kind in dirs}
    spans = []
    with sampling_before(cli, "model_forward", probe):
        start = time.perf_counter()
        while True:
            for kind, d in dirs.items():
                spans.append((kind, *run_command(kind, checkpoint, manifest,
                                                 d, outcome)))
            spent = time.perf_counter() - start
            pairs = len(spans) // 2
            if pairs >= min_each and spent * (1 + 0.5 / pairs) >= seconds:
                break
    probe.sample()
    for kind, t0, t1 in spans:
        times[kind].add(t0, t1)
    return ({kind: t.as_dict() for kind, t in times.items()}, dirs["eval"],
            dirs["calibrate"])


# ---------------------------------------------------------------------------
# modes

def eval_inputs(spec: dict) -> tuple[str, str]:
    return (os.path.join(spec["work"], "ckpt", "averaged.ckpt"),
            wl.manifest_path(spec["work"]))


def mode_timed(spec: dict) -> dict:
    outcome = Outcome()
    probe = SpeedProbe()
    if spec["workload"] in TRAIN_REPS:
        result = train_primary(spec, outcome, probe)
        checkpoint, manifest = result["checkpoint"], result["manifest"]
        result["final_loss"] = (result["outputs"][0]["final_loss"]
                                if result["outputs"] else float("nan"))
        times, eval_dir, cal_dir = eval_loop(
            checkpoint, manifest, os.path.join(spec["work"], "secondary"),
            outcome, probe, 0.0, SECONDARY_PAIRS)
    else:
        checkpoint, manifest = eval_inputs(spec)
        with GcWatch() as gcw:
            times, eval_dir, cal_dir = eval_loop(
                checkpoint, manifest, os.path.join(spec["work"], "timed"),
                outcome, probe, spec["seconds"], 1)
        result = {"units": test_slices(manifest)[0] * (
                      len(times["eval"]["raw_s"])
                      + len(times["calibrate"]["raw_s"])),
                  "gc": gcw.totals(),
                  "outputs": [csv_hashes(eval_dir, cal_dir)]}
    # Peak RSS of the measured work, before the untimed output checks.
    result["peak_rss_mb"] = peak_rss_mb()
    result["commands"] = times
    result["eval_slices"] = test_slices(manifest)[0]
    try:
        result.update(check_eval_outputs(checkpoint, manifest, eval_dir,
                                         cal_dir, outcome))
    except (OSError, ValueError) as e:   # missing or malformed outputs
        outcome.check(False, f"eval outputs unreadable: {e}")
        result.update(test_iou=0.0, pooled_ece=0.0)
    return result | outcome.__dict__


def mode_traced(spec: dict) -> dict:
    """The primary part once under the tracer. `speed_scale` turns the
    spans' wall times into nominal-speed times."""
    outcome = Outcome()
    probe = SpeedProbe()
    tracer = Tracer()
    if spec["workload"] in TRAIN_REPS:
        result = train_primary(spec, outcome, probe, tracer)
        measured = result["rep_times"]
    else:
        checkpoint, manifest = eval_inputs(spec)
        with tracer:
            times, eval_dir, cal_dir = eval_loop(
                checkpoint, manifest, os.path.join(spec["work"], "traced"),
                outcome, probe, 0.0, 1)
        result = {"units": 2 * test_slices(manifest)[0], "commands": times,
                  "outputs": [csv_hashes(eval_dir, cal_dir)]}
        measured = {k: times["eval"][k] + times["calibrate"][k]
                    for k in ("raw_s", "scaled_s")}
    result["speed_scale"] = sum(measured["scaled_s"]) / sum(measured["raw_s"])
    result["spans"] = tracer.summary()
    result["counts"] = dict(tracer.counts)
    return result | outcome.__dict__


def mode_setup_train(spec: dict) -> dict:
    outcome = Outcome()
    probe = SpeedProbe()
    work = spec["work"]
    out_dir = os.path.join(work, "ckpt")
    config = wl.full_config(wl.CKPT_CONFIG, wl.CKPT_SEED)
    argv = ["train", "--variant", "MM", "--data",
            os.path.join(work, "ckpt_data", "manifest.txt"),
            *wl.set_args(config), "--out", out_dir]
    steps, reps = Intervals(probe), Intervals(probe)
    with StepClock(probe) as clock:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
    probe.sample()
    reps.add(t0, t1)
    for a, b in zip(clock.stamps, clock.stamps[1:]):
        steps.add(a, b)
    result = {"step_times": steps.as_dict(), "rep_times": reps.as_dict()}
    if outcome.check(rc == 0, f"mismatch train exited with {rc}"):
        result.update(check_history(os.path.join(out_dir, "history.csv"),
                                    outcome))
    return result | outcome.__dict__


MODES = {"timed": mode_timed, "traced": mode_traced,
         "setup-train": mode_setup_train}


def main(argv: list[str]) -> int:
    with open(argv[0]) as f:
        spec = json.load(f)
    result = MODES[spec["mode"]](spec)
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
