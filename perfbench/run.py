"""The repository benchmark: one workload at one seed, one JSON result.

    python3 perfbench/run.py --workload train-mm --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py): train-mm, train-sup1, eval-calibrate. A run
sets up the workload's inputs several times (set-up time is their
median), runs the workload's timed phase in a fresh process (peak RSS is
that process's own), and checks the outputs. With --trace 1 it also runs
the primary part again in a traced process, compares its outputs
byte for byte with the timed run's and reports per-layer metrics instead
of end-to-end ones. Human-readable lines come first; the last line of
standard output is the JSON result. Everything is written under
.perfbench_work/ in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Whole-run limit for the child processes, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
SETUP_REPS = {"train-mm": 5, "train-sup1": 5, "eval-calibrate": 3}
TRAIN_VARIANT = {"train-mm": "MM", "train-sup1": "Sup1"}

# (name, unit, better) as listed in BENCHMARK.json.
END_TO_END = [
    ("step_ms.p50", "ms", "lower"),
    ("step_ms.p90", "ms", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("eval_slices_per_s", "1/s", "higher"),
    ("calibrate_slices_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("test_iou", "ratio", "higher"),
    ("setup_s", "s", "lower"),
]
# Deterministic for given code but far more seed-dependent than an
# end-to-end bound allows; reported as per-layer metrics (see README.md).
QUALITY = [("final_loss", "loss", "training.final_loss"),
           ("pooled_ece", "ratio", "metrics.pooled_ece")]

OPS = ("conv2d", "instance_norm", "relu", "maxpool2", "upsample_bilinear2",
       "concat_channels", "sigmoid", "add", "mul", "scale", "mse")


def _per_layer():
    """(name, unit, better, source, key). Sources: incl / self / calls of a
    span name and count of a counter in the traced process, per work unit
    (an optimisation step on train workloads, a slice on eval-calibrate);
    gc from the timed process per work unit; setup from one traced set-up,
    per set-up; overhead is traced minus untraced time per work unit."""
    rows = []
    for op in OPS:
        rows += [(f"autodiff.{op}.fwd_ms", "ms/unit", "lower", "incl",
                  f"autodiff.{op}"),
                 (f"autodiff.{op}.bwd_ms", "ms/unit", "lower", "incl",
                  f"bwd.{op}"),
                 (f"autodiff.{op}.calls", "count/unit", "lower", "calls",
                  f"autodiff.{op}")]
    rows += [
        ("autodiff.backward.self_ms", "ms/unit", "lower", "self",
         "autodiff.backward"),
        ("autodiff.tape_nodes", "count/unit", "lower", "count",
         "autodiff.tape_nodes"),
        ("autodiff.conv2d.macs", "MAC_calc/unit", "lower", "count",
         "autodiff.conv2d.macs"),
        ("autodiff.conv2d.im2col_bytes", "B_calc/unit", "lower", "count",
         "autodiff.conv2d.im2col_bytes"),
        ("autodiff.gc.gen2_collections", "count/unit", "lower", "gc",
         "gen2_collections"),
        ("autodiff.gc.pause_ms", "ms/unit", "lower", "gc", "pause_ms"),
        ("autodiff.gc.collected", "count/unit", "lower", "gc", "collected"),
        ("nets.encoder_forward.ms", "ms/unit", "lower", "incl",
         "nets.encoder_forward"),
        ("nets.decoder_forward.ms", "ms/unit", "lower", "incl",
         "nets.decoder_forward"),
        ("nets.standard_block.ms", "ms/unit", "lower", "incl",
         "nets.standard_block"),
        ("nets.pasb.ms", "ms/unit", "lower", "incl", "nets.pasb"),
        ("nets.nasb.ms", "ms/unit", "lower", "incl", "nets.nasb"),
        ("nets.model_forward.calls", "count/unit", "lower", "calls",
         "nets.model_forward"),
        ("nets.clone_params.ms", "ms/unit", "lower", "incl",
         "nets.clone_params"),
        ("training.adam_step.ms", "ms/unit", "lower", "incl",
         "training.adam_step"),
        ("training.zero_grads.ms", "ms/unit", "lower", "incl",
         "training.zero_grads"),
        ("training.dice_loss.ms", "ms/unit", "lower", "incl",
         "training.dice_loss"),
        ("training.consistency_loss.ms", "ms/unit", "lower", "incl",
         "training.consistency_loss"),
        ("training.backward.ms", "ms/unit", "lower", "incl",
         "autodiff.backward"),
        ("training.average_checkpoints.ms", "ms/unit", "lower", "incl",
         "training.average_checkpoints"),
        ("training.save_checkpoint.ms", "ms/unit", "lower", "incl",
         "training.save_checkpoint"),
        ("training.load_model.ms", "ms/unit", "lower", "incl",
         "training.load_model"),
        ("training.write_history_csv.ms", "ms/unit", "lower", "incl",
         "training.write_history_csv"),
        ("data.next_batch.ms", "ms/unit", "lower", "incl", "data.next_batch"),
        ("data.gen_caseset.ms", "ms/setup", "lower", "setup",
         "data.gen_caseset"),
        ("data.save_caseset.ms", "ms/setup", "lower", "setup",
         "data.save_caseset"),
        ("data.load_caseset.ms", "ms/unit", "lower", "incl",
         "data.load_caseset"),
        ("data.load_caseset.calls", "count/unit", "lower", "calls",
         "data.load_caseset"),
        ("data.read_tensor.bytes", "B/unit", "lower", "count",
         "data.read_tensor.bytes"),
        ("data.casewise_normalize.ms", "ms/unit", "lower", "incl",
         "data.casewise_normalize"),
        ("metrics.reliability_bins.ms", "ms/unit", "lower", "incl",
         "metrics.reliability_bins"),
        ("metrics.iou.ms", "ms/unit", "lower", "incl", "metrics.iou"),
        ("metrics.ece.ms", "ms/unit", "lower", "incl", "metrics.ece"),
        ("metrics.emit_reliability_csv.ms", "ms/unit", "lower", "incl",
         "metrics.emit_reliability_csv"),
        ("metrics.emit_reliability_csv.calls", "count/unit", "lower", "calls",
         "metrics.emit_reliability_csv"),
        ("cli.run_training.ms", "ms/unit", "lower", "incl",
         "cli.run_training"),
        ("cli.evaluate_split.ms", "ms/unit", "lower", "incl",
         "cli.evaluate_split"),
        ("cli.cmd_eval.ms", "ms/unit", "lower", "incl", "cli.cmd_eval"),
        ("cli.cmd_calibrate.ms", "ms/unit", "lower", "incl",
         "cli.cmd_calibrate"),
        ("trace.overhead_ms", "ms/unit", "lower", "overhead", None),
    ]
    rows += [(layer_name, unit, "lower", "quality", name)
             for name, unit, layer_name in QUALITY]
    return rows


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# environment

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = wl.BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "mismatch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# child processes and set-up

def run_child(spec: dict, work: Path, deadline: float, outcome):
    spec_path = work / f"{spec['mode']}.spec.json"
    result_path = work / f"{spec['mode']}.result.json"
    spec = {**spec, "work": str(work), "result": str(result_path)}
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "phase.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{spec['mode']} process exited with "
                           f"{proc.returncode}")
    result = json.loads(result_path.read_text())
    outcome.merge(result)
    return result


def quiet_main(argv: list[str]) -> int:
    from mismatch import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def setup_data(workload: str, seed: int, work: Path, outcome):
    """The in-process part of one set-up: inputs made from the seed."""
    from mismatch import data, nets
    if workload in TRAIN_VARIANT:
        manifest = data.save_caseset(wl.data_dir(str(work)),
                                     wl.tube_caseset(seed))
        caseset = data.load_caseset(manifest)
        caseset.cases = [data.casewise_normalize(c) for c in caseset.cases]
        nets.init_params(TRAIN_VARIANT[workload],
                         int(wl.COMMON_CONFIG["model.channels"]),
                         int(wl.COMMON_CONFIG["model.in_channels"]), seed=seed)
        return
    rc = quiet_main(wl.gen_data_argv(wl.EVAL_DATA, seed,
                                     wl.data_dir(str(work))))
    outcome.check(rc == 0, f"gen-data exited with {rc}")
    rc = quiet_main(wl.gen_data_argv(wl.CKPT_DATA, wl.CKPT_SEED,
                                     str(work / "ckpt_data")))
    outcome.check(rc == 0, f"gen-data exited with {rc}")


def setup(workload, seed, work, deadline, outcome):
    """Set up SETUP_REPS times. Returns the seconds of each set-up, raw and
    at nominal speed, and eval-calibrate's set-up training results."""
    from speed import SpeedProbe
    probe = SpeedProbe()
    spans, trains = [], []
    for _ in range(SETUP_REPS[workload]):
        shutil.rmtree(work / "data", ignore_errors=True)
        probe.sample()
        t0 = time.perf_counter()
        setup_data(workload, seed, work, outcome)
        if workload == "eval-calibrate":
            trains.append(run_child({"mode": "setup-train",
                                     "workload": workload, "seed": seed},
                                    work, deadline, outcome))
        spans.append((t0, time.perf_counter()))
    probe.sample()
    return ({"raw_s": [t1 - t0 - probe.sampled_s(t0, t1) for t0, t1 in spans],
             "scaled_s": [probe.scaled_s(t0, t1) for t0, t1 in spans]},
            trains)


# ---------------------------------------------------------------------------
# metrics

def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def joined(parts: list[dict]) -> dict:
    return {k: [x for p in parts for x in p[k]] for k in ("raw_s", "scaled_s")}


def timing_values(workload, setup_s, trains, timed):
    """Timing metrics from one kind of interval list (raw or scaled)."""
    if workload in TRAIN_VARIANT:
        steps, reps = timed["step_times"], timed["rep_times"]
        n_steps = timed["units"]
    else:
        steps = joined([t["step_times"] for t in trains])
        reps = joined([t["rep_times"] for t in trains])
        n_steps = sum(t["steps"] for t in trains)
    n = timed["eval_slices"]
    cmds = timed["commands"]

    def values(kind):
        steps_ms = [x * 1000.0 for x in steps[kind]]
        return {
            "step_ms.p50": statistics.median(steps_ms),
            "step_ms.p90": p90(steps_ms),
            "train_steps_per_s": n_steps / sum(reps[kind]),
            "eval_slices_per_s": statistics.median(
                n / t for t in cmds["eval"][kind]),
            "calibrate_slices_per_s": statistics.median(
                n / t for t in cmds["calibrate"][kind]),
            "setup_s": statistics.median(setup_s[kind]),
        }

    notes = {
        "step_ms.p50": f"median of {len(steps['raw_s'])} steps",
        "step_ms.p90": f"{len(steps['raw_s'])} steps",
        "train_steps_per_s": f"{n_steps} steps",
        "eval_slices_per_s": f"median of {len(cmds['eval']['raw_s'])} "
                             f"commands x {n} slices",
        "calibrate_slices_per_s": f"median of "
                                  f"{len(cmds['calibrate']['raw_s'])} "
                                  f"commands x {n} slices",
        "setup_s": f"median of {len(setup_s['raw_s'])} set-ups",
    }
    return values("scaled_s"), values("raw_s"), notes


def end_to_end(workload, setup_s, trains, timed, outcome):
    scaled, raw, notes = timing_values(workload, setup_s, trains, timed)
    if workload in TRAIN_VARIANT:
        final_loss = timed["final_loss"]
    else:
        final_loss = trains[-1]["final_loss"]
        outcome.check(len({t["final_loss"] for t in trains}) == 1,
                      "repeated set-up training gave different losses")
    values = {**scaled, "peak_rss_mb": timed["peak_rss_mb"],
              "final_loss": final_loss, "test_iou": timed["test_iou"],
              "pooled_ece": timed["pooled_ece"]}
    return values, raw, notes


def per_layer(workload, timed, traced, setup_spans, end_values):
    units = traced["units"]
    spans, counts = traced["spans"], traced["counts"]
    scale = traced["speed_scale"]
    if workload in TRAIN_VARIANT:
        overhead = 1000.0 * (
            statistics.median(traced["step_times"]["scaled_s"])
            - statistics.median(timed["step_times"]["scaled_s"]))
    else:
        overhead = 1000.0 / timed["eval_slices"] * (
            statistics.median(traced["commands"]["eval"]["scaled_s"])
            - statistics.median(timed["commands"]["eval"]["scaled_s"]))
    values = {}
    for name, _, _, source, key in PER_LAYER:
        if source in ("incl", "self", "calls"):
            s = spans.get(key, {"incl_s": 0.0, "self_s": 0.0, "calls": 0})
            v = {"incl": s["incl_s"] * 1000.0 * scale,
                 "self": s["self_s"] * 1000.0 * scale,
                 "calls": s["calls"]}[source] / units
        elif source == "count":
            v = counts.get(key, 0) / units
        elif source == "gc":
            v = timed["gc"][key] / timed["units"]
        elif source == "setup":
            v = setup_spans.get(key, {"incl_s": 0.0})["incl_s"] * 1000.0
        elif source == "quality":
            v = end_values[key]
        else:
            v = overhead
        values[name] = v
    return values


def compare_outputs(workload, timed, traced, outcome):
    """The traced run must write what the timed run wrote, byte for byte."""
    a, b = timed["outputs"][0], traced["outputs"][0]
    if workload in TRAIN_VARIANT:
        a = {k: a[k] for k in ("history", "averaged")}
        b = {k: b[k] for k in ("history", "averaged")}
    outcome.check(a == b, "traced run's outputs differ from the timed run's")


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mismatch" / "__init__.py").is_file():
        print(f"perfbench: no mismatch package under {SRC}", file=sys.stderr)
        return 2
    for var, value in child_env().items():
        os.environ[var] = value
    # One CPU for the run and every process it starts: the speed probe
    # then samples the core the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from phase import Outcome
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    outcome = Outcome()
    try:
        setup_s, trains = setup(args.workload, args.seed, work, deadline,
                                outcome)
        spec = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds}
        timed = run_child({**spec, "mode": "timed"}, work, deadline, outcome)
        if args.trace:
            from tracer import Tracer
            with Tracer() as tracer:
                setup_data(args.workload, args.seed, work, outcome)
            setup_spans = tracer.summary()
            traced = run_child({**spec, "mode": "traced"}, work, deadline,
                               outcome)
            compare_outputs(args.workload, timed, traced, outcome)
        values, raw, notes = end_to_end(args.workload, setup_s, trains,
                                        timed, outcome)
        if args.trace:
            layer_values = per_layer(args.workload, timed, traced,
                                     setup_spans, values)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    values["ok_ratio"] = 1.0 - outcome.failed / outcome.attempted
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for name, unit in [m[:2] for m in END_TO_END + QUALITY]:
        note = ""
        if name in raw:
            note = f"  (wall clock {raw[name]:.6g}; {notes[name]})"
        print(f"{name} {values[name]:.6g} {unit}{note}")
    if args.trace:
        units = "steps" if args.workload in TRAIN_VARIANT else "slices"
        print(f"per-layer metrics are per work unit: {traced['units']} "
              f"{units} traced")
        reported = {name: {"value": layer_values[name], "unit": unit}
                    for name, unit, _, _, _ in PER_LAYER}
    else:
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
