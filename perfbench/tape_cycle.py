"""Tape-lifetime baseline on the train-mm workload.

    python3 perfbench/tape_cycle.py --seed 0

Runs the train-mm training part twice, each in a fresh process: as the
benchmark runs it, and with a full `gc.collect()` before every step. Each
step's tape stays alive through the reference cycle Tape -> _Node ->
output Tensor -> Tape until a generation-2 collection finds it, so the
plain run's peak RSS is mostly dead tapes. Prints one JSON object: peak
RSS and median step time of both runs, and whether their history and
averaged checkpoint are byte-identical (they must be: collecting earlier
frees memory and changes no arithmetic). README.md quotes the result as
the baseline a tape-lifetime change claims against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run

VARIANTS = ("plain", "collect_each_step")


def child(variant: str, seed: int, work: str) -> dict:
    import gc

    import phase
    outcome = phase.Outcome()
    spec = {"workload": "train-mm", "seed": seed, "work": work,
            "mode": variant, "seconds": 0.0}
    if variant == "collect_each_step":
        orig = phase.data.SliceStream.next_batch

        def next_batch(stream):
            gc.collect()
            return orig(stream)

        phase.data.SliceStream.next_batch = next_batch
    primary = phase.train_primary(spec, outcome, phase.SpeedProbe())
    out = primary["outputs"][0] if primary["outputs"] else {}
    return {"peak_rss_mb": phase.peak_rss_mb(),
            "step_ms_p50": 1000.0 * statistics.median(
                primary["step_times"]["scaled_s"]),
            "steps": primary["units"], "history": out.get("history"),
            "averaged": out.get("averaged"), "failed": outcome.failed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--child", choices=VARIANTS, help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seed, args.work)))
        return 0

    env = run.child_env()
    os.environ.update(env)
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".perfbench_work" / f"tape-cycle-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        from phase import Outcome
        run.setup_data("train-mm", args.seed, work, Outcome())
        results = {}
        for variant in VARIANTS:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", variant, "--seed",
                 str(args.seed), "--work", str(work)],
                env=env, capture_output=True, text=True, timeout=600,
                check=True)
            results[variant] = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain, collect = (results[v] for v in VARIANTS)
    print(json.dumps({
        "workload": "train-mm", "seed": args.seed,
        "date": time.strftime("%Y-%m-%d"),
        "identical_outputs": (plain["history"] == collect["history"]
                              and plain["averaged"] == collect["averaged"]),
        **{v: {k: results[v][k] for k in ("peak_rss_mb", "step_ms_p50",
                                          "steps", "failed")}
           for v in VARIANTS},
        "env": run.environment()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
