"""Self-check of the benchmark's exact counts and metric list.

    python3 perfbench/check_counts.py [--seed 0]

Runs `run.py --trace 1` twice on every workload and fails unless every
count metric (calls, tape nodes, computed MACs and im2col bytes, bytes
read, set-up calls) is identical between the two runs, unless
`nets.model_forward.calls` is 2 per step on train-mm and 1 on train-sup1,
and unless both runs pass their output checks. It also checks that
BENCHMARK.json lists exactly the metrics run.py reports.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads as wl

COUNT_UNITS = ("count/unit", "B/unit", "MAC_calc/unit", "B_calc/unit")
# Collector activity depends on allocation timing, not only on the code.
NOT_EXACT = {"autodiff.gc.gen2_collections", "autodiff.gc.collected"}
FORWARDS_PER_STEP = {"train-mm": 2.0, "train-sup1": 1.0}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_benchmark_json(errors: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    if listed != set(run.END_TO_END):
        errors.append(f"BENCHMARK.json end_to_end {sorted(listed)} != "
                      f"run.py {sorted(run.END_TO_END)}")
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    reported = {row[:3] for row in run.PER_LAYER}
    if listed != reported:
        errors.append(f"BENCHMARK.json per_layer differs from run.py: "
                      f"{sorted(listed ^ reported)}")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    errors: list[str] = []
    check_benchmark_json(errors)
    for workload in wl.WORKLOADS:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        for res in (first, second):
            if not res["correct"]:
                errors.append(f"{workload}: a run failed its output checks")
        counts = [name for name, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS and name not in NOT_EXACT]
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} {a} then {b}")
        forwards = first["metrics"]["nets.model_forward.calls"]["value"]
        if (workload in FORWARDS_PER_STEP
                and forwards != FORWARDS_PER_STEP[workload]):
            errors.append(f"{workload}: {forwards} forward passes per step")
        print(f"{workload}: {len(counts)} counts compared", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
